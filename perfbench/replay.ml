(* Host cost of a sans-I/O protocol core, measured by replaying the
   (input, effects) stream an agent's I/O tap records through
   [Core.handle] alone, on a shadow core.

   Steps are replayed in chunks as they arrive, so memory stays bounded
   however long the run is; the shadow core keeps its state across
   chunks, so the result is the same as replaying the whole log at the
   end.  Each chunk's replay is timed and its allocation counted, and
   every replayed effect list is compared with the recorded one. *)

type ('i, 'e) t = {
  handle : 'i -> 'e list;  (** [Core.handle] on the shadow core *)
  span : (unit -> unit) -> unit;  (** host span around one chunk's replay *)
  chunk : int;
  mutable log : ('i * 'e list) list;  (** newest first *)
  mutable logged : int;
  mutable inputs : int;
  mutable host_s : float;
  mutable words : float;
  mutable diverged : int;  (** steps whose replayed effects differ *)
  mutable first_divergence : int option;  (** its step index *)
}

let create ?(chunk = 4096) ?(span = fun f -> f ()) handle =
  {
    handle;
    span;
    chunk;
    log = [];
    logged = 0;
    inputs = 0;
    host_s = 0.0;
    words = 0.0;
    diverged = 0;
    first_divergence = None;
  }

let flush t =
  if t.logged > 0 then begin
    let steps = Array.of_list (List.rev t.log) in
    t.log <- [];
    t.logged <- 0;
    let out = Array.make (Array.length steps) [] in
    t.span (fun () ->
        let w0 = Gc.minor_words () and t0 = Unix.gettimeofday () in
        Array.iteri (fun i (input, _) -> out.(i) <- t.handle input) steps;
        t.host_s <- t.host_s +. (Unix.gettimeofday () -. t0);
        t.words <- t.words +. (Gc.minor_words () -. w0));
    Array.iteri
      (fun i (_, effs) ->
        (* [compare], not [=]: a NaN inside an effect still equals itself. *)
        if compare out.(i) effs <> 0 then begin
          t.diverged <- t.diverged + 1;
          if t.first_divergence = None then t.first_divergence <- Some (t.inputs + i)
        end)
      steps;
    t.inputs <- t.inputs + Array.length steps
  end

(* The I/O tap: [Agent.set_io_tap agent (record t)]. *)
let record t input effs =
  t.log <- (input, effs) :: t.log;
  t.logged <- t.logged + 1;
  if t.logged >= t.chunk then flush t

(* Gate: every effect list reproduced, and the shadow core ends in the
   live core's state. *)
let check ~what t ~live_fingerprint ~shadow_fingerprint =
  flush t;
  (match t.first_divergence with
  | None -> []
  | Some step -> [ Printf.sprintf "%s: %d replayed steps diverged (first at step %d)" what t.diverged step ])
  @
  if String.equal live_fingerprint (shadow_fingerprint ()) then []
  else [ Printf.sprintf "%s: replayed core state differs from the live core" what ]
