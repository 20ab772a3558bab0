(* Thin interpreter over {!Core}: samples the environment, feeds inputs,
   and executes the emitted effects against the real engine — transport
   sends, store transforms, telemetry, the caller's durability
   continuation.  All protocol logic lives in the sans-I/O core. *)

module Metrics = Zeus_telemetry.Metrics
module Tspan = Zeus_telemetry.Trace
module Hub = Zeus_telemetry.Hub
module Transport = Zeus_net.Transport
module Service = Zeus_membership.Service
module View = Zeus_membership.View
module Effect_stack = Zeus_sim.Effect_stack
open Zeus_store

type callbacks = {
  on_freed : Types.key -> unit;
  recovery_drained : epoch:int -> unit;
}

type t = {
  core : Core.state;
  node : Types.node_id;
  table : Table.t;
  membership : Service.t;
  cb : callbacks;
  transport : Transport.t;
  mutable durables : (int, unit -> unit) Hashtbl.t array;
      (* per thread, by slot: the [on_durable] continuations *)
  effs : Core.eff Effect_stack.t;
  spans : (int, Tspan.span) Hashtbl.t;  (* span token -> live span *)
  mutable span_parent : Tspan.span;
  metrics : Metrics.t;
  tspans : Tspan.t;
  c_started : Metrics.Counter.h;
  c_durable : Metrics.Counter.h;
  c_replays : Metrics.Counter.h;
  mutable io_tap : (Core.input -> Core.eff list -> unit) option;
  mutable last_env : Core.env;
}

let node t = t.node
let commits_started t = Metrics.Counter.get t.c_started
let commits_durable t = Metrics.Counter.get t.c_durable
let replays_started t = Metrics.Counter.get t.c_replays
let metrics t = t.metrics
let inflight t = Core.inflight t.core
let stored_invs t = Core.stored_invs t.core
let buffered_invs t = Core.buffered_invs t.core
let set_io_tap t f = t.io_tap <- Some f
let core_fingerprint t = Core.fingerprint t.core

(* ---------- runtime sampling --------------------------------------------- *)

(* The environment changes only at view changes and tracing toggles, so
   the last sampled record is reused while every field still matches. *)
let env t =
  let epoch = Service.epoch_at t.membership t.node in
  let live = (Service.node_view t.membership t.node).View.live in
  let trace_on = Tspan.enabled t.tspans in
  let e = t.last_env in
  if e.Core.epoch = epoch && e.Core.live == live && e.Core.trace_on = trace_on then e
  else begin
    let e = { Core.epoch; live; trace_on } in
    t.last_env <- e;
    e
  end

(* ---------- effect execution --------------------------------------------- *)

(* Reliably committed: validate unchanged objects locally, finish freed
   ones, and release the pipelining guard ([pending_rc]). *)
let validate_local t writes =
  List.iter
    (fun (u : Txn.update) ->
      match Table.find t.table u.key with
      | Some obj ->
        obj.Obj.pending_rc <- obj.Obj.pending_rc - 1;
        if obj.Obj.t_version = u.version then begin
          if u.freed then begin
            Table.remove t.table u.key;
            t.cb.on_freed u.key
          end
          else obj.Obj.t_state <- Types.T_valid
        end
      | None -> ())
    writes

(* Apply the writes of an R-INV version-monotonically (§5.1).  Receiving an
   R-INV for an object we do not store means the coordinator just made us a
   reader of it (object creation, §7 malloc) — install it.  Replays never
   install: a reader that was reliably removed must not resurrect. *)
let apply_writes t ~install writes =
  List.iter
    (fun (u : Txn.update) ->
      match Table.find t.table u.key with
      | Some obj ->
        if u.version > obj.Obj.t_version then begin
          obj.Obj.data <- u.data;
          obj.Obj.t_version <- u.version;
          obj.Obj.t_state <- Types.T_invalid
        end
      | None ->
        if install && not u.freed then begin
          let obj = Obj.create ~key:u.key ~role:Types.Reader ~version:u.version u.data in
          obj.Obj.t_state <- Types.T_invalid;
          Table.install t.table obj
        end)
    writes

(* An R-VAL (or equivalent) for a stored R-INV: validate objects whose
   version is unchanged, complete frees. *)
let validate_stored t writes =
  List.iter
    (fun (u : Txn.update) ->
      match Table.find t.table u.key with
      | Some obj ->
        if obj.Obj.t_version = u.version then begin
          if u.freed then Table.remove t.table u.key
          else if obj.Obj.t_state = Types.T_invalid then obj.Obj.t_state <- Types.T_valid
        end
      | None -> ())
    writes

let exec_telemetry t = function
  | Core.Count C_started -> Metrics.Counter.incr t.c_started
  | Core.Count C_durable -> Metrics.Counter.incr t.c_durable
  | Core.Count C_replays -> Metrics.Counter.incr t.c_replays
  | Core.Span_start { token; thread; slot; followers; writes } ->
    let span =
      Tspan.start_span t.tspans ~cat:"commit" ~pid:t.node ~tid:thread
        ~parent:t.span_parent
        ~args:
          [
            ("slot", string_of_int slot);
            ("followers", string_of_int followers);
            ("writes", string_of_int writes);
          ]
        "replication_ack"
    in
    Hashtbl.replace t.spans token span
  | Core.Span_finish token -> (
    match Hashtbl.find_opt t.spans token with
    | Some span ->
      Hashtbl.remove t.spans token;
      Tspan.finish t.tspans span
    | None -> ())

let exec_eff t = function
  | Core.Send { dst; size; payload } ->
    Transport.send t.transport ~src:t.node ~dst ~size payload
  | Core.Flush ->
    (* Reliable-commit traffic is a natural batch AND off the application's
       critical path, so it rides the transport's full flush window; the
       core rings the doorbell only where extra delay could stall recovery
       (replays on a view change). *)
    Transport.flush t.transport t.node
  | Core.Validate_local { writes } -> validate_local t writes
  | Core.Apply_writes { install; writes } -> apply_writes t ~install writes
  | Core.Validate_stored { writes } -> validate_stored t writes
  | Core.Durable { tx } ->
    let thread = tx.Messages.pipe.thread in
    if thread < Array.length t.durables then begin
      let tbl = t.durables.(thread) in
      match Hashtbl.find tbl tx.Messages.slot with
      | k ->
        Hashtbl.remove tbl tx.Messages.slot;
        k ()
      | exception Not_found -> ()
    end
  | Core.Drained { epoch } -> t.cb.recovery_drained ~epoch
  | Core.Telemetry tele -> exec_telemetry t tele

(* Effects go onto the agent's stack and execute after the core returns:
   a [Durable] continuation may commit again on this agent, and that nested
   feed runs its own segment above ours (see {!Zeus_sim.Effect_stack}). *)
let feed t input =
  let base = Effect_stack.top t.effs in
  Core.handle_with ~emit:(Effect_stack.emit t.effs) t.core input;
  (match t.io_tap with
  | Some f -> f input (Effect_stack.segment t.effs ~from:base)
  | None -> ());
  Effect_stack.run t.effs ~from:base

let durables_of t thread =
  let n = Array.length t.durables in
  if thread >= n then
    t.durables <-
      Array.init (max (thread + 1) (2 * n)) (fun i ->
          if i < n then t.durables.(i) else Hashtbl.create 16);
  t.durables.(thread)

(* ---------- public API ---------------------------------------------------- *)

let commit ?(parent = Tspan.null_span) t ~thread ~updates ?on_durable () =
  let replica_sets =
    List.map
      (fun (u : Txn.update) ->
        match Table.find t.table u.key with
        | Some obj -> (
          match obj.Obj.o_replicas with Some r -> Replicas.all r | None -> [])
        | None -> [])
      updates
  in
  let has_durable =
    match on_durable with
    | Some k ->
      Hashtbl.replace (durables_of t thread) (Core.peek_slot t.core ~thread) k;
      true
    | None -> false
  in
  t.span_parent <- parent;
  feed t (Core.Api_commit { thread; updates; replica_sets; has_durable; env = env t });
  t.span_parent <- Tspan.null_span

let handle t ~src payload =
  if Core.handles_payload payload then begin
    feed t (Core.Deliver { src; payload; env = env t });
    true
  end
  else false

let on_view_change t (v : View.t) =
  feed t
    (Core.View_change { view_epoch = v.View.epoch; live = v.View.live; env = env t })

(* Fresh-incarnation reset for a rejoining node.  The pending durability
   continuations and spans die with the protocol state (commit has no
   timers, so unlike ownership there is no zombie path to preserve). *)
let reset t =
  feed t Core.Reset;
  Array.iter Hashtbl.reset t.durables;
  Hashtbl.reset t.spans

let create ?telemetry ?clear_marks ~node ~table ~membership ~callbacks transport =
  let nodes = Zeus_net.Fabric.nodes (Transport.fabric transport) in
  let hub = match telemetry with Some h -> h | None -> Hub.none () in
  let metrics = Metrics.create () in
  let t =
    {
      core = Core.create ?clear_marks ~self:node ~nodes ();
      node;
      table;
      membership;
      cb = callbacks;
      transport;
      durables = [||];
      effs = Effect_stack.create ~filler:Core.Flush;
      spans = Hashtbl.create 16;
      span_parent = Tspan.null_span;
      metrics;
      tspans = Hub.trace hub;
      c_started = Metrics.Counter.v metrics "commit.commits_started";
      c_durable = Metrics.Counter.v metrics "commit.commits_durable";
      c_replays = Metrics.Counter.v metrics "commit.replays_started";
      io_tap = None;
      last_env = { Core.epoch = -1; live = [||]; trace_on = false };
    }
  in
  Effect_stack.set_exec t.effs (exec_eff t);
  Service.subscribe membership node (fun v -> on_view_change t v);
  t
