(* Host-clock spans recorded by the benchmark around each call it makes
   into a layer during a traced run.  They share the Chrome-trace format
   of the cluster's own (virtual-time) trace and are written next to it
   under their own process id. *)

module Trace = Zeus_telemetry.Trace

let pid = 1000

type t = { trace : Trace.t; mutable stack : Trace.span list }

let create () =
  let t0 = Unix.gettimeofday () in
  { trace = Trace.create ~enabled:true ~now:(fun () -> (Unix.gettimeofday () -. t0) *. 1e6) (); stack = [] }

let with_span t name f =
  let parent = match t.stack with p :: _ -> Some p | [] -> None in
  let sp = Trace.start_span t.trace ~cat:"perfbench" ~pid ?parent name in
  t.stack <- sp :: t.stack;
  Fun.protect
    ~finally:(fun () ->
      t.stack <- List.tl t.stack;
      Trace.finish t.trace sp)
    f

(* One Chrome trace holding the first [max_cluster_spans] spans of the
   cluster's trace and all of the benchmark's, re-recorded into one trace
   so the existing exporter writes them.  The cap keeps the artifact small
   enough to parse back; [Trace.count] still reports every cluster span. *)
let max_cluster_spans = 50_000

let chrome ~cluster t =
  let out = Trace.create ~enabled:true ~max_spans:max_int ~now:(fun () -> 0.0) () in
  let copy (s : Trace.span) =
    Trace.complete out ~cat:s.Trace.cat ~pid:s.Trace.pid ~tid:s.Trace.tid ~args:s.Trace.args
      ~start:s.Trace.start ~stop:s.Trace.stop s.Trace.name
  in
  List.iteri (fun i s -> if i < max_cluster_spans then copy s) (Trace.spans cluster);
  List.iter copy (Trace.spans t.trace);
  Trace.to_chrome_string out
