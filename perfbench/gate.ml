(* The correctness gate: checks computed from the run itself, never
   against expected numbers.  Each check returns the list of its failures
   (empty when the run is correct). *)

module Cluster = Zeus_core.Cluster
module Node = Zeus_core.Node
module ComA = Zeus_commit.Agent
module Chaos = Zeus_chaos

(* After [run_quiesce]: the cluster invariants hold, and every live node
   has drained its commit pipelines and buffered R-INVs. *)
let cluster c =
  let inv =
    match Cluster.check_invariants c with
    | Ok () -> []
    | Error e -> [ "check_invariants: " ^ e ]
  in
  let drained =
    List.concat_map
      (fun i ->
        let a = Node.commit_agent (Cluster.node c i) in
        let open_slots = ComA.inflight a and buffered = ComA.buffered_invs a in
        if open_slots = 0 && buffered = 0 then []
        else [ Printf.sprintf "node %d not drained: %d open slots, %d buffered INVs" i open_slots buffered ])
      (Cluster.live_nodes c)
  in
  inv @ drained

(* The faults workload: online monitors green, the post-quiesce
   convergence check passes, goodput recovered and every nemesis step
   fired. *)
let chaos ~monitor ~nemesis (s : Chaos.Report.scenario) =
  List.concat
    [
      (if s.Chaos.Report.monitors_ok then []
       else [ "monitor violations: " ^ String.concat "; " s.Chaos.Report.violations ]);
      (match Chaos.Monitor.check_final monitor with
      | Ok () -> []
      | Error e -> [ "Monitor.check_final: " ^ e ]);
      (if s.Chaos.Report.recovery_us <> None then [] else [ "goodput never recovered" ]);
      (if Chaos.Nemesis.done_ nemesis then [] else [ "nemesis steps left unapplied" ]);
    ]

(* Virtual outputs that must not depend on the host: the same seed gives
   the same values in every repeat, traced or not. *)
type virtual_outputs = {
  committed : int;
  aborted : int;
  events : int;
  final_clock_us : float;
  mtps : float;
  mean_us : float;
  p50_us : float;
  p99_us : float;
}

let same_virtual ~what (a : virtual_outputs) (b : virtual_outputs) =
  if compare a b = 0 then []
  else
    [
      Printf.sprintf
        "%s: virtual outputs differ (committed %d/%d, events %d/%d, clock %.3f/%.3f, p50 %.4f/%.4f, p99 %.4f/%.4f)"
        what a.committed b.committed a.events b.events a.final_clock_us b.final_clock_us a.p50_us
        b.p50_us a.p99_us b.p99_us;
    ]
