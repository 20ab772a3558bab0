(* Self-tests of the benchmark: its metric names agree with BENCHMARK.json,
   short runs of every workload pass their gate and repeat exactly, and
   the gate rejects an undrained cluster and a tampered replay log. *)

module Jsonv = Zeus_telemetry.Jsonv
module Cluster = Zeus_core.Cluster
module Node = Zeus_core.Node
module ComA = Zeus_commit.Agent
module ComC = Zeus_commit.Core
module W = Zeus_workload
module Wl = Perfbench.Workloads
module Bench = Perfbench.Bench
module Replay = Perfbench.Replay

let seed = 3L

(* Short runs: a twentieth of the local and remote windows, one crash. *)
let scale = 0.05
let run ~trace w = Bench.run ~scale w ~seed ~seconds:0.0 ~trace

let declared section =
  let ic = open_in_bin "../BENCHMARK.json" in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let v = Result.get_ok (Jsonv.parse s) in
  Option.get (Option.bind (Jsonv.member section v) Jsonv.to_list)
  |> List.map (fun m ->
         let str k = Option.get (Option.bind (Jsonv.member k m) Jsonv.to_string) in
         (str "name", str "unit", str "better"))

let printed (r : Bench.result) =
  List.map (fun (x : Bench.metric) -> (x.Bench.name, x.Bench.unit_, Bench.better_s x.Bench.better)) r.Bench.metrics

(* Names, units and directions printed for a workload are exactly those
   declared, and its short run passes the correctness gate. *)
let workload_case w =
  Alcotest.test_case (Wl.name w) `Quick (fun () ->
      List.iter
        (fun (trace, section) ->
          let r = run ~trace w in
          Alcotest.(check (list string)) (section ^ " gate failures") [] r.Bench.failures;
          Alcotest.(check int) (section ^ " failed") 0 r.Bench.failed;
          Alcotest.(check bool) (section ^ " attempted") true (r.Bench.attempted > 0);
          Alcotest.(check (list (triple string string string)))
            (section ^ " metrics") (declared section) (printed r))
        [ (false, "end_to_end"); (true, "per_layer") ])

let virtual_metrics (r : Bench.result) =
  List.filter_map
    (fun (x : Bench.metric) -> if x.Bench.clock = Bench.Virtual then Some (x.Bench.name, x.Bench.value) else None)
    r.Bench.metrics

let same_seed_same_virtual () =
  let a = virtual_metrics (run ~trace:false Wl.Remote) and b = virtual_metrics (run ~trace:false Wl.Remote) in
  Alcotest.(check bool) "some virtual metrics" true (a <> []);
  Alcotest.(check (list (pair string (float 0.0)))) "identical" a b

(* A cluster stopped with commits still replicating fails the drain check. *)
let undrained_cluster_fails () =
  let plan = Wl.local_plan ~seed ~scale:1.0 in
  let c = Cluster.create ~config:plan.Wl.config () in
  Cluster.populate_n c ~n:6 ~owner_of:(fun k -> k mod 3) (fun _ -> Bytes.make 8 'x');
  for k = 0 to 5 do
    W.Spec.run_on_zeus (Cluster.node c (k mod 3)) ~thread:0 (W.Spec.write_txn [ k ]) ignore
  done;
  Cluster.run c ~until_us:2.0;
  Alcotest.(check bool) "gate fails before the drain" true (Perfbench.Gate.cluster c <> []);
  Cluster.run_quiesce c ();
  Alcotest.(check (list string)) "gate passes after it" [] (Perfbench.Gate.cluster c)

(* Replay of a commit core's recorded log, with one step's effects
   tampered with (or not), through the benchmark's recorder. *)
let replay_failures ~tamper =
  let c = Cluster.create ~config:(Wl.local_plan ~seed ~scale:1.0).Wl.config () in
  let agent = Node.commit_agent (Cluster.node c 0) in
  let shadow = ComC.create ~self:0 ~nodes:3 () in
  let r = Replay.create ~chunk:3 (fun i -> snd (ComC.handle shadow i)) in
  let step = ref 0 in
  ComA.set_io_tap agent (fun input effs ->
      incr step;
      Replay.record r input (if tamper && !step = 2 then List.tl effs else effs));
  Cluster.populate_n c ~n:6 ~owner_of:(fun _ -> 0) (fun _ -> Bytes.make 8 'x');
  for k = 0 to 5 do
    W.Spec.run_on_zeus (Cluster.node c 0) ~thread:0 (W.Spec.write_txn [ k ]) ignore
  done;
  Cluster.run_quiesce c ();
  Alcotest.(check bool) "recorded several steps" true (!step > 3);
  Replay.check ~what:"commit n0" r ~live_fingerprint:(ComA.core_fingerprint agent)
    ~shadow_fingerprint:(fun () -> ComC.fingerprint shadow)

let tampered_replay_fails () =
  Alcotest.(check (list string)) "faithful log replays" [] (replay_failures ~tamper:false);
  Alcotest.(check bool) "tampered log fails" true (replay_failures ~tamper:true <> [])

let () =
  Alcotest.run "perfbench"
    [
      ("workloads", List.map workload_case Wl.all);
      ( "gate",
        [
          Alcotest.test_case "same seed, same virtual metrics" `Quick same_seed_same_virtual;
          Alcotest.test_case "undrained cluster fails" `Quick undrained_cluster_fails;
          Alcotest.test_case "tampered replay log fails" `Quick tampered_replay_fails;
        ] );
    ]
