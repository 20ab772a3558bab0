(* The three benchmark workloads and the run of one simulated cluster.

   Every workload is a closed loop of Smallbank transactions: each
   simulated app thread issues its next transaction only when the previous
   one completes (the paper's saturating setup, §8).  A workload is one or
   more cluster runs ("points") with fixed virtual durations, so every
   virtual-time output is a pure function of the workload seed. *)

module Engine = Zeus_sim.Engine
module Stats = Zeus_sim.Stats
module Cluster = Zeus_core.Cluster
module Config = Zeus_core.Config
module Node = Zeus_core.Node
module Hub = Zeus_telemetry.Hub
module Metrics = Zeus_telemetry.Metrics
module Fabric = Zeus_net.Fabric
module Transport = Zeus_net.Transport
module Service = Zeus_membership.Service
module OwnA = Zeus_ownership.Agent
module ComA = Zeus_commit.Agent
module W = Zeus_workload
module Chaos = Zeus_chaos

type t = Local | Remote | Faults

let all = [ Local; Remote; Faults ]

let name = function
  | Local -> "smallbank-local"
  | Remote -> "smallbank-remote"
  | Faults -> "smallbank-faults"

let of_name s = List.find_opt (fun w -> name w = s) all

(* Node 3 of the faults cluster crashes at [fault_at_us] and rejoins
   [down_us] later. *)
type crash = { fault_at_us : float; down_us : float }

type plan = {
  config : Config.t;
  accounts_per_node : int;
  remote_frac : float;
  drive : int list;  (** nodes that home accounts and run app threads *)
  warmup_us : float;
  duration_us : float;  (** measurement window after the warm-up *)
  crash : crash option;
}

(* [scale] (1.0 for the benchmark; the self-tests use short runs) shrinks
   the virtual durations of the local and remote points, and the number of
   crash points of the faults workload: one crash needs its whole
   timeline. *)
let local_plan ~seed ~scale =
  {
    config = { Config.default with Config.nodes = 3; seed };
    accounts_per_node = 2_000;
    remote_frac = 0.0;
    drive = [ 0; 1; 2 ];
    warmup_us = 500.0;
    duration_us = 10_000.0 *. scale;
    crash = None;
  }

(* Point [i] of a multi-point workload gets its own seed, derived from the
   workload seed: distinct simulations of equal cost. *)
let point_seed seed i = Int64.add (Int64.mul seed 1_000_003L) (Int64.of_int i)

let remote_points = 4

let remote_plan ~seed ~scale =
  { (local_plan ~seed ~scale) with remote_frac = 0.2; duration_us = 10_000.0 *. scale }

(* The follower crash of the [faults] experiment under end-to-end failure
   detection and a lossy fabric: 4 nodes, a 2-replica directory, accounts
   homed on and driven from nodes 0-2, node 3 (a pure reader replica)
   crashed and restarted.  The down window covers detection + suspicion
   quorum + lease (~4 ms) plus a post-eviction plateau.  One crash is a
   small run whose figures swing with the seed, so the workload pools
   [faults_points] of them. *)
let faults_plan ~seed =
  {
    config =
      {
        Config.default with
        Config.nodes = 4;
        dir_replicas = 2;
        app_threads = 6;
        auto_trim = false;
        membership_mode = Service.Detected;
        fabric = { Fabric.default_config with Fabric.loss_prob = 0.005 };
        seed;
      };
    accounts_per_node = 60;
    remote_frac = 0.2;
    drive = [ 0; 1; 2 ];
    warmup_us = 1_500.0;
    duration_us = 25_000.0;
    crash = Some { fault_at_us = 6_500.0; down_us = 14_000.0 };
  }

let faults_points = 12

let plans ?(scale = 1.0) w ~seed =
  match w with
  | Local -> [ local_plan ~seed ~scale ]
  | Remote -> List.init remote_points (fun i -> remote_plan ~seed:(point_seed seed i) ~scale)
  | Faults ->
    let n = max 1 (int_of_float (float_of_int faults_points *. scale)) in
    List.init n (fun i -> faults_plan ~seed:(point_seed seed i))

(* ---- hooks: what the traced run adds around a cluster run ---- *)

type hooks = {
  tracing : bool;  (** [Cluster.create ~tracing] and [record_history] *)
  on_create : Cluster.t -> unit;  (** before populate (I/O taps) *)
  span : 'a. string -> (unit -> 'a) -> 'a;  (** host span around a layer call *)
}

let plain = { tracing = false; on_create = ignore; span = (fun _ f -> f ()) }

(* ---- one cluster run ---- *)

(* Virtual-time counters of the layers, snapshotted after the drain. *)
type counters = {
  fabric_msgs : int;
  fabric_bytes : int;
  fabric_dropped : int;
  transport : Transport.stats;
  backoffs : int;
  own_started : int;
  own_won : int;
  own_nacked : int;
  own_timeouts : int;
  own_replays : int;
  arbitration_us : float array;  (** pooled requester-side latencies *)
  com_started : int;
  com_durable : int;
  com_replays : int;
  open_slots : int;  (** live nodes' [Commit.Agent.inflight] *)
  buffered_invs : int;
  replication_p50_us : float;
  replication_p99_us : float;
  execute_p50_us : float;
  local_commit_p50_us : float;
  local_commit_p99_us : float;
  det : Service.det_stats;
  spans : int;
  spans_dropped : int;
}

type outcome = {
  setup_s : float;  (** host: create + populate + workload construction *)
  run_s : float;  (** host: [Driver.run] *)
  quiesce_s : float;  (** host: [run_quiesce] *)
  minor_words : float;  (** host: minor words allocated by [Driver.run] *)
  minor_gcs : int;
  events : int;
  committed : int;
  aborted : int;
  retries : int;
  duration_us : float;
  latencies : float array;  (** committed txns in the window, sorted, µs *)
  final_clock_us : float;
  chaos : Chaos.Report.scenario option;
  chaos_samples : int;  (** the monitor's invariant samples *)
  counters : counters;
  failures : string list;  (** correctness-gate failures, empty when correct *)
}

let histogram_pct c name p =
  match List.assoc_opt name (Metrics.histograms (Hub.metrics (Cluster.telemetry c))) with
  | Some h when Metrics.Histogram.count h > 0 -> Metrics.Histogram.percentile h p
  | _ -> 0.0

let sum_nodes c f =
  let s = ref 0 in
  for i = 0 to Cluster.nodes c - 1 do
    s := !s + f (Cluster.node c i)
  done;
  !s

let sum_live c f = List.fold_left (fun acc i -> acc + f (Cluster.node c i)) 0 (Cluster.live_nodes c)

let counters c =
  let own f = sum_nodes c (fun n -> f (Node.ownership_agent n)) in
  let com f = sum_nodes c (fun n -> f (Node.commit_agent n)) in
  let trace = Cluster.trace c in
  {
    fabric_msgs = Fabric.messages_sent (Cluster.fabric c);
    fabric_bytes = Fabric.bytes_sent (Cluster.fabric c);
    fabric_dropped = Fabric.messages_dropped (Cluster.fabric c);
    transport = Transport.stats (Cluster.transport c);
    backoffs = Transport.backoffs (Cluster.transport c);
    own_started = own OwnA.requests_started;
    own_won = own OwnA.requests_won;
    own_nacked = own OwnA.requests_nacked;
    own_timeouts = own OwnA.requests_timed_out;
    own_replays = own OwnA.replays_started;
    arbitration_us =
      Array.concat
        (List.init (Cluster.nodes c) (fun i ->
             Stats.Samples.values (OwnA.latency_samples (Node.ownership_agent (Cluster.node c i)))));
    com_started = com ComA.commits_started;
    com_durable = com ComA.commits_durable;
    com_replays = com ComA.replays_started;
    open_slots = sum_live c (fun n -> ComA.inflight (Node.commit_agent n));
    buffered_invs = sum_live c (fun n -> ComA.buffered_invs (Node.commit_agent n));
    replication_p50_us = histogram_pct c "txn.replication_us" 50.0;
    replication_p99_us = histogram_pct c "txn.replication_us" 99.0;
    execute_p50_us = histogram_pct c "txn.execute_us" 50.0;
    local_commit_p50_us = histogram_pct c "txn.local_commit_us" 50.0;
    local_commit_p99_us = histogram_pct c "txn.local_commit_us" 99.0;
    det = Service.det_stats (Cluster.membership c);
    spans = Zeus_telemetry.Trace.count trace;
    spans_dropped = Zeus_telemetry.Trace.dropped trace;
  }

(* Create, populate and build the workload of one point: everything the
   set-up time covers.  The chaos monitor and nemesis are attached for a
   crash plan. *)
let setup ?(hooks = plain) plan =
  let config = { plan.config with Config.record_history = hooks.tracing } in
  hooks.span "setup" (fun () ->
    let c = Cluster.create ~config ~tracing:hooks.tracing () in
    hooks.on_create c;
    let rng = Engine.fork_rng (Cluster.engine c) in
    let w =
      W.Smallbank.create ~accounts_per_node:plan.accounts_per_node
        ~nodes:(List.length plan.drive) ~remote_frac:plan.remote_frac rng
    in
    Cluster.populate_n c ~n:(W.Smallbank.total_keys w)
      ~owner_of:(fun k -> W.Smallbank.home_of_key w k)
      (fun _ -> Bytes.copy W.Smallbank.initial_value);
    let chaos =
      Option.map
        (fun { fault_at_us; down_us } ->
          let monitor = Chaos.Monitor.attach ~observed:plan.drive c in
          let schedule =
            Chaos.Schedule.v ~name:"crash-restart" ~seed:config.Config.seed
              (Chaos.Schedule.crash_restart ~node:3 ~at_us:fault_at_us ~down_us)
          in
          (monitor, Chaos.Nemesis.attach ~monitor c schedule))
        plan.crash
    in
    (c, w, chaos))

let run ?(hooks = plain) ?(gate = Gate.cluster) plan =
  let t0 = Unix.gettimeofday () in
  let c, w, chaos = setup ~hooks plan in
  let t1 = Unix.gettimeofday () in
  let eng = Cluster.engine c in
  (* Committed-transaction latencies inside the driver's measurement
     window, kept exactly (no reservoir) so points can be pooled. *)
  let start = Engine.now eng +. plan.warmup_us in
  let stop = start +. plan.duration_us in
  let lat = Stats.Samples.create ~cap:max_int (Zeus_sim.Rng.create 0L) in
  let issue node ~thread ~seq:_ done_ =
    let issued = Engine.now eng in
    W.Spec.run_on_zeus node ~thread
      (W.Smallbank.gen w ~home:(Node.id node))
      (fun outcome ->
        let ok = outcome = Zeus_store.Txn.Committed in
        let now = Engine.now eng in
        if ok && now >= start && now < stop then Stats.Samples.add lat (now -. issued);
        done_ ok)
  in
  let gc1 = Gc.quick_stat () and w1 = Gc.minor_words () in
  let r =
    hooks.span "Driver.run" (fun () ->
        W.Driver.run c ~nodes:plan.drive ~warmup_us:plan.warmup_us
          ~duration_us:plan.duration_us ~issue ())
  in
  let gc2 = Gc.quick_stat () and w2 = Gc.minor_words () in
  let t2 = Unix.gettimeofday () in
  Option.iter (fun (m, _) -> Chaos.Monitor.stop m) chaos;
  hooks.span "run_quiesce" (fun () -> Cluster.run_quiesce c ~max_us:100_000.0 ());
  let t3 = Unix.gettimeofday () in
  let latencies = Stats.Samples.values lat in
  Array.sort Float.compare latencies;
  let report =
    Option.map
      (fun (monitor, _) ->
        let crash = Option.get plan.crash in
        Chaos.Report.of_monitor ~name:"crash-restart" ~fault_at_us:crash.fault_at_us
          ~restart_at_us:(crash.fault_at_us +. crash.down_us)
          ~detection:(Chaos.Report.detection_of_service (Cluster.membership c))
          ~committed:r.W.Driver.committed ~aborted:r.W.Driver.aborted monitor)
      chaos
  in
  let failures =
    hooks.span "checks" (fun () ->
        gate c
        @ (if Array.length latencies = r.W.Driver.committed then []
           else
             [ Printf.sprintf "latency samples %d <> committed %d" (Array.length latencies)
                 r.W.Driver.committed ])
        @
        match (chaos, report) with
        | Some (monitor, nemesis), Some s -> Gate.chaos ~monitor ~nemesis s
        | _ -> [])
  in
  {
    setup_s = t1 -. t0;
    run_s = t2 -. t1;
    quiesce_s = t3 -. t2;
    minor_words = w2 -. w1;
    minor_gcs = gc2.Gc.minor_collections - gc1.Gc.minor_collections;
    events = Engine.events_dispatched eng;
    committed = r.W.Driver.committed;
    aborted = r.W.Driver.aborted;
    retries = r.W.Driver.retries;
    duration_us = plan.duration_us;
    latencies;
    final_clock_us = Engine.now eng;
    chaos = report;
    chaos_samples = (match chaos with Some (m, _) -> Chaos.Monitor.samples m | None -> 0);
    counters = counters c;
    failures;
  }
