(** Wall-clock performance harness (the perf trajectory, DESIGN.md §12).

    Everything else in this directory measures {e protocol} metrics in
    virtual time; this experiment measures the {e simulator itself} in
    wall-clock time, since the event loop is what bounds every sweep we
    can afford to run.  Two measurements:

    - {e smallbank run}: the transport ablation's acceptance workload
      (Smallbank, 3 nodes, default fabric, quick-scale population) run for
      a fixed virtual duration; reported as simulator events dispatched
      per wall-clock second plus GC allocation per event.  Repeated a few
      times on fresh clusters, best repetition kept (wall-clock noise is
      one-sided).  Compared against the checked-in baselines
      ([bench/perf_baseline.json]) — the perf-smoke CI gate fails on a
      > 25 % events/sec regression against the pre-overhaul reference,
      or on words/event above the figure recorded for the running
      compiler by more than {!words_tolerance} (words/event is deterministic
      for a given tree and compiler, but moves with the compiler version,
      so a compiler without a recorded figure is not gated);
    - {e sweep scaling}: a fig7-style handover sweep run twice through
      {!Sweep.map} — [-j 1] and [-j 4] — reporting the wall-clock ratio
      and checking the per-point results are bit-identical (committed
      counts and final virtual clocks), i.e. that parallelism never leaks
      into simulation results. *)

module Engine = Zeus_sim.Engine
module Cluster = Zeus_core.Cluster
module Config = Zeus_core.Config
module Node = Zeus_core.Node
module Jsonv = Zeus_telemetry.Jsonv
module W = Zeus_workload

type run_stats = {
  wall_s : float;
  events : int;
  events_per_sec : float;
  committed : int;
  sim_us : float;  (** virtual time simulated in the measured window *)
  minor_words : float;
      (** words allocated on the minor heap during the run, exact
          ([Gc.minor_words]: [Gc.quick_stat]'s figure is only brought up
          to date at minor collections, so on OCaml 5.1 it moves in steps
          of half the minor heap, ±7 words/event on this run) *)
  major_words : float;
  words_per_event : float;
}

type words_baseline = {
  words : float;  (** recorded words/event *)
  w_tree : string;  (** {!source_digest} of the tree it was recorded on *)
}

type results = {
  quick : bool;
  repeats : int;
  cores : int;  (** [Domain.recommended_domain_count] on this machine *)
  smallbank : run_stats;
  baseline_events_per_sec : float option;
      (** pre-overhaul events/sec from [bench/perf_baseline.json] *)
  speedup : float option;  (** smallbank events/sec vs that baseline *)
  regression_ok : bool;  (** speedup >= 0.75 (or no baseline to compare) *)
  ocaml : string;  (** [Sys.ocaml_version] *)
  tree : string;  (** digest of the [lib/] sources measured *)
  words_baseline : words_baseline option;
      (** the words/event recorded for [ocaml], if any *)
  words_ok : bool;
      (** words/event within {!words_tolerance} of the recorded figure (or
          no figure recorded for this compiler) *)
  sweep_points : int;
  sweep_jobs : int;
  sweep_j1_wall_s : float;
  sweep_jn_wall_s : float;
  sweep_speedup : float;  (** j1 wall / jN wall *)
  sweep_identical : bool;
      (** per-point (committed, final clock, events) identical across -j *)
}

(* ---- smallbank events/sec ---- *)

let smallbank_run ~duration_us =
  let s = Exp.scale_of ~quick:true in
  let config = { Config.default with Config.nodes = 3 } in
  let cluster = Cluster.create ~config () in
  let rng = Engine.fork_rng (Cluster.engine cluster) in
  let w =
    W.Smallbank.create ~accounts_per_node:s.Exp.objects_per_node
      ~nodes:config.Config.nodes ~remote_frac:0.0 rng
  in
  Cluster.populate_n cluster ~n:(W.Smallbank.total_keys w)
    ~owner_of:(fun k -> W.Smallbank.home_of_key w k)
    (fun _ -> Bytes.copy W.Smallbank.initial_value);
  let issue node ~thread ~seq:_ done_ =
    W.Spec.run_on_zeus node ~thread
      (W.Smallbank.gen w ~home:(Node.id node))
      (fun outcome -> done_ (outcome = Zeus_store.Txn.Committed))
  in
  let eng = Cluster.engine cluster in
  let g0 = Gc.quick_stat () and w0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  let r =
    W.Driver.run cluster ~warmup_us:s.Exp.warmup_us ~duration_us ~issue ()
  in
  let t1 = Unix.gettimeofday () in
  let w1 = Gc.minor_words () and g1 = Gc.quick_stat () in
  let wall_s = Float.max (t1 -. t0) 1e-9 in
  let events = Engine.events_dispatched eng in
  let minor = w1 -. w0 in
  let major = g1.Gc.major_words -. g0.Gc.major_words in
  {
    wall_s;
    events;
    events_per_sec = float_of_int events /. wall_s;
    committed = r.W.Driver.committed;
    sim_us = Engine.now eng;
    minor_words = minor;
    major_words = major;
    words_per_event =
      (if events = 0 then 0.0 else minor /. float_of_int events);
  }

let best_smallbank ~repeats ~duration_us =
  let best = ref (smallbank_run ~duration_us) in
  for _ = 2 to repeats do
    let r = smallbank_run ~duration_us in
    if r.events_per_sec > !best.events_per_sec then best := r
  done;
  !best

(* ---- checked-in baselines ---- *)

let baseline_path = "bench/perf_baseline.json"

(* Allowed relative increase of words/event over the recorded figure. *)
let words_tolerance = 0.02

(* The file holds one events/sec reference (machine-bound) and one
   words/event figure per compiler version. *)
let read_baseline_json () =
  if not (Sys.file_exists baseline_path) then None
  else
    let ic = open_in_bin baseline_path in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    Result.to_option (Jsonv.parse s)

let events_reference v = Option.bind (Jsonv.member "events_per_sec" v) Jsonv.to_float
let read_baseline () = Option.bind (read_baseline_json ()) events_reference

let words_entries v =
  let str k e = Option.value ~default:"" (Option.bind (Jsonv.member k e) Jsonv.to_string) in
  Option.value ~default:[] (Option.bind (Jsonv.member "words_per_event" v) Jsonv.to_list)
  |> List.filter_map (fun e ->
         Option.bind (Jsonv.member "value" e) Jsonv.to_float
         |> Option.map (fun words -> (str "ocaml" e, { words; w_tree = str "tree" e })))

let read_words_baseline () =
  Option.bind (read_baseline_json ()) (fun v ->
      List.assoc_opt Sys.ocaml_version (words_entries v))

(* Digest of the [lib/] sources: which tree a figure was recorded on. *)
let source_digest () =
  let rec files path =
    if Sys.is_directory path then
      Sys.readdir path |> Array.to_list |> List.sort compare
      |> List.concat_map (fun f -> files (Filename.concat path f))
    else if
      Filename.check_suffix path ".ml" || Filename.check_suffix path ".mli"
      || Filename.basename path = "dune"
    then [ path ]
    else []
  in
  if not (Sys.file_exists "lib") then "unknown"
  else
    Digest.to_hex
      (Digest.string
         (String.concat ""
            (List.map (fun f -> f ^ Digest.to_hex (Digest.file f)) (files "lib"))))

(* Rewrite the baseline file with [r]'s words/event as the figure for the
   running compiler, keeping the other compilers' figures.  The events/sec
   reference (with its captured/state/note fields) is kept, unless
   [~events] re-captures it from [r] — for when the reference hardware
   changes.  Refuses to write when the current file has no events/sec
   reference: a rewrite without one would turn that gate off. *)
let record_baseline ~events r =
  let old = read_baseline_json () in
  match (old, Option.bind old events_reference) with
  | None, _ | _, None ->
    Error
      (Printf.sprintf "%s is missing or has no events_per_sec; not rewriting it"
         baseline_path)
  | Some old, Some eps ->
    let str k = Option.value ~default:"" (Option.bind (Jsonv.member k old) Jsonv.to_string) in
    let eps, captured, state =
      if events then
        let t = Unix.gmtime (Unix.time ()) in
        ( Float.round r.smallbank.events_per_sec,
          Printf.sprintf "%04d-%02d-%02d" (t.Unix.tm_year + 1900) (t.Unix.tm_mon + 1)
            t.Unix.tm_mday,
          "lib/ source digest " ^ r.tree )
      else (eps, str "captured", str "state")
    in
    let words = Float.round (r.smallbank.words_per_event *. 1000.) /. 1000. in
    let mine = (r.ocaml, { words; w_tree = r.tree }) in
    let entries =
      List.filter (fun (o, _) -> o <> r.ocaml) (words_entries old) @ [ mine ]
      |> List.sort compare
    in
    let b = Buffer.create 1024 in
    Printf.bprintf b
      "{\"events_per_sec\": %.0f,\n \"captured\": \"%a\",\n \"state\": \"%a\",\n \
       \"note\": \"%a\",\n \"words_per_event\": [\n"
      eps Jsonv.escape captured Jsonv.escape state Jsonv.escape (str "note");
    List.iteri
      (fun i (ocaml, w) ->
        Printf.bprintf b "%s  {\"ocaml\": \"%a\", \"value\": %.3f, \"tree\": \"%a\"}"
          (if i = 0 then "" else ",\n") Jsonv.escape ocaml w.words Jsonv.escape w.w_tree)
      entries;
    Buffer.add_string b "\n ]}\n";
    let oc = open_out_bin baseline_path in
    Buffer.output_buffer oc b;
    close_out oc;
    Ok ()

(* ---- sweep scaling ---- *)

(* Four equal-cost fig7-style points: balanced work is what a [-j 4]
   speedup measurement wants. *)
let sweep_specs = [ 0.0; 0.1; 0.2; 0.3 ]

let sweep_once ~quick ~jobs =
  let t0 = Unix.gettimeofday () in
  let points =
    Sweep.map ~jobs
      (fun remote_handover_frac ->
        let p =
          Fig7.point ~quick ~nodes:3 ~handover_frac:0.025 ~remote_handover_frac
        in
        (p.Fig7.committed, p.Fig7.final_clock_us, p.Fig7.events))
      sweep_specs
  in
  (Unix.gettimeofday () -. t0, points)

(* ---- experiment ---- *)

let compute ~quick =
  let repeats = if quick then 5 else 7 in
  let duration_us = if quick then 10_000.0 else 50_000.0 in
  let smallbank = best_smallbank ~repeats ~duration_us in
  let baseline = read_baseline () in
  let speedup =
    Option.map (fun b -> smallbank.events_per_sec /. b) baseline
  in
  let regression_ok = match speedup with None -> true | Some s -> s >= 0.75 in
  let words_baseline = read_words_baseline () in
  let words_ok =
    match words_baseline with
    | None -> true
    | Some b -> smallbank.words_per_event <= b.words *. (1.0 +. words_tolerance)
  in
  let sweep_jobs = 4 in
  let j1_wall, j1_points = sweep_once ~quick ~jobs:1 in
  let jn_wall, jn_points = sweep_once ~quick ~jobs:sweep_jobs in
  {
    quick;
    repeats;
    cores = Domain.recommended_domain_count ();
    smallbank;
    baseline_events_per_sec = baseline;
    speedup;
    regression_ok;
    ocaml = Sys.ocaml_version;
    tree = source_digest ();
    words_baseline;
    words_ok;
    sweep_points = List.length sweep_specs;
    sweep_jobs;
    sweep_j1_wall_s = j1_wall;
    sweep_jn_wall_s = jn_wall;
    sweep_speedup = j1_wall /. Float.max jn_wall 1e-9;
    sweep_identical = j1_points = jn_points;
  }

let last = ref None
let last_results () = !last

let run ~quick =
  let r = compute ~quick in
  last := Some r;
  let f = Printf.sprintf in
  Exp.print_kv "perf: simulator wall-clock harness"
    [
      ( "smallbank events/sec",
        f "%.0f (%d events in %.3f s, best of %d)" r.smallbank.events_per_sec
          r.smallbank.events r.smallbank.wall_s r.repeats );
      ( "vs checked-in baseline",
        match (r.baseline_events_per_sec, r.speedup) with
        | Some b, Some s -> f "%.0f events/sec -> %.2fx" b s
        | _ -> "no baseline recorded" );
      ("committed txns", string_of_int r.smallbank.committed);
      ( "GC minor words/event",
        f "%.1f (%.2e minor, %.2e major)" r.smallbank.words_per_event
          r.smallbank.minor_words r.smallbank.major_words );
      ( "vs recorded words/event",
        match r.words_baseline with
        | Some b ->
          f "%.1f for OCaml %s (+%.0f%% allowed) -> %s" b.words r.ocaml
            (100.0 *. words_tolerance)
            (if r.words_ok then "ok" else "REGRESSED")
        | None -> f "not gated: no baseline for OCaml %s" r.ocaml );
      ( "sweep wall-clock",
        f "-j 1 %.3f s -> -j %d %.3f s (%.2fx, %d cores)" r.sweep_j1_wall_s
          r.sweep_jobs r.sweep_jn_wall_s r.sweep_speedup r.cores );
      ( "sweep results bit-identical",
        if r.sweep_identical then "yes" else "NO" );
    ]
