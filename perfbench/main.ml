(* Benchmark entry point:

     dune exec perfbench/main.exe -- --workload smallbank-local --seed 1 \
       --seconds 20 --trace 0

   prints a table of every metric (name, value, unit, better-direction,
   clock), an environment stamp, and as its last line one JSON object
   {"correct", "attempted", "failed", "metrics"}.  Exits 1 when a
   correctness check fails, 2 on bad arguments. *)

let usage = "main.exe --workload NAME --seed N --seconds S --trace 0|1"

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "smallbank-local | smallbank-remote | smallbank-faults");
      ("--seed", Arg.Set_int seed, "workload seed (becomes Config.seed)");
      ("--seconds", Arg.Set_float seconds, "host seconds of measurement");
      ("--trace", Arg.Set_int trace, "0: end-to-end metrics; 1: traced run and per-layer ledger");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  match Perfbench.Workloads.of_name !workload with
  | None ->
    prerr_endline ("unknown workload " ^ !workload ^ "\n" ^ usage);
    exit 2
  | Some w ->
    let open Perfbench.Bench in
    gc_settings ();
    let seed = Int64.of_int !seed in
    print_endline (stamp ~workload:!workload ~seed);
    let r = run w ~seed ~seconds:!seconds ~trace:(!trace <> 0) in
    List.iter print_endline r.notes;
    List.iter
      (fun x ->
        Printf.printf "%-34s %16.6g  %-14s %-6s %s\n" x.name x.value x.unit_ (better_s x.better)
          (clock_s x.clock))
      r.metrics;
    List.iter (fun f -> Printf.printf "FAILED: %s\n" f) r.failures;
    print_endline (result_json r);
    if r.failures <> [] then exit 1
