type detection = {
  d_mode : string;
  d_heartbeats : int;
  d_suspicions : int;
  d_retractions : int;
  d_false_suspicions : int;
  d_fences : int;
  d_evictions_averted : int;
  d_views_installed : int;
}

let detection_of_service svc =
  let open Zeus_membership.Service in
  let s = det_stats svc in
  {
    d_mode = (match mode svc with Oracle -> "oracle" | Detected -> "detected");
    d_heartbeats = s.heartbeats;
    d_suspicions = s.suspicions;
    d_retractions = s.retractions;
    d_false_suspicions = s.false_suspicions;
    d_fences = s.fences;
    d_evictions_averted = s.evictions_averted;
    d_views_installed = s.views_installed;
  }

type scenario = {
  name : string;
  fault_at_us : float;
  restart_at_us : float option;
  baseline_mtps : float;
  dip_mtps : float;
  recovery_us : float option;
  committed : int;
  aborted : int;
  monitors_ok : bool;
  violations : string list;
  detection : detection option;
  timeline : (float * float) list;
}

type t = { quick : bool; seed : int64; scenarios : scenario list }

let mean = function
  | [] -> Float.nan
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let of_monitor ~name ~fault_at_us ?restart_at_us ?detection ~committed ~aborted monitor
    =
  let cfg = Monitor.config monitor in
  let tl = Monitor.goodput monitor in
  let pre =
    List.filter (fun (at, _) -> at +. cfg.Monitor.window_us <= fault_at_us) tl
  in
  let pre =
    List.filteri (fun i _ -> i >= List.length pre - cfg.Monitor.baseline_windows) pre
  in
  let baseline_mtps = mean (List.map snd pre) in
  let recovery_us = Monitor.recovery_us monitor ~fault_at_us in
  (* Worst window inside the outage: from the fault until recovery (or the
     end of the timeline when goodput never came back). *)
  let outage_end =
    match recovery_us with Some r -> fault_at_us +. r | None -> Float.infinity
  in
  let dip =
    List.filter_map
      (fun (at, g) -> if at >= fault_at_us && at < outage_end then Some g else None)
      tl
  in
  let dip_mtps = match dip with [] -> baseline_mtps | _ -> List.fold_left Float.min Float.infinity dip in
  let monitors_ok = Result.is_ok (Monitor.check_final monitor) in
  let violations =
    match Monitor.check_final monitor with
    | Ok () -> []
    | Error e -> [ e ]
  in
  {
    name;
    fault_at_us;
    restart_at_us;
    baseline_mtps;
    dip_mtps;
    recovery_us;
    committed;
    aborted;
    monitors_ok;
    violations;
    detection;
    timeline = tl;
  }

(* ---------- JSON ----------------------------------------------------------- *)

let num x = if Float.is_finite x then Printf.sprintf "%.6f" x else "null"
let opt_num = function Some x -> num x | None -> "null"

let escape s =
  let buf = Buffer.create (String.length s + 8) in
  Zeus_telemetry.Jsonv.escape buf s;
  Buffer.contents buf

let detection_to_json d =
  Printf.sprintf
    "{\"mode\": \"%s\", \"heartbeats\": %d, \"suspicions\": %d, \
     \"retractions\": %d, \"false_suspicions\": %d, \"fences\": %d, \
     \"evictions_averted\": %d, \"views_installed\": %d}"
    (escape d.d_mode) d.d_heartbeats d.d_suspicions d.d_retractions
    d.d_false_suspicions d.d_fences d.d_evictions_averted d.d_views_installed

let scenario_to_json s =
  let timeline =
    String.concat ", "
      (List.map (fun (at, g) -> Printf.sprintf "[%s, %s]" (num at) (num g)) s.timeline)
  in
  let violations =
    String.concat ", " (List.map (fun v -> Printf.sprintf "\"%s\"" (escape v)) s.violations)
  in
  let detection =
    match s.detection with None -> "null" | Some d -> detection_to_json d
  in
  Printf.sprintf
    "{\"name\": \"%s\", \"fault_at_us\": %s, \"restart_at_us\": %s, \
     \"baseline_mtps\": %s, \"dip_mtps\": %s, \"recovery_us\": %s, \
     \"committed\": %d, \"aborted\": %d, \"monitors_ok\": %b, \
     \"violations\": [%s], \"detection\": %s, \"timeline\": [%s]}"
    (escape s.name) (num s.fault_at_us) (opt_num s.restart_at_us)
    (num s.baseline_mtps) (num s.dip_mtps) (opt_num s.recovery_us) s.committed
    s.aborted s.monitors_ok violations detection timeline

let to_json t =
  Printf.sprintf "{\"quick\": %b,\n \"seed\": %Ld,\n \"scenarios\": [\n  %s\n ]}\n"
    t.quick t.seed
    (String.concat ",\n  " (List.map scenario_to_json t.scenarios))

let write ~path t =
  let oc = open_out path in
  output_string oc (to_json t);
  close_out oc
