type span = {
  id : int;
  name : string;
  cat : string;
  pid : int;
  tid : int;
  parent : int;
  start : float;
  mutable stop : float;  (* < start while the span is open *)
  mutable args : (string * string) list;
}

let null_span =
  { id = -1; name = ""; cat = ""; pid = 0; tid = 0; parent = -1;
    start = 0.0; stop = 0.0; args = [] }

type t = {
  now : unit -> float;
  mutable enabled : bool;
  max_spans : int;
  mutable items : span list;  (* newest first *)
  mutable count : int;
  mutable dropped : int;
  mutable next_id : int;
}

let create ?(enabled = false) ?(max_spans = 2_000_000) ~now () =
  { now; enabled; max_spans; items = []; count = 0; dropped = 0; next_id = 0 }

let set_enabled t on = t.enabled <- on
let enabled t = t.enabled
let dropped t = t.dropped
let count t = t.count

let record t sp =
  if t.count >= t.max_spans then t.dropped <- t.dropped + 1
  else begin
    t.items <- sp :: t.items;
    t.count <- t.count + 1
  end

let fresh_id t =
  let id = t.next_id in
  t.next_id <- id + 1;
  id

let is_null sp = sp.id < 0

let start_span t ~cat ~pid ?(tid = 0) ?(parent = null_span) ?(args = []) name =
  if not t.enabled then null_span
  else begin
    let sp =
      { id = fresh_id t; name; cat; pid; tid; parent = parent.id;
        start = t.now (); stop = neg_infinity; args }
    in
    record t sp;
    sp
  end

let add_args sp args = if not (is_null sp) then sp.args <- sp.args @ args

let finish_at t ~stop ?(args = []) sp =
  ignore t;
  if (not (is_null sp)) && sp.stop < sp.start then begin
    sp.stop <- Float.max stop sp.start;
    if args <> [] then sp.args <- sp.args @ args
  end

let finish t ?args sp = finish_at t ~stop:(t.now ()) ?args sp

let complete t ~cat ~pid ?(tid = 0) ?(parent = null_span) ?(args = [])
    ~start ~stop name =
  if t.enabled then begin
    let sp =
      { id = fresh_id t; name; cat; pid; tid; parent = parent.id;
        start; stop = Float.max stop start; args }
    in
    record t sp
  end

let spans t =
  let closed =
    List.rev_map
      (fun sp -> if sp.stop < sp.start then { sp with stop = sp.start } else sp)
      t.items
  in
  List.stable_sort (fun a b -> Float.compare a.start b.start) closed

let roots t = List.filter (fun sp -> sp.parent < 0) (spans t)
let children t parent = List.filter (fun sp -> sp.parent = parent.id) (spans t)

let find_all t name = List.filter (fun sp -> sp.name = name) (spans t)

(* ---- export ---------------------------------------------------------- *)

let escape = Jsonv.escape

let add_num buf x =
  if Float.is_finite x then Buffer.add_string buf (Printf.sprintf "%.3f" x)
  else Buffer.add_string buf "0"

let add_args_json buf sp =
  Buffer.add_string buf "{\"id\":";
  Buffer.add_string buf (string_of_int sp.id);
  Buffer.add_string buf ",\"parent\":";
  Buffer.add_string buf (string_of_int sp.parent);
  List.iter
    (fun (k, v) ->
      Buffer.add_string buf ",\"";
      escape buf k;
      Buffer.add_string buf "\":\"";
      escape buf v;
      Buffer.add_string buf "\"")
    sp.args;
  Buffer.add_char buf '}'

(* Chrome trace_event format: "X" (complete) events.  Sim time is in µs
   and trace_event [ts]/[dur] are in µs, so timestamps map 1:1. *)
let add_chrome_event buf sp =
  Buffer.add_string buf "{\"name\":\"";
  escape buf sp.name;
  Buffer.add_string buf "\",\"cat\":\"";
  escape buf sp.cat;
  Buffer.add_string buf "\",\"ph\":\"X\",\"ts\":";
  add_num buf sp.start;
  Buffer.add_string buf ",\"dur\":";
  add_num buf (Float.max 0.0 (sp.stop -. sp.start));
  Buffer.add_string buf ",\"pid\":";
  Buffer.add_string buf (string_of_int sp.pid);
  Buffer.add_string buf ",\"tid\":";
  Buffer.add_string buf (string_of_int sp.tid);
  Buffer.add_string buf ",\"args\":";
  add_args_json buf sp;
  Buffer.add_char buf '}'

let to_chrome_string t =
  let buf = Buffer.create 65536 in
  Buffer.add_string buf "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  let pids = Hashtbl.create 8 in
  let first = ref true in
  let sep () =
    if !first then first := false else Buffer.add_string buf ",\n"
  in
  List.iter
    (fun sp ->
      if not (Hashtbl.mem pids sp.pid) then begin
        Hashtbl.replace pids sp.pid ();
        sep ();
        Buffer.add_string buf
          (Printf.sprintf
             "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,\"tid\":0,\
              \"args\":{\"name\":\"node %d\"}}"
             sp.pid sp.pid)
      end;
      sep ();
      add_chrome_event buf sp)
    (spans t);
  Buffer.add_string buf "]}\n";
  Buffer.contents buf

let add_jsonl_line buf sp =
  Buffer.add_string buf "{\"id\":";
  Buffer.add_string buf (string_of_int sp.id);
  Buffer.add_string buf ",\"parent\":";
  Buffer.add_string buf (string_of_int sp.parent);
  Buffer.add_string buf ",\"name\":\"";
  escape buf sp.name;
  Buffer.add_string buf "\",\"cat\":\"";
  escape buf sp.cat;
  Buffer.add_string buf "\",\"pid\":";
  Buffer.add_string buf (string_of_int sp.pid);
  Buffer.add_string buf ",\"tid\":";
  Buffer.add_string buf (string_of_int sp.tid);
  Buffer.add_string buf ",\"start\":";
  add_num buf sp.start;
  Buffer.add_string buf ",\"stop\":";
  add_num buf sp.stop;
  Buffer.add_string buf ",\"args\":{";
  let first = ref true in
  List.iter
    (fun (k, v) ->
      if !first then first := false else Buffer.add_char buf ',';
      Buffer.add_char buf '"';
      escape buf k;
      Buffer.add_string buf "\":\"";
      escape buf v;
      Buffer.add_char buf '"')
    sp.args;
  Buffer.add_string buf "}}\n"

let to_jsonl_string t =
  let buf = Buffer.create 65536 in
  List.iter (add_jsonl_line buf) (spans t);
  Buffer.contents buf

let write_file path contents =
  let oc = open_out path in
  output_string oc contents;
  close_out oc

let write_chrome t path = write_file path (to_chrome_string t)
let write_jsonl t path = write_file path (to_jsonl_string t)
