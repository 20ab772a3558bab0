(** Minimal JSON reader — validates the trace exporter's output
    (trace-smoke CI check, integration tests) without adding a JSON
    dependency.  Not a general-purpose parser: non-ASCII [\u] escapes
    decode as ['?'].  Also holds the one string escaper the JSON writers
    share. *)

type v =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of v list
  | Obj of (string * v) list

val parse : string -> (v, string) result

val member : string -> v -> v option
val to_list : v -> v list option
val to_string : v -> string option
val to_float : v -> float option

val escape : Buffer.t -> string -> unit
(** [escape buf s] appends [s] with JSON string escapes (quotes,
    backslashes, control characters), without the surrounding quotes. *)
