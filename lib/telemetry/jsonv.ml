(* Minimal recursive-descent JSON reader — just enough to validate the
   trace exporter's output (trace-smoke, integration tests) without
   pulling a JSON dependency into the tree. *)

type v =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of v list
  | Obj of (string * v) list

exception Bad of string

type state = { s : string; mutable i : int }

let peek st = if st.i < String.length st.s then Some st.s.[st.i] else None

let skip_ws st =
  while
    st.i < String.length st.s
    && (match st.s.[st.i] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
  do
    st.i <- st.i + 1
  done

let fail st msg = raise (Bad (Printf.sprintf "%s at offset %d" msg st.i))

let expect st c =
  match peek st with
  | Some c' when c' = c -> st.i <- st.i + 1
  | _ -> fail st (Printf.sprintf "expected %c" c)

let literal st word value =
  let n = String.length word in
  if st.i + n <= String.length st.s && String.sub st.s st.i n = word then begin
    st.i <- st.i + n;
    value
  end
  else fail st (Printf.sprintf "expected %s" word)

let parse_string st =
  expect st '"';
  let buf = Buffer.create 16 in
  let rec go () =
    if st.i >= String.length st.s then fail st "unterminated string"
    else begin
      let c = st.s.[st.i] in
      st.i <- st.i + 1;
      match c with
      | '"' -> Buffer.contents buf
      | '\\' ->
        (if st.i >= String.length st.s then fail st "bad escape"
         else begin
           let e = st.s.[st.i] in
           st.i <- st.i + 1;
           match e with
           | '"' -> Buffer.add_char buf '"'
           | '\\' -> Buffer.add_char buf '\\'
           | '/' -> Buffer.add_char buf '/'
           | 'n' -> Buffer.add_char buf '\n'
           | 't' -> Buffer.add_char buf '\t'
           | 'r' -> Buffer.add_char buf '\r'
           | 'b' -> Buffer.add_char buf '\b'
           | 'f' -> Buffer.add_char buf '\012'
           | 'u' ->
             if st.i + 4 > String.length st.s then fail st "bad \\u escape";
             let hex = String.sub st.s st.i 4 in
             st.i <- st.i + 4;
             let code =
               try int_of_string ("0x" ^ hex)
               with _ -> fail st "bad \\u escape"
             in
             (* Non-ASCII code points round-trip as '?' — the exporter
                only emits ASCII, this is validation, not fidelity. *)
             if code < 0x80 then Buffer.add_char buf (Char.chr code)
             else Buffer.add_char buf '?'
           | _ -> fail st "bad escape"
         end);
        go ()
      | c -> Buffer.add_char buf c; go ()
    end
  in
  go ()

let parse_number st =
  let start = st.i in
  let isnum c =
    match c with
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while st.i < String.length st.s && isnum st.s.[st.i] do
    st.i <- st.i + 1
  done;
  if st.i = start then fail st "expected number";
  match float_of_string_opt (String.sub st.s start (st.i - start)) with
  | Some f -> Num f
  | None -> fail st "bad number"

let rec parse_value st =
  skip_ws st;
  match peek st with
  | None -> fail st "unexpected end of input"
  | Some '{' ->
    expect st '{';
    skip_ws st;
    if peek st = Some '}' then (st.i <- st.i + 1; Obj [])
    else begin
      let rec members acc =
        skip_ws st;
        let k = parse_string st in
        skip_ws st;
        expect st ':';
        let v = parse_value st in
        skip_ws st;
        match peek st with
        | Some ',' -> st.i <- st.i + 1; members ((k, v) :: acc)
        | Some '}' -> st.i <- st.i + 1; Obj (List.rev ((k, v) :: acc))
        | _ -> fail st "expected , or }"
      in
      members []
    end
  | Some '[' ->
    expect st '[';
    skip_ws st;
    if peek st = Some ']' then (st.i <- st.i + 1; Arr [])
    else begin
      let rec elems acc =
        let v = parse_value st in
        skip_ws st;
        match peek st with
        | Some ',' -> st.i <- st.i + 1; elems (v :: acc)
        | Some ']' -> st.i <- st.i + 1; Arr (List.rev (v :: acc))
        | _ -> fail st "expected , or ]"
      in
      elems []
    end
  | Some '"' -> Str (parse_string st)
  | Some 't' -> literal st "true" (Bool true)
  | Some 'f' -> literal st "false" (Bool false)
  | Some 'n' -> literal st "null" Null
  | Some _ -> parse_number st

let parse s =
  let st = { s; i = 0 } in
  try
    let v = parse_value st in
    skip_ws st;
    if st.i <> String.length s then Error "trailing garbage"
    else Ok v
  with Bad msg -> Error msg

let member k = function Obj kvs -> List.assoc_opt k kvs | _ -> None
let to_list = function Arr l -> Some l | _ -> None
let to_string = function Str s -> Some s | _ -> None
let to_float = function Num f -> Some f | _ -> None

let escape buf s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s
