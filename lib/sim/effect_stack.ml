(* Growable array of pending effects; see the interface for the
   segment discipline that keeps nested feeds in list order. *)

type 'a t = {
  mutable buf : 'a array;
  mutable top : int;
  filler : 'a;
  push : 'a -> unit;
  mutable exec : 'a -> unit;
}

let push s e =
  let n = Array.length s.buf in
  if s.top = n then begin
    let buf = Array.make (2 * n) s.filler in
    Array.blit s.buf 0 buf 0 n;
    s.buf <- buf
  end;
  s.buf.(s.top) <- e;
  s.top <- s.top + 1

let create ~filler =
  let rec s =
    { buf = Array.make 64 filler; top = 0; filler; push = (fun e -> push s e); exec = ignore }
  in
  s

let set_exec s f = s.exec <- f
let emit s = s.push
let top s = s.top

let segment s ~from =
  let rec go i acc = if i < from then acc else go (i - 1) (s.buf.(i) :: acc) in
  go (s.top - 1) []

let run s ~from =
  let upto = s.top in
  (* A nested feed leaves [top] where it found it, so [upto] stays the end
     of this segment; read [buf] afresh each time, a nested push may have
     grown it. *)
  for i = from to upto - 1 do
    s.exec s.buf.(i)
  done;
  Array.fill s.buf from (upto - from) s.filler;
  s.top <- from
