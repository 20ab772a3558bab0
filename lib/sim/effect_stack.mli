(** Reusable effect stack for interpreters of sans-I/O cores.

    A core's [handle_with ~emit] delivers its effects one at a time during
    the call, but an interpreter must not execute them there: executing an
    effect may feed the same core again (a caller continuation issuing the
    next request), and the core is mid-input.  The stack defers execution
    without building a list per input:

    {[
      let base = Effect_stack.top s in
      Core.handle_with ~emit:(Effect_stack.emit s) core input;
      Effect_stack.run s ~from:base
    ]}

    [run] executes the segment [[base, top)] in order.  A nested feed
    from inside an executed effect pushes above [top], runs its own
    segment and truncates back to [top] before returning, so effects
    execute exactly as iterating each input's effect list would, with
    every nested input's effects spliced in place.  Executed slots are
    cleared, so dead effects are not kept alive. *)

type 'a t

val create : filler:'a -> 'a t
(** [filler] occupies free slots; an immediate value (a constant
    constructor) keeps clearing free of write barriers. *)

val set_exec : 'a t -> ('a -> unit) -> unit
(** The executor {!run} applies to each effect (default: ignore). *)

val emit : 'a t -> 'a -> unit
(** Push one effect.  [emit s] is a closure allocated once, in
    {!create}: pass it as a core's [~emit] at no per-input cost. *)

val top : 'a t -> int
(** Height of the stack: the [base] of the next segment. *)

val segment : 'a t -> from:int -> 'a list
(** The effects in [[from, top)], in push order (for I/O taps). *)

val run : 'a t -> from:int -> unit
(** Execute [[from, top)] in order, then truncate to [from] and clear the
    executed slots. *)
