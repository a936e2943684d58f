(** Value-set analysis: per-register sets of possible 32-bit values at
    every instruction, precise enough to (a) enumerate the targets of
    indirect jumps the flow-insensitive candidate sets of {!Cfg.build}
    could not resolve, and (b) bound load/store addresses below the
    MMIO window for the {!Manifest} [Deterministic] certificate.

    The value lattice is a finite set of words (capped at 8 elements,
    hulled to an interval beyond that) or an unsigned interval.
    Conditional-branch edges refine the operand ranges, and interval
    bounds that keep growing at a retreating-edge target climb a
    finite threshold ladder (16, 256, ..., then the word extremes), so
    every ascending chain is bounded while a counted loop's induction
    variable settles on the first rung above its real range instead of
    losing it to the old snap-to-extremes widening.
    The analysis runs on the {e coarse} CFG — a superset of the real
    edges — so its states are sound; {!refine} then narrows the CFG
    with the enumerated targets. *)

module Iset : Set.S with type elt = int

type value = Bot | Fin of Iset.t | Itv of int * int | Top

type t = {
  states : value array option array;  (** per-address in-states *)
  resolved : (int * int list) list;
      (** formerly-unresolved [Jr] sites with their enumerated
          in-range targets *)
}

val solve : ?stats:Finding.stats -> Cfg.t -> t
(** Solve on the shared {!Absint.Make} engine, passing the threshold
    widening and the branch-edge refinement as its [widen] and [edge]
    hooks. *)

val value_at : t -> addr:int -> reg:int -> value
(** In-state value of [reg] at [addr]; [Top] when unreachable. *)

val addr_range : value -> int -> (int * int) option
(** [addr_range v off]: unsigned range of [v + off] when provably
    wrap-free, [None] otherwise. *)

val refine : Cfg.t -> t -> Cfg.t
(** {!Cfg.resolve} the CFG with the enumerated [resolved] targets. *)

val join_value : value -> value -> value
val equal_value : value -> value -> bool
