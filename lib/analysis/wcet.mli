(** Worst-case instruction-count analysis over the loop-collapsed
    block graph.

    Loops from {!Loopbound} are processed innermost-first: a loop's
    per-iteration cost is the longest path through its body with
    directly nested loops collapsed into single nodes weighted by
    their own total cost, and its total cost is that multiplied by the
    inferred trip count.  With every (reducible) cycle folded into a
    loop node, the remaining graphs are DAGs and longest paths are
    exact; anything still cyclic — irreducible flow, an unbounded or
    unstructured interior — propagates [None] rather than a guess.

    Superblock regions get the same treatment from their head, edges
    back into the head excluded to match the per-entry restart
    semantics of {!Superblock.bound} and the runtime validator's
    region counter: [region_wcet] is a sound cap on instructions
    retired between consecutive head visits, defined even when the
    region contains interior loops that defeat the loop-free
    {!Superblock.bound}.

    Function summaries ride the {!Hft_machine.Isa.Jal} call graph:
    an entry's span is the blocks its entry block dominates, calls to
    other entries contribute the callee's summary at the call site,
    and call-graph cycles report [Recursive].  These summaries inform
    [lint] reporting only — the certificates the validator and
    translator spend are the per-loop and per-region numbers. *)

type func_cost = Fwcet of int | Frecursive | Funbounded

type t = {
  loop_iter : int option array;
      (** per {!Loopbound.loop}: one iteration, children collapsed *)
  loop_total : int option array;  (** [bound * iter] *)
  region_wcet : int option array;
      (** per {!Superblock.region}: instructions per head entry *)
  functions : (int * func_cost) list;
      (** [Jal]-entry leader address -> summary, ascending *)
}

val analyze : Cfg.t -> Domtree.t -> Superblock.t -> Loopbound.t -> t
