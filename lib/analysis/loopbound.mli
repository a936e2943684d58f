(** Natural-loop recovery and trip-count inference.

    Loops come from the dominator tree's back edges ({!Domtree.back_edges});
    back edges sharing a header merge into one natural loop whose body
    is the header plus every block that reaches a latch without passing
    the header.

    A loop earns a static [bound] — the worst-case number of header
    visits per entry — when it has the canonical counted shape: a
    single latch whose terminating branch either re-enters the header
    or leaves the loop, steered by an affine induction variable (one
    in-loop definition [Alui (Add|Sub, i, i, imm)] dominating the
    latch) compared against a loop-invariant limit.  Entry values come
    from the value-set analysis read off the preheader edges
    ({!Vsa.out_value_at}); limits from the in-state at the branch.
    Every formula guards against unsigned wrap-around (and restricts
    signed compares to the non-negative half-space), and bodies must
    be acyclic below the header so the induction variable steps
    exactly once per iteration — nested or irreducible interiors
    refuse a bound rather than risk an unsound one.

    Unbounded loops carry a [witness]: a header-to-latch block path a
    reviewer can follow to see why no bound was derived. *)

type loop = {
  id : int;
  header : int;  (** block id (see {!Domtree.t.leaders}) *)
  latches : int list;  (** back-edge sources, ascending *)
  blocks : int list;  (** body block ids including header, ascending *)
  bound : int option;
      (** max header visits per loop entry; [None] when not inferred *)
  witness : int list;
      (** for unbounded loops, a header→latch block path; [[]] otherwise *)
}

type t = {
  loops : loop array;  (** ordered by header block id *)
  loop_of : int array;
      (** block id -> innermost containing loop id, [-1] outside *)
}

val analyze : Cfg.t -> Domtree.t -> Vsa.t -> t
