(** Dominator tree at basic-block granularity, over the block graph induced by {!Cfg.blocks}.

    Every CFG edge targets a block leader (a leader is a root, branch
    target, or fall-through of a control transfer), so the block graph
    is exactly the last-instruction successor sets mapped through
    block identity.  Multiple roots (boot plus installed trap vectors)
    are handled with a virtual super-root: a root block's [idom] is
    the virtual root, reported as {!virtual_root}.

    Dominators drive superblock discovery ({!Superblock}): any subtree
    of the dominator tree is single-entry at its root — an edge from
    outside the subtree into a proper descendant would create a path
    to that descendant avoiding the subtree root, contradicting
    dominance. *)

type t = {
  leaders : int array;      (** block id -> leader address *)
  lens : int array;         (** block id -> instruction count *)
  block_of : int array;     (** address -> block id, [-1] off-block *)
  bsuccs : int list array;  (** block graph successors *)
  bpreds : int list array;
  idom : int array;
      (** immediate dominator; roots point at {!virtual_root}, blocks
          unreachable in the block graph hold [-1] *)
  nblocks : int;
}

val virtual_root : t -> int
(** The virtual super-root's id ([nblocks]); it joins all roots. *)

val build : Cfg.t -> t

val dominates : t -> int -> int -> bool
(** [dominates t a b]: block [a] dominates block [b] (reflexive). *)
