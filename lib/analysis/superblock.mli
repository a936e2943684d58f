(** Superblock discovery: single-entry multi-block regions of the
    clean blocks (no unresolved indirect jumps, no out-of-range direct
    targets): the unit the threaded-code engine translates and the
    unit the validator's certification coverage counts.

    Seeds are the connected components of the dominator forest
    restricted to clean blocks — a dominator subtree is single-entry
    at its root — then an eviction fixpoint restores single entry
    where dirty subtrees punched edges into a component's interior:
    any non-head block with an in-edge from outside its region is
    split off as a singleton (trivially single-entry, since every CFG
    edge targets a block leader). *)

type region = {
  id : int;
  head : int;        (** block id of the unique entry *)
  blocks : int list; (** member block ids, ascending *)
}

type t = {
  regions : region array;
  region_of : int array;  (** block id -> region id, [-1] for dirty blocks *)
}

val discover : Cfg.t -> Domtree.t -> t
