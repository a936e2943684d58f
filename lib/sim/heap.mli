(** Minimal binary min-heap used by the event engine.

    Elements are ordered by a caller-supplied comparison.  The heap is
    a plain array-backed structure with O(log n) push/pop; it is kept
    separate from {!Engine} so that its invariants can be tested in
    isolation and reused (the disk model uses one for pending
    operations). *)

type 'a t

val create : cmp:('a -> 'a -> int) -> 'a t

val length : 'a t -> int
val is_empty : 'a t -> bool

val push : 'a t -> 'a -> unit

val peek : 'a t -> 'a option
(** Smallest element without removing it. *)

val pop : 'a t -> 'a option
(** Remove and return the smallest element. *)

val pop_exn : 'a t -> 'a
(** @raise Invalid_argument on an empty heap. *)

val clear : 'a t -> unit

val filter_in_place : ('a -> bool) -> 'a t -> unit
(** Drop every element for which the predicate is false, in O(n). *)

val iter : ('a -> unit) -> 'a t -> unit
(** Visit every element once, in unspecified (array) order, without
    copying or modifying the heap.  [f] must not push or pop. *)
