(** Deterministic, splittable pseudo-random number generator.

    All nondeterminism in the simulator (TLB replacement, disk fault
    injection, workload seeds) flows through explicitly-seeded [Rng.t]
    values, so that every experiment is reproducible from its seed and
    the two simulated processors can be given deliberately different
    streams (reproducing the nondeterministic-TLB divergence of the
    paper, section 3.2).

    The generator is SplitMix64, which is small, fast and has
    well-understood statistical behaviour. *)

type t

val create : int -> t
(** [create seed] makes a fresh generator from an integer seed. *)

val copy : t -> t
(** Independent copy with identical future output. *)

val split : t -> t
(** [split t] advances [t] and returns a new generator whose stream is
    statistically independent of [t]'s subsequent output. *)

val bits64 : t -> int64
(** Next raw 64-bit value. *)

val int : t -> int -> int
(** [int t bound] is uniform in [0, bound).  Raises [Invalid_argument]
    if [bound <= 0]. *)

val float : t -> float -> float
(** [float t bound] is uniform in [0, bound). *)

val bool : t -> bool

val chance : t -> float -> bool
(** [chance t p] is [true] with probability [p]. *)

type saved

val save : t -> saved

val restore : t -> saved -> unit
(** Rewind (or advance) the generator in place to a {!save} of it: its
    output from there on repeats. *)
