(** Console output device (the prototype's "remote console" on the
    Ethernet, used for control and debugging).

    A write of a character to the console's MMIO data register appends
    it to the output buffer.  Output is an environment interaction, so
    under replication the backup's console writes are suppressed just
    like disk I/O; tests assert that the console output across a
    failover reads as one contiguous stream. *)

type t

val create : unit -> t

val put : t -> int -> unit
(** Append the low byte of the word as a character. *)

val contents : t -> string

val length : t -> int

val fingerprint : t -> int
(** {!Hft_sim.Fnv} digest of the contents, kept up to date as
    characters arrive, so taking it reads no buffered byte.  Equal
    contents give equal fingerprints. *)

val clear : t -> unit

type saved

val save : t -> saved
(** The previous save or restore itself while nothing was written
    since: sharing rests on that proof, never on equal
    fingerprints. *)

val restore : t -> saved -> unit
