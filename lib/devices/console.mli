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

val clear : t -> unit

type saved

val save : ?like:saved -> t -> saved
(** [like] itself while nothing was written since it was taken. *)

val restore : t -> saved -> unit
