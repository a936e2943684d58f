(** The simulator's one hashing primitive: a 62-bit FNV-1a step.

    Every digest — guest memory chunks, CPU state, code images, wire
    checksums, disk contents and the model checker's state
    fingerprints — is built from these steps, each from a basis of its
    own.  Most mix their fields one at a time into a running 62-bit
    value.  Two combine per-part digests so that one part can change
    without the rest being re-mixed: a guest memory's digest is the sum
    modulo [2^62] of one term per chunk (the chunk's position mixed
    with its digest), and the engine's pending-event digest the xor of
    one digest per event.  The checker compares states by fingerprint
    alone, so over [n] states about [n² / 2^63] pairs collide
    (Holzmann's [n² / 2^(b+1)] with [b = 62]). *)

val mask : int
(** [2^62 - 1]: every digest is a non-negative 62-bit value. *)

val basis : int
(** The state fingerprints' basis: FNV's 64-bit offset basis, truncated
    to 62 bits. *)

val int : int -> int -> int
(** [int h v] mixes the low 62 bits of [v] into [h]. *)

val bool : int -> bool -> int
val string : int -> string -> int (** the length, then every byte *)

val list : (int -> 'a -> int) -> int -> 'a list -> int
(** A list mixes its length, then each element with the given step. *)
