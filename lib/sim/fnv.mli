(** The simulator's one hashing primitive: a 62-bit FNV-1a step.

    Every digest — guest pages and memories, CPU state, code images,
    wire checksums, disk contents and the model checker's state
    fingerprints — mixes its fields one at a time into a running
    62-bit value, from a basis of its own.  The checker compares
    states by fingerprint alone, so over [n] states about [n² / 2^63]
    pairs collide (Holzmann's [n² / 2^(b+1)] with [b = 62]). *)

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
