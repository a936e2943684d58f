(** Software-managed translation lookaside buffer.

    The machine has no hardware page-table walker: a missing
    translation raises a TLB-miss trap and software (the guest kernel
    on bare hardware, or the hypervisor in the paper's
    hypervisor-managed mode of section 3.2) inserts the entry with the
    privileged [Tlbw] instruction.

    The replacement policy is pluggable.  [Round_robin] is
    deterministic; [Random] reproduces the HP 9000/720 behaviour the
    paper reports — "the TLB replacement policy on our HP 9000/720
    processors was non-deterministic" — which breaks the Ordinary
    Instruction Assumption when TLB-miss traps are visible to the
    guest.  Tests and the [tlb_determinism] example demonstrate both
    the divergence and the hypervisor-managed fix. *)

type policy =
  | Round_robin
  | Random of Hft_sim.Rng.t
      (** Victim chosen by the supplied generator; two processors given
          different streams will evict differently. *)

type entry = {
  vpage : int;
  ppage : int;
  user_ok : bool;   (** accessible at privilege level 3 *)
  writable : bool;
}

type t

val create : ?entries:int -> policy -> t
(** Default size is 16 entries, all invalid. *)

val size : t -> int

val lookup : t -> vpage:int -> entry option
(** No side effects (the model keeps no reference bits). *)

val insert : t -> entry -> unit
(** Insert, evicting per the policy if [vpage] is not already
    present. *)

val flush : t -> unit

val entries : t -> entry list
(** Valid entries, in slot order (for tests and state hashing). *)

val hash_into : t -> int -> int

(** Encoding of an entry into a 32-bit word for the [Tlbw]
    instruction: bits [19:0] physical page, bit 20 user-ok, bit 21
    writable. *)

val entry_word : ppage:int -> user_ok:bool -> writable:bool -> Word.t
val decode_entry_word : vpage:int -> Word.t -> entry

type saved
(** The slots, the round-robin cursor, the lookup cache and a random
    policy's generator. *)

val save : ?like:saved -> t -> saved
(** [like] itself when nothing changed since it was taken. *)

val restore : t -> saved -> unit
(** In place: the slot array stays the one translated code captured. *)
