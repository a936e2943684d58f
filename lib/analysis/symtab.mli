(** Symbolization of instruction addresses.

    Findings cite [label+offset] rather than raw instruction indices:
    the assembler's label list (and the comment "source lines" it
    threads through {!Hft_machine.Asm.program.srclines}) survive
    encoding via {!Hft_machine.Image}, so a reloaded image symbolizes
    identically to a freshly assembled one. *)

type t

val empty : t

val of_program : Hft_machine.Asm.program -> t

val resolve : t -> int -> string
(** [resolve t addr] is ["label"], ["label+off"] for the nearest label
    at or before [addr], or ["@addr"] when no label precedes it. *)

val srcline : t -> int -> string option
(** The nearest assembler comment at or before [addr], if any. *)
