(** Control-flow recovery from decoded {!Hft_machine.Isa.instr}
    programs: successor edges, basic blocks, roots and reachability.

    Direct branches contribute their static targets.  Indirect jumps
    ([Jr]) are resolved against a conservative, flow-insensitive
    per-register candidate set: every [Jal rd] link makes the return
    point [site+1] a candidate for [rd], and every [Ldi rd v] whose
    value decodes to an in-range code address ([v >> 2], the link
    encoding [Jr] consumes) contributes that address.  A register that
    also has defs whose value cannot be enumerated statically (loads,
    ALU results, control registers) marks the [Jr] {e unresolved}: its
    successors widen to every candidate in the program and the address
    is listed in [jr_unresolved] so checkers can reject it.

    Roots are instruction 0 (boot) plus every installed trap vector:
    the relocatable immediates from the assembler's [code_refs] list,
    and — since rewriting consumes that list — every immediate loaded
    into a register that some [Mtcr Cr_ivec] consumes.  Vectors are
    entered asynchronously by the hardware.  [Rfi] and [Halt] have no static successors; a trap
    handler's continuation is modelled by the trap root, not by an
    edge. *)

type t = {
  code : Hft_machine.Isa.instr array;
  succs : int list array;       (** static successor addresses *)
  preds : int list array;
  roots : int list;             (** entry 0 + installed trap vectors *)
  reachable : bool array;       (** from [roots] over [succs] *)
  jr_unresolved : int list;     (** [Jr] sites with unanalyzable targets *)
  bad_targets : (int * int) list;
      (** (site, target) direct control transfers outside the code *)
}

val build :
  ?code_refs:int list -> ?extra_roots:int list ->
  Hft_machine.Isa.instr array -> t
(** [code_refs] are addresses of instructions whose immediate is a
    code address (from {!Hft_machine.Asm.program.code_refs}); their
    immediates become roots and indirect-jump candidates. *)

val of_program : Hft_machine.Asm.program -> t

val resolve : t -> (int * int list) list -> t
(** [resolve t sites] narrows each listed [Jr] site's successors to
    its enumerated targets, drops those sites from [jr_unresolved],
    and re-derives reachability and predecessors exactly as {!build}
    does. *)

val blocks : t -> (int * int) list
(** Basic blocks of the reachable code as (leader, length) pairs in
    address order: a leader is a root, a branch target, or the
    fall-through of a control transfer. *)

val on_cycle : t -> bool array
(** [on_cycle t].(i) iff instruction [i] lies on some reachable cycle
    (computed from the strongly connected components of the reachable
    subgraph). *)
