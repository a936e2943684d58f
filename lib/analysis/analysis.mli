(** The analyzer entry point: run every checker over a guest image.

    [check p] {!solve}s the image once — control flow ({!Cfg}) refined
    by value-set analysis ({!Vsa}), then constants ({!Absint.Consts}),
    privilege levels and initialized registers, all on the one
    {!Absint.Make} engine — symbolizes locations ({!Symtab}), and
    hands the solved states to the three checkers — {!Privilege},
    {!Determinism} and {!Epoch} — plus a control-flow sanity pass that
    flags direct branches landing outside the program.  Findings come
    back sorted errors-first ({!Finding.compare}).

    Call it on the image that will actually execute: for the
    recovery-register mechanism that is the assembled program
    ([rewritten:false], the default); for section 2.1's object-code
    editing it is the output of {!Hft_machine.Rewrite.rewrite_program}
    ([rewritten:true]), which additionally verifies that every
    reachable cycle crosses a counting site and that nothing clobbers
    the reserved counter register.

    The harness ({!Hft_harness.Scenario.replicated}) runs this before
    every replicated run; [hftsim lint] exposes it on the command
    line, exiting non-zero on errors. *)

type solved = {
  cfg : Cfg.t;  (** control flow, refined by the value-set analysis *)
  vsa : Vsa.t;
  consts : Absint.Consts.state option array;
  privs : int option array;  (** {!Privilege.solve} *)
  init : int option array;   (** {!Determinism.init_solve} *)
  rewritten : bool;
  fixpoint_iterations : int;
      (** transfer applications over the four solves together *)
}
(** Every fixpoint of one image, solved once: the findings
    ({!findings}) and the compilation manifest
    ({!Manifest.of_solved}) both read it. *)

val solve :
  ?rewritten:bool -> ?code_refs:int list -> Hft_machine.Isa.instr array ->
  solved
(** Recover the coarse CFG ({!Cfg.build}), run value-set analysis on
    it and refine the CFG with the indirect-jump targets it
    enumerates, then solve constants, privilege levels and
    initialized registers over the refined CFG.  [rewritten]
    (default [false]) seeds the counter register as initialized at
    boot, as object-code editing's hypervisor does. *)

val findings :
  ?random_tlb:bool ->
  ?data_init:int list ->
  ?mmio_base:int ->
  syms:Symtab.t ->
  solved ->
  Finding.t list
(** Run the four checkers over a solved image.  [data_init] lists
    addresses the host writes before boot (a workload's [config]
    addresses); defaults are [random_tlb:false], [data_init:[]], and
    the default CPU configuration's [mmio_base].  Byte-identical
    findings (one location reachable from several roots) are reported
    once. *)

val check :
  ?rewritten:bool ->
  ?random_tlb:bool ->
  ?data_init:int list ->
  ?mmio_base:int ->
  Hft_machine.Asm.program ->
  Finding.t list
(** {!solve} the program, then report its {!findings} symbolized
    against its labels. *)
