(** Privilege analysis: which privilege levels can reach each
    instruction, and what goes wrong there.

    The machine boots at level 0 and trap delivery forces level 0
    ({!Hft_machine.Cpu.deliver_trap}), so both kinds of root seed the
    analysis with [{0}].  The only instruction that changes the level
    without trapping is a [Mtcr Cr_status] executed at level 0; its
    written level is resolved through constant propagation, widening
    to all four levels when the source register is unknown.  [Rfi] has
    no static successors, so a handler's return never floods its
    caller's privilege set.

    Findings:
    - a {e privileged} instruction ([Mfcr]/[Mtcr]/[Tlbw]/[Rfi])
      reachable above level 0 traps on every such execution: an error
      when the program installs no trap vector (the fault has nowhere
      to deliver), a warning otherwise;
    - an {e environment} instruction reachable above level 0: the
      hardware does not privilege-check environment instructions, so
      user-level code reaches machine-global state the kernel is
      assumed to mediate (warning);
    - the section 3.1 branch-and-link hazard: [Jal] and [Probe]
      deposit the {e real} privilege level in a register; storing,
      comparing or otherwise consuming such a value (anything but the
      [Jr] that shifts the bits back out) makes behaviour differ
      between bare and virtualized runs (warning). *)

val solve :
  ?stats:Finding.stats ->
  Cfg.t ->
  Absint.Consts.state option array ->
  int option array
(** Per-instruction bitmask of privilege levels that can be live there
    (bit [l] set iff level [l] reaches the instruction); [None] on
    unreachable code.  A mask of exactly [0b0001] certifies the
    instruction never executes above level 0 — the {!Manifest} [Priv0]
    certificate. *)

val check :
  ?syms:Symtab.t ->
  Cfg.t ->
  Absint.Consts.state option array ->
  int option array ->
  Finding.t list
(** The findings over solved constants and the {!solve} masks. *)
