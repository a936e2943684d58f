(** Determinism lint: reads whose value is not a function of the
    replicated state.

    The paper's protocols make replicas deterministic by routing every
    nondeterministic input through the hypervisor: environment
    instructions and MMIO accesses stop the processor and are
    simulated ({!Hft_machine.Cpu.stop}).  What remains is state the
    protocol never transfers — and this checker flags reads of it:

    - a register read on some path from boot before anything writes it
      (error): replicas are not assumed to boot with identical
      register files.  Trap roots start fully initialized — a handler
      reads the interrupted context, which replicas agree on;
    - [Probe] (warning): an environment-state read {e outside} a
      trapping instruction — it returns the real privilege level as an
      ordinary instruction, so a virtualized guest reads the
      hypervisor's deprivileged level where the bare machine reads 0;
    - a load from a constant address that no instruction ever stores
      to and that the host does not initialize ([data_init]); it
      relies on deterministically zeroed boot memory (warning);
    - a load from MMIO space (info): deterministic only because the
      hypervisor mediates device access;
    - [Tlbw] (info under round-robin replacement, error when
      [random_tlb] is set): on the paper's HP 9000/720 the TLB
      replacement policy is random, so insertions evict different
      entries on primary and backup. *)

val def : Hft_machine.Isa.instr -> int option
(** The register an instruction writes, if any. *)

val uses : Hft_machine.Isa.instr -> int list
(** Registers an instruction reads (with duplicates; register 0 is
    always initialized and callers filter it). *)

val init_solve :
  ?stats:Finding.stats -> rewritten:bool -> Cfg.t -> int option array
(** Per-instruction must-initialized register bitmask (bit [r] set iff
    [r] is written on every path from its roots to the instruction);
    [None] on unreachable code.  Boot enters with r0 only (plus the
    counter register when [rewritten]); trap roots start fully
    initialized. *)

val check :
  ?syms:Symtab.t ->
  ?random_tlb:bool ->
  ?data_init:int list ->
  ?mmio_base:int ->
  Cfg.t ->
  Absint.Consts.state option array ->
  int option array ->
  Finding.t list
(** The findings over solved constants and the {!init_solve} masks
    (whose [rewritten] already accounts for the counter register the
    hypervisor seeds under object-code editing).  [data_init] lists
    the addresses the host writes into guest memory before boot (a
    workload's [config]).  [mmio_base] defaults to
    {!Hft_machine.Cpu.default_config}'s. *)
