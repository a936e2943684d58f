(** The simulated processor: architectural state plus an instruction
    stepper.

    The stepper executes {e ordinary} instructions directly and stops
    — returning control to its executor — on anything whose behaviour
    is not a pure function of the virtual-machine state: environment
    instructions, privileged instructions attempted above privilege
    level 0, MMIO accesses, TLB misses, trap calls, and expiry of the
    recovery counter.  The executor is either the bare-metal runner
    (which performs the hardware action directly) or the hypervisor
    (which simulates it, per the paper's Environment Instruction
    Assumption).

    The stepper never delivers traps into the guest by itself;
    {!deliver_trap} is the hardware delivery mechanism invoked by the
    bare-metal executor, and the hypervisor performs the equivalent
    virtual delivery against the virtual machine's state. *)

type config = {
  mem_words : int;      (** size of physical data memory *)
  mmio_base : int;      (** physical word addresses at or above this
                            are device registers, not memory *)
  page_shift : int;     (** log2 of the page size in words *)
  tlb_entries : int;
  tlb_policy : Tlb.policy;
}

val default_config : config
(** 64 Ki words of memory, MMIO at 0xF0000, 1 Ki-word pages, 16 TLB
    entries, round-robin replacement. *)

type t

(** Why {!run} stopped. *)
type stop =
  | Fuel              (** the requested number of instructions completed *)
  | Recovery          (** recovery counter went negative (epoch end) *)
  | Stop_halt         (** [Halt] executed; pc points at the halt *)
  | Stop_wfi          (** [Wfi] completed; pc points past it *)
  | Env of Isa.instr  (** environment instruction needs simulation;
                          pc still points at it *)
  | Priv of Isa.instr (** privileged instruction at privilege > 0;
                          pc still points at it *)
  | Mmio_read of { paddr : int; reg : Isa.reg }
  | Mmio_write of { paddr : int; value : Word.t }
      (** memory-mapped I/O access; pc still points at the load/store *)
  | Tlb_miss of { vaddr : int; write : bool }
  | Protection of { vaddr : int; write : bool }
      (** user-mode access to a supervisor-only or read-only page *)
  | Syscall of int    (** [Trapc code]; pc still points at it *)
  | Fault of string   (** architectural error: bad pc, bad physical
                          address, invalid control register *)
  | Cert_violation of { addr : int; msg : string }
      (** the runtime certificate validator caught a certified block
          violating its compilation-manifest certificate — a static
          analyzer bug or a stale manifest; executors treat it as
          fatal *)

type run_result = {
  executed : int;  (** ordinary instructions completed during this run *)
  stop : stop;
}

type origin = ..
(** What built a validator's tables or a translation, as named by the
    layer that builds them ([Hft_analysis.Manifest] extends it with
    the manifest and its arming knobs).  The machine only stores it,
    so that a recycled CPU can hand its predecessor's armed state to
    the next build of the same thing ({!rearm_validator},
    {!rearm_translation}). *)

val create :
  ?config:config -> ?recycle:t -> code:Isa.instr array -> unit -> t
(** A CPU at reset: zero registers, pc 0, zero memory.  [recycle] is a
    finished CPU whose memory (after {!Memory.reset}), snapshot base
    and register files the new one adopts instead of allocating its
    own, and its TLB too under round-robin replacement (flushed; a
    random policy brings its own stream, so the TLB is new).  When
    [code] is physically the recycled CPU's code image, the new CPU
    also keeps its {!code_hash} and, reset to their fresh state, its
    validator and translation as spares for {!rearm_validator} and
    {!rearm_translation} — the translation only when its registers,
    memory and TLB were all adopted and it carries no profiling
    hooks.  The result is indistinguishable from a fresh CPU,
    including the bytes its first {!snapshot} counts.  The recycled
    CPU must not be used again, and a code image must not be mutated
    in place once a CPU runs it.
    @raise Invalid_argument if the recycled memory's size or page
    size differs from [config]'s. *)

val code_hash : t -> int
(** [Encode.program_hash (code t)], computed once per code image. *)

val config : t -> config
val code : t -> Isa.instr array
val mem : t -> Memory.t
val tlb : t -> Tlb.t

val pc : t -> int
val set_pc : t -> int -> unit
val advance_pc : t -> unit
(** [set_pc t (pc t + 1)] — used by executors after simulating an
    instruction that stopped the stepper. *)

val reg : t -> Isa.reg -> Word.t
val set_reg : t -> Isa.reg -> Word.t -> unit
(** Writes to register 0 are ignored. *)

val cr : t -> Isa.cr -> Word.t
val set_cr : t -> Isa.cr -> Word.t -> unit

val priv : t -> int
val set_priv : t -> int -> unit

val set_recovery : t -> int -> unit
(** Arm the recovery counter: enables counting and sets it so that the
    trap fires after exactly [n] further instructions complete. *)

val disable_recovery : t -> unit

val recovery_remaining : t -> int
(** Instructions left before the recovery trap (0 if disabled). *)

val tick_recovery : t -> bool
(** Decrement the recovery counter for an instruction completed by the
    executor on the CPU's behalf (a simulated environment or
    privileged instruction).  Returns [true] if the counter expired. *)

val run : t -> fuel:int -> run_result
(** Execute up to [fuel] instructions.  [fuel] must be positive. *)

val install_validator :
  ?origin:origin ->
  ?blk_end:int array ->
  ?loop_of:int array ->
  ?lhead:int array ->
  ?lbound:int array ->
  t ->
  priv_ok:int array ->
  det:bool array ->
  uses:int array ->
  def:int array ->
  region:int array ->
  rhead:int array ->
  rbound:int array ->
  random_tlb:bool ->
  unit
(** Arm the runtime certificate validator (the dynamic oracle for the
    static compilation manifest — see [Hft_analysis.Manifest]).  The
    first five tables are indexed by code address and must match the
    code length; [rhead]/[rbound] are indexed by certified-superblock
    id.  [priv_ok] is the bitmask of {e real} privilege levels allowed
    at the address (callers map a [Priv0] certificate through the
    hypervisor's deprivileging); [det] marks addresses inside
    [Deterministic]-certified blocks, whose register reads are checked
    against the runtime written set and whose loads must stay below
    the MMIO window; [region]/[rhead]/[rbound] drive the
    [Epoch_bounded] per-superblock instruction count.  {!run} stops
    with {!stop.Cert_violation} on the first breach.  Trap delivery
    and {!restore} reset the written set (trap roots start fully
    initialized; snapshot registers are replicated state).

    [blk_end] maps each address to the exclusive end of its basic
    block; when given, the per-instruction pre-dispatch checks hoist
    into one per-block check that certifies a skip window over the
    block's straight-line run, and a window whose completions cannot
    trip a region or loop bound is credited once, when it closes (the
    cost is [validator_overhead] in BENCH_core.json).  That is exact
    only if region and loop ids are uniform per block and every
    region head and loop header is a block leader, as the manifest's
    tables are.  Without [blk_end] every window is a singleton and
    checking is exactly per-instruction.

    [origin] names what the tables were built from; only a validator
    installed with one can be re-armed on a recycled successor.

    [loop_of]/[lhead]/[lbound] arm the loop-bound certificates:
    [loop_of] maps each address to its innermost {e bounded} loop (or
    [-1]), [lhead] that loop's header address and [lbound] its
    certified worst-case header visits per entry.  The validator
    counts header visits while the pc stays inside one loop's
    addresses — any excursion resets the count, so the dynamic check
    undercounts and never falsely trips — and stops with
    {!stop.Cert_violation} when a count exceeds its bound. *)

val rearm_validator : t -> (origin -> bool) -> bool
(** [rearm_validator t same] arms the validator inherited from the
    CPU [t] was recycled from, with fresh per-run state (written set,
    region and loop counters, observed maxima, coverage), when [same]
    accepts the origin it was installed with; returns whether it did.
    The inheritance is spent either way: a later call returns
    [false]. *)

val validator_active : t -> bool

val validator_amnesty : t -> unit
(** Reset the validator's path-sensitive state (written-register set,
    current superblock).  {!deliver_trap} and {!restore} call this
    internally; the hypervisor calls it on {e virtual} trap delivery,
    which enters a trap root without touching the real trap path. *)

val validator_coverage : t -> (int * int) option
(** [(covered, checked)]: instructions completed inside certified
    superblocks vs all instructions completed while validating, over
    the CPU's lifetime.  [None] when no validator is installed. *)

val observed_bounds : t -> (int array * int array) option
(** Per-certified-superblock and per-bounded-loop observed maxima, in
    the same index order as [rhead]/[rbound] and [lhead]/[lbound] were
    supplied to {!install_validator}: the largest per-entry instruction
    count each superblock actually reached, and the largest header-visit
    count each bounded loop actually reached.  Joined against the static
    WCET certificates this yields the per-region slack report.  The
    dynamic counters undercount by design (excursions reset them), so
    observed [<=] certified always holds on a valid manifest.  [None]
    when no validator is installed. *)

val install_translation :
  ?origin:origin -> t -> Translate.plan_region list -> unit
(** Compile the plan's certified superblocks to direct-threaded
    closure chains ({!Translate.compile}) and arm {!run}'s dispatch
    loop: when the pc lands on a translated superblock head and the
    entry prechecks pass (instruction budget, certified privilege
    mask), execution proceeds through the closure chain instead of the
    decode loop, with the recovery-counter charge batched per basic
    block.  Exits, traps, and untranslated code fall back to the
    interpreter, which remains the semantic oracle.  [origin] names
    what the plan was built from, as for {!install_validator}. *)

val rearm_translation : t -> (origin -> bool) -> bool
(** [rearm_translation t same] arms the translation inherited from the
    CPU [t] was recycled from, its counters and scratch state reset,
    when no profile is armed on [t] and [same] accepts the origin it
    was installed with; returns whether it did.  The inheritance is
    spent either way. *)

val translation : t -> Translate.t option

val install_profile : t -> unit
(** Arm exact guest hot-spot profiling: allocate a per-address
    retirement counter array covering the code image and have both
    backends maintain it — the interpreter bumps the completed
    instruction's slot, translated blocks credit their length at the
    leader and the cold exits debit refunds, so the two backends
    produce identical totals on identical runs.  If a translation is
    already installed it is recompiled from its stored plan (profiling
    specialises block prologues and disables loop hoisting), so arming
    order does not matter. *)

val clear_profile : t -> unit
(** Drop the counters (recompiling any installed translation without
    the profiling prologues). *)

val profile : t -> int array option
(** The live counter array — retirement counts by code address. *)

val profile_active : t -> bool

val profile_total : t -> int
(** Sum over the counter array; 0 when profiling is off. *)

val deliver_trap : ?badvaddr:int -> t -> cause:int -> epc:int -> unit
(** Hardware trap/interrupt delivery: saves [epc] and the status
    register, records the cause, switches to privilege 0 with
    interrupts and the MMU disabled, and jumps to the vector in
    [Cr_ivec].  The recovery counter is unaffected. *)

val interrupts_enabled : t -> bool

val translate : t -> write:bool -> int -> (int, stop) result
(** Virtual-to-physical translation as the load/store path performs
    it; exposed for the hypervisor's TLB-management path and tests. *)

val instructions_retired : t -> int
(** Total completed instructions over the CPU's lifetime. *)

val state_hash : ?include_tlb:bool -> ?full:bool -> t -> int
(** Hash of the architectural state (registers, pc, control registers,
    memory; optionally the TLB).  Two virtual machines in lockstep
    must have equal hashes at every epoch boundary.

    Memory is folded in as {!Memory.digest} — incremental over dirty
    pages — unless [full] is set, which uses the from-scratch
    {!Memory.full_digest}.  The two produce identical hashes, so
    replicas may mix schemes freely; [full] exists as the reference
    (and worst case) for benchmarks and equivalence tests. *)

type snapshot

val snapshot : t -> snapshot
(** Copy of the architectural state, for backup reintegration.  The
    first call copies memory in full; subsequent calls copy only the
    pages written since the previous snapshot into a shared base
    image.  Consequently taking a new snapshot invalidates the memory
    contents of snapshots taken earlier from the same CPU — callers
    keep at most one live snapshot per CPU (the hypervisor's
    reintegration path does). *)

val snapshot_bytes_copied : t -> int
(** Cumulative bytes of memory copied by {!snapshot} over this CPU's
    lifetime (the delta-snapshot win shows as this growing by much
    less than a full image per call). *)

val restore : t -> snapshot -> unit
(** Overwrite this CPU's state with the snapshot.  The code image must
    be the one the snapshot was taken from.
    @raise Invalid_argument on a code-image size mismatch. *)

val pp_stop : Format.formatter -> stop -> unit
