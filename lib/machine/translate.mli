(** Direct-threaded translation of manifest-certified superblocks.

    The translator compiles {!Cpu}'s decoded image ({!Op}) of each
    certified superblock into a chain of OCaml closures, one per
    instruction, so the hot path pays no per-instruction dispatch on
    the operation, no per-instruction recovery-counter bookkeeping (the
    charge is batched per basic block against a pre-computed budget),
    and no per-instruction certificate checks (one privilege precheck
    at superblock entry stands in for them; the certificates
    themselves are the static proof).

    The closures hold only the fast path.  A load or store runs inline
    only when it reaches plain memory (below both the MMIO window and
    the memory size, through a permitted TLB hit when the MMU is on);
    otherwise it exits {e at} the instruction, which {!Cpu.run} hands
    to the interpreter, and the interpreter raises the stop.  Anything
    whose behaviour is not a pure function of the threaded state
    (environment instructions, privileged instructions, trap calls)
    compiles to a {e bail} exit that hands the program counter back to
    the interpreter untouched.  So every stop is raised by the
    interpreter, and translated execution is semantically identical to
    it on the instructions it executes.

    The module is deliberately below {!Cpu} in the dependency order:
    it defines the execution-state record the closures mutate, and
    {!Cpu.run}'s dispatch loop owns entering translated code and
    handing its exits back to the interpreter. *)

(** One basic block of a certified superblock, by leader address. *)
type plan_block = { pb_leader : int; pb_len : int }

(** One certified superblock: the head is the unique entry; the
    privilege mask is the bitmask of {e real} privilege levels the
    whole region is certified for ([-1] when unconstrained). *)
type plan_region = {
  pr_head : int;
  pr_blocks : plan_block list;
  pr_priv_mask : int;
}

(** Why translated execution returned to the dispatch loop. *)

val exit_budget : int
(** the next block does not fit the remaining instruction budget *)

val exit_link : int
(** control left the translated region (branch/jump/fall-through) *)

val exit_indirect : int
(** an indirect jump ([Jr]); [x_pc] holds the runtime target *)

val exit_bail : int
(** a non-ordinary instruction; the interpreter resumes {e at} it *)

val exit_stop : int
(** a load or store off its fast path; the interpreter runs it {e at}
    [x_pc] and raises its stop *)

(** Mutable execution state shared between the dispatch loop and the
    compiled closures.  The register file is the owning CPU's (the
    closures alias its memory and TLB too); the rest is (re)initialized
    per entry. *)
type st = {
  x_regs : int array;
  mutable x_pc : int;
  mutable x_remaining : int;
      (** instruction budget still available; the dispatch loop derives
          the completed count as entry budget minus this *)
  mutable x_smmu : bool;
  mutable x_spriv : int;
  mutable x_exit : int;
  x_prof : int array;
      (** per-address retirement counters when profiling, length 0
          otherwise.  Block prologues credit the whole block at the
          leader; the cold exit paths debit the refund, so the net
          charge equals the completed instructions on every path and
          agrees exactly with the interpreter's per-instruction
          counts. *)
  mutable x_prof_leader : int;
      (** leader currently holding the profiling credit *)
}

(** A translated superblock entry point. *)
type entry = {
  e_cost : int;       (** instruction cost of the head block *)
  e_priv_mask : int;  (** allowed real-privilege bitmask, [-1] any *)
  e_def : int;
      (** registers the region may write (static over-approximation
          over every member block) — credited to the validator's
          written-register set at entry instead of per block *)
  e_run : unit -> unit;
}

type t = {
  entries : entry option array;
      (** indexed by code address; [Some] at every translated member
          leader that begins with an ordinary instruction — any of
          them is a legal re-entry point after a mid-region exit *)
  state : st;
  translated_regions : int;
  translated_blocks : int;
  translated_instrs : int;
  code : Isa.instr array;  (** the image, for the listing *)
  listing : plan_region list;  (** the regions compiled *)
  untranslated : (int * string) list;
      (** region head, reason it was left to the interpreter *)
  mutable entries_taken : int;
  mutable threaded_instrs : int;
  mutable fb_budget : int;
  mutable fb_priv : int;
  mutable fb_link : int;
  mutable fb_indirect : int;
  mutable fb_bail : int;
  mutable fb_stop : int;
}

val compile :
  code:Isa.instr array ->
  ops:Op.t array ->
  regs:int array ->
  mem:Memory.t ->
  tlb:Tlb.t ->
  mmio_base:int ->
  page_shift:int ->
  ?profile:int array ->
  plan_region list ->
  t
(** Compile every region of the plan from [ops], the decoded [code].  Regions that cannot make
    guaranteed progress under translation (a head block opening with a
    non-ordinary instruction) or that fail basic sanity checks are
    recorded in [untranslated] and left to the interpreter.

    [?profile] supplies a per-address retirement counter array (same
    length as [code]): compiled blocks then maintain it exactly (see
    [x_prof]) at the cost of one store and one counter bump per block
    entry. *)

val reset : t -> unit
(** Return the translation's per-run state to what {!compile} leaves:
    the [st] scratch fields and every execution counter.  The compiled
    closures and the static counts are untouched, so a CPU that keeps
    the register file, memory and TLB the closures alias (reset
    themselves) runs the translation exactly as a fresh compile. *)

val note_entry_refused_budget : t -> unit
val note_entry_refused_priv : t -> unit

val note_exit : t -> unit
(** Charge the fallback counter matching [state.x_exit] after a run. *)

val pp_listing : Format.formatter -> t -> unit
(** The [hftsim disasm --translated] listing: per superblock, its
    entry prechecks and every translated instruction once, by address,
    in its block; then the reason each untranslated superblock was
    left to the interpreter. *)
