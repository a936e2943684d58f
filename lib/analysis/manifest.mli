(** The compilation manifest: a versioned ([hftsim-manifest/4]),
    machine-readable certification of a guest image, per basic block
    and per superblock — what a threaded-code engine needs to know to
    pre-decode guest code without breaking the paper's assumptions.

    Certificates:
    - [Deterministic]: every register read is written on every path
      from its roots, no [Probe], every load provably stays below the
      MMIO window (value-set analysis), no TLB insertion under random
      replacement — execution is a pure function of replicated state
      (the paper's section 3.1 obligations);
    - [Priv0]: the block never executes above virtual privilege level
      0, so privileged instructions in it never trap for privilege
      reasons (under the hypervisor's deprivileging virtual 0 runs at
      real 1).

    No certificate bounds a superblock's instruction count: an epoch
    ends where the recovery counter expires (or, under object-code
    editing, at a counting site on every cycle), and the threaded
    backend charges each translated block by its own length.

    A superblock is {e certified} when every member block carries at
    least one certificate.  {!install} arms the interpreter's runtime
    validator ({!Hft_machine.Cpu.install_validator}) with the same
    facts, making the static pass differentially testable against the
    dynamic oracle: any [Cert_violation] stop is an analyzer bug or a
    stale manifest. *)

type cert = Deterministic | Priv0

type block = {
  leader : int;
  len : int;
  certs : cert list;
  region : int;  (** superblock id, [-1] for dirty blocks *)
}

type superblock = {
  sid : int;
  head : int;         (** leader address of the unique entry block *)
  members : int list; (** member leader addresses *)
  certified : bool;
}

type t = {
  image_hash : int;   (** {!Hft_machine.Encode.program_hash} of the image *)
  instructions : int;
  rewritten : bool;
  random_tlb : bool;
  mmio_base : int;
  blocks : block list;
  superblocks : superblock list;
  fixpoint_iterations : int;
  jr_sites : int;         (** reachable indirect jumps *)
  jr_unresolved : int;    (** still unresolved after value-set analysis *)
  jr_resolved_by_vsa : int;
}

val schema : string

val of_solved : ?random_tlb:bool -> ?mmio_base:int -> Analysis.solved -> t
(** Certify an image from its one {!Analysis.solve}, the same solve
    its lint findings read.  [random_tlb] (default [false]) and
    [mmio_base] (default {!Hft_machine.Cpu.default_config}'s) are the
    [Deterministic] certificate's machine assumptions. *)

val of_code :
  ?rewritten:bool ->
  ?random_tlb:bool ->
  ?mmio_base:int ->
  ?code_refs:int list ->
  Hft_machine.Isa.instr array ->
  t
(** [of_solved] of [Analysis.solve ?rewritten ?code_refs code]. *)

val of_program :
  ?rewritten:bool ->
  ?random_tlb:bool ->
  ?mmio_base:int ->
  Hft_machine.Asm.program ->
  t

val of_code_cached :
  ?rewritten:bool ->
  ?random_tlb:bool ->
  ?mmio_base:int ->
  ?code_refs:int list ->
  Hft_machine.Isa.instr array ->
  t
(** Memoized {!of_code} keyed on the image hash, the analysis knobs
    and the whole [code_refs] list — every hypervisor of every chaos
    trial would otherwise re-analyze the same image. *)

val validate : code:Hft_machine.Isa.instr array -> t -> (unit, string) result
(** Refuse a stale manifest: the image hash and length must match. *)

val install : t -> deprivileged:bool -> Hft_machine.Cpu.t -> unit
(** Arm the CPU's runtime certificate validator with this manifest's
    certificates.  [deprivileged] maps the [Priv0] virtual level
    through the hypervisor's section 3.1 deprivileging (virtual 0 runs
    at real 1); pass [false] for the bare machine.  On a CPU recycled
    from one this manifest armed with the same [deprivileged]
    ({!Hft_machine.Cpu.create}), the predecessor's tables are re-armed
    with fresh run state instead of rebuilt; the manifest is validated
    either way.
    @raise Invalid_argument when {!validate} fails against the CPU's
    code image. *)

val install_translation :
  t ->
  deprivileged:bool ->
  Hft_machine.Cpu.t ->
  (int, string) result
(** Compile this manifest's certified superblocks into the CPU's
    direct-threaded translation cache
    ({!Hft_machine.Cpu.install_translation}) and return how many
    superblocks translated.  Unlike {!install} a stale manifest is not
    fatal: it returns [Error] and the CPU stays on the full-interpreter
    path — the safe fallback the threaded backend degrades to.
    [deprivileged] maps [Priv0] entry prechecks exactly as in
    {!install}.  As with {!install}, a CPU recycled from one this
    manifest translated with the same [deprivileged] re-arms that
    translation when {!Hft_machine.Cpu.rearm_translation} allows. *)

val certified_blocks : t -> int
val certified_superblocks : t -> int

val static_coverage : t -> float
(** Fraction of reachable instructions inside certified superblocks. *)

val cert_name : cert -> string
val cert_of_name : string -> (cert, string) result

val to_json : t -> Hft_obs.Json.t
(** The [hftsim-manifest/4] document that [lint --manifest-out] writes
    and the [--manifest-baseline] gate reads back.  Coverage ratios are
    rounded to 4 decimals, so [to_json] of [of_json j] gives back a
    committed [j]. *)

val of_json : Hft_obs.Json.t -> (t, string) result
(** A document of any other schema, an older one included, is an
    [Error] that names its schema. *)

val pp_summary : Format.formatter -> t -> unit
(** One line: certified blocks/superblocks, coverage, [Jr] resolution. *)
