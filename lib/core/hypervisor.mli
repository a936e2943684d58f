(** The augmented hypervisor: virtualization plus the paper's
    replica-coordination protocol (rules P1-P7).

    One instance manages one virtual machine on one simulated
    processor.  The VM's kernel runs at real privilege level 1
    (virtual level 0) and its applications at level 3, exactly the
    mapping of section 3.1; every privileged, environment and MMIO
    instruction traps to this module and is simulated against shadow
    state at the paper's measured cost of 15.12 us.

    Execution is divided into epochs of [Params.epoch_length]
    instructions, delimited by the recovery counter.  The two
    instances cooperate:

    - the {b primary} executes against the real devices, buffers
      interrupts during an epoch and relays them (P1), and at each
      epoch end sends [Tme], optionally awaits acknowledgements
      (original protocol), delivers buffered interrupts and sends
      [end,E] (P2);
    - the {b backup} ignores its own device interrupts (P3), acks and
      buffers relayed ones (P4), suppresses I/O and environment
      output, replays forwarded environment-instruction results, and
      at each epoch end waits for [Tme] and [end,E] before delivering
      the same interrupts at the same instruction-stream point (P5);
    - if the primary fails, the backup's failure detector fires while
      it waits, it finishes the failover epoch, delivers what was
      relayed, synthesizes an {e uncertain} completion for every
      outstanding I/O operation (P6/P7), and promotes itself.

    With the revised protocol of section 4.3, the boundary ack wait
    moves to I/O initiation.

    Reintegration of a new backup (left open in the paper) is
    implemented as an extension: at an epoch boundary the primary
    snapshots the VM image, ships it over the link (paying its full
    transfer time), and resumes coordinated execution once the new
    backup confirms. *)

type role = Primary | Backup | Promoted

type t

val manifest_for :
  params:Params.t -> Hft_guest.Workload.t -> Hft_analysis.Manifest.t
(** The compilation manifest of the workload's (possibly rewritten)
    image under [params]' epoch mechanism, TLB policy and MMIO base
    ({!Hft_analysis.Manifest.of_code_cached}).  {!create} and {!Bare}
    arm every CPU's runtime certificate validator with it
    ({!Hft_analysis.Manifest.install}; the bare machine passes
    [~deprivileged:false]), so every run re-checks the static
    certificates against execution. *)

val arm_translation :
  params:Params.t ->
  Hft_analysis.Manifest.t ->
  deprivileged:bool ->
  Hft_machine.Cpu.t ->
  unit
(** When [params.exec_backend] is [Threaded] or [Differential],
    compile the manifest's certified superblocks into [cpu]'s
    direct-threaded translation cache
    ({!Hft_analysis.Manifest.install_translation}).  A stale manifest
    degrades silently to the full-interpreter path.  A no-op under
    [Interp]. *)

val create :
  name:string ->
  role:role ->
  port:int ->
  engine:Hft_sim.Engine.t ->
  params:Params.t ->
  workload:Hft_guest.Workload.t ->
  disk:Hft_devices.Disk.t ->
  console:Hft_devices.Console.t ->
  clock:Hft_devices.Clock.t ->
  ?obs:Hft_obs.Recorder.t ->
  ?recycle:t ->
  unit ->
  t
(** [obs] receives typed protocol events (epoch boundaries, ack waits,
    interrupt buffering and delivery, failover steps, …) under this
    hypervisor's name as the source; defaults to the null recorder,
    which costs nothing.  [recycle] is a finished hypervisor whose
    virtual machine the new one recycles ({!Hft_machine.Cpu.create}):
    over the same workload and analysis knobs it also takes over the
    manifest, the validator tables and the translation instead of
    rebuilding them.  The result behaves exactly like a fresh one, and
    the recycled hypervisor must not be used again. *)

val connect : t -> tx:Message.t Hft_net.Channel.t -> peer:t -> unit
(** Wire the node to its one peer: [tx] carries everything it sends
    (protocol data, acknowledgements and the reintegration handshake),
    whatever its role.  The peer reference is used only for the
    reintegration snapshot's data plane; all coordination goes through
    messages. *)

val on_message : t -> Message.t -> unit
(** Deliver an incoming protocol message; installed as the receive
    callback of the peer's channel. *)

val start : t -> unit
(** Write the workload configuration, arm the first epoch, and begin
    executing. *)

val crash : t -> unit
(** Fail-stop this processor: it stops executing and sending; its
    in-flight messages are still delivered (the channel handles
    that). *)

(* Accessors *)

val name : t -> string
val role : t -> role
val alive : t -> bool
val halted : t -> bool
val halt_time : t -> Hft_sim.Time.t
val epoch : t -> int
val cpu : t -> Hft_machine.Cpu.t
val stats : t -> Stats.t
val results : t -> Guest_results.t

val vm_state_hash : t -> int
(** Hash of the architectural VM state including the virtual control
    registers (and excluding the physical TLB, which the
    hypervisor-managed mode keeps invisible). *)

val outstanding_io : t -> int
(** I/O operations issued (or, at the backup, suppressed) whose
    completion interrupt has not yet been delivered to the VM — the
    set rules P6/P7 must cover at failover. *)

val fingerprint : t -> int
(** Canonical 62-bit {!Hft_sim.Fnv} digest of the whole node, mixed
    field by field: VM state hash, the virtual disk controller's
    registers, and every piece of protocol state
    (role, liveness, blocking, reliable-stream counters and queues,
    held and buffered messages, forwarded values, virtual clocks,
    recovery state).  Queues and lists mix their length first; hash
    tables mix the xor of per-entry digests, so their bucket order
    does not matter.  Timing {e statistics} and arrival stamps are
    excluded, so two runs that reach behaviourally identical states by
    different schedules fingerprint alike.  Used with
    {!Hft_sim.Engine.pending_fingerprint} and the channel/disk
    fingerprints to prune the model checker's state graph. *)

(** {2 Save and restore}

    For the model checker, which resumes schedules from saved states
    instead of re-executing them from the start. *)

type saved
(** The whole node: its CPU ({!Hft_machine.Cpu.save}); one int array
    holding every slot of the state table, the recovery block and the
    virtual control registers; disk controller registers, statistics,
    every other protocol field, table and queue, and the epoch-boundary
    hook.  The wiring {!connect} and {!set_on_promote} install is set
    once and not saved.
    Timer handles are saved as the engine events they name, which
    {!Hft_sim.Engine.restore} brings back. *)

type spare
(** The integer arrays and statistics record of a save that will never
    be restored again, for a later save to overwrite. *)

val spare : saved -> spare

val save : ?like:saved -> ?into:spare -> t -> saved
(** Parts equal to [like]'s are shared with it rather than copied.
    With [into], the integer state and statistics are written there
    instead of into fresh storage. *)

val restore : t -> saved -> unit
(** Put the node back in place to a {!save} of it.
    @raise Invalid_argument if the save is of another node. *)

(* Hooks installed by {!System}. *)

val set_on_epoch_boundary : t -> (epoch:int -> hash:int -> unit) -> unit
(** Called at every epoch boundary, before interrupt delivery, with
    the VM state hash at that instruction-stream point. *)

val get_on_epoch_boundary : t -> epoch:int -> hash:int -> unit
(** The currently installed boundary hook, so fault installers can
    chain onto it instead of displacing each other. *)

val set_on_promote : t -> (t -> unit) -> unit

(* Reintegration extension. *)

val request_reintegration : t -> unit
(** Ask a [Primary] or [Promoted] instance to ship a snapshot to its
    (revived) peer at the next epoch boundary and resume replication.
    @raise Invalid_argument on a [Backup]. *)

val revive_as_backup : t -> unit
(** Reset a crashed instance so it can receive a snapshot and rejoin
    as the backup. *)

(* Hypervisor-failure recovery (ReHype extension). *)

type corrupt_target =
  | C_epoch
      (** wild writes into the epoch slots [epoch], [relay_epoch] and
          [env_idx] ({!scramble_offsets}) *)
  | C_acks
      (** wild writes into the ack slots [acked], [data_recvd] and
          [data_sent] ({!scramble_offsets}) *)
  | C_rtx  (** the retransmission queue is lost *)

type hv_fault = Hv_crash | Hv_hang | Hv_corrupt of corrupt_target

type hv_health = Healthy | Faulted of hv_fault | Recovering

val hv_fault_kind : hv_fault -> string
(** Stable tag: ["crash"], ["hang"], ["corrupt-epoch"],
    ["corrupt-acks"], ["corrupt-rtx"]. *)

val inject_hv_fault : t -> hv_fault -> unit
(** Seed a hypervisor fault.  With [Params.hv_recovery] the node
    detects it (panic handler, out-of-band watchdog, or the
    recovery-block integrity audit) and performs an in-place
    microreboot: guest memory and CPU state are preserved, protocol
    counters are restored from the recovery block, parked disk
    completions and dropped channel traffic are reconciled, and epochs
    resume — invisibly to both guest replicas.  A second fault during
    detection or recovery, or an exhausted reboot budget
    ([Params.hv_recovery_max]), escalates to fail-stop and the
    ordinary failover path.  Without [Params.hv_recovery] every
    hypervisor fault is immediately fail-stop (the paper's
    assumption).  No-op on a dead or halted node. *)

val hv_health : t -> hv_health
(** The node's recovery state; [Healthy] except between fault
    injection and the end of its microreboot.  The model checker uses
    this to assert that a down hypervisor does no protocol work. *)

(** {2 The state table}

    Every protocol scalar of a node — the epoch counters, the reliable
    stream's cursors, liveness flags (0 or 1), virtual clocks, arrival
    stamps (nanoseconds) and recovery counters — is one slot of an int
    array, declared once with its value at {!create} and two
    properties.  A {e fingerprinted} slot reaches {!fingerprint}.  A
    {e protected} slot is mirrored into the ReHype recovery block at
    the end of every event-handling quantum and restored from it by a
    microreboot; the protected slots are the first ones.  {!save} and
    {!restore} copy every slot and the recovery block. *)

type slot = {
  name : string;
  init : int;  (** the value {!create} gives it *)
  fingerprinted : bool;
  protected : bool;
}

val slots : slot list
(** Every slot's declaration, in index order. *)

val slot : t -> int -> int
(** The value of the slot at an index into {!slots}. *)

val set_slot : t -> int -> int -> unit
(** Overwrite a slot behind the protocol's back, as a wild write would:
    for tests of the bookkeeping above. *)

val scramble_offsets : corrupt_target -> (int * int) list
(** The wild writes an [Hv_corrupt] fault makes, as (slot index,
    offset added) pairs.  Every target is protected.  [C_rtx] offsets
    no slot: it empties the retransmission queue. *)
