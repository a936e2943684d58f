(** Assembly of the complete 1-fault-tolerant virtual machine: two
    simulated processors (each with its own clock), the shared
    dual-ported disk, a console, the FIFO channels between the
    hypervisors, lockstep checking, and optional fault injection.

    This is the module examples and benchmarks talk to:

    {[
      let sys =
        System.create ~params:Params.default
          ~workload:(Workload.dhrystone ~iterations:100_000) () in
      let outcome = System.run sys in
      Format.printf "finished in %a@." Hft_sim.Time.pp outcome.time
    ]} *)

type t

val create :
  ?params:Params.t ->
  ?disk_seed:int ->
  ?tlb_seeds:int * int ->
  ?obs:Hft_obs.Recorder.t ->
  ?recycle:t ->
  workload:Hft_guest.Workload.t ->
  unit ->
  t
(** [obs] is threaded to every hypervisor, channel and the disk: all
    typed protocol events of the run land in this one recorder (and,
    when the recorder was created with [~dispatch:true], every
    scheduler dispatch as well).  Defaults to the null recorder.
    [tlb_seeds] gives each processor's TLB-replacement RNG when the
    CPU config uses a [Random] policy — pass different seeds to
    reproduce the paper's nondeterministic-TLB divergence.  Every run
    compares the replicas' state hashes at each epoch boundary (see
    {!outcome}); the disk starts filled with its pattern
    ({!Hft_devices.Disk.fill}).
    Each hypervisor sends everything on its own channel to its one
    peer: the primary on {!channel_to_backup}, the backup on
    {!channel_to_primary}, whatever their roles become.
    [recycle] is a finished system whose primary and backup guest
    memories the new one resets and reuses instead of allocating
    ({!Hypervisor.create}); the new system behaves exactly like a
    fresh one.  The recycled system must not be used again. *)

val engine : t -> Hft_sim.Engine.t

val primary : t -> Hypervisor.t

val backup : t -> Hypervisor.t

val disk : t -> Hft_devices.Disk.t
val console : t -> Hft_devices.Console.t

val channel_to_backup : t -> Message.t Hft_net.Channel.t
(** The primary-to-backup channel, exposed for fault injection
    (message-loss plans) and statistics. *)

val channel_to_primary : t -> Message.t Hft_net.Channel.t

val crash_primary_at : t -> Hft_sim.Time.t -> unit
(** Schedule a fail-stop of the primary's processor. *)

val crash_primary_on_epoch : t -> int -> unit
(** Fail the primary exactly when it reaches the given epoch boundary
    (before completing it — the canonical failover epoch of case (ii),
    section 2.2). *)

val crash_backup_on_epoch : t -> int -> unit
(** Fail the backup when it reaches the given epoch boundary; the
    primary detects the silence (missing acknowledgements) and
    continues unreplicated. *)

val hv_fault_at :
  t ->
  target:[ `Primary | `Backup ] ->
  kind:Hypervisor.hv_fault ->
  Hft_sim.Time.t ->
  unit
(** Schedule a hypervisor fault (ReHype extension) on the given node
    at an absolute time; see {!Hypervisor.inject_hv_fault}. *)

val hv_fault_on_epoch :
  t -> target:[ `Primary | `Backup ] -> kind:Hypervisor.hv_fault -> int -> unit
(** Inject a hypervisor fault mid-epoch, deterministically: when the
    node starts the given epoch's boundary processing, the fault is
    scheduled half an epoch's simulated time later.  Chains with other
    boundary hooks ([crash_*_on_epoch], lockstep recording). *)

val install_fault_model :
  t -> rng:Hft_sim.Rng.t -> Hft_net.Channel.fault_model -> unit
(** Downgrade both hypervisor channels to fair-lossy with independent
    random streams split from [rng], wiring {!Message.corrupt} as the
    corrupter so damaged frames fail their checksum at the
    receiver. *)

val faults_injected : t -> int
(** Total faults (losses, duplicates, corruptions, nonzero delays)
    the two channels' fault models have injected so far. *)

val fingerprint : t -> int
(** Canonical 62-bit {!Hft_sim.Fnv} digest of the whole system, mixed
    field by field from its parts' digests — the virtual clock, both
    hypervisors (VM state and protocol state), the primary/backup
    channel pair, the disk, the console output and the pending event
    set (relative times).  Two interleavings that reach behaviourally
    identical global states fingerprint alike (same-instant
    reorderings never advance the clock); states differing only by a
    time shift stay distinct, since pending timers fire on the
    absolute clock.  The model checker uses this to prune revisited
    states. *)

val reintegrate_after_failover : t -> delay:Hft_sim.Time.t -> unit
(** After a promotion, wait [delay], revive the failed processor as a
    fresh backup and stream a state snapshot to it (extension beyond
    the paper). *)

type outcome = {
  completed_by : [ `Primary | `Promoted_backup ];
  time : Hft_sim.Time.t;        (** virtual completion time *)
  results : Guest_results.t;    (** from the surviving VM *)
  console : string;
  primary_stats : Stats.t;
  backup_stats : Stats.t;
  epochs_compared : int;        (** lockstep pairs checked *)
  lockstep_mismatches : int list;  (** epochs where the replicas diverged *)
  disk_consistent : bool;       (** single-processor consistency of the
                                    device's operation history *)
  disk_errors : string list;
  failover : bool;
  messages_sent : int;          (** primary-to-backup channel *)
  bytes_sent : int;
}

val run : ?limit:int -> t -> outcome
(** {!start}, then {!drive}. *)

val start : t -> unit
(** Start every hypervisor: each writes the workload configuration,
    arms its first epoch and schedules its first burst. *)

val drive : ?limit:int -> t -> outcome
(** Run a started (or restored) system until the surviving virtual
    machine halts and all events drain.  [limit] bounds the engine's
    dispatch count since creation ({!Hft_sim.Engine.run}), default 200
    million.
    @raise Failure if no VM completes the workload.
    @raise Hft_sim.Engine.Runaway when the limit is reached. *)

(** {2 Snapshot and restore}

    The model checker resumes schedules from saved states instead of
    re-executing their prefixes.  A snapshot covers the engine (its
    live events, including a batch the scheduler hook is deciding over
    when taken from inside it), both hypervisors with their CPUs,
    memories and TLBs, the disk, the console, both channels, the
    lockstep table and the system's own flags.  The observability
    recorder and installed hooks on the engine are not covered. *)

type snapshot

val snapshot : t -> snapshot
(** Take it between two events: outside {!drive}, or from a scheduler
    hook ({!Hft_sim.Engine.set_scheduler}).  Guest memory is saved as
    the chunks written since this system's previous snapshot or
    restore, sharing the rest, disk blocks are shared copy-on-write,
    and other unchanged parts are shared with the previous snapshot,
    so a snapshot mostly costs its protocol state. *)

val restore : t -> snapshot -> unit
(** Put the system back in place to a snapshot of it — any one, any
    number of times.  Pending events are the same records again, so
    their handlers (which capture the restored objects) and the
    sequence numbers the engine issues next are those of a run that
    never left.  Continue it with {!drive}, not {!run}: it is already
    started.
    @raise Invalid_argument if the snapshot is of another system
    (including one this system was recycled from). *)

val release : t -> snapshot -> unit
(** Declare that the snapshot will never be restored again: later
    snapshots of the system overwrite its integer arrays and
    statistics instead of allocating their own, so a search that
    takes and drops snapshots steadily allocates little.  Restoring a
    released snapshot is an error the system does not detect. *)
