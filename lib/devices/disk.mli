(** Dual-ported block device with the paper's I/O interface.

    The paper's prototype shared one SCSI disk between the two
    processors and relied on exactly two properties of the device
    interface (section 2.2):

    - {b IO1}: if an I/O instruction is issued and performed, the
      issuing processor receives a completion interrupt;
    - {b IO2}: if the processor receives an {e uncertain} interrupt
      (SCSI CHECK_CONDITION), the I/O may or may not have been
      performed — so drivers must retry, and the device must tolerate
      repetition.

    This model implements both: every submitted operation completes
    with either [Ok] or [Uncertain] status; on [Uncertain] the
    operation was performed or not according to the fault injector.
    Both ports (primary and backup processor) see the same storage.

    Every submission and its outcome is recorded in an operation log
    which tests use to check the paper's correctness condition: after
    a failover, the environment must have seen a sequence of I/O
    consistent with a single processor — repetitions are legal only as
    retries following uncertain completions. *)

type status = Ok | Uncertain

type op =
  | Read of { block : int }
  | Write of { block : int; data : Hft_machine.Word.t array }

type completion = {
  op_id : int;       (** unique per submission *)
  port : int;        (** which processor submitted *)
  op : op;
  status : status;
  performed : bool;  (** whether storage was actually read/written;
                         on [Ok] always true, on [Uncertain] either *)
  data : Hft_machine.Word.t array option;
      (** block contents, for a performed [Read] *)
}

type params = {
  blocks : int;
  block_words : int;        (** 2048 words = 8 KB, as in the paper *)
  read_latency : Hft_sim.Time.t;   (** 24.2 ms in the paper *)
  write_latency : Hft_sim.Time.t;  (** 26 ms in the paper *)
  fault_rate : float;       (** probability a given op completes
                                [Uncertain] (transient fault) *)
  fault_performs : float;   (** probability an [Uncertain] op was
                                nevertheless performed *)
}

val default_params : params
(** 256 blocks of 2048 words, paper latencies, no faults. *)

type t

val create :
  engine:Hft_sim.Engine.t ->
  ?rng:Hft_sim.Rng.t ->
  ?obs:Hft_obs.Recorder.t ->
  params ->
  t
(** [rng] drives fault injection; defaults to a quiet device when
    [fault_rate] is zero.  [obs] receives a typed [Io_complete] event
    per completion under source ["disk"]; defaults to the null
    recorder. *)

val params : t -> params

val submit :
  t -> port:int -> op -> on_complete:(completion -> unit) -> int
(** Queue an operation; the callback fires when it completes (the
    device processes one operation at a time, FIFO).  Returns the
    operation id.
    @raise Invalid_argument on a bad block number or block size. *)

val busy : t -> bool
val queue_depth : t -> int

(** {2 Completion deferral (hypervisor-recovery support)}

    While a port's hypervisor is down (crashed, hung or mid-reboot) it
    cannot field completion interrupts.  The controller masks the
    port: operations still complete against storage and enter the
    operation log at their real completion time, but delivery of the
    interrupt is parked in a small per-port ring.  A recovered
    hypervisor drains the ring during reconciliation — property IO1
    (every performed operation yields a completion interrupt) then
    holds across a microreboot.  A node that instead fail-stops must
    drop its ring, or stale completions would fire into a later
    revived incarnation. *)

val defer_port : t -> port:int -> unit
(** Mask the port: park subsequent completions instead of delivering
    them.  Idempotent. *)

val release_port : t -> port:int -> int
(** Unmask the port and deliver every parked completion, oldest first
    (the order the interrupts would have arrived in).  Returns how
    many were delivered. *)

val drop_port : t -> port:int -> int
(** Unmask the port and discard its parked completions (fail-stop:
    the interrupts die with the processor).  Returns how many were
    discarded. *)

(** {2 Storage}

    A new disk reads as zeros everywhere.  The initial image is a pure
    function of the geometry (and of whether {!fill} ran), so storage
    is not built up front: a block stays {e pristine} — no backing
    array — until its first performed write, and reads and DMA of a
    pristine block build its contents on demand.  A run pays only for
    the blocks it writes.  Each written block keeps its content digest
    beside its words, and a pristine block's digest is folded from the
    pattern, once per block and fill state, without building it. *)

val fill : t -> unit
(** Reset every block to the fill pattern: word [i] of block [b] is
    [Word.mask (b * 0x01000193 + i)], deterministic and
    block-dependent so read workloads have something recognisable to
    fetch.  O(blocks); equivalent to {!write_block_now} of the pattern
    into every block (unlogged), and likewise leaves queued operations
    and the log alone. *)

val storage_hash : t -> int
(** Digest of the storage contents {e relative to the initial image}:
    the xor, over written blocks, of each block's digest delta against
    its pristine contents.  It is [0] on a fresh or freshly filled
    disk, equal for two disks of the same fill state whose contents
    match (whatever their write histories), and maintained
    incrementally: a write hashes only the data it stores, once, at
    submission, and takes the replaced block's term from its kept
    digest. *)

val fingerprint : t -> int
(** Canonical 62-bit {!Hft_sim.Fnv} digest of the device state for the
    model checker, mixed field by field: storage contents (as
    {!storage_hash} plus whether the disk was filled), busy flag,
    queued operations, completions parked for a down port, and the
    operation log {e minus} its sequence numbers, op ids and
    completion times (which encode when things happened, not what the
    environment observed). *)

val read_block_now : t -> int -> Hft_machine.Word.t array
(** Direct storage access for tests; not part of the device interface.
    Returns a fresh copy. *)

val write_block_now : t -> int -> Hft_machine.Word.t array -> unit

(** The environment-visible operation history. *)
module Log : sig
  type entry = {
    seq : int;          (** order in which operations completed *)
    time : Hft_sim.Time.t;
    port : int;
    op_id : int;
    block : int;
    is_write : bool;
    status : status;
    performed : bool;
    content_hash : int;  (** fingerprint of the written data; 0 for reads *)
  }

  val entries : t -> entry list
  (** Completion order, oldest first. *)

  val writes_to_block : t -> int -> entry list

  val check_single_processor_consistency :
    t -> errors:(string -> unit) -> bool
  (** The paper's correctness condition on the environment: the
      completed-operation sequence must be one a single processor
      could have produced given drivers that retry on uncertain
      completions.  Concretely:

      - the port sequence never returns to a port it switched away
        from (after a failover the old primary is gone for good);
      - a performed write may repeat (same block, same content) only
        as an adjacent retry, justified by the earlier attempt having
        completed [Uncertain] or by the repetition coming from the
        other port (the completion interrupt died with the old
        primary).

      Violations are reported through [errors]; returns [true] when
      the history is consistent. *)
end

(** {2 Save and restore} *)

type saved
(** Contents, queue, parked completions, log, counters and the fault
    generator's position.  Blocks, with their digests, are shared with
    the live disk and copied on its next write to them, so a save
    costs no block copy; the queue, the parked completions and the log
    are immutable values and are held by reference. *)

val save : ?like:saved -> t -> saved
(** The array of blocks is shared with [like]'s while it holds the
    same blocks. *)

val restore : t -> saved -> unit
