(** Bare-hardware executor: runs a workload directly on the simulated
    machine, with no hypervisor and no replication.

    This is the paper's baseline — the [N] in the normalized
    performance [N'/N].  Environment instructions execute against the
    real devices at ordinary-instruction cost, privileged instructions
    execute directly (the guest kernel runs at real privilege 0),
    interrupts are delivered at the next instruction boundary, and
    traps are reflected to the guest with only the hardware's trap
    latency. *)

type t

type outcome = {
  time : Hft_sim.Time.t;       (** virtual time at the guest's [Halt] *)
  instructions : int;          (** instructions retired *)
  results : Guest_results.t;
  console : string;
  disk_log : Hft_devices.Disk.Log.entry list;
}

val create :
  ?params:Params.t ->
  ?disk_seed:int ->
  ?recycle:t ->
  workload:Hft_guest.Workload.t ->
  unit ->
  t
(** [recycle] is a finished machine whose CPU, guest memory included,
    the new one resets and reuses instead of allocating
    ({!Hft_machine.Cpu.create}); the new machine behaves exactly like a
    fresh one.  The recycled machine must not be used again. *)

val engine : t -> Hft_sim.Engine.t
val cpu : t -> Hft_machine.Cpu.t
val disk : t -> Hft_devices.Disk.t
val console : t -> Hft_devices.Console.t

val init_disk_blocks : t -> unit
(** Fill every disk block with deterministic, block-dependent content,
    so read benchmarks have something recognisable to fetch
    ({!Hft_devices.Disk.fill}). *)

val run : ?limit:int -> t -> outcome
(** Boot the guest and run the simulation to completion.
    @raise Failure if the guest never halts (deadlock or runaway). *)
