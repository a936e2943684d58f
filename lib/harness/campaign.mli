(** Randomized fault-injection campaigns over the replicated system.

    The paper proves the protocol correct under fail-stop processors
    and reliable FIFO channels; this module explores what the
    implementation does when those assumptions are stressed, in the
    style of ReHype's and HyCoR's fault-injection validation.  A
    campaign samples N {e schedules} — fault-model rates for the two
    hypervisor channels (loss, duplication, corruption, delivery
    jitter) crossed with an optional primary crash (and reintegration)
    or backup crash — runs each as one simulated trial, and checks
    after each that the surviving machine is indistinguishable from a
    single fault-free processor:

    - exactly one node completes in a primary role (no split brain);
    - the guest's results (ops, checksum, scratch, ticks) match the
      bare-machine run;
    - console output is byte-identical to the bare run (campaign
      workloads produce their output deterministically; under a crash
      the paper only promises at-least-once environment output, so
      console-heavy workloads are not used with crash faults);
    - the shared disk's operation history is single-processor
      consistent;
    - the lockstep hashes of the two replicas never diverged.

    Every trial is reproducible standalone from its [(seed, schedule)]
    pair: the schedule's seed regenerates the channels' random
    streams.  Failing schedules are {e shrunk} to a minimal
    reproducer by greedily zeroing/halving fault dimensions while the
    failure persists. *)

type schedule = {
  seed : int;  (** regenerates the channel fault randomness *)
  loss : float;
  duplicate : float;
  corrupt : float;
  delay_us : int;
  crash_epoch : int option;  (** fail the primary at this boundary *)
  backup_crash_epoch : int option;
  reintegrate : bool;  (** revive the crashed primary as a backup *)
  hv_faults : Hft_core.System.fault list;
      (** hypervisor faults to seed ({!Hft_core.System.Hv_fault}:
          crash, hang or recovery-block corruption, struck mid-way
          through an epoch); each normally heals by in-place
          microreboot, or escalates to fail-stop on a double fault *)
}

type config = {
  params : Hft_core.Params.t;
  workload : Hft_guest.Workload.t;
  trials : int;
  master_seed : int;
  max_loss : float;  (** sampling cap for {!generate} *)
  max_duplicate : float;
  max_corrupt : float;
  max_delay_us : int;
  max_crash_epoch : int;
  with_hv_faults : bool;  (** sample hypervisor faults too *)
  max_hv_faults : int;  (** per-trial cap when [with_hv_faults] *)
}

val default_config :
  ?params:Hft_core.Params.t ->
  ?hv_faults:bool ->
  workload:Hft_guest.Workload.t ->
  trials:int ->
  seed:int ->
  unit ->
  config
(** Caps chosen inside the hardened protocol's tolerance envelope
    (loss <= 0.25, corruption <= 0.1, jitter <= 3 ms), where a false
    crash suspicion is vanishingly unlikely but an unhardened run
    reliably diverges. *)

val generate : config -> Hft_sim.Rng.t -> schedule
(** Sample one schedule from the master stream. *)

type trial = {
  index : int;
  schedule : schedule;
  violations : string list;  (** empty = every invariant held *)
  time : Hft_sim.Time.t option;
  faults_injected : int;  (** channel-level fault events this trial *)
  retransmits : int;  (** summed over both hypervisors *)
  duplicates_dropped : int;
  corruptions_detected : int;
  hv_injected : int;  (** hypervisor faults actually injected *)
  microreboots : int;
  recovery_escalations : int;
  reconciled_ios : int;  (** parked disk completions delivered at reboot *)
  reconciled_msgs : int;  (** held/dropped frames reconciled at reboot *)
  recovery_windows : Hft_sim.Time.t list;
      (** fault-to-healthy durations, both nodes, newest first *)
}

type reference = Hft_core.Bare.outcome
(** The bare-machine run all trials are compared against. *)

val reference : config -> reference

val check_invariants :
  ?console:[ `Exact | `Replay_extension ] ->
  reference:reference ->
  Hft_core.System.t ->
  Hft_core.System.outcome ->
  string list
(** The five campaign invariants, shared with the model checker:
    exactly one primary-role finisher, guest results equal to bare,
    console output, disk single-processor consistency, lockstep
    agreement.  [console] selects the output check: [`Exact]
    (default) demands byte equality with the bare run;
    [`Replay_extension] accepts the bare stream with a replayed
    overlap — prefix + suffix with [j <= i] — which is what the
    paper's at-least-once output guarantee permits across a failover.
    Returns the violations (empty = all held). *)

val run_trial :
  ?obs:Hft_obs.Recorder.t ->
  config ->
  reference:reference ->
  index:int ->
  schedule ->
  trial
(** One deterministic trial: build the system, install the schedule's
    fault model and crashes, run, check invariants.  [obs] records the
    trial's typed protocol events (used by [hftsim chaos --exact
    --trace-out] to emit a timeline for a shrunk reproducer).  A run
    that exhausts the engine's event budget is reported as the
    violation "runaway simulation (event limit N)".

    The previous trial's machines are recycled ({!System.create}
    [?recycle]) when its config had physically the same [params] and
    [workload]; the result is the same as a fresh build's. *)

val shrink :
  ?max_steps:int -> config -> reference:reference -> schedule -> schedule
(** Minimize a failing schedule: greedily zero or halve one fault
    dimension at a time while the trial still fails.  Returns the
    input unchanged if it does not fail. *)

type summary = {
  trials : trial list;
  failures : (trial * schedule) list;
      (** each failing trial paired with its shrunk schedule *)
}

val run :
  ?shrink_failures:bool -> ?on_trial:(trial -> unit) -> config -> summary
(** Run the whole campaign.  [on_trial] is called after each trial
    (progress reporting). *)

val hv_fault_to_string : Hft_core.System.fault -> string
(** ["TARGET:KIND:EPOCH"], e.g. ["primary:crash:3"] — the argument
    format of [hftsim run --hv-fault] and [hftsim chaos --hv-fault].
    @raise Invalid_argument unless the fault is a
    {!Hft_core.System.Hv_fault}. *)

val hv_fault_of_string : string -> (Hft_core.System.fault, string) result
(** The inverse: a {!Hft_core.System.Hv_fault} at an epoch > 0, or an
    [Error] naming the spec. *)

val flags : schedule -> string
(** [hftsim chaos] command-line flags that replay this exact schedule
    standalone ([--exact --seed ... --loss ... ...]). *)
