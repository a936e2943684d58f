(** Experiment driver: runs a workload bare and replicated, the two
    measurements behind the paper's figure of merit.

    "Normalized performance" (section 4): a workload requiring N
    seconds on bare hardware and N' seconds on the prototype has
    normalized performance N'/N; 1.0 is ideal.  {!Paper} computes it,
    sharing one bare baseline per workload. *)

val bare_time : ?params:Hft_core.Params.t -> Hft_guest.Workload.t -> Hft_sim.Time.t
(** Time for the workload on the bare machine (independent of epoch
    length and protocol). *)

val lint :
  params:Hft_core.Params.t ->
  Hft_guest.Workload.t ->
  Hft_analysis.Finding.t list
(** Static analysis of the image the run will execute: the workload's
    program as assembled, or — under [Code_rewriting] — after
    object-code editing with the configured epoch length.  The
    workload's [config] addresses count as host-initialized memory. *)

val replicated :
  ?obs:Hft_obs.Recorder.t ->
  params:Hft_core.Params.t ->
  Hft_guest.Workload.t ->
  Hft_core.System.outcome
(** One replicated run, gated at both ends.  Before boot it runs
    {!lint} and raises [Failure] — after printing the report to stderr
    — if the analyzer finds errors: a guest that violates the paper's
    assumptions would diverge or wedge the replicas, so it never
    starts.  After the run it raises [Failure], naming the workload and
    the first diverged epoch, if the replicas' epoch-boundary state
    hashes ever differed: a run that did not execute the same
    instructions with the same effects on both replicas yields no
    figure.  [obs] collects the run's typed protocol events (see
    {!Hft_obs}). *)

(** Standard benchmark workloads at simulation scale.  The paper ran
    4.2e8 instructions and 2048 I/O operations; these are scaled down
    (documented in EXPERIMENTS.md) — normalized performance is a
    ratio, so the scale cancels as long as per-iteration structure is
    preserved. *)

val cpu_workload : ?iterations:int -> unit -> Hft_guest.Workload.t
val write_workload : ?ops:int -> unit -> Hft_guest.Workload.t
val read_workload : ?ops:int -> unit -> Hft_guest.Workload.t
