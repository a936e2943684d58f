(** Explicit-state model checker for the replica-coordination
    protocol (P1-P7).

    Explores {e every} schedule of a bounded {!Hft_harness.Scenarios}
    scenario — root fault choices crossed with all interleavings of
    co-enabled simulation events — checking machine-checkable
    invariants between every two events and at the end of every run.
    The search is stateless — a DFS over choice prefixes that stores
    no states beyond their fingerprints — but a run is not re-executed
    from the root: the system is snapshotted ({!Hft_core.System.snapshot})
    at open branch points (scheduler nodes with a sibling left to
    explore), at most 32 held at once and spread along the path, and
    each run after the first restores the deepest one it holds and
    executes only the stretch from there to its branch point and its
    new suffix.  A run that must start over rebuilds by recycling the
    previous run's system ({!Hft_harness.Scenarios.instantiate}'s
    [recycle]: the guest memories are reset in place, which is exact),
    so a whole exploration allocates one pair of guest memories.  Two
    reductions keep the tree tractable: sleep-set dynamic partial-order
    reduction (same-instant events on distinct replicas commute) and
    canonical-fingerprint pruning of revisited states.  Counterexamples
    are shrunk and serialized as replayable {!Schedule.t} values. *)

type options = {
  depth : int option;  (** max scheduler choices per run; [None] = unbounded *)
  max_states : int option;  (** stop exploring after this many states *)
  dpor : bool;  (** sleep-set partial-order reduction *)
  fingerprints : bool;  (** visited-state pruning *)
  max_violations : int;  (** stop after this many counterexamples *)
  shrink : bool;  (** minimize counterexamples before reporting *)
}

val default_options : options
(** Unbounded depth, no state cap, both reductions on, stop at the
    first violation, shrink it. *)

type violation = {
  v_roots : int list;
      (** root-choice indices, one per dimension of the scenario's
          {!Hft_harness.Scenarios.sc_roots}, in order *)
  v_choices : int list;  (** scheduler picks along the failing schedule *)
  v_reason : string;
  v_shrunk : bool;
}

type stats = {
  mutable runs : int;  (** schedules executed (incl. aborted replays) *)
  mutable states : int;  (** frontier scheduler nodes visited *)
  mutable transitions : int;
      (** scheduler decisions along every explored schedule, including
          the prefixes a resumed run did not execute again *)
  mutable executed : int;  (** scheduler decisions the simulator ran *)
  mutable snapshots : int;
      (** system snapshots taken, one per open branch point a run
          passes without one held *)
  mutable fingerprints : int;
      (** system fingerprints computed: one per new node with a choice
          awake (per snapshot instead when [fingerprints] is off), plus
          one per resumed run, checking its restore *)
  mutable pruned_visited : int;  (** nodes cut by the fingerprint cache *)
  mutable sleep_skipped : int;  (** sibling transitions put to sleep *)
  mutable sleep_pruned : int;  (** nodes abandoned with every choice asleep *)
  mutable truncated_runs : int;  (** runs cut by the depth bound *)
  mutable max_depth : int;
}

type result = {
  r_scenario : Hft_harness.Scenarios.bounded;
  r_variant : Hft_harness.Scenarios.variant;
  r_options : options;
  r_stats : stats;
  r_complete : bool;
      (** true iff the bounded state space was explored to fixpoint:
          no state cap hit, no run truncated, no violation cut the
          search short *)
  r_violations : violation list;
}

exception Restore_mismatch of { depth : int; recorded : int; restored : int }
(** An internal error, never a verdict: a run resumed from a snapshot
    reached its scheduler call at [depth] with a fingerprint other
    than the one recorded when the node was first visited. *)

val explore :
  ?options:options ->
  ?inspect:(Hft_core.System.t -> unit) ->
  Hft_harness.Scenarios.bounded ->
  variant:Hft_harness.Scenarios.variant ->
  result
(** Every resumed run checks the fingerprint at its resume point.
    [inspect] is called with the system at every scheduler call,
    before the checker looks at it; tests use it to cross-check the
    system's caches.  It may refresh digest caches and work counters
    (a [Hypervisor.fingerprint] drains its memory's dirty-chunk list
    and counts the words it hashes) but must change no state a
    fingerprint or a handler reads.
    @raise Restore_mismatch if a restore was not exact. *)

val run_forced :
  Hft_harness.Scenarios.bounded ->
  variant:Hft_harness.Scenarios.variant ->
  ?reference:Hft_harness.Campaign.reference ->
  ?obs:Hft_obs.Recorder.t ->
  roots:int list ->
  choices:int list ->
  unit ->
  string option
(** Execute one exact schedule: follow [roots] and [choices], default
    engine order beyond the recorded prefix.  Returns the violation
    observed, if any.  [obs] records the schedule's typed protocol
    events, so a counterexample replay can emit the same timeline
    artifacts as a normal run.
    @raise Invalid_argument unless [roots] holds one in-range index per
    root dimension ({!replay} checks a file's first). *)

val replay : ?obs:Hft_obs.Recorder.t -> Schedule.t -> (string option, string) Stdlib.result
(** Replay a serialized counterexample.  [Error] = the file references
    an unknown scenario, gives more or fewer roots than the scenario
    has dimensions (none at all included), a root outside its
    dimension's width, or a negative choice; [Ok None] = the schedule
    no longer violates anything; [Ok (Some v)] = reproduced violation
    [v]. *)

val schedule_of_violation : result -> violation -> Schedule.t

val to_json : ?naive:stats -> result -> Hft_obs.Json.t
(** The ["hftsim-check/1"] report.  [naive] embeds a second,
    reduction-free exploration's stats and the resulting
    [reduction_factor] (naive states / DPOR states). *)
