(** Bounded scenarios shared by the chaos campaign tooling and the
    model checker ([hftsim check]).

    A bounded scenario is a small replicated-system configuration plus
    the {e scenario-level} nondeterminism the checker enumerates as
    root choices: which epoch (if any) the primary crashes at, which
    single message (if any) each channel drops, which hypervisor fault
    (if any) strikes.  Every combination, crossed with all schedule
    interleavings, must satisfy the protocol invariants.  The
    dimensions are small on purpose — small-scope exhaustive
    exploration, complementing the chaos campaign's random sampling of
    much larger fault spaces. *)

type bounded = {
  sc_name : string;
  sc_descr : string;
  sc_params : Hft_core.Params.t;
  sc_workload : Hft_guest.Workload.t;
  sc_roots : (string * Hft_core.System.fault option list) list;
      (** the root choices: one named dimension per fault axis the
          scenario varies, each a non-empty list of options, [None] for
          no fault.  A root assignment picks one option per dimension
          and injects the faults picked, in dimension order
          ({!instantiate}).  The shipped scenarios name theirs, in this
          order: ["crash_epochs"] ({!Hft_core.System.Crash} of the
          primary), ["loss_pb"] and ["loss_bp"] ({!Hft_core.System.Lose}
          on the channel to the backup, to the primary), ["hv_faults"]
          ({!Hft_core.System.Hv_fault}, which the node must heal by
          in-place microreboot without the guest, the peer or the
          environment noticing).  A new axis is one more entry. *)
  sc_reintegrate_ms : int option;
      (** revive the crashed primary as a backup this many
          milliseconds after promotion *)
  sc_limit : int;  (** engine event budget per run; hitting it is a
                       violation (possible livelock) *)
}

val handoff : bounded
(** The acceptance-bar scenario: 2 replicas, console output, one
    optional primary crash, guest finished within three epochs. *)

val crash_write : bounded
(** Outstanding disk writes at failover: P6/P7 uncertain completions
    and single-processor disk consistency. *)

val crash_loss : bounded
(** Crash crossed with single message losses — the scenario the
    deliberately broken variants fail on. *)

val reintegration_loss : bounded
(** The PR 1 regression pinned exhaustively: failover, then losses
    across the reintegration snapshot handshake. *)

val hv_crash : bounded
(** Hypervisor crash/hang/corruption mid-epoch, healed by in-place
    microreboot; the exact-console and lockstep invariants prove the
    recovery is invisible to the guest replicas. *)

val all : bounded list
val find : string -> bounded option

(** Deliberate protocol breakage, for demonstrating that the checker
    finds real bugs (cf. [hftsim chaos --no-retransmit]). *)
type variant = { retransmit : bool; ack_wait : bool }

val correct : variant

val apply_variant : variant -> Hft_core.Params.t -> Hft_core.Params.t

val params : bounded -> variant:variant -> Hft_core.Params.t

val reference : bounded -> variant:variant -> Campaign.reference
(** Bare-machine outcome this scenario's trials are compared against.
    The run recycles the previous call's machine ({!Hft_core.Bare.create}),
    so repeated calls allocate no fresh guest memory. *)

val instantiate :
  bounded ->
  variant:variant ->
  ?faults:Hft_core.System.fault list ->
  ?obs:Hft_obs.Recorder.t ->
  ?recycle:Hft_core.System.t ->
  unit ->
  Hft_core.System.t
(** Build the system for one assignment of the scenario's root
    choices: [faults] (default none) are injected in list order
    ({!Hft_core.System.inject}).  The caller runs it (directly, or
    under the model checker's scheduler).  [recycle] is a finished
    system whose guest memories are reset and reused
    ({!Hft_core.System.create}); it must not be used again. *)

val has_crash : bounded -> bool
(** Whether any root option crashes the primary — decides the console-output
    invariant mode ([`Replay_extension] vs [`Exact]). *)
