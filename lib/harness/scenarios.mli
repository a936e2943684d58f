(** Bounded scenarios shared by the chaos campaign tooling and the
    model checker ([hftsim check]).

    A bounded scenario is a small replicated-system configuration plus
    the {e scenario-level} nondeterminism the checker enumerates as
    root choices: which epoch (if any) the primary or backup crashes
    at, and which single message (if any) each channel drops.  Every
    combination, crossed with all schedule interleavings, must satisfy
    the protocol invariants.  The dimensions are small on purpose —
    small-scope exhaustive exploration, complementing the chaos
    campaign's random sampling of much larger fault spaces. *)

type bounded = {
  sc_name : string;
  sc_descr : string;
  sc_params : Hft_core.Params.t;
  sc_workload : Hft_guest.Workload.t;
  sc_crash_epochs : int option list;
      (** root choice: fail the primary at this boundary ([None] = no
          crash); always non-empty *)
  sc_backup_crash_epochs : int option list;
  sc_loss_pb : int option list;
      (** root choice: drop the n-th send (wire count) on the
          primary-to-backup channel *)
  sc_loss_bp : int option list;
  sc_hv_faults : Campaign.hv_fault_spec option list;
      (** root choice: seed this hypervisor fault ([None] = none);
          always non-empty.  The node must heal by in-place
          microreboot without the guest, the peer, or the environment
          noticing. *)
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
  ?crash_epoch:int ->
  ?backup_crash_epoch:int ->
  ?loss_pb:int ->
  ?loss_bp:int ->
  ?hv_fault:Campaign.hv_fault_spec ->
  ?obs:Hft_obs.Recorder.t ->
  ?recycle:Hft_core.System.t ->
  unit ->
  Hft_core.System.t
(** Build the system for one assignment of the scenario's root
    choices.  The caller runs it (directly, or under the model
    checker's scheduler).  [recycle] is a finished system whose guest
    memories are reset and reused ({!Hft_core.System.create}); it must
    not be used again. *)

val has_crash : bounded -> bool
(** Whether any crash option exists — decides the console-output
    invariant mode ([`Replay_extension] vs [`Exact]). *)
