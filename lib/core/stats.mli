(** Per-hypervisor counters, the raw material of section 4's
    measurements. *)

type t = {
  mutable instructions : int;
      (** ordinary instructions executed directly by the VM *)
  mutable simulated : int;
      (** privileged / environment / MMIO instructions simulated by
          the hypervisor — the [nsim] of the paper's model *)
  mutable epochs : int;
  mutable interrupts_buffered : int;
  mutable interrupts_delivered : int;
  mutable env_values : int;
  mutable io_submitted : int;
  mutable io_suppressed : int;     (** backup-side suppressions *)
  mutable uncertain_synthesized : int;  (** P7 interrupts at failover *)
  mutable spurious_completions : int;
      (** disk completions that arrived with no outstanding operation
          — zero in a correct run; the model checker's P6/P7 invariant
          treats any increment as a violation *)
  mutable tlb_fills : int;
  mutable reflected_traps : int;   (** traps delivered to the guest *)
  mutable retransmits : int;
      (** reliable messages resent after an unanswered timeout *)
  mutable duplicates_dropped : int;
      (** received copies of already-delivered reliable messages *)
  mutable corruptions_detected : int;
      (** frames whose checksum failed; treated as loss *)
  mutable pages_hashed : int;
      (** memory pages re-hashed by epoch-boundary state hashes *)
  mutable pages_skipped : int;
      (** pages whose cached digest the boundary hash reused — the
          dirty-page tracking win *)
  mutable snapshot_delta_bytes : int;
      (** bytes reintegration snapshots count as copied: the full
          image on a CPU's first, then the pages written since the
          previous one ({!Hft_machine.Cpu.snapshot_bytes_copied}) *)
  mutable hv_faults_injected : int;
      (** hypervisor-level faults (crash, hang, state corruption)
          injected into this node *)
  mutable microreboots : int;
      (** in-place microreboots completed (ReHype-style recovery) *)
  mutable reconciled_ios : int;
      (** disk completions that arrived while the hypervisor was down
          and were re-delivered from the controller's completion ring
          after the microreboot *)
  mutable reconciled_msgs : int;
      (** channel messages dropped on the floor by a down hypervisor
          and healed afterwards by resync/retransmission *)
  mutable recovery_cycles : int;
      (** recovery attempts begun (detection events); exceeds
          [microreboots] when an attempt escalated to fail-stop *)
  mutable recovery_escalations : int;
      (** recovery attempts abandoned as fail-stop: a second fault
          arrived mid-recovery, or the per-node reboot budget
          ([Params.hv_recovery_max]) was exhausted *)
  mutable recovery_windows : Hft_sim.Time.t list;
      (** per-microreboot wall time from fault injection to the end of
          reconciliation, newest first *)
  mutable certified_instructions : int;
      (** instructions completed inside certified superblocks, as
          observed by the runtime certificate validator
          ({!Hft_machine.Cpu.validator_coverage}) *)
  mutable validated_instructions : int;
      (** instructions completed while the validator was armed — the
          denominator of the dynamic certified coverage *)
  mutable blocks_translated : int;
      (** basic blocks compiled into the direct-threaded translation
          cache at boot; 0 under the [Interp] backend *)
  mutable threaded_instrs : int;
      (** instructions completed inside translated superblocks *)
  mutable threaded_entries : int;
      (** dispatch-loop entries into translated code *)
  mutable fallback_budget : int;
      (** threaded exits/refusals: block would overrun fuel or the
          recovery counter *)
  mutable fallback_priv : int;
      (** entry refused: privilege outside the certified mask *)
  mutable fallback_link : int;
      (** control left the translated region *)
  mutable fallback_indirect : int;
      (** indirect jump ([Jr]) with a runtime target *)
  mutable fallback_bail : int;
      (** non-ordinary instruction handed back to the interpreter *)
  mutable fallback_stop : int;
      (** memory stop (MMIO, TLB miss, protection, fault) mid-block *)
  mutable ack_wait : Hft_sim.Time.t;
      (** time the primary spent awaiting acknowledgements *)
  mutable boundary : Hft_sim.Time.t;
      (** time spent in epoch-boundary processing *)
  mutable idle : Hft_sim.Time.t;   (** WFI idle time *)
  mutable intr_delay : Hft_sim.Time.t;
      (** total time device interrupts spent buffered before delivery
          — the paper's delay(EL) term, summed *)
}

val create : unit -> t

val add_time :
  t -> [ `Ack_wait | `Boundary | `Idle | `Intr_delay ] -> Hft_sim.Time.t -> unit

val certified_coverage : t -> float option
(** [certified_instructions / validated_instructions], or [None] when
    nothing was validated. *)

val mean_intr_delay_us : t -> float
(** Average buffered-to-delivered latency of an interrupt, in
    microseconds; 0 when none were delivered. *)

val threaded_fraction : t -> float option
(** [threaded_instrs / instructions], or [None] when nothing ran
    threaded. *)

val pp : Format.formatter -> t -> unit

val blit : src:t -> dst:t -> unit
(** Overwrite every counter of [dst] with [src]'s. *)
