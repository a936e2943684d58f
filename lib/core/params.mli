(** Configuration and cost model for the replicated system.

    Every timing constant is taken from, or calibrated against, the
    measurements in section 4 of the paper:

    - instructions execute in 0.02 us (the HP 9000/720 is a 50 MIPS
      processor);
    - simulating a privileged/environment instruction costs 15.12 us
      (8 us hypervisor entry/exit + 7.12 us of work);
    - epoch-boundary processing under the original protocol averages
      443.59 us, decomposed here into local processing, two message
      set-ups (the [Tme] and [end,E] sends) and — in the original
      protocol only — the acknowledgement round trip;
    - the hypervisor-to-hypervisor link is a 10 Mbps Ethernet by
      default (155 Mbps ATM reproduces figure 4). *)

type protocol =
  | Original
      (** rule P2 as first stated: the primary awaits acknowledgements
          for all messages at every epoch boundary *)
  | Revised
      (** section 4.3: the boundary ack wait is dropped; instead the
          primary may not issue an I/O operation until all messages it
          has sent have been acknowledged *)

type tlb_mode =
  | Hypervisor_managed
      (** the section 3.2 fix: the hypervisor services TLB misses for
          resident pages, so TLB state is invisible to the guest *)
  | Guest_managed
      (** misses are reflected to the guest kernel, faithful to the
          raw PA-RISC — combined with a nondeterministic replacement
          policy this breaks replica determinism, as the paper found *)

type epoch_mechanism =
  | Recovery_register
      (** the PA-RISC mechanism the prototype used: an interrupt after
          exactly [epoch_length] completed instructions *)
  | Code_rewriting
      (** section 2.1's alternative: the object code is edited so the
          hypervisor is invoked periodically ({!Hft_machine.Rewrite});
          epochs become variable-length, bounded by [epoch_length] *)

type exec_backend =
  | Interp
      (** the decode-per-step interpreter — the reference semantics *)
  | Threaded
      (** manifest-certified superblocks execute as direct-threaded
          closure chains ({!Hft_machine.Translate}); everything else —
          and every trap, exit, or stale manifest — falls back to the
          interpreter *)
  | Differential
      (** both at once, as the paper's own lockstep makes possible:
          the primary runs [Threaded], the backup runs [Interp], and
          the first state-digest divergence at an epoch boundary
          faults the run immediately — the interpreter is the oracle
          for the translator *)

type t = {
  epoch_length : int;        (** instructions per epoch (the recovery
                                 register load, or the marker spacing
                                 under code rewriting) *)
  protocol : protocol;
  tlb_mode : tlb_mode;
  epoch_mechanism : epoch_mechanism;
  instr_time : Hft_sim.Time.t;
  hv_entry_exit : Hft_sim.Time.t;
  hv_work : Hft_sim.Time.t;
  hv_epoch_local : Hft_sim.Time.t;
      (** epoch-boundary bookkeeping excluding sends and ack wait *)
  hv_send_setup : Hft_sim.Time.t;
      (** CPU cost of initiating one hypervisor-to-hypervisor message *)
  hv_intr_deliver : Hft_sim.Time.t;
      (** cost of delivering one buffered interrupt to the VM *)
  hv_intr_receive : Hft_sim.Time.t;
      (** cost of fielding a device interrupt and relaying it *)
  hv_tlb_fill : Hft_sim.Time.t;
      (** hypervisor-managed TLB fill (invisible to the guest) *)
  bare_trap_latency : Hft_sim.Time.t;
      (** hardware trap reflection on the bare machine *)
  link : Hft_net.Link.t;
  retransmit : bool;
      (** harden the protocol against a fair-lossy channel: unacked
          reliable messages are resent on a timeout; off reproduces
          the paper's reliable-channel assumption taken on faith *)
  ack_wait : bool;
      (** honour the protocol's acknowledgement gate (rule P2's
          boundary wait under [Original], the I/O gate under
          [Revised]).  Turning it off deliberately breaks the
          protocol; it exists so the model checker can demonstrate a
          found counterexample, like PR 1's [--no-retransmit] *)
  rtx_timeout : Hft_sim.Time.t;
      (** base retransmission timeout; each fire also waits out the
          link backlog and doubles the base (capped at 4x) *)
  rtx_give_up : int;
      (** consecutive unanswered retransmission rounds after which the
          peer is presumed dead *)
  detector_timeout : Hft_sim.Time.t;
  backup_clock_skew : Hft_sim.Time.t;
      (** time-of-day skew of the backup processor's clock — the
          reason clock reads must be forwarded, not read locally *)
  hv_recovery : bool;
      (** attempt a ReHype-style in-place microreboot when the
          hypervisor itself fails, instead of treating every
          hypervisor fault as fail-stop (the paper's assumption) *)
  hv_reboot_time : Hft_sim.Time.t;
      (** wall time of one microreboot: reinitialising hypervisor
          code/data while guest memory and CPU state stay in place *)
  hv_panic_latency : Hft_sim.Time.t;
      (** delay between a hypervisor crash and its panic handler
          triggering the reboot (detection is immediate: the fault
          raises a trap, unlike a hang) *)
  watchdog_interval : Hft_sim.Time.t;
      (** period of the out-of-band hardware watchdog that detects a
          hung hypervisor by observing a frozen heartbeat counter *)
  hv_recovery_max : int;
      (** microreboots tolerated per node; one more escalates to
          fail-stop and lets the peer's failover path take over *)
  disk : Hft_devices.Disk.params;
  cpu_config : Hft_machine.Cpu.config;
  exec_backend : exec_backend;
      (** how guest instructions execute between stops; [Interp] by
          default.  [Threaded]/[Differential] additionally compile the
          manifest's certified superblocks into the CPU's translation
          cache at boot ({!Hft_analysis.Manifest.install_translation});
          a stale manifest logs and degrades to full interpretation. *)
}

val default : t
(** Paper calibration: 4 K-instruction epochs, original protocol,
    hypervisor-managed TLB, Ethernet link. *)

val hsim : t -> Hft_sim.Time.t
(** [hv_entry_exit + hv_work] = 15.12 us with defaults. *)

val max_burst : int
(** 2 000 000: a burst's instruction budget.  It caps one burst's fuel,
    and a hypervisor stops running bursts on through plain
    controller-register writes within one dispatch once they have
    retired this many instructions. *)

val burst_fuel : t -> now:Hft_sim.Time.t -> Hft_sim.Time.t option -> int
(** Instructions one execution burst starting at [now] may retire
    before [horizon], the instant the next event could touch the
    executing machine: at least 1, at most {!max_burst} (the cap when
    nothing is pending).  Both executors size their bursts with it. *)

val with_epoch_length : t -> int -> t
val with_protocol : t -> protocol -> t
val with_link : t -> Hft_net.Link.t -> t
val with_retransmit : t -> bool -> t
val with_ack_wait : t -> bool -> t
val with_exec_backend : t -> exec_backend -> t

val backend_name : exec_backend -> string
val backend_of_name : string -> exec_backend option

val pp_protocol : Format.formatter -> protocol -> unit
val pp_backend : Format.formatter -> exec_backend -> unit
val pp : Format.formatter -> t -> unit
