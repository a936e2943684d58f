(** Typed protocol events.

    The variant mirrors the observable steps of the replication
    protocol (P1-P7): epoch lifecycle, the reliable message stream and
    its retransmission machinery, interrupt buffering (the paper's
    delay(EL) term starts at [Intr_buffered] and ends at
    [Intr_delivered]), I/O submission and completion, failover and
    reintegration.  Components record these into an
    {!Recorder.t}; {!Span} pairs them back into intervals and
    {!Export} renders them as tool-loadable artifacts. *)

type drop_reason = Loss_plan | Fault_loss | Corrupt | Duplicate

val drop_reason_string : drop_reason -> string

type ack_release = By_ack | By_detector

val ack_release_string : ack_release -> string

type t =
  | Epoch_begin of { epoch : int }
  | Epoch_end of { epoch : int; interrupts : int }
  | Ack_wait_begin of { upto : int; at_io : bool }
      (** [at_io]: revised protocol waits at I/O initiation; the
          original waits at the epoch boundary. *)
  | Ack_wait_end of { upto : int; released : ack_release }
  | Msg_send of { dseq : int; kind : string; bytes : int }
      (** First transmission of a reliable message (retransmissions
          appear as {!Rtx_round}). *)
  | Msg_acked of { dseq : int }
      (** The sender's cumulative ack advanced past [dseq]. *)
  | Rtx_round of { round : int; count : int }
  | Rtx_give_up of { rounds : int }
  | Frame_dropped of { wire_seq : int; reason : drop_reason }
      (** Receiver-side discard: corrupt frame or duplicate. *)
  | Intr_buffered of { id : int; kind : string; epoch : int }
      (** [id] is unique per source and pairs with
          {!Intr_delivered} — the pair is the paper's delay(EL). *)
  | Intr_delivered of { id : int; kind : string }
  | Io_submit of { op_id : int; block : int; write : bool }
  | Io_complete of {
      op_id : int;
      port : int;
      block : int;
      write : bool;
      uncertain : bool;
    }
  | Io_suppressed of { block : int; write : bool }
      (** A backup suppressing I/O initiation (section 2.2 case (i)). *)
  | Crash
  | Halt of { epoch : int }
  | Detector_fired of { blocked : string }
  | Promoted of { epoch : int; relayed : int; synthesized : int }
  | Reintegration_offer of { epoch : int; bytes : int }
  | Snapshot_restored of { epoch : int }
  | Reintegration_done of { epoch : int }
  | Hv_fault of { kind : string }
      (** A hypervisor fault was seeded: ["crash"], ["hang"] or
          ["corrupt-*"] (ReHype extension). *)
  | Hv_detected of { by : string }
      (** Detection: ["panic"] (crash), ["watchdog"] (hang) or
          ["integrity"] (corruption caught by the recovery-block
          audit).  Opens the ["recovery"] span. *)
  | Microreboot_done of {
      epoch : int;
      reconciled_ios : int;
      reconciled_msgs : int;
    }
      (** The in-place reboot finished reconciliation: parked disk
          completions delivered, dropped channel traffic resynced. *)
  | Recovery_escalated of { reason : string }
      (** In-place recovery gave up (double fault or exhausted reboot
          budget); the node fail-stops and failover takes over. *)
  | Ch_send of { seq : int; bytes : int }
  | Ch_deliver of { seq : int }
  | Ch_drop of { seq : int; bytes : int; reason : drop_reason }
  | Dispatch of { label : string }
      (** Mirrors an engine dispatch; only recorded when the recorder
          was created with [~dispatch:true]. *)
  | Note of string

val tag : t -> string
(** Stable kebab-case constructor name, e.g. ["epoch-end"].  Used as
    the event name in every export format. *)

type field = Int of int | Str of string | Bool of bool

val fields : t -> (string * field) list
(** The event's payload as named fields, in declaration order.  Every
    export format (and {!pp}) derives from this single description. *)

val pp : Format.formatter -> t -> unit
