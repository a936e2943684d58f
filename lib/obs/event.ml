type drop_reason = Loss_plan | Fault_loss | Corrupt | Duplicate

let drop_reason_string = function
  | Loss_plan -> "loss-plan"
  | Fault_loss -> "fault-loss"
  | Corrupt -> "corrupt"
  | Duplicate -> "duplicate"

type ack_release = By_ack | By_detector

let ack_release_string = function
  | By_ack -> "ack"
  | By_detector -> "detector"

type t =
  (* epoch lifecycle (P2/P5) *)
  | Epoch_begin of { epoch : int }
  | Epoch_end of { epoch : int; interrupts : int }
  (* ack-wait stalls (P2 original / revised-at-I/O) *)
  | Ack_wait_begin of { upto : int; at_io : bool }
  | Ack_wait_end of { upto : int; released : ack_release }
  (* reliable messaging *)
  | Msg_send of { dseq : int; kind : string; bytes : int }
  | Msg_acked of { dseq : int }
  | Rtx_round of { round : int; count : int }
  | Rtx_give_up of { rounds : int }
  | Frame_dropped of { wire_seq : int; reason : drop_reason }
  (* interrupt buffering (P1/P3): delay(EL) per interrupt *)
  | Intr_buffered of { id : int; kind : string; epoch : int }
  | Intr_delivered of { id : int; kind : string }
  (* I/O *)
  | Io_submit of { op_id : int; block : int; write : bool }
  | Io_complete of {
      op_id : int;
      port : int;
      block : int;
      write : bool;
      uncertain : bool;
    }
  | Io_suppressed of { block : int; write : bool }
  (* lifecycle and failover (P6/P7) *)
  | Crash
  | Halt of { epoch : int }
  | Detector_fired of { blocked : string }
  | Promoted of { epoch : int; relayed : int; synthesized : int }
  (* reintegration handshake *)
  | Reintegration_offer of { epoch : int; bytes : int }
  | Snapshot_restored of { epoch : int }
  | Reintegration_done of { epoch : int }
  (* hypervisor-failure recovery (ReHype extension) *)
  | Hv_fault of { kind : string }
  | Hv_detected of { by : string }
  | Microreboot_done of {
      epoch : int;
      reconciled_ios : int;
      reconciled_msgs : int;
    }
  | Recovery_escalated of { reason : string }
  (* channel-level wire events *)
  | Ch_send of { seq : int; bytes : int }
  | Ch_deliver of { seq : int }
  | Ch_drop of { seq : int; bytes : int; reason : drop_reason }
  (* engine dispatch mirror (opt-in: floods the ring otherwise) *)
  | Dispatch of { label : string }
  (* escape hatch for one-off diagnostics *)
  | Note of string

let tag = function
  | Epoch_begin _ -> "epoch-begin"
  | Epoch_end _ -> "epoch-end"
  | Ack_wait_begin _ -> "ack-wait-begin"
  | Ack_wait_end _ -> "ack-wait-end"
  | Msg_send _ -> "msg-send"
  | Msg_acked _ -> "msg-acked"
  | Rtx_round _ -> "rtx-round"
  | Rtx_give_up _ -> "rtx-give-up"
  | Frame_dropped _ -> "frame-dropped"
  | Intr_buffered _ -> "intr-buffered"
  | Intr_delivered _ -> "intr-delivered"
  | Io_submit _ -> "io-submit"
  | Io_complete _ -> "io-complete"
  | Io_suppressed _ -> "io-suppressed"
  | Crash -> "crash"
  | Halt _ -> "halt"
  | Detector_fired _ -> "detector-fired"
  | Promoted _ -> "promoted"
  | Reintegration_offer _ -> "reintegration-offer"
  | Snapshot_restored _ -> "snapshot-restored"
  | Reintegration_done _ -> "reintegration-done"
  | Hv_fault _ -> "hv-fault"
  | Hv_detected _ -> "hv-detected"
  | Microreboot_done _ -> "microreboot-done"
  | Recovery_escalated _ -> "recovery-escalated"
  | Ch_send _ -> "ch-send"
  | Ch_deliver _ -> "ch-deliver"
  | Ch_drop _ -> "ch-drop"
  | Dispatch _ -> "dispatch"
  | Note _ -> "note"

type field = Int of int | Str of string | Bool of bool

let fields = function
  | Epoch_begin { epoch } -> [ ("epoch", Int epoch) ]
  | Epoch_end { epoch; interrupts } ->
    [ ("epoch", Int epoch); ("interrupts", Int interrupts) ]
  | Ack_wait_begin { upto; at_io } ->
    [ ("upto", Int upto); ("at_io", Bool at_io) ]
  | Ack_wait_end { upto; released } ->
    [ ("upto", Int upto); ("released", Str (ack_release_string released)) ]
  | Msg_send { dseq; kind; bytes } ->
    [ ("dseq", Int dseq); ("kind", Str kind); ("bytes", Int bytes) ]
  | Msg_acked { dseq } -> [ ("dseq", Int dseq) ]
  | Rtx_round { round; count } ->
    [ ("round", Int round); ("count", Int count) ]
  | Rtx_give_up { rounds } -> [ ("rounds", Int rounds) ]
  | Frame_dropped { wire_seq; reason } ->
    [ ("wire_seq", Int wire_seq); ("reason", Str (drop_reason_string reason)) ]
  | Intr_buffered { id; kind; epoch } ->
    [ ("id", Int id); ("kind", Str kind); ("epoch", Int epoch) ]
  | Intr_delivered { id; kind } -> [ ("id", Int id); ("kind", Str kind) ]
  | Io_submit { op_id; block; write } ->
    [ ("op_id", Int op_id); ("block", Int block); ("write", Bool write) ]
  | Io_complete { op_id; port; block; write; uncertain } ->
    [
      ("op_id", Int op_id);
      ("port", Int port);
      ("block", Int block);
      ("write", Bool write);
      ("uncertain", Bool uncertain);
    ]
  | Io_suppressed { block; write } ->
    [ ("block", Int block); ("write", Bool write) ]
  | Crash -> []
  | Halt { epoch } -> [ ("epoch", Int epoch) ]
  | Detector_fired { blocked } -> [ ("blocked", Str blocked) ]
  | Promoted { epoch; relayed; synthesized } ->
    [
      ("epoch", Int epoch);
      ("relayed", Int relayed);
      ("synthesized", Int synthesized);
    ]
  | Reintegration_offer { epoch; bytes } ->
    [ ("epoch", Int epoch); ("bytes", Int bytes) ]
  | Snapshot_restored { epoch } | Reintegration_done { epoch } ->
    [ ("epoch", Int epoch) ]
  | Hv_fault { kind } -> [ ("kind", Str kind) ]
  | Hv_detected { by } -> [ ("by", Str by) ]
  | Microreboot_done { epoch; reconciled_ios; reconciled_msgs } ->
    [
      ("epoch", Int epoch);
      ("reconciled_ios", Int reconciled_ios);
      ("reconciled_msgs", Int reconciled_msgs);
    ]
  | Recovery_escalated { reason } -> [ ("reason", Str reason) ]
  | Ch_send { seq; bytes } -> [ ("seq", Int seq); ("bytes", Int bytes) ]
  | Ch_deliver { seq } -> [ ("seq", Int seq) ]
  | Ch_drop { seq; bytes; reason } ->
    [
      ("seq", Int seq);
      ("bytes", Int bytes);
      ("reason", Str (drop_reason_string reason));
    ]
  | Dispatch { label } -> [ ("label", Str label) ]
  | Note s -> [ ("text", Str s) ]

let pp fmt ev =
  Format.pp_print_string fmt (tag ev);
  List.iter
    (fun (k, v) ->
      match v with
      | Int i -> Format.fprintf fmt " %s=%d" k i
      | Str s -> Format.fprintf fmt " %s=%s" k s
      | Bool b -> Format.fprintf fmt " %s=%b" k b)
    (fields ev)
