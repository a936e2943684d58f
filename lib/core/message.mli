(** Hypervisor-to-hypervisor protocol messages.

    The forward direction (primary to backup) carries the traffic of
    rules P1 and P2: relayed interrupts, forwarded
    environment-instruction results, the end-of-epoch timer state
    [Tme], and the [end,E] marker.  The reverse direction carries the
    acknowledgements rule P2 (original) or the I/O gate (revised)
    waits for, plus the reintegration handshake.

    Every message has a byte size used by the link model; disk-read
    completions carry the whole data block, which is what makes reads
    measurably slower than writes under replication (paper
    section 4.2).

    Beyond the paper (which assumes reliable FIFO channels), every
    message is hardened for a fair-lossy link: the header carries a
    checksum over the whole frame, and messages belonging to the
    reliable stream carry a second, stable sequence number [dseq] that
    survives retransmission, so the receiver can detect corruption
    (treated as loss), discard duplicates and restore sender order. *)

type relayed_completion = {
  status : int;  (** {!Hft_guest.Layout.status_ok} or [status_uncertain] *)
  dma : (int * Hft_machine.Word.t array) option;
      (** address and contents for a performed read *)
}

type body =
  | Intr of { epoch : int; completion : relayed_completion }
      (** P1: a device interrupt received and buffered during [epoch] *)
  | Env_val of { epoch : int; idx : int; value : Hft_machine.Word.t }
      (** result of the [idx]-th environment instruction simulated in
          [epoch] *)
  | Tme of { epoch : int; tod_us : Hft_machine.Word.t; timer_deadline_us : int }
      (** P2: the primary's virtual clocks at the end of [epoch];
          [timer_deadline_us = -1] when no interval is armed *)
  | Epoch_end of { epoch : int }  (** P2: [end, E] *)
  | Ack of { upto : int }
      (** P4: cumulative acknowledgement — every reliable message with
          [dseq < upto] has been received *)
  | Snapshot_offer of { epoch : int; code_hash : int }
      (** reintegration: a state snapshot follows *)
  | Snapshot_done of { epoch : int }
      (** reintegration: the new backup restored the snapshot *)
  | Resync of { upto : int }
      (** recovery extension: sent (unreliably) by a node that has just
          completed a microreboot.  [upto] is its receive cursor; the
          peer treats it as a cumulative ack and immediately
          retransmits everything past it, healing any messages the
          down hypervisor dropped without waiting out a timeout *)

type t = {
  seq : int;
      (** wire-level number, unique per transmission (a retransmitted
          copy gets a fresh [seq]) *)
  dseq : int;
      (** position in the sender's reliable stream, stable across
          retransmissions; [-1] marks an unreliable message (an [Ack]),
          which is never retransmitted or acknowledged *)
  checksum : int;  (** over [seq], [dseq] and the body *)
  body : body;
}

val make : seq:int -> ?dseq:int -> body -> t
(** Seal a message: compute its checksum.  [dseq] defaults to [-1]
    (unreliable). *)

val body_checksum : int -> body -> int
(** [body_checksum h body] mixes every field of [body] into the
    {!Hft_sim.Fnv} digest [h]: the one body hasher, behind the wire
    checksum and the model checker's fingerprints alike. *)

val completion_digest : int -> relayed_completion -> int
(** Its relayed-completion part, for buffered interrupts. *)

val body_kind : body -> string
(** Short stable tag for observability ("intr", "env", "tme", "end",
    "ack", "snap-offer", "snap-done", "resync"). *)

val reliable : t -> bool
(** [dseq >= 0]: the message is part of the acknowledged,
    retransmitted, dedup-checked stream. *)

val valid : t -> bool
(** Does the checksum match the contents?  False after {!corrupt}. *)

val hash : t -> int
(** Content digest of the whole message (header and body), used by the
    model checker to hash a channel's in-flight multiset.  Cheap: it
    folds the already-computed checksum with the header fields. *)

val corrupt : flip:int -> t -> t
(** Simulate wire damage: a copy of the message whose checksum no
    longer matches (the low bit of [flip] is forced so [flip = 0]
    still corrupts).  Used by the channel fault model. *)

val bytes : ?snapshot_bytes:int -> t -> int
(** Wire size.  [snapshot_bytes] sizes a [Snapshot_offer], whose
    payload (the whole VM image) travels with it. *)

val pp : Format.formatter -> t -> unit
