(** Unidirectional message channel between two hypervisors.

    With no fault model installed the channel matches the communication
    assumptions of section 2 of the paper:

    - delivery is FIFO: messages arrive in the order sent;
    - a processor crash loses no message already sent — everything in
      flight is still delivered before the peer can detect the failure
      (the paper assumes failure is detected "only after receiving the
      last message sent by the primary's hypervisor");
    - messages sent after a crash are never delivered (they were never
      sent).

    Latency follows the channel's {!Link}: each message waits for the
    link to become free (serialization), then takes the link's
    per-message overhead plus wire time.  A deterministic loss plan
    can drop selected messages, used by tests that probe the revised
    protocol's reasoning about unacknowledged messages.

    A {!fault_model} downgrades the channel to {e fair-lossy}:
    messages may additionally be dropped, delayed past later messages
    (breaking FIFO), duplicated, or corrupted, with every coin flip
    drawn from a caller-supplied seeded {!Hft_sim.Rng.t} so campaign
    trials replay exactly. *)

type 'msg t

(** Randomized fault model for chaos campaigns.  Probabilities are per
    message; [delay_us] is the maximum extra delivery delay, drawn
    uniformly in [0, delay_us], applied after serialization (so a
    large draw lets a later message overtake this one). *)
type fault_model = {
  loss : float;  (** drop probability, [0 <= loss < 1] *)
  duplicate : float;  (** second-copy probability *)
  corrupt : float;  (** payload-damage probability *)
  delay_us : int;  (** max extra delay, microseconds *)
}

val fair : fault_model
(** The identity model: no loss, no duplication, no corruption, no
    jitter. *)

val create :
  engine:Hft_sim.Engine.t ->
  link:Link.t ->
  name:string ->
  ?actor:string ->
  ?obs:Hft_obs.Recorder.t ->
  unit ->
  'msg t
(** [actor] tags this channel's delivery events for the model
    checker's independence relation — conventionally the {e receiving}
    node's name, since a delivery handler mutates receiver state.
    Defaults to [""] (dependent with everything).  [obs] receives
    typed wire events ([Ch_send]/[Ch_deliver]/[Ch_drop]) under this
    channel's name; defaults to the null recorder. *)

val name : 'msg t -> string
val link : 'msg t -> Link.t

val connect : 'msg t -> ('msg -> unit) -> unit
(** Install the receiver callback.  Must be called before the first
    delivery is due. *)

val send : 'msg t -> bytes:int -> 'msg -> unit
(** Enqueue a message of the given size.  Silently discarded if the
    sender has crashed (a dead processor sends nothing). *)

val crash_sender : 'msg t -> unit
(** The sending processor has failed: subsequent {!send}s are
    discarded; in-flight messages are still delivered. *)

val sender_crashed : 'msg t -> bool

val revive_sender : 'msg t -> unit
(** Repair after {!crash_sender}: the (replaced or repaired) sending
    processor may transmit again.  Used by backup reintegration. *)

val set_loss_plan : 'msg t -> (int -> bool) -> unit
(** [set_loss_plan t p] drops message number [n] (0-based count of
    sends) whenever [p n] is true.  Dropped messages consume link time
    but are not delivered. *)

val set_fault_model :
  'msg t ->
  rng:Hft_sim.Rng.t ->
  ?corrupter:(int -> 'msg -> 'msg) ->
  fault_model ->
  unit
(** Install a randomized fault model.  [corrupter flip msg] produces
    the damaged copy of [msg] (for the hypervisor channel this is
    {!Hft_core.Message.corrupt}); without it corruption draws still
    consume randomness but deliver the message intact.  Faults compose
    with the deterministic loss plan (the plan is consulted first).
    Raises [Invalid_argument] if a rate is out of range. *)

val clear_fault_model : 'msg t -> unit

val in_flight : 'msg t -> int
(** Messages sent but not yet delivered (excluding dropped ones). *)

val messages_sent : 'msg t -> int
val bytes_sent : 'msg t -> int
val messages_delivered : 'msg t -> int

val faults_lost : 'msg t -> int
(** Messages dropped by the fault model (not the loss plan). *)

val faults_duplicated : 'msg t -> int
val faults_corrupted : 'msg t -> int
val faults_delayed : 'msg t -> int
(** Messages given a nonzero extra delay. *)

val busy_until : 'msg t -> Hft_sim.Time.t
(** Time at which the link becomes idle. *)

val set_hasher : 'msg t -> ('msg -> int) -> unit
(** Install a message hash used to maintain an order-insensitive
    digest of the in-flight multiset.  Without one, in-flight messages
    contribute only their count to {!fingerprint}. *)

val fingerprint : 'msg t -> int
(** Canonical 62-bit {!Hft_sim.Fnv} digest of the channel state for
    the model checker, mixed field by field: send/delivery counters,
    crash flag, in-flight count and multiset hash, and remaining
    serialization busy time (relative to now, so equal states reached
    at different instants can still merge). *)

(** {2 Save and restore} *)

type 'msg saved
(** The sender's crash flag, loss plan and fault model (with its
    generator's position), the link's busy-until time and every
    counter.  Messages in flight are engine events, saved by
    {!Hft_sim.Engine.save}. *)

val save : ?like:'msg saved -> 'msg t -> 'msg saved
(** [like] itself when nothing changed since it was taken. *)

val restore : 'msg t -> 'msg saved -> unit
