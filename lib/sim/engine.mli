(** Deterministic discrete-event simulation engine.

    The engine owns a virtual clock and a priority queue of events: a
    private binary heap over an event array, ordered by (time,
    sequence number) with the comparison inlined.  Events scheduled
    for the same instant fire in the order they were scheduled (a
    monotonically increasing sequence number breaks ties), so a
    simulation run is a pure function of its inputs.  Cancelled events
    leave the queue lazily, and are swept out in one pass once they
    outnumber the live ones.  Stepping, skipping cancelled events and
    scheduling allocate nothing beyond the event itself.

    Every component of the fault-tolerance stack — the two simulated
    processors, the disk, the hypervisor-to-hypervisor channels, the
    failure injector — advances only by scheduling and handling events
    on a shared engine. *)

type t

type handle
(** Identifies a scheduled event so it can be cancelled (used by the
    backup's failure-detector timeout, which is cancelled whenever a
    message from the primary arrives). *)

exception Runaway of int
(** Raised by {!run} when its event limit (the payload) is exhausted:
    a runaway simulation. *)

val create : unit -> t
(** A fresh engine with the clock at {!Time.zero}. *)

val now : t -> Time.t

val at :
  t -> ?label:string -> ?actor:string -> Time.t -> (unit -> unit) -> handle
(** [at t time f] schedules [f] to run when the clock reaches [time].
    Raises [Invalid_argument] if [time] is in the past.

    [actor] tags the event with the component whose state its handler
    mutates (a hypervisor name, or the receiving end of a channel).
    The model checker's partial-order reduction treats same-instant
    events with distinct non-empty actors as independent; the empty
    default means "touches shared state — dependent with everything",
    which is always sound.

    The tag is also a checked contract for {!horizon}: while a handler
    of a non-empty actor [a] runs, scheduling an event for a different
    actor, or for [""], earlier than [now + lookahead t] raises
    [Invalid_argument].  Handlers of [""] events, and code outside any
    handler, are not restricted. *)

val after :
  t -> ?label:string -> ?actor:string -> Time.t -> (unit -> unit) -> handle
(** [after t d f] is [at t (Time.add (now t) d) f]. *)

val cancel : t -> handle -> unit
(** Cancelling an already-fired or already-cancelled event is a
    no-op. *)

val is_pending : t -> handle -> bool

val next_time : t -> Time.t option
(** Time of the earliest pending event, if any.  Used by the
    bare-metal executor, which has a single actor, to bound
    instruction bursts so asynchronous interrupts are delivered at the
    right instruction boundary.  Replicas use {!horizon}. *)

(** {2 Conservative lookahead}

    Actors influence each other only through events, and the
    {!at} contract keeps every cross-actor event at least [L] (the
    lookahead) after the handler that schedules it.  An actor that
    runs ahead of other actors' pending events therefore cannot miss
    an event meant for it — the Chandy–Misra–Bryant argument. *)

val set_lookahead : t -> Time.t -> unit
(** Set [L] (initially {!Time.zero}: no lookahead, {!horizon} is
    {!next_time} and the {!at} contract is vacuous).  Set it before
    {!run}. *)

val lookahead : t -> Time.t

val horizon : t -> actor:string -> Time.t option
(** How far [actor] may run ahead before an event could touch it: the
    minimum over live pending events of [time] for events of [actor]
    or of [""], and of [time + L - 1ns] for any other actor's event
    (one nanosecond short, because a stop scheduled now for exactly
    [time + L] would fire ahead of a same-instant event scheduled
    later).  With [L = 0] the other-actor term is [time], so the
    result is {!next_time}.  [None] when nothing is pending.

    While a scheduler hook is installed the result is {!next_time}:
    the checker's state space is defined per dispatch. *)

val pending : t -> int
(** Number of live (non-cancelled) scheduled events. *)

val step : t -> bool
(** Dispatch the single earliest event.  Returns [false] when the
    queue is empty. *)

(** {2 Scheduler hook}

    By default same-instant events fire in scheduling order (the seq
    tie-break above).  A model checker can install a scheduler to
    override that choice: before every dispatch the engine collects
    all co-enabled events — the live events sharing the earliest
    pending instant, presented in scheduling order — and asks the hook
    which fires first.  Returning [0] reproduces the default order
    exactly; the remaining events stay queued and are re-offered on
    the next step.  The hook runs on every step, including singleton
    batches, so a checker can examine system state between any two
    events. *)

type choice = {
  c_time : Time.t;  (** instant shared by the whole batch *)
  c_seq : int;  (** engine sequence number (unique per run) *)
  c_label : string;  (** the event's label, [""] if none *)
  c_actor : string;  (** component tag, [""] = shared state *)
}

val set_scheduler : t -> (choice array -> int) -> unit
(** Install the hook.  The argument array is never empty; an
    out-of-range return value is treated as [0]. *)

val clear_scheduler : t -> unit

val has_scheduler : t -> bool
(** Whether a hook is installed.  An actor that folds several of its
    own steps into one dispatch (the hypervisor running a burst on
    through a plain controller-register write) does so only without
    one: under a hook every dispatch is a state the checker sees. *)

val set_observer : t -> (Time.t -> label:string -> actor:string -> unit) -> unit
(** Install a dispatch observer: called for every dispatched event
    that carries a non-empty label, before its handler runs.  Unlike
    the scheduler hook it cannot affect ordering — it exists so an
    observability layer can mirror dispatches into a structured
    recorder without the engine depending on it. *)

val pending_fingerprint : t -> int
(** Order-insensitive 62-bit digest of the live pending events: the
    xor of one {!Fnv} digest per event over (actor, label, delay from
    now).  Each event's (actor, label) digest is computed once, the
    first time a fingerprint needs it.  Sequence numbers and absolute
    times are excluded so runs that reach the same state by different
    interleavings hash alike.  Part of the checker's state
    fingerprint. *)

val run : ?limit:int -> t -> unit
(** Dispatch events until the queue is empty, or until {!events_dispatched}
    reaches [limit] (default: 200 million, a runaway-simulation
    backstop; reaching it raises {!Runaway}).  The limit counts from
    the engine's creation, not from this call, so a run resumed from a
    {!restore} is held to the same budget as one from the start. *)

val run_until : t -> Time.t -> unit
(** Dispatch all events scheduled at or before the given time and
    advance the clock to exactly that time. *)

val stop : t -> unit
(** Make the innermost {!run}/{!run_until} return once the current
    event handler finishes. *)

val events_dispatched : t -> int

(** {2 Save and restore} *)

type saved
(** The live events, including the batch a scheduler hook is deciding
    over when {!save} is called from inside it, their cancelled flags,
    the clock, the next sequence number, the dispatch count and the
    stop flag.  Not covered: the lookahead, the hooks and the observer,
    which are configuration rather than state. *)

val save : t -> saved

val restore : t -> saved -> unit
(** Put the engine back in place to the state {!save} recorded.  The
    same event records come back, live again, so handlers that were
    pending then are pending now and seqs are issued exactly as they
    were; sound provided everything the handlers capture is restored
    too.  A batch that was under decision rejoins the queue, and the
    next step offers it to the scheduler hook again.  A [saved] value
    may be restored any number of times. *)
