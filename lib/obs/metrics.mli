(** Aggregation-first metrics registry.

    The {!Recorder} ring answers "what happened, exactly" for the most
    recent [capacity] events; this registry answers "how is the run
    going" for runs of {e any} length in bounded space.  Attach
    {!tap} to a recorder (or call {!observe} directly) and the event
    stream folds into:

    - labeled {b counters} behind per-actor {!scope}s —
      registration allocates, every subsequent bump is a field write;
    - {b rolling time windows} over simulated time, each carrying the
      windowed epoch-latency and ack-wait histograms (p50/p99), the
      epoch count, and the availability fraction (share of the window
      with a live primary — crash/recovery windows dip below 1.0).
      When the window list reaches [max_windows], adjacent windows
      merge pairwise (exact for everything reported — see
      {!Hist.merge}) and the base width doubles, so output size stays
      bounded no matter how long the run is.

    {!Export.metrics_json} renders the registry as
    [hftsim-metrics/2]. *)

type t

val create : ?window_ns:int -> ?max_windows:int -> unit -> t
(** Default window width 10 ms of simulated time, at most 64 retained
    windows. *)

(** {2 Scopes and counters} *)

type counter = private {
  c_actor : string;
  c_name : string;
  mutable c_val : int;
}

type scope

val scope : t -> string -> scope
(** [scope t actor]: the registration namespace for one actor
    (["primary"], ["backup"], a channel name…). *)

val counter : scope -> string -> counter
(** Find-or-register; the returned handle is stable, so hot paths
    register once and bump the handle allocation-free. *)

val incr : counter -> unit
val add : counter -> int -> unit
val value : counter -> int

val counters : t -> counter list
(** Sorted by (actor, name). *)

(** {2 Event tap} *)

val observe : t -> Recorder.entry -> unit
(** Fold one event into the registry.  Epoch and ack-wait begin/end
    pairs close into the windowed histograms; crash/promotion and
    hypervisor fault/microreboot events open and close downtime for
    the availability fraction; most other events bump a per-actor
    counter.  Each source's counter handles are resolved once, so
    folding a counted event from a source seen before allocates
    nothing. *)

val tap : t -> Recorder.entry -> unit
(** [Recorder.create ~tap:(Metrics.tap m) ()] — alias of {!observe}
    shaped for the recorder hook. *)

(** {2 Windows} *)

type window = {
  w_t0_ns : int;
  mutable w_len_ns : int;
  w_epoch : Hist.t;
  w_ack : Hist.t;
  mutable w_epochs : int;
  mutable w_down_ns : int;
}

val windows : t -> window list
(** Oldest first; the last window is still open. *)

val availability : window -> float
(** [1 - down/len], clamped to [0,1]. *)

(** {2 Accessors used by exporters} *)

val pp : Format.formatter -> t -> unit
