(** Bounded ring of typed protocol events.

    The simulator's one event stream: once [capacity] entries have
    been recorded the oldest are discarded.  Entries carry an
    {!Event.t}, so spans, histograms and exporters consume them
    without parsing.  The ring starts empty and doubles on demand up
    to [capacity], so a short run pays only for what it records. *)

type entry = { time : Hft_sim.Time.t; source : string; ev : Event.t }

type t

val create : ?capacity:int -> ?dispatch:bool -> ?tap:(entry -> unit) -> unit -> t
(** Default capacity is 262144 entries; no slot is allocated until
    the first emission.  [dispatch] (default false)
    opts into mirroring raw engine dispatches into the ring — useful
    for full timeline dumps, but high-frequency enough to evict the
    protocol events on long runs, so it is off for artifacts.  [tap]
    sees every entry {e before} it enters the ring, so a streaming
    aggregator ({!Metrics}) observes events the wraparound later
    discards. *)

val null : t
(** A shared sink that retains nothing; recording into it is free. *)

val enabled : t -> bool
(** [false] exactly for {!null}: call sites use this to skip building
    event payloads when nobody is listening. *)

val dispatch_enabled : t -> bool

val emit : t -> time:Hft_sim.Time.t -> source:string -> Event.t -> unit

val entries : t -> entry list
(** Oldest first, at most [capacity] of the most recent entries. *)

val length : t -> int
(** Number of retained entries; O(1). *)

val total_recorded : t -> int
(** Number of entries ever recorded, including discarded ones. *)

val dropped : t -> int
(** Number of entries the ring wraparound has discarded
    ([total_recorded - capacity] when positive).  Nonzero drops mean
    span reconstruction and exported timelines are missing their
    oldest events; {!Export.jsonl} records the count in its header and
    [hftsim validate] warns on it. *)

val clear : t -> unit
(** Forget every entry and release the ring; the recorder stays usable
    with the same capacity. *)

val pp : Format.formatter -> t -> unit
