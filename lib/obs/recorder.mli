(** Bounded ring of typed protocol events.

    The simulator's one event stream: once [capacity] entries have
    been recorded the oldest are discarded.  {!entries} returns each
    as an {!Event.t}, so spans, histograms and exporters consume them
    without parsing.

    The ring itself holds no OCaml value per entry.  An entry is five
    ints (its time, a header packing the event's tag, flags and
    source, and three payload ints) in [int array] chunks of 1024
    entries, allocated on demand up to [capacity] and never copied;
    {!entries} decodes them back.  Strings (sources, kinds, labels,
    notes) are interned per recorder in a hash table: one copy of
    each distinct string.  A retained entry costs 5 words; without a
    [tap], recording one allocates nothing on the minor heap and
    promotes nothing. *)

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
(** Forget every entry and interned string and release the ring's
    chunks; the recorder stays usable with the same capacity. *)

val pp : Format.formatter -> t -> unit
