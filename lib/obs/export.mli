(** Trace artifact exporters and validators.

    Two formats:
    - Chrome trace-event JSON ({!chrome}): loads directly in Perfetto
      (ui.perfetto.dev) or chrome://tracing.  One process per layer
      (replicas / channels / devices), one track group per source;
      epoch, ack-wait, rtx-chain and failover spans are synchronous
      slices on per-category lanes, intr-delay and msg-rtt spans are
      async begin/end pairs (they overlap), and every recorded event
      appears as an instant with its fields as args.
    - [hftsim-trace/1] JSONL ({!jsonl}): a header line, then one JSON
      object per line — every event ([kind:"event"]), every
      reconstructed span ([kind:"span"], [t1_ns] null when unclosed)
      and one [kind:"hist"] summary per span category.

    Both are built as {!Json.t} values.  {!validate} checks either
    format structurally with the {!Json} reader — the CI schema gate
    runs it via [hftsim validate]. *)

val schema : string
(** ["hftsim-trace/1"]. *)

val metrics_schema : string
(** ["hftsim-metrics/2"].  /2 is a superset of /1: the ["histograms"]
    array keeps the /1 element shape, and /2 adds ["counters"],
    ["gauges"], ["windows"] (the {!Metrics} rolling aggregation) and
    ["dropped_events"].  The validator accepts both versions but
    rejects anything else, and rejects files mixing schemas. *)

val chrome : Recorder.entry list -> Json.t

val jsonl : ?dropped:int -> Recorder.entry list -> Json.t list
(** One value per line ({!Json.to_lines} writes the stream).
    [dropped] (default 0, pass {!Recorder.dropped}) records in the
    header how many events the ring discarded before export. *)

val metrics_json :
  ?registry:Metrics.t -> ?dropped:int -> (string * Hist.t) list -> Json.t
(** [hftsim-metrics/2]: per-category quantiles plus the raw
    log-bucket counts; with [registry], also its counters and rolling
    windows.  ["gauges"] is always the empty array. *)

type summary = {
  format : [ `Chrome | `Jsonl | `Metrics ];
  events : int;
  spans : int;
  span_cats : string list;  (** sorted, distinct *)
  hists : int;
  drops : int;
      (** ring-discarded events the artifact reports; 0 when the
          format predates the counter *)
  counters : int;  (** metrics documents only *)
  windows : int;  (** metrics documents only *)
}

val validate : string -> (summary, string) result
(** Sniffs the format (a top-level object with [traceEvents] is a
    Chrome trace, a top-level ["hftsim-metrics/*"] schema is a metrics
    document, anything else is tried as JSONL) and checks every record
    for the fields its [ph]/[kind] requires.  JSONL lines that declare
    a schema differing from the header's — concatenated artifacts —
    are rejected with the two schemas named. *)

val pp_summary : Format.formatter -> summary -> unit
