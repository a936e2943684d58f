(** Text rendering of experiment results: aligned tables shaped like
    the paper's Table 1 and Figures 2-4.  Used by {!Paper} and the
    CLI. *)

val table :
  ?out:Format.formatter ->
  title:string ->
  header:string list ->
  string list list ->
  unit
(** Render an aligned table.  Every row must have the same arity as
    the header. *)

val fnum : float -> string
(** Two-decimal rendering used for normalized performance. *)

val check :
  ?out:Format.formatter -> label:string -> bool -> unit
(** A PASS/FAIL line for invariant summaries in benchmark output. *)

val findings :
  ?out:Format.formatter -> title:string -> Hft_analysis.Finding.t list -> unit
(** Render a lint report: one line per finding
    ({!Hft_analysis.Finding.pp}) under a titled header, then the
    {!Hft_analysis.Finding.summary} line.  Used by [hftsim lint] and
    by {!Scenario.replicated}'s pre-run gate when it rejects an
    image. *)

val channel_hardening :
  ?out:Format.formatter -> Hft_core.Stats.t list -> unit
(** One line summing the fair-lossy hardening counters (retransmits,
    duplicates dropped, corruptions detected) over the given
    per-hypervisor stats — shown alongside the section-4 numbers in
    [hftsim] output. *)

val span_metrics :
  ?out:Format.formatter -> (string * Hft_obs.Hist.t) list -> unit
(** Aligned table of span-duration histograms (one row per category:
    count, p50/p95/p99/max in microseconds), as produced by
    {!Hft_obs.Span.histograms}.  Empty histograms are skipped; prints
    nothing when no category has a closed span. *)

val failover_postmortem :
  ?out:Format.formatter -> Hft_obs.Recorder.entry list -> unit
(** Human-readable timeline for every crash observed in the entries:
    crash instant, failure detection, promotion (with the synthesized
    uncertain-completion count) and the promoted node's first
    submitted I/O — the environment-visible blackout. *)

val recovery : ?out:Format.formatter -> Hft_core.Stats.t list -> unit
(** One line summing the hypervisor-recovery counters (faults seeded,
    microreboots, reconciled I/Os and messages, escalations) over the
    given per-hypervisor stats.  Prints nothing when no hypervisor
    fault was seeded. *)

val recovery_postmortem :
  ?out:Format.formatter -> Hft_obs.Recorder.entry list -> unit
(** Human-readable timeline for every seeded hypervisor fault:
    injection, detection (panic/watchdog/integrity), microreboot
    completion with reconciliation counts, and the first epoch the
    recovered node completes — or the escalation to fail-stop. *)

val host_hashing :
  ?out:Format.formatter -> Hft_core.Stats.t list -> unit
(** One line summing the incremental-hashing counters (pages hashed
    vs reused from the page-digest cache at epoch boundaries, and
    snapshot bytes actually copied) over the given per-hypervisor
    stats. *)

val translation : ?out:Format.formatter -> Hft_core.Stats.t list -> unit
(** Two lines summing the direct-threaded execution counters
    (instructions run inside translated superblocks, dispatch entries,
    compiled blocks, and the fallback-exit
    taxonomy) over the given per-hypervisor stats.  Prints nothing
    when no instruction ran threaded — in particular under the
    [Interp] backend. *)

val heat : ?out:Format.formatter -> Hft_obs.Profile.report -> unit
(** The guest hot-spot table ({!Hft_obs.Profile.heat_table}) plus an
    attribution-coverage line.  Used by [hftsim profile]. *)

val certification : ?out:Format.formatter -> Hft_core.Stats.t list -> unit
(** One line summing the runtime certificate validator's coverage
    (instructions executed inside certified superblocks vs all
    validated instructions) over the given per-hypervisor stats.
    Prints nothing when validation was off. *)
