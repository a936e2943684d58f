(** Host-side performance baseline.

    Unlike the rest of the harness — which deals in {e simulated}
    time — this module measures how fast the simulator itself runs on
    the host: interpreter instructions/sec, epoch boundaries/sec with
    incremental (dirty-page), full-rehash, and no lockstep hashing,
    and snapshot bytes copied.  [hftsim bench] wraps it; the numbers are persisted in [BENCH_core.json] so later
    changes can show their speedup or regression against this PR's
    trajectory. *)

(** The three hashing modes at one epoch length, each rate the best of
    three windows taken in rotation with the other two modes' (A B C A
    B C A B C), so both ratios below compare interleaved sides. *)
type epoch_point = {
  el : int;
  no_hash_per_sec : float;
  incremental_per_sec : float;
  full_rehash_per_sec : float;
  no_hash_ns : float;
  incremental_ns : float;
  full_rehash_ns : float;
  speedup : float;  (** full-rehash ns/epoch over incremental ns/epoch *)
  hash_overhead : float;
      (** incremental-hashing ns/epoch over no-hashing ns/epoch — the
          residual cost of lockstep checking; CI guards this ratio *)
}

type t = {
  quick : bool;
  instrs_per_sec : float;
      (** plain interpreter (no validator, no translation): the best
          window over the three paired measurements below.  Each of
          [validator_overhead], [threaded_speedup] and
          [profiler_overhead] divides by the plain rate measured in
          windows alternating with its own other side (A B A B A B),
          not by this number *)
  epoch_points : epoch_point list;
  snapshot_first_bytes : int;
  snapshot_delta_bytes : int;
  certified_superblocks : int;
      (** superblocks of the bench workload whose every block is
          certified ({!Hft_analysis.Manifest}) *)
  static_coverage : float;
      (** fraction of reachable instructions inside certified
          superblocks, per the static manifest *)
  certified_coverage : float;
      (** fraction of {e executed} instructions inside certified
          superblocks, measured by the runtime certificate validator —
          the share a threaded-code engine could pre-decode *)
  validated_instrs_per_sec : float;
      (** interpreter rate with the validator armed; compare against
          [instrs_per_sec] for the validator's cost *)
  translate_us : float;
      (** wall time to compile the bench image's certified superblocks
          into direct-threaded closure chains *)
  translated_blocks : int;
  threaded_instrs_per_sec : float;
      (** execution rate with the translation cache armed and the
          validator off — the tentpole number; compare against
          [instrs_per_sec] *)
  threaded_speedup : float;
      (** threaded rate over the paired plain interpreter rate; CI's
          quick mode gates >= 1.5 *)
  threaded_fraction : float;
      (** share of the threaded run's instructions that actually
          executed inside translated superblocks *)
  validator_overhead : float;
      (** paired plain interpreter rate over
          [validated_instrs_per_sec]: what the validator costs the
          interpreter once its deferred windows run as tight loops; CI
          gates it with [--max-validator-overhead] *)
  digest_match : bool;
      (** the interpreter and the threaded backend landed in the
          identical architectural state after a fixed fuel-sliced run;
          a [false] here invalidates the speedup and fails CI *)
  loop_interp_per_sec : float;
  loop_threaded_per_sec : float;
      (** loop-workload rate with the translation cache armed, in
          windows alternating with [loop_interp_per_sec]'s *)
  loop_digest_match : bool;
      (** interpreter vs threaded backend on the loop workload after a
          fixed fuel-sliced run; [false] fails CI *)
  metrics_epochs_per_sec : float;
      (** epoch-boundary driving rate with a recorder tapped into the
          windowed metrics registry and an epoch event pair emitted
          per boundary — the aggregated-metrics deployment shape *)
  metrics_overhead : float;
      (** plain no-hash epoch rate over [metrics_epochs_per_sec], the
          two measured in alternating windows; CI gates this <= 1.05
          (metrics must cost <= 5%) *)
  profiled_instrs_per_sec : float;
      (** interpreter rate with the per-address retirement counters
          armed ({!Hft_machine.Cpu.install_profile}) *)
  profiler_overhead : float;
      (** paired plain interpreter rate over
          [profiled_instrs_per_sec] *)
  threaded_profiled_instrs_per_sec : float;
      (** threaded rate with profiling armed (block-entry credits) *)
  profiler_threaded_overhead : float;
      (** a plain threaded rate over [threaded_profiled_instrs_per_sec],
          the two measured in alternating windows *)
  profile_totals_match : bool;
      (** both backends produced identical per-address retirement
          arrays over the same fixed fuel-sliced run — the exactness
          contract behind [hftsim profile]; [false] fails CI *)
}

val epoch_lengths : int list
(** The measured ELs: 1024, 4096, 32768. *)

val run : ?quick:bool -> unit -> t
(** Run all measurements.  [quick] shrinks the per-measurement CPU
    budget for CI smoke use (noisier, but seconds not tens). *)

val point : t -> int -> epoch_point option
(** The measurement at a given epoch length, if it was taken. *)

val to_json : t -> Hft_obs.Json.t
(** The [hftsim-bench-core/8] document ([hftsim bench --json]). *)

val report : ?out:Format.formatter -> t -> unit
(** Human-readable rendering via {!Report.table}. *)
