open Hft_machine

(* Host-side performance baseline: how fast the simulator itself runs,
   as opposed to the simulated timings the rest of the harness deals
   in.  Everything here is measured with [Sys.time] over a fixed CPU
   budget, so results are machine-dependent by design — the JSON this
   produces is a trajectory marker ("this PR on this machine"), and
   the ratios in it (hashing overhead, incremental-vs-full speedup)
   are what later PRs and the CI smoke job compare against. *)

type epoch_point = {
  el : int;  (* epoch length in instructions *)
  no_hash_per_sec : float;  (* boundaries/sec, hashing skipped *)
  incremental_per_sec : float;  (* boundaries/sec, dirty-page hashing *)
  full_rehash_per_sec : float;  (* boundaries/sec, from-scratch hashing *)
  no_hash_ns : float;  (* host ns per simulated epoch, per mode *)
  incremental_ns : float;
  full_rehash_ns : float;
  speedup : float;  (* full-rehash ns / incremental ns *)
  hash_overhead : float;  (* incremental ns / no-hash ns *)
}

type t = {
  quick : bool;
  instrs_per_sec : float;
  epoch_points : epoch_point list;
  snapshot_first_bytes : int;
  snapshot_delta_bytes : int;
  certified_superblocks : int;
  static_coverage : float;
  certified_coverage : float;
  validated_instrs_per_sec : float;
  translate_us : float;  (* wall time to compile the bench image *)
  translated_blocks : int;
  threaded_instrs_per_sec : float;  (* translation cache armed, no validator *)
  threaded_speedup : float;  (* threaded rate over interpreter rate *)
  threaded_fraction : float;  (* share of instructions executed threaded *)
  validator_overhead : float;
      (* interpreter rate over validated rate: what the per-block
         certificate cache leaves of the old ~29% per-instruction cost *)
  digest_match : bool;  (* interp and threaded agree after a fixed run *)
  loop_interp_per_sec : float;
  loop_threaded_per_sec : float;  (* translation armed *)
  loop_digest_match : bool;  (* interp vs threaded after a fixed run *)
  metrics_epochs_per_sec : float;  (* epoch driving, registry tap armed *)
  metrics_overhead : float;  (* no-metrics epoch rate / metrics rate *)
  profiled_instrs_per_sec : float;  (* interpreter, retirement counters on *)
  profiler_overhead : float;  (* interp rate / profiled interp rate *)
  threaded_profiled_instrs_per_sec : float;
  profiler_threaded_overhead : float;
      (* threaded rate / profiled threaded rate, in alternating windows *)
  profile_totals_match : bool;
      (* interp and threaded per-address retirement arrays identical
         after the same fixed fuel-sliced run *)
}

(* A store-heavy loop whose write set stays inside one page: the
   representative case for dirty-page hashing (a guest touches a tiny
   fraction of its address space per 1K-instruction epoch). *)
let workload_code =
  Isa.
    [|
      Ldi (1, 0);
      Ldi (2, 0);
      Ldi (3, 0x2000);
      (* loop: *)
      Alui (Add, 1, 1, 1);
      Alu (Xor, 2, 2, 1);
      St (2, 3, 0);
      Alui (Add, 2, 2, 7);
      Ld (4, 3, 0);
      Jmp 3;
    |]

let fresh_cpu () = Cpu.create ~code:workload_code ()

(* The loop-heavy phase: a counted 100-trip self-loop restarted
   forever by an outer loop. *)
let loop_workload_code =
  Isa.
    [|
      Ldi (3, 0x2000);
      Ldi (4, 0);
      Ldi (6, 100);
      Ldi (2, 0);
      (* inner: *)
      Alui (Add, 2, 2, 1);
      Alu (Xor, 4, 4, 2);
      St (4, 3, 0);
      Ld (5, 3, 0);
      Br (Ltu, 2, 6, 4);
      Jmp 3;
    |]

let fresh_loop_cpu () = Cpu.create ~code:loop_workload_code ()

(* Repeat [step] until [budget] CPU-seconds elapse (at least once) and
   return completed units per second. *)
let window budget step =
  let t0 = Sys.time () in
  let units = ref 0 in
  let elapsed = ref 0.0 in
  while !elapsed < budget do
    units := !units + step ();
    elapsed := Sys.time () -. t0
  done;
  float_of_int !units /. !elapsed

(* The rates of [steps], each over [budget] split into three windows
   taken in rotation (A B C A B C A B C), the fastest window of each
   winning: on a shared host competing load only ever makes a window
   slower, so the peak is the least-disturbed estimate, and load that
   comes and goes lands on every side alike instead of becoming a
   ratio between them. *)
let rates ~budget steps =
  let w = budget /. 3.0 in
  let best = Array.make (Array.length steps) 0.0 in
  for _ = 1 to 3 do
    Array.iteri
      (fun i step -> best.(i) <- Float.max best.(i) (window w step))
      steps
  done;
  best

(* The two sides of a ratio, in alternating windows (A B A B A B). *)
let rate_pair ~budget step_a step_b =
  let r = rates ~budget [| step_a; step_b |] in
  (r.(0), r.(1))

(* Run [cpu] in a fixed 100 000-instruction slice, which must run out
   of fuel, and return the instructions completed. *)
let fuel_step cpu () =
  let r = Cpu.run cpu ~fuel:100_000 in
  (match r.Cpu.stop with
  | Cpu.Fuel -> ()
  | s -> Fmt.failwith "bench: unexpected stop %a" Cpu.pp_stop s);
  r.Cpu.executed

(* Instructions per second of [a] and of [b], in alternating
   windows. *)
let fuel_rate_pair ~budget a b = rate_pair ~budget (fuel_step a) (fuel_step b)

let translated m cpu =
  (match Hft_analysis.Manifest.install_translation m ~deprivileged:false cpu with
  | Ok _ -> ()
  | Error e -> Fmt.failwith "bench: translation refused: %s" e);
  cpu

(* Differential digest over a fixed, fuel-sliced run: an interpreting
   and a threaded CPU built by [fresh] must land in the identical
   architectural state after every slice. *)
let digests_agree m fresh =
  let ci = fresh () in
  let ct = translated m (fresh ()) in
  let ok = ref true in
  for _ = 1 to 50 do
    ignore (Cpu.run ci ~fuel:9973);
    let rec drive need =
      if need > 0 then begin
        let r = Cpu.run ct ~fuel:need in
        drive (need - r.Cpu.executed)
      end
    in
    drive 9973;
    if Cpu.state_hash ~full:true ci <> Cpu.state_hash ~full:true ct then
      ok := false
  done;
  !ok

type hash_mode = No_hash | Incremental | Full_rehash

(* One epoch of [el] instructions on a CPU of its own, hashed as [mode]
   says, per call. *)
let epoch_step ~el mode =
  let cpu = fresh_cpu () in
  Cpu.set_recovery cpu el;
  (* warm the page-digest cache so the incremental numbers reflect the
     steady state, not the first-ever hash *)
  ignore (Cpu.state_hash cpu : int);
  fun () ->
    let r = Cpu.run cpu ~fuel:(el + 8) in
    (match r.Cpu.stop with
    | Cpu.Recovery -> ()
    | s -> Fmt.failwith "bench: unexpected stop %a" Cpu.pp_stop s);
    (match mode with
    | No_hash -> ()
    | Incremental -> ignore (Cpu.state_hash cpu : int)
    | Full_rehash -> ignore (Cpu.state_hash ~full:true cpu : int));
    Cpu.set_recovery cpu el;
    1

(* Certify the bench workload and replay it under the runtime
   certificate validator: [certified_coverage] is the fraction of
   executed instructions inside certified superblocks — the share a
   threaded-code engine could pre-decode — and the validated rate
   prices the validator itself against the plain interpreter. *)
let bench_certification ~budget plain =
  let m = Hft_analysis.Manifest.of_code workload_code in
  let cpu = fresh_cpu () in
  Hft_analysis.Manifest.install m ~deprivileged:false cpu;
  let interp_rate, validated_rate = fuel_rate_pair ~budget plain cpu in
  if not (Cpu.validator_active cpu) then
    Fmt.failwith "bench: validator not installed";
  let { Cpu.covered; checked } = Cpu.validator_coverage cpu in
  let coverage =
    if checked = 0 then 0.0 else float_of_int covered /. float_of_int checked
  in
  (m, interp_rate, validated_rate, coverage)

(* The tentpole measurement: pre-decode the certified superblocks into
   direct-threaded closure chains and price the same fuel against the
   interpreter.  Run without the validator — the entry precheck
   replaces it inside translated code — and close with a differential
   digest: both executions must land in the identical architectural
   state or the speedup number is meaningless. *)
let bench_translation ~budget plain m =
  let cpu = fresh_cpu () in
  let t0 = Sys.time () in
  ignore (translated m cpu : Cpu.t);
  let translate_us = (Sys.time () -. t0) *. 1e6 in
  let interp_rate, threaded_rate = fuel_rate_pair ~budget plain cpu in
  let tx =
    match Cpu.translation cpu with
    | Some tx -> tx
    | None -> Fmt.failwith "bench: translation not installed"
  in
  let fraction =
    let total = Cpu.instructions_retired cpu in
    if total = 0 then 0.0
    else float_of_int tx.Translate.threaded_instrs /. float_of_int total
  in
  ( interp_rate,
    translate_us,
    tx.Translate.translated_blocks,
    threaded_rate,
    threaded_rate /. interp_rate,
    fraction,
    digests_agree m fresh_cpu )

(* The loop workload: the interpreter and the threaded backend at the
   same fuel in alternating windows, with the differential digest
   keeping the threaded rate honest. *)
let bench_loop ~budget =
  let m = Hft_analysis.Manifest.of_code loop_workload_code in
  let interp_rate, threaded_rate =
    fuel_rate_pair ~budget (fresh_loop_cpu ())
      (translated m (fresh_loop_cpu ()))
  in
  (interp_rate, threaded_rate, digests_agree m fresh_loop_cpu)

(* The observability phase prices the PR's two collectors.

   Aggregated-metrics mode is an epoch-rate measurement: the real
   deployment emits a handful of protocol events per epoch into a
   recorder whose tap feeds the windowed registry, so the honest
   denominator is epochs driven per second, not raw instructions —
   per-instruction work is untouched by design.  Profiling overhead
   *is* per-instruction (one array bump in the interpreter, one
   credit per block entry threaded), so those are instruction rates
   against the matching unprofiled backend.  Each overhead's two sides
   are measured in alternating windows. *)
let bench_metrics ~budget ~el =
  let metrics_step =
    let cpu = fresh_cpu () in
    Cpu.set_recovery cpu el;
    let registry = Hft_obs.Metrics.create () in
    let rec_ =
      Hft_obs.Recorder.create ~capacity:256
        ~tap:(Hft_obs.Metrics.tap registry) ()
    in
    let epoch = ref 0 in
    let epoch_ns = el * 20 in
    fun () ->
      let time = Hft_sim.Time.of_ns (!epoch * epoch_ns) in
      Hft_obs.Recorder.emit rec_ ~time ~source:"primary"
        (Hft_obs.Event.Epoch_begin { epoch = !epoch });
      let r = Cpu.run cpu ~fuel:(el + 8) in
      (match r.Cpu.stop with
      | Cpu.Recovery -> ()
      | s -> Fmt.failwith "bench: unexpected stop %a" Cpu.pp_stop s);
      let time = Hft_sim.Time.of_ns (((!epoch + 1) * epoch_ns) - 1) in
      Hft_obs.Recorder.emit rec_ ~time ~source:"primary"
        (Hft_obs.Event.Epoch_end { epoch = !epoch; interrupts = 0 });
      incr epoch;
      Cpu.set_recovery cpu el;
      1
  in
  let plain, metrics_rate =
    rate_pair ~budget (epoch_step ~el No_hash) metrics_step
  in
  (metrics_rate, plain /. metrics_rate)

let bench_profiler ~budget plain m =
  let profiled () =
    let cpu = fresh_cpu () in
    Cpu.install_profile cpu;
    cpu
  in
  let interp_rate, profiled_rate =
    fuel_rate_pair ~budget plain (profiled ())
  in
  let threaded_rate, threaded_profiled_rate =
    fuel_rate_pair ~budget
      (translated m (fresh_cpu ()))
      (translated m (profiled ()))
  in
  (* the exactness contract: identical totals and identical per-block
     retirement counts from both backends over the same fixed
     fuel-sliced run.  (Per block, not per address: the interpreter
     counts each completed instruction at its own address while the
     threaded backend credits whole blocks at the leader — the two
     agree exactly at block granularity, which is what [hftsim
     profile] attributes.) *)
  let totals_match =
    let ci = profiled () in
    let ct = translated m (profiled ()) in
    let rec drive cpu need =
      if need > 0 then begin
        let r = Cpu.run cpu ~fuel:need in
        drive cpu (need - r.Cpu.executed)
      end
    in
    let block_sums cpu =
      let p = match Cpu.profile cpu with Some p -> p | None -> [||] in
      List.map
        (fun (b : Hft_analysis.Manifest.block) ->
          let s = ref 0 in
          for a = b.leader to min (b.leader + b.len - 1) (Array.length p - 1) do
            s := !s + p.(a)
          done;
          (b.leader, !s))
        m.Hft_analysis.Manifest.blocks
    in
    let ok = ref true in
    for _ = 1 to 50 do
      drive ci 9973;
      drive ct 9973;
      if
        Cpu.profile_total ci <> Cpu.profile_total ct
        || block_sums ci <> block_sums ct
      then ok := false
    done;
    !ok && Cpu.profile_total ci > 0
  in
  ( interp_rate,
    profiled_rate,
    interp_rate /. profiled_rate,
    threaded_profiled_rate,
    threaded_rate /. threaded_profiled_rate,
    totals_match )

let bench_snapshot () =
  let cpu = fresh_cpu () in
  ignore (Cpu.run cpu ~fuel:5_000);
  ignore (Cpu.snapshot cpu);
  let first = Cpu.snapshot_bytes_copied cpu in
  ignore (Cpu.run cpu ~fuel:5_000);
  ignore (Cpu.snapshot cpu);
  let delta = Cpu.snapshot_bytes_copied cpu - first in
  (first, delta)

let epoch_lengths = [ 1024; 4096; 32768 ]

let run ?(quick = false) () =
  let budget = if quick then 0.04 else 0.25 in
  (* the plain interpreter, measured beside each side it is the base of *)
  let plain = fresh_cpu () in
  let epoch_points =
    List.map
      (fun el ->
        (* the three modes in rotation, so each ratio's two sides
           alternate *)
        let r =
          rates ~budget
            [|
              epoch_step ~el No_hash;
              epoch_step ~el Incremental;
              epoch_step ~el Full_rehash;
            |]
        in
        let no_hash = r.(0) and incremental = r.(1) and full = r.(2) in
        let ns per_sec = 1e9 /. per_sec in
        {
          el;
          no_hash_per_sec = no_hash;
          incremental_per_sec = incremental;
          full_rehash_per_sec = full;
          no_hash_ns = ns no_hash;
          incremental_ns = ns incremental;
          full_rehash_ns = ns full;
          speedup = incremental /. full;
          hash_overhead = no_hash /. incremental;
        })
      epoch_lengths
  in
  let snapshot_first_bytes, snapshot_delta_bytes = bench_snapshot () in
  let manifest, interp_v, validated_instrs_per_sec, certified_coverage =
    bench_certification ~budget plain
  in
  let ( interp_t,
        translate_us,
        translated_blocks,
        threaded_instrs_per_sec,
        threaded_speedup,
        threaded_fraction,
        digest_match ) =
    bench_translation ~budget plain manifest
  in
  let loop_interp_per_sec, loop_threaded_per_sec, loop_digest_match =
    bench_loop ~budget
  in
  let metrics_epochs_per_sec, metrics_overhead =
    bench_metrics ~budget ~el:4096
  in
  let ( interp_p,
        profiled_instrs_per_sec,
        profiler_overhead,
        threaded_profiled_instrs_per_sec,
        profiler_threaded_overhead,
        profile_totals_match ) =
    bench_profiler ~budget plain manifest
  in
  {
    quick;
    instrs_per_sec = Float.max interp_v (Float.max interp_t interp_p);
    epoch_points;
    snapshot_first_bytes;
    snapshot_delta_bytes;
    certified_superblocks =
      Hft_analysis.Manifest.certified_superblocks manifest;
    static_coverage = Hft_analysis.Manifest.static_coverage manifest;
    certified_coverage;
    validated_instrs_per_sec;
    translate_us;
    translated_blocks;
    threaded_instrs_per_sec;
    threaded_speedup;
    threaded_fraction;
    validator_overhead = interp_v /. validated_instrs_per_sec;
    digest_match;
    loop_interp_per_sec;
    loop_threaded_per_sec;
    loop_digest_match;
    metrics_epochs_per_sec;
    metrics_overhead;
    profiled_instrs_per_sec;
    profiler_overhead;
    threaded_profiled_instrs_per_sec;
    profiler_threaded_overhead;
    profile_totals_match;
  }

let point t el = List.find_opt (fun p -> p.el = el) t.epoch_points

module J = Hft_obs.Json

let to_json t =
  let e = J.significant 5 and f = J.fixed in
  J.Obj
    [
      ("schema", J.Str "hftsim-bench-core/8");
      ("quick", J.Bool t.quick);
      ("interpreter", J.Obj [ ("instrs_per_sec", e t.instrs_per_sec) ]);
      ( "epoch_boundaries",
        J.Arr
          (List.map
             (fun p ->
               J.Obj
                 [
                   ("el", J.int p.el);
                   ("no_hash_boundaries_per_sec", e p.no_hash_per_sec);
                   ("incremental_boundaries_per_sec", e p.incremental_per_sec);
                   ("full_rehash_boundaries_per_sec", e p.full_rehash_per_sec);
                   ("no_hash_ns_per_epoch", f 1 p.no_hash_ns);
                   ("incremental_ns_per_epoch", f 1 p.incremental_ns);
                   ("full_rehash_ns_per_epoch", f 1 p.full_rehash_ns);
                   ("incremental_speedup_over_full", f 2 p.speedup);
                   ("hash_overhead_over_no_hash", f 2 p.hash_overhead);
                 ])
             t.epoch_points) );
      ( "manifest",
        J.Obj
          [
            ("certified_superblocks", J.int t.certified_superblocks);
            ("static_coverage", f 4 t.static_coverage);
            ("certified_coverage", f 4 t.certified_coverage);
            ("validated_instrs_per_sec", e t.validated_instrs_per_sec);
            ("validator_overhead", f 4 t.validator_overhead);
          ] );
      ( "translation",
        J.Obj
          [
            ("translate_us", f 1 t.translate_us);
            ("translated_blocks", J.int t.translated_blocks);
            ("threaded_instrs_per_sec", e t.threaded_instrs_per_sec);
            ("threaded_speedup", f 2 t.threaded_speedup);
            ("threaded_fraction", f 4 t.threaded_fraction);
            ("digest_match", J.Bool t.digest_match);
          ] );
      ( "loop_workload",
        J.Obj
          [
            ("interp_instrs_per_sec", e t.loop_interp_per_sec);
            ("threaded_instrs_per_sec", e t.loop_threaded_per_sec);
            ("digest_match", J.Bool t.loop_digest_match);
          ] );
      ( "observability",
        J.Obj
          [
            ("metrics_epochs_per_sec", e t.metrics_epochs_per_sec);
            ("metrics_overhead", f 4 t.metrics_overhead);
            ("profiled_instrs_per_sec", e t.profiled_instrs_per_sec);
            ("profiler_overhead", f 4 t.profiler_overhead);
            ( "threaded_profiled_instrs_per_sec",
              e t.threaded_profiled_instrs_per_sec );
            ("profiler_threaded_overhead", f 4 t.profiler_threaded_overhead);
            ("profile_totals_match", J.Bool t.profile_totals_match);
          ] );
      ( "snapshot",
        J.Obj
          [
            ("first_bytes", J.int t.snapshot_first_bytes);
            ("delta_bytes", J.int t.snapshot_delta_bytes);
          ] );
    ]

let report ?out t =
  Report.table ?out ~title:"host-side performance (this machine)"
    ~header:[ "EL"; "no-hash/s"; "incr/s"; "full/s"; "speedup"; "overhead" ]
    (List.map
       (fun p ->
         [
           string_of_int p.el;
           Printf.sprintf "%.0f" p.no_hash_per_sec;
           Printf.sprintf "%.0f" p.incremental_per_sec;
           Printf.sprintf "%.0f" p.full_rehash_per_sec;
           Printf.sprintf "%.1fx" p.speedup;
           Printf.sprintf "%.2fx" p.hash_overhead;
         ])
       t.epoch_points);
  let out = match out with Some o -> o | None -> Format.std_formatter in
  Format.fprintf out "interpreter    : %.1f M instrs/sec@."
    (t.instrs_per_sec /. 1e6);
  Format.fprintf out "snapshot bytes : %d first, %d delta@."
    t.snapshot_first_bytes t.snapshot_delta_bytes;
  Format.fprintf out
    "certification  : %d superblocks, %.1f%% static, %.1f%% executed, \
     %.1f M instrs/sec validated (%.2fx overhead)@."
    t.certified_superblocks
    (100.0 *. t.static_coverage)
    (100.0 *. t.certified_coverage)
    (t.validated_instrs_per_sec /. 1e6)
    t.validator_overhead;
  Format.fprintf out
    "translation    : %.1f us to compile %d blocks, %.1f M instrs/sec \
     threaded (%.2fx over interpreter, %.1f%% threaded), digests %s@."
    t.translate_us t.translated_blocks
    (t.threaded_instrs_per_sec /. 1e6)
    t.threaded_speedup
    (100.0 *. t.threaded_fraction)
    (if t.digest_match then "match" else "DIVERGED");
  Format.fprintf out
    "loop workload  : %.1f M interp, %.1f M threaded instrs/sec, digests %s@."
    (t.loop_interp_per_sec /. 1e6)
    (t.loop_threaded_per_sec /. 1e6)
    (if t.loop_digest_match then "match" else "DIVERGED");
  Format.fprintf out
    "observability  : metrics %.0f epochs/sec (%.2fx overhead); profiler \
     %.1f M interp (%.2fx), %.1f M threaded (%.2fx) instrs/sec, profiles %s@."
    t.metrics_epochs_per_sec t.metrics_overhead
    (t.profiled_instrs_per_sec /. 1e6)
    t.profiler_overhead
    (t.threaded_profiled_instrs_per_sec /. 1e6)
    t.profiler_threaded_overhead
    (if t.profile_totals_match then "match" else "DIVERGED")
