(* The end-to-end, layer-attributed benchmark of the replicated
   simulator.

     bench.exe --workload NAME --seed N --seconds S --trace 0|1
     bench.exe --smoke

   One process with one thread drives each workload as a closed loop:
   an operation starts when the previous one has returned, for S
   seconds of host time after a set-up phase.  Every operation's output
   is checked (against the bare machine, the campaign invariants or the
   checker's pinned fixpoints) and its modelled statistics are digested;
   repetitions of an operation must digest alike.  The last line of
   standard output is one JSON object with the keys [correct],
   [attempted], [failed] and [metrics]: the end-to-end metrics with
   --trace 0, the per-layer metrics with --trace 1.  README.md in this
   directory defines every metric.

   Everything is measured from outside the libraries: the benchmark
   times its own calls into each layer's public functions and listens
   on the two hooks that exist, [Engine.set_observer] and a [Recorder]
   created with [~dispatch:true ~tap]. *)

open Hft_core
module Time = Hft_sim.Time
module Engine = Hft_sim.Engine
module Rng = Hft_sim.Rng
module Cpu = Hft_machine.Cpu
module Asm = Hft_machine.Asm
module Tlb = Hft_machine.Tlb
module Workload = Hft_guest.Workload
module Manifest = Hft_analysis.Manifest
module Recorder = Hft_obs.Recorder
module Metrics = Hft_obs.Metrics
module Event = Hft_obs.Event
module Json = Hft_obs.Json
module Campaign = Hft_harness.Campaign
module Scenarios = Hft_harness.Scenarios
module Checker = Hft_check.Checker

(* ---------- host clock and sample statistics ---------- *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let secs ns = float ns /. 1e9
let since t0 = secs (now_ns () - t0)

(* Linear interpolation between order statistics. *)
let quantile q = function
  | [] -> 0.
  | l ->
    let a = Array.of_list l in
    Array.sort Float.compare a;
    let n = Array.length a in
    let pos = q *. float (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then a.(n - 1)
    else a.(i) +. ((pos -. float i) *. (a.(i + 1) -. a.(i)))

let median = quantile 0.5
let sum = List.fold_left ( +. ) 0.
let ratio a b = if b > 0. then a /. b else 0.

let timed f =
  let t0 = now_ns () in
  let r = f () in
  (r, since t0)

(* ---------- host-speed calibration ---------- *)

(* On a virtual machine whose cores are shared (measured on 2 vCPUs),
   the same operation's host time drifts by a quarter or more over
   minutes, while its ratio to a fixed CPU kernel run alongside drifts
   about half as much.  So the
   end-to-end times are reported in reference-host units: scaled by
   [calib_nominal_ms] / (median time of the kernel during the run).  The
   kernel is benchmark code only — hash-table probes and short-lived
   list cells, the mix that tracked the simulator's drift best — so no
   change to the libraries can move it. *)
let calib_nominal_ms = 25.

let calib_kernel () =
  let h = Hashtbl.create 4096 in
  for i = 0 to 4095 do
    Hashtbl.replace h i (i * 7)
  done;
  let acc = ref 0 and l = ref [] in
  for i = 0 to 400_000 do
    let k = i * 2654435761 land 4095 in
    acc := !acc + Hashtbl.find h k;
    if i land 7 = 0 then
      l :=
        (k, !acc)
        :: (match !l with _ :: t when List.length t > 64 -> [] | x -> x)
  done;
  ignore (Sys.opaque_identity (!acc, !l))

let calib_ms = ref []
let last_calib = ref 0

let calibrate () =
  let (), s = timed calib_kernel in
  calib_ms := (s *. 1e3) :: !calib_ms;
  last_calib := now_ns ()

(* Between operations: one kernel run per quarter second of host time. *)
let maybe_calibrate () =
  if now_ns () - !last_calib > 250_000_000 then calibrate ()

(* > 1 when the host runs slower than the reference. *)
let slowdown () = median !calib_ms /. calib_nominal_ms

(* ---------- workloads ---------- *)

type workload = Guest of int  (** epoch length *) | Faults | Check

let workloads =
  [
    ("guest", Guest 4096);
    ("long-epoch", Guest 32768);
    ("faults", Faults);
    ("check", Check);
  ]

(* [hftsim run -w cpu]: the guest of the paper's figure 2 sweep. *)
let dhrystone = Workload.dhrystone ~iterations:20_000

(* Original protocol, Ethernet, recovery-register epochs, lockstep
   hashing and manifest validation on: [hftsim run -w cpu -e EL -b B]. *)
let guest_params ~epoch backend =
  Params.with_exec_backend (Params.with_epoch_length Params.default epoch)
    backend

let backends = [ Params.Interp; Params.Threaded ]

(* [hftsim chaos -w mixed --hv-faults], with one recovery path per
   trial: the lossy channel (with at most a processor crash and
   reintegration), or a single hypervisor fault over a reliable channel.
   A hypervisor fault on top of channel faults or of another fault is
   the known split-brain failure class (seed 10 of the unrestricted mix
   fails trials 125 and 232; a lone backup hypervisor crash under loss
   fails too), and a workload whose operations fail cannot be
   compared. *)
let faults_config ~seed =
  {
    (Campaign.default_config ~hv_faults:true
       ~workload:(Workload.mixed ~compute:100 ~ops:12 ())
       ~trials:1 ~seed ())
    with
    Campaign.max_hv_faults = 1;
  }

let one_recovery_path (s : Campaign.schedule) =
  if s.Campaign.crash_epoch <> None || s.Campaign.backup_crash_epoch <> None
  then { s with Campaign.hv_faults = [] }
  else if s.Campaign.hv_faults <> [] then
    { s with Campaign.loss = 0.; duplicate = 0.; corrupt = 0.; delay_us = 0 }
  else s

let variant = Scenarios.correct

(* The fixpoints every scenario must reach under the correct variant. *)
let pinned_states =
  [
    ("handoff", 618);
    ("crash-write", 2998);
    ("crash-loss", 3887);
    ("reintegration-loss", 2819);
    ("hv-crash", 952);
  ]

(* ---------- verdicts and digests ---------- *)

type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable reasons : string list;  (** newest first, at most five *)
  digests : (string, string) Hashtbl.t;
  mutable keys : string list;  (** first-seen order, newest first *)
}

let tally () =
  { attempted = 0; failed = 0; reasons = []; digests = Hashtbl.create 64; keys = [] }

(* Count one operation.  [digest] holds only modelled quantities, so
   every repetition of the operation [key] must produce it again —
   traced or not. *)
let settle t ~key ~digest verdict =
  t.attempted <- t.attempted + 1;
  let verdict =
    match verdict with
    | Error _ as e -> e
    | Ok () -> (
      match Hashtbl.find_opt t.digests key with
      | None ->
        Hashtbl.add t.digests key digest;
        t.keys <- key :: t.keys;
        Ok ()
      | Some d when String.equal d digest -> Ok ()
      | Some d ->
        Error
          (Printf.sprintf "%s: simulated statistics [%s] differ from [%s]" key
             digest d))
  in
  match verdict with
  | Ok () -> ()
  | Error why ->
    t.failed <- t.failed + 1;
    if List.length t.reasons < 5 then t.reasons <- why :: t.reasons

(* One line per workload: the digest of the first [n] distinct
   operations, in the order they first ran. *)
let digest_line t n =
  let keys = List.rev t.keys in
  let keys = List.filteri (fun i _ -> i < n) keys in
  let body =
    String.concat ";"
      (List.map (fun k -> k ^ "=" ^ Hashtbl.find t.digests k) keys)
  in
  Printf.sprintf "%s over %d operation(s)" (Digest.to_hex (Digest.string body))
    (List.length keys)

(* ---------- accumulators ---------- *)

(* Per-layer figures are means per operation (or per pass, for [check])
   unless a metric says otherwise; each name keeps its own count. *)
type acc = (string, float * int) Hashtbl.t

let add (acc : acc) name v =
  let s, n = Option.value (Hashtbl.find_opt acc name) ~default:(0., 0) in
  Hashtbl.replace acc name (s +. v, n + 1)

let mean (acc : acc) name =
  match Hashtbl.find_opt acc name with
  | Some (s, n) when n > 0 -> s /. float n
  | _ -> 0.

let total (acc : acc) name =
  match Hashtbl.find_opt acc name with Some (s, _) -> s | None -> 0.

let samples : (string, float list) Hashtbl.t = Hashtbl.create 16

let sample name v =
  Hashtbl.replace samples name
    (v :: Option.value (Hashtbl.find_opt samples name) ~default:[])

let samples_of name = Option.value (Hashtbl.find_opt samples name) ~default:[]

(* ---------- dispatch-span tracer ---------- *)

(* Dispatch spans are grouped by engine label.  A span starts when the
   engine announces a dispatch (before its handler runs) and ends at the
   next announcement, or when the operation's run returns. *)
let group_names =
  [| "stop"; "resume"; "boundary"; "failover"; "rtx"; "hv"; "deliver"; "disk"; "other" |]

let g_deliver = 6
let g_disk = 7

let group_of_label = function
  | "stop" -> 0
  | "resume" | "start" -> 1
  | "epoch" | "epoch-end" | "boundary-send" | "boundary-resume" | "idle-epoch"
    ->
    2
  | "failover-resume" | "crash" | "detector" | "reintegrate" | "reintegrated"
    ->
    3
  | "rtx" -> 4
  | "hv-panic" | "hv-watchdog" | "hv-reboot" | "hv-fault" -> 5
  | "disk complete" -> g_disk
  | l when String.ends_with ~suffix:" deliver" l -> g_deliver
  | _ -> 8

(* Rows of the span file. *)
let k_op = 0
let k_child = 1
let k_dispatch = 2
let kind_names = [| "op"; "child"; "dispatch" |]
let span_cols = 9
let span_cap = 131_072

(* Dispatches of the first traced operation kept for the engine
   replay. *)
let capture_cap = 1 lsl 20

type tracer = {
  ids : (string, int) Hashtbl.t;
  mutable names : string array;  (** id -> label or actor *)
  mutable groups : int array;  (** id -> group, meaningful for labels *)
  mutable n_ids : int;
  recent : string array;  (** physical-equality cache in front of [ids] *)
  recent_id : int array;
  mutable recent_next : int;
  mutable instrs : unit -> int;  (** retired instructions, both replicas *)
  mutable split : bool;  (** [instrs] is known: split guest from trap spans *)
  (* the open dispatch span *)
  mutable is_open : bool;
  mutable cur_label : int;
  mutable cur_actor : int;
  mutable cur_sim : int;
  mutable cur_start : int;
  mutable cur_instr : int;
  words : float array;  (** [| at span start; now |]: unboxed scratch *)
  (* the current operation *)
  mutable op : int;
  mutable op_name : int;
  mutable op_start : int;
  mutable first_dispatch : int;  (** host time, -1 before the first *)
  mutable covered : int;
  mutable coverage : float list;
  (* totals over every traced operation *)
  group_ns : int array;
  group_words : float array;
  mutable events : int;
  mutable guest_ns : int;
  mutable trap_ns : int;
  mutable tap_ns : int;
  mutable wire_msgs : int;
  mutable wire_bytes : int;
  (* kept spans, written out at exit *)
  spans : int array;
  mutable n_spans : int;
  (* replay capture: (simulated time, label, actor) per dispatch *)
  mutable capturing : bool;
  mutable cap : int array;
  mutable n_cap : int;
}

let tracer () =
  {
    ids = Hashtbl.create 64;
    names = Array.make 64 "";
    groups = Array.make 64 8;
    n_ids = 0;
    recent = Array.make 16 "";
    recent_id = Array.make 16 (-1);
    recent_next = 0;
    instrs = (fun () -> 0);
    split = false;
    is_open = false;
    cur_label = 0;
    cur_actor = 0;
    cur_sim = 0;
    cur_start = 0;
    cur_instr = 0;
    words = [| 0.; 0. |];
    op = -1;
    op_name = 0;
    op_start = 0;
    first_dispatch = -1;
    covered = 0;
    coverage = [];
    group_ns = Array.make (Array.length group_names) 0;
    group_words = Array.make (Array.length group_names) 0.;
    events = 0;
    guest_ns = 0;
    trap_ns = 0;
    tap_ns = 0;
    wire_msgs = 0;
    wire_bytes = 0;
    spans = Array.make (span_cap * span_cols) 0;
    n_spans = 0;
    capturing = false;
    cap = [||];
    n_cap = 0;
  }

let intern_slow tr s =
  match Hashtbl.find tr.ids s with
  | id -> id
  | exception Not_found ->
    let id = tr.n_ids in
    if id = Array.length tr.names then begin
      tr.names <- Array.append tr.names (Array.make id "");
      tr.groups <- Array.append tr.groups (Array.make id 8)
    end;
    tr.names.(id) <- s;
    tr.groups.(id) <- group_of_label s;
    tr.n_ids <- id + 1;
    Hashtbl.add tr.ids s id;
    id

(* Labels are mostly literals, so a physical-equality scan finds them
   without hashing. *)
let intern tr s =
  let rec scan i =
    if i = Array.length tr.recent then begin
      let id = intern_slow tr s in
      let j = tr.recent_next in
      tr.recent.(j) <- s;
      tr.recent_id.(j) <- id;
      tr.recent_next <- (j + 1) mod Array.length tr.recent;
      id
    end
    else if tr.recent.(i) == s then tr.recent_id.(i)
    else scan (i + 1)
  in
  scan 0

let keep tr ~kind ~label ~actor ~sim ~start ~dur ~instrs ~words =
  if tr.n_spans < span_cap then begin
    let b = tr.n_spans * span_cols in
    let s = tr.spans in
    s.(b) <- tr.op;
    s.(b + 1) <- kind;
    s.(b + 2) <- label;
    s.(b + 3) <- actor;
    s.(b + 4) <- sim;
    s.(b + 5) <- start;
    s.(b + 6) <- dur;
    s.(b + 7) <- instrs;
    s.(b + 8) <- words;
    tr.n_spans <- tr.n_spans + 1
  end

(* Close the open dispatch span at host time [t]; [tr.words.(1)] holds
   the minor-heap word count read at [t]. *)
let close_at tr t i =
  if tr.is_open then begin
    tr.is_open <- false;
    let d = t - tr.cur_start in
    let dw = tr.words.(1) -. tr.words.(0) in
    let g = tr.groups.(tr.cur_label) in
    tr.group_ns.(g) <- tr.group_ns.(g) + d;
    tr.group_words.(g) <- tr.group_words.(g) +. dw;
    tr.events <- tr.events + 1;
    tr.covered <- tr.covered + d;
    if tr.split then
      if i > tr.cur_instr then tr.guest_ns <- tr.guest_ns + d
      else tr.trap_ns <- tr.trap_ns + d;
    keep tr ~kind:k_dispatch ~label:tr.cur_label ~actor:tr.cur_actor
      ~sim:tr.cur_sim ~start:tr.cur_start ~dur:d ~instrs:(i - tr.cur_instr)
      ~words:(int_of_float dw)
  end

let capture tr sim label actor =
  if tr.n_cap >= capture_cap then tr.capturing <- false
  else begin
    if 3 * tr.n_cap = Array.length tr.cap then
      tr.cap <- Array.append tr.cap (Array.make (max 3072 (Array.length tr.cap)) 0);
    let b = 3 * tr.n_cap in
    tr.cap.(b) <- sim;
    tr.cap.(b + 1) <- label;
    tr.cap.(b + 2) <- actor;
    tr.n_cap <- tr.n_cap + 1
  end

(* The engine observer (and the dispatch half of the recorder tap). *)
let dispatch tr time ~label ~actor =
  let t = now_ns () in
  tr.words.(1) <- Gc.minor_words ();
  let i = tr.instrs () in
  close_at tr t i;
  let l = intern tr label in
  let a = intern tr actor in
  let sim = (time : Time.t :> int) in
  if tr.first_dispatch < 0 then tr.first_dispatch <- t;
  tr.is_open <- true;
  tr.cur_label <- l;
  tr.cur_actor <- a;
  tr.cur_sim <- sim;
  tr.cur_start <- t;
  tr.cur_instr <- i;
  tr.words.(0) <- tr.words.(1);
  if tr.capturing then capture tr sim l a

let close tr t =
  tr.words.(1) <- Gc.minor_words ();
  close_at tr t (tr.instrs ())

let start_op tr ~name t0 =
  tr.op <- tr.op + 1;
  tr.op_name <- intern_slow tr name;
  tr.op_start <- t0;
  tr.first_dispatch <- -1;
  tr.covered <- 0;
  tr.instrs <- (fun () -> 0);
  tr.split <- false;
  tr.capturing <- tr.op = 0

(* A child span of the current operation that is not a dispatch: the
   [create] before the run and the benchmark's [check] after it. *)
let child tr ~name t0 t1 =
  tr.covered <- tr.covered + (t1 - t0);
  keep tr ~kind:k_child ~label:(intern_slow tr name) ~actor:0 ~sim:0 ~start:t0
    ~dur:(t1 - t0) ~instrs:0 ~words:0

let finish_op tr t1 =
  close tr t1;
  tr.capturing <- false;
  let d = t1 - tr.op_start in
  tr.coverage <- (if d > 0 then float tr.covered /. float d else 1.) :: tr.coverage;
  keep tr ~kind:k_op ~label:tr.op_name ~actor:0 ~sim:0 ~start:tr.op_start ~dur:d
    ~instrs:0 ~words:0

let traced_ops tr = tr.op + 1

let write_spans tr path =
  let oc = open_out path in
  output_string oc
    "op\tkind\tlabel\tactor\tsim_ns\tstart_ns\tdur_ns\tinstrs\tminor_words\n";
  for r = 0 to tr.n_spans - 1 do
    let s i = tr.spans.((r * span_cols) + i) in
    Printf.fprintf oc "%d\t%s\t%s\t%s\t%d\t%d\t%d\t%d\t%d\n" (s 0)
      kind_names.(s 1) tr.names.(s 2)
      (if s 1 = k_dispatch then tr.names.(s 3) else "")
      (s 4) (s 5) (s 6) (s 7) (s 8)
  done;
  close_out oc

(* Replay the first traced operation's dispatch times through a fresh
   engine whose handlers only schedule the next recorded event, keeping
   a few events pending as the simulator does.  Returns host
   nanoseconds and minor words per dispatch, the engine's own share. *)
let replay tr =
  let n = tr.n_cap in
  if n = 0 then (0., 0.)
  else
    let once () =
      let e = Engine.create () in
      let window = 4 in
      let rec sched i =
        if i < n then
          ignore
            (Engine.at e
               ~label:tr.names.(tr.cap.((3 * i) + 1))
               ~actor:tr.names.(tr.cap.((3 * i) + 2))
               (Time.of_ns tr.cap.(3 * i))
               (fun () -> sched (i + window)))
      in
      for i = 0 to min window n - 1 do
        sched i
      done;
      let w0 = Gc.minor_words () in
      let t0 = now_ns () in
      Engine.run e;
      let dt = now_ns () - t0 in
      (float dt /. float n, (Gc.minor_words () -. w0) /. float n)
    in
    let runs = List.init 3 (fun _ -> once ()) in
    (median (List.map fst runs), median (List.map snd runs))

(* ---------- set-up: cold certification and bare references ---------- *)

(* Certify the image exactly as the hypervisor will, so the memo table
   behind [of_code_cached] is warm before the first timed operation.
   Later repetitions use the uncached [of_code]: the same cold work. *)
let certify ~cached params (w : Workload.t) =
  let p = w.Workload.program in
  let f = if cached then Manifest.of_code_cached else Manifest.of_code in
  ignore
    (f
       ~rewritten:(params.Params.epoch_mechanism = Params.Code_rewriting)
       ~random_tlb:
         (match params.Params.cpu_config.Cpu.tlb_policy with
         | Tlb.Random _ -> true
         | Tlb.Round_robin -> false)
       ~mmio_base:params.Params.cpu_config.Cpu.mmio_base
       ~code_refs:p.Asm.code_refs p.Asm.code)

let bare_run params workload =
  let b = Bare.create ~params ~workload () in
  Bare.init_disk_blocks b;
  Bare.run b

(* Images certified by a workload's set-up, without duplicates. *)
let images_of = function
  | Guest epoch -> [ (guest_params ~epoch Params.Interp, dhrystone) ]
  | Faults ->
    let cfg = faults_config ~seed:0 in
    [ (cfg.Campaign.params, cfg.Campaign.workload) ]
  | Check ->
    List.fold_left
      (fun acc sc ->
        let p = Scenarios.params sc ~variant in
        let w = sc.Scenarios.sc_workload in
        if
          List.exists
            (fun (_, w') -> w'.Workload.program.Asm.code = w.Workload.program.Asm.code)
            acc
        then acc
        else acc @ [ (p, w) ])
      [] Scenarios.all

type refs = {
  guest_refs : (Params.exec_backend * Bare.outcome) list;
  faults_ref : Campaign.reference option;
}

(* One set-up: returns the references and records the certification
   and reference-run times. *)
let setup_once wl ~first ~seed =
  let (), certify_s =
    timed (fun () ->
        List.iter (fun (p, w) -> certify ~cached:first p w) (images_of wl))
  in
  let refs, reference_s =
    timed (fun () ->
        match wl with
        | Guest epoch ->
          {
            guest_refs =
              List.map (fun b -> (b, bare_run (guest_params ~epoch b) dhrystone)) backends;
            faults_ref = None;
          }
        | Faults ->
          { guest_refs = []; faults_ref = Some (Campaign.reference (faults_config ~seed)) }
        | Check ->
          List.iter (fun sc -> ignore (Scenarios.reference sc ~variant)) Scenarios.all;
          { guest_refs = []; faults_ref = None })
  in
  sample "analysis.certify_ms" (certify_s *. 1e3);
  sample "harness.reference_s" reference_s;
  refs

(* Set-ups per run: about half a second of set-up each, since a set-up
   of a few milliseconds needs many samples for a steady median.  The
   count is fixed so the allocation history, and with it the heap peak,
   repeats. *)
let setup_reps = function Guest _ -> 9 | Faults -> 25 | Check -> 61

(* Each repetition starts from a collected heap, so it reuses the memory
   its predecessor freed instead of touching new pages, whose cost on a
   virtual machine varies from one process to the next. *)
let setup wl ~reps ~seed =
  let once ~first =
    Gc.full_major ();
    let r, s = timed (fun () -> setup_once wl ~first ~seed) in
    sample "setup_s" s;
    r
  in
  let refs = once ~first:true in
  for _ = 2 to reps do
    ignore (once ~first:false)
  done;
  refs

(* ---------- operations ---------- *)

let failure key e = Error (Printf.sprintf "%s: %s" key (Printexc.to_string e))

let verdict_of key = function
  | [] -> Ok ()
  | v :: _ as l -> Error (Printf.sprintf "%s: %d violation(s), first: %s" key (List.length l) v)

(* One replicated run of the cpu workload on [backend].  Returns host
   seconds and retired guest instructions (both replicas). *)
let guest_op t acc ?tracer ~epoch ~reference backend =
  let key = Params.backend_name backend in
  let params = guest_params ~epoch backend in
  let t0 = now_ns () in
  Option.iter (fun tr -> start_op tr ~name:("run " ^ key) t0) tracer;
  let result =
    match
      let sys = System.create ~params ~workload:dhrystone () in
      let t_created = now_ns () in
      let cpu_p = Hypervisor.cpu (System.primary sys)
      and cpu_b = Hypervisor.cpu (System.backup sys) in
      let retired () =
        Cpu.instructions_retired cpu_p + Cpu.instructions_retired cpu_b
      in
      Option.iter
        (fun tr ->
          child tr ~name:"create" t0 t_created;
          tr.instrs <- retired;
          tr.split <- true;
          Engine.set_observer (System.engine sys) (dispatch tr))
        tracer;
      let o = System.run sys in
      let t_ran = now_ns () in
      Option.iter (fun tr -> close tr t_ran) tracer;
      let violations = Campaign.check_invariants ~reference sys o in
      Option.iter (fun tr -> child tr ~name:"check" t_ran (now_ns ())) tracer;
      (sys, o, retired (), violations)
    with
    | r -> Ok r
    | exception e -> Error e
  in
  let t1 = now_ns () in
  Option.iter (fun tr -> finish_op tr t1) tracer;
  let dt = secs (t1 - t0) in
  match result with
  | Error e ->
    settle t ~key ~digest:"" (failure key e);
    (dt, 0.)
  | Ok (sys, o, retired, violations) ->
    let ps = o.System.primary_stats and bs = o.System.backup_stats in
    let ch_bp = System.channel_to_primary sys in
    let wire_msgs = o.System.messages_sent + Hft_net.Channel.messages_sent ch_bp in
    let wire_bytes = o.System.bytes_sent + Hft_net.Channel.bytes_sent ch_bp in
    let digest =
      Printf.sprintf
        "vt=%d epochs=%d/%d instrs=%d/%d trapped=%d/%d msgs=%d bytes=%d io=%d/%d \
         checksum=%x console=%x"
        (Time.to_ns o.System.time) ps.Stats.epochs bs.Stats.epochs
        ps.Stats.instructions bs.Stats.instructions ps.Stats.simulated
        bs.Stats.simulated wire_msgs wire_bytes ps.Stats.io_submitted
        bs.Stats.io_submitted o.System.results.Guest_results.checksum
        (Hashtbl.hash o.System.console)
    in
    settle t ~key ~digest (verdict_of key violations);
    let both f = float (f ps + f bs) in
    add acc "machine.instrs" (float retired);
    add acc "core.epochs" (both (fun s -> s.Stats.epochs));
    add acc "core.simulated" (both (fun s -> s.Stats.simulated));
    add acc "core.pages_hashed" (both (fun s -> s.Stats.pages_hashed));
    add acc "core.pages_skipped" (both (fun s -> s.Stats.pages_skipped));
    add acc "net.messages" (float wire_msgs);
    add acc "net.bytes" (float wire_bytes);
    add acc "net.retransmits" (both (fun s -> s.Stats.retransmits));
    add acc "net.duplicates_dropped" (both (fun s -> s.Stats.duplicates_dropped));
    add acc "net.corruptions_detected" (both (fun s -> s.Stats.corruptions_detected));
    add acc "net.faults_injected" (float (System.faults_injected sys));
    add acc "devices.io_submitted" (both (fun s -> s.Stats.io_submitted));
    if backend = Params.Threaded then begin
      add acc "machine.threaded_frac"
        (ratio (both (fun s -> s.Stats.threaded_instrs)) (float retired));
      add acc "machine.fallbacks"
        (both (fun s ->
             s.Stats.fallback_budget + s.Stats.fallback_priv + s.Stats.fallback_link
             + s.Stats.fallback_indirect + s.Stats.fallback_bail
             + s.Stats.fallback_stop))
    end;
    (dt, float retired)

let counter_sum m name =
  List.fold_left
    (fun n (c : Metrics.counter) -> if c.Metrics.c_name = name then n + c.Metrics.c_val else n)
    0 (Metrics.counters m)

(* The recorder tap of a traced trial: dispatch entries become spans;
   every other entry goes to the metrics registry, timed, exactly as an
   untraced trial's tap would see it. *)
let traced_tap tr m (e : Recorder.entry) =
  match e.Recorder.ev with
  | Event.Dispatch { label } -> dispatch tr e.Recorder.time ~label ~actor:e.Recorder.source
  | ev ->
    let t0 = now_ns () in
    Metrics.tap m e;
    tr.tap_ns <- tr.tap_ns + (now_ns () - t0);
    (match ev with
    | Event.Ch_send { bytes; _ } ->
      tr.wire_msgs <- tr.wire_msgs + 1;
      tr.wire_bytes <- tr.wire_bytes + bytes
    | _ -> ())

(* One chaos trial with the recorder [hftsim run --crash/--hv-fault]
   arms: a ring with a metrics tap.  Returns host seconds. *)
let faults_op t acc ?tracer cfg ~reference ~index schedule =
  let key = string_of_int index in
  let m = Metrics.create () in
  let obs =
    match tracer with
    | None -> Recorder.create ~tap:(Metrics.tap m) ()
    | Some tr -> Recorder.create ~dispatch:true ~tap:(traced_tap tr m) ()
  in
  let t0 = now_ns () in
  Option.iter (fun tr -> start_op tr ~name:"trial" t0) tracer;
  let result =
    match Campaign.run_trial ~obs cfg ~reference ~index schedule with
    | r -> Ok r
    | exception e -> Error e
  in
  let t1 = now_ns () in
  Option.iter
    (fun tr ->
      (* before the first dispatch the trial runs System.create, installs
         the fault model and starts the hypervisors *)
      child tr ~name:"create" t0
        (if tr.first_dispatch >= 0 then tr.first_dispatch else t1);
      finish_op tr t1)
    tracer;
  let dt = secs (t1 - t0) in
  (match result with
  | Error e -> settle t ~key ~digest:"" (failure key e)
  | Ok (r : Campaign.trial) ->
    let digest =
      Printf.sprintf
        "vt=%d epochs=%d msgs=%d io=%d faults=%d rtx=%d dup=%d corrupt=%d \
         hv=%d reboots=%d escalations=%d violations=%d"
        (match r.Campaign.time with Some v -> Time.to_ns v | None -> -1)
        (counter_sum m "epochs") (counter_sum m "msgs_sent")
        (counter_sum m "io_submits") r.Campaign.faults_injected
        r.Campaign.retransmits r.Campaign.duplicates_dropped
        r.Campaign.corruptions_detected r.Campaign.hv_injected
        r.Campaign.microreboots r.Campaign.recovery_escalations
        (List.length r.Campaign.violations)
    in
    settle t ~key ~digest (verdict_of key r.Campaign.violations);
    add acc "harness.failed_trials"
      (if r.Campaign.violations = [] then 0. else 1.);
    add acc "core.epochs" (float (counter_sum m "epochs"));
    add acc "devices.io_submitted" (float (counter_sum m "io_submits"));
    add acc "net.retransmits" (float r.Campaign.retransmits);
    add acc "net.duplicates_dropped" (float r.Campaign.duplicates_dropped);
    add acc "net.corruptions_detected" (float r.Campaign.corruptions_detected);
    add acc "net.faults_injected" (float r.Campaign.faults_injected);
    add acc "harness.microreboots" (float r.Campaign.microreboots);
    add acc "harness.escalations" (float r.Campaign.recovery_escalations);
    if tracer = None then begin
      add acc "obs.events" (float (Recorder.total_recorded obs));
      add acc "obs.dropped" (float (Recorder.dropped obs))
    end);
  dt

(* One exhaustive exploration of a bounded scenario.  Returns host
   seconds and states explored. *)
let check_op t acc ?tracer sc =
  let key = sc.Scenarios.sc_name in
  let t0 = now_ns () in
  Option.iter (fun tr -> start_op tr ~name:("scenario " ^ key) t0) tracer;
  let result =
    match Checker.explore sc ~variant with
    | r -> Ok r
    | exception e -> Error e
  in
  let t1 = now_ns () in
  Option.iter
    (fun tr ->
      (* the checker builds its systems internally and admits no
         dispatch hook: the exploration is the scenario's only child *)
      child tr ~name:"explore" t0 t1;
      finish_op tr t1)
    tracer;
  let dt = secs (t1 - t0) in
  match result with
  | Error e ->
    settle t ~key ~digest:"" (failure key e);
    (dt, 0.)
  | Ok r ->
    let s = r.Checker.r_stats in
    let verdict =
      let violations = List.map (fun v -> v.Checker.v_reason) r.Checker.r_violations in
      match List.assoc_opt key pinned_states with
      | _ when not r.Checker.r_complete -> Error (key ^ ": exploration incomplete")
      | _ when violations <> [] -> verdict_of key violations
      | Some want when want <> s.Checker.states ->
        Error
          (Printf.sprintf "%s: fixpoint at %d states, pinned at %d" key
             s.Checker.states want)
      | _ -> Ok ()
    in
    let digest =
      Printf.sprintf "states=%d runs=%d complete=%b violations=%d"
        s.Checker.states s.Checker.runs r.Checker.r_complete
        (List.length r.Checker.r_violations)
    in
    settle t ~key ~digest verdict;
    add acc "check.states" (float s.Checker.states);
    add acc "check.transitions" (float s.Checker.transitions);
    add acc "check.runs" (float s.Checker.runs);
    add acc "check.explore_s" dt;
    (dt, float s.Checker.states)

(* ---------- component calls ---------- *)

let median_of reps f = median (List.init reps (fun _ -> f ()))

(* Host seconds of [Bare.run] alone (machine built and disk filled
   beforehand), and its nanoseconds per retired instruction. *)
let bare_cost params workload =
  let per = ref 0. in
  let s =
    median_of 3 (fun () ->
        let b = Bare.create ~params ~workload () in
        Bare.init_disk_blocks b;
        let o, s = timed (fun () -> Bare.run b) in
        per := s *. 1e9 /. float (max 1 o.Bare.instructions);
        s)
  in
  (s, !per)

let create_ms params workload =
  1e3 *. median_of 7 (fun () -> snd (timed (fun () -> System.create ~params ~workload ())))

(* [System.fingerprint] on the handoff scenario, stepped half-way
   through its default schedule. *)
let fingerprint_us () =
  let sc = Scenarios.handoff in
  let started () =
    let sys = Scenarios.instantiate sc ~variant () in
    Hypervisor.start (System.primary sys);
    Hypervisor.start (System.backup sys);
    sys
  in
  let steps sys n =
    let rec go k = if k < n && Engine.step (System.engine sys) then go (k + 1) else k in
    go 0
  in
  let total = steps (started ()) sc.Scenarios.sc_limit in
  let sys = started () in
  ignore (steps sys (total / 2));
  let calls = 2000 in
  median_of 5 (fun () ->
      let (), s =
        timed (fun () ->
            for _ = 1 to calls do
              ignore (Sys.opaque_identity (System.fingerprint sys))
            done)
      in
      s *. 1e6 /. float calls)

(* ---------- one measurement ---------- *)

let closed_loop ~seconds round =
  let t0 = now_ns () in
  let k = ref 0 in
  while !k = 0 || since t0 < seconds do
    maybe_calibrate ();
    round !k;
    incr k
  done

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float * string) list;  (** name, value, unit *)
}

let heap_peak_mb () =
  float ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6

let print_lines = List.iter print_endline

let measure ~name wl ~seed ~seconds ~trace ~full_setup =
  Hashtbl.reset samples;
  calib_ms := [];
  calibrate ();
  let t = tally () in
  let acc : acc = Hashtbl.create 64 in
  let refs = setup wl ~reps:(if full_setup then setup_reps wl else 1) ~seed in
  let tracer = if trace then Some (tracer ()) else None in
  (* untraced operations: per-round host seconds, busy seconds and the
     workload's unit of work; traced ones pair up with an untraced twin *)
  let rounds = ref [] and work = ref 0. and busy = ref 0. and traced = ref 0. in
  let twin f = Option.iter (fun tr -> traced := !traced +. f tr) tracer in
  (* where rounds repeat, the heap peak is read after the first one, so
     the same allocation history is measured however long the run;
     trials all differ, so [faults] reads it at the end, over hundreds *)
  let heap_after = match wl with Faults -> max_int | Guest _ | Check -> 1 in
  let heap = ref None and n_rounds = ref 0 in
  let round_done r =
    rounds := r :: !rounds;
    incr n_rounds;
    if !n_rounds = heap_after then heap := Some (heap_peak_mb ())
  in
  let untraced dt w =
    busy := !busy +. dt;
    work := !work +. w
  in
  (match wl with
  | Guest epoch ->
    closed_loop ~seconds (fun _ ->
        let round =
          List.fold_left
            (fun r b ->
              let reference = List.assoc b refs.guest_refs in
              let dt, w = guest_op t acc ~epoch ~reference b in
              untraced dt w;
              twin (fun tr -> fst (guest_op t acc ~tracer:tr ~epoch ~reference b));
              r +. dt)
            0. backends
        in
        round_done round)
  | Faults ->
    let cfg = faults_config ~seed in
    let reference = Option.get refs.faults_ref in
    let rng = Rng.create seed in
    let first = ref None in
    closed_loop ~seconds (fun index ->
        let s = one_recovery_path (Campaign.generate cfg rng) in
        if index = 0 then first := Some s;
        let dt = faults_op t acc cfg ~reference ~index s in
        untraced dt 1.;
        sample "harness.trial_ms" (dt *. 1e3);
        round_done dt;
        twin (fun tr ->
            let m0 = tr.wire_msgs and b0 = tr.wire_bytes in
            let dt = faults_op t acc ~tracer:tr cfg ~reference ~index s in
            add acc "net.messages" (float (tr.wire_msgs - m0));
            add acc "net.bytes" (float (tr.wire_bytes - b0));
            dt));
    (* every trial is distinct: repeat the first, untimed, so its
       digest is checked against a second run *)
    ignore
      (faults_op t (Hashtbl.create 1) cfg ~reference ~index:0 (Option.get !first))
  | Check ->
    closed_loop ~seconds (fun _ ->
        let round =
          List.fold_left
            (fun r sc ->
              let dt, states = check_op t acc sc in
              sample ("check." ^ sc.Scenarios.sc_name ^ "_s") dt;
              untraced dt states;
              twin (fun tr -> fst (check_op t acc ~tracer:tr sc));
              r +. dt)
            0. Scenarios.all
        in
        round_done round));
  calibrate ();
  let digest_ops = match wl with Faults -> 16 | Guest _ | Check -> max_int in
  let lines =
    [
      Printf.sprintf "workload %s  seed %d  seconds %g  trace %b" name seed
        seconds trace;
      Printf.sprintf "operations %d attempted, %d failed (error_rate %.6f)"
        t.attempted t.failed
        (ratio (float t.failed) (float t.attempted));
      Printf.sprintf "sim digest %s" (digest_line t digest_ops);
    ]
    @ List.rev_map (fun r -> "failure: " ^ r) t.reasons
  in
  let rate =
    let r = ratio !work !busy in
    match wl with
    | Guest _ -> Printf.sprintf "guest_mips %.3f M instructions/s (raw host time)" (r /. 1e6)
    | Faults -> Printf.sprintf "trials_per_s %.3f 1/s (raw host time)" r
    | Check -> Printf.sprintf "states_per_s %.1f 1/s (raw host time)" r
  in
  let slow = slowdown () in
  let raw =
    Printf.sprintf
      "host: calibration kernel %.2f ms (median of %d), %.3fx the %g ms \
       reference; raw setup_s %.6f wall_s %.6f"
      (median !calib_ms) (List.length !calib_ms) slow calib_nominal_ms
      (median (samples_of "setup_s")) (median !rounds)
  in
  let metrics =
    if not trace then
      [
        ("setup_s", median (samples_of "setup_s") /. slow, "s");
        ("wall_s", median !rounds /. slow, "s");
        ("throughput", ratio !work !busy *. slow, "1/s");
        ("heap_peak_mb", Option.value !heap ~default:(heap_peak_mb ()), "MB");
      ]
    else
      let tr = Option.get tracer in
      let ops = float (traced_ops tr) in
      let per_op x = ratio x ops in
      let handler g = per_op (secs tr.group_ns.(g)) in
      let alloc g = per_op tr.group_words.(g) in
      let images = images_of wl in
      let params, image = List.hd images in
      let op_backends = match wl with Guest _ -> backends | Faults | Check -> [ Params.Interp ] in
      let bare =
        List.map
          (fun b -> (b, bare_cost (Params.with_exec_backend params b) image))
          backends
      in
      let bare_s =
        sum (List.map (fun b -> fst (List.assoc b bare)) op_backends)
        /. float (List.length op_backends)
      in
      let dispatch_ns, alloc_per_event = replay tr in
      let instrs = mean acc "machine.instrs" in
      let events = per_op (float tr.events) in
      let per_pass name = mean acc name *. float (List.length Scenarios.all) in
      let scenario_s sc =
        let n = Printf.sprintf "check.%s_s" sc.Scenarios.sc_name in
        (n, median (samples_of n), "s")
      in
      (* stop .. hv: the hypervisor's handler groups *)
      let core_groups = List.init 6 Fun.id in
      List.concat
        [
          [
            ("sim.events", events, "count");
            ("sim.instrs_per_event", ratio instrs events, "count");
            ("sim.dispatch_ns", dispatch_ns, "ns");
            ("sim.alloc_words_per_event", alloc_per_event, "words");
            ("machine.instrs", instrs, "count");
            ("machine.bare_s", bare_s, "s");
            ("machine.ns_per_instr.interp", snd (List.assoc Params.Interp bare), "ns");
            ("machine.ns_per_instr.threaded", snd (List.assoc Params.Threaded bare), "ns");
            ("machine.threaded_frac", mean acc "machine.threaded_frac", "ratio");
            ("machine.fallbacks", mean acc "machine.fallbacks", "count");
            ("core.create_ms", create_ms params image, "ms");
          ];
          List.map (fun g -> ("core.handler_s." ^ group_names.(g), handler g, "s")) core_groups;
          List.map (fun g -> ("core.alloc_w." ^ group_names.(g), alloc g, "words")) core_groups;
          [
            ("core.guest_span_s", per_op (secs tr.guest_ns), "s");
            ("core.trap_span_s", per_op (secs tr.trap_ns), "s");
            ("core.epochs", mean acc "core.epochs", "count");
            ("core.simulated", mean acc "core.simulated", "count");
            ("core.pages_hashed", mean acc "core.pages_hashed", "count");
            ("core.pages_skipped", mean acc "core.pages_skipped", "count");
            ("net.deliver_s", handler g_deliver, "s");
            ("net.messages", mean acc "net.messages", "count");
            ("net.bytes", mean acc "net.bytes", "B");
            ("net.retransmits", mean acc "net.retransmits", "count");
            ("net.duplicates_dropped", mean acc "net.duplicates_dropped", "count");
            ("net.corruptions_detected", mean acc "net.corruptions_detected", "count");
            ("net.faults_injected", mean acc "net.faults_injected", "count");
            ("devices.disk_complete_s", handler g_disk, "s");
            ("devices.io_submitted", mean acc "devices.io_submitted", "count");
            ("obs.events", mean acc "obs.events", "count");
            ("obs.tap_s", per_op (secs tr.tap_ns), "s");
            ("obs.dropped", mean acc "obs.dropped", "count");
            ("harness.trial_ms_p50", quantile 0.5 (samples_of "harness.trial_ms"), "ms");
            ("harness.trial_ms_p95", quantile 0.95 (samples_of "harness.trial_ms"), "ms");
            ("harness.reference_s", median (samples_of "harness.reference_s"), "s");
            ("harness.failed_trials", total acc "harness.failed_trials", "count");
            ("harness.microreboots", mean acc "harness.microreboots", "count");
            ("harness.escalations", mean acc "harness.escalations", "count");
          ];
          List.map scenario_s Scenarios.all;
          [
            ("check.states", per_pass "check.states", "count");
            ("check.transitions", per_pass "check.transitions", "count");
            ("check.runs", per_pass "check.runs", "count");
            ( "check.us_per_transition",
              1e6 *. ratio (total acc "check.explore_s") (total acc "check.transitions"),
              "us" );
            ("check.fingerprint_us", fingerprint_us (), "us");
            ("analysis.certify_ms", median (samples_of "analysis.certify_ms"), "ms");
            ("host.calib_ms", median !calib_ms, "ms");
            ("trace.overhead", ratio !traced !busy, "ratio");
            ( "trace.coverage",
              List.fold_left Float.min 1. tr.coverage,
              "ratio" );
          ];
        ]
  in
  print_lines (lines @ [ rate; raw ]);
  List.iter (fun (n, v, u) -> Printf.printf "%-32s %.6g %s\n" n v u) metrics;
  Option.iter
    (fun tr ->
      let dir = Filename.concat "perfbench" "out" in
      if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
      let path = Filename.concat dir (Printf.sprintf "spans-%s-%d.tsv" name seed) in
      write_spans tr path;
      Printf.printf "spans: %d kept of %d traced operations, written to %s\n"
        tr.n_spans (traced_ops tr) path)
    tracer;
  {
    correct = t.failed = 0;
    attempted = t.attempted;
    failed = t.failed;
    metrics;
  }

(* ---------- output ---------- *)

let json_number v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let json_line r =
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    r.correct r.attempted r.failed
    (String.concat ", "
       (List.map
          (fun (n, v, u) ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" n (json_number v) u)
          r.metrics))

(* ---------- smoke mode ---------- *)

(* Run every workload of BENCHMARK.json at the smallest size (one round
   of operations, one set-up) traced and untraced, and check that each
   emits exactly the metric names the file declares, with finite
   values and no failed operation. *)
let smoke () =
  let read path =
    let ic = open_in_bin path in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    s
  in
  let names key doc =
    match Option.bind (Json.member key doc) Json.to_list_opt with
    | None -> failwith ("BENCHMARK.json: no list " ^ key)
    | Some l ->
      List.map
        (fun m ->
          match Option.bind (Json.member "name" m) Json.to_string_opt with
          | Some n -> n
          | None -> failwith ("BENCHMARK.json: unnamed entry in " ^ key))
        l
  in
  let doc =
    match Json.parse (read "BENCHMARK.json") with
    | Ok d -> d
    | Error e -> failwith ("BENCHMARK.json: " ^ e)
  in
  let e2e = names "end_to_end" doc and layer = names "per_layer" doc in
  let ok = ref true in
  List.iter
    (fun name ->
      match List.assoc_opt name workloads with
      | None ->
        ok := false;
        Printf.printf "smoke %s: unknown workload\n" name
      | Some wl ->
        List.iter
          (fun (trace, want) ->
            let r = measure ~name wl ~seed:1 ~seconds:0. ~trace ~full_setup:false in
            let got = List.map (fun (n, _, _) -> n) r.metrics in
            let missing = List.filter (fun n -> not (List.mem n got)) want in
            let extra = List.filter (fun n -> not (List.mem n want)) got in
            let bad =
              List.filter_map
                (fun (n, v, _) -> if Float.is_finite v then None else Some n)
                r.metrics
            in
            let pass =
              missing = [] && extra = [] && bad = [] && r.correct && r.attempted > 0
            in
            if not pass then ok := false;
            Printf.printf
              "smoke %s trace=%b: %s (%d metrics; missing [%s]; undeclared [%s]; \
               non-finite [%s]; %d/%d operations failed)\n%!"
              name trace
              (if pass then "ok" else "FAIL")
              (List.length got) (String.concat " " missing)
              (String.concat " " extra) (String.concat " " bad) r.failed
              r.attempted)
          [ (false, e2e); (true, layer) ])
    (names "workloads" doc);
  if not !ok then exit 1

(* ---------- entry point ---------- *)

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref (-1.)
  and trace = ref (-1) and smoke_mode = ref false in
  let usage =
    "bench.exe --workload (guest|long-epoch|faults|check) --seed N --seconds S \
     --trace (0|1)\n\
     bench.exe --smoke"
  in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N seed of the workload's inputs");
      ("--seconds", Arg.Set_float seconds, "S host seconds of closed-loop operations");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--smoke", Arg.Set smoke_mode, " check every declared metric is emitted");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if !smoke_mode then smoke ()
  else
    match List.assoc_opt !workload workloads with
    | None ->
      prerr_endline usage;
      exit 2
    | Some _ when !seed < 0 || !seconds < 0. || (!trace <> 0 && !trace <> 1) ->
      prerr_endline usage;
      exit 2
    | Some wl ->
      let r =
        measure ~name:!workload wl ~seed:!seed ~seconds:!seconds
          ~trace:(!trace = 1) ~full_setup:true
      in
      print_endline (json_line r)
