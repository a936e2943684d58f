open Hft_core
module Rng = Hft_sim.Rng
module Time = Hft_sim.Time

type hv_fault_spec = {
  hf_target : [ `Primary | `Backup ];
  hf_kind : Hypervisor.hv_fault;
  hf_epoch : int;
}

type schedule = {
  seed : int;
  loss : float;
  duplicate : float;
  corrupt : float;
  delay_us : int;
  crash_epoch : int option;
  backup_crash_epoch : int option;
  reintegrate : bool;
  hv_faults : hv_fault_spec list;
}

type config = {
  params : Params.t;
  workload : Hft_guest.Workload.t;
  trials : int;
  master_seed : int;
  max_loss : float;
  max_duplicate : float;
  max_corrupt : float;
  max_delay_us : int;
  max_crash_epoch : int;
  with_hv_faults : bool;
  max_hv_faults : int;
}

(* The caps keep the fault intensity inside the protocol's tolerance
   envelope: with the 1 ms retransmission base, loss and corruption
   this low leave the probability of [rtx_give_up] consecutive losses
   (a false crash suspicion) negligible across hundreds of trials,
   while an unhardened run at the same rates reliably diverges. *)
let default_config ?(params = Params.default) ?(hv_faults = false) ~workload
    ~trials ~seed () =
  {
    params;
    workload;
    trials;
    master_seed = seed;
    max_loss = 0.25;
    max_duplicate = 0.15;
    max_corrupt = 0.1;
    max_delay_us = 3_000;
    max_crash_epoch = 24;
    with_hv_faults = hv_faults;
    max_hv_faults = 2;
  }

let hv_fault_kinds =
  [|
    Hypervisor.Hv_crash;
    Hypervisor.Hv_hang;
    Hypervisor.Hv_corrupt Hypervisor.C_epoch;
    Hypervisor.Hv_corrupt Hypervisor.C_acks;
    Hypervisor.Hv_corrupt Hypervisor.C_rtx;
  |]

let generate cfg rng =
  (* the trial seed alone replays the channels' randomness, so a
     failing (seed, schedule) pair reproduces standalone *)
  let seed =
    Int64.to_int (Int64.shift_right_logical (Rng.bits64 rng) 2)
  in
  let loss = Rng.float rng cfg.max_loss in
  let duplicate = Rng.float rng cfg.max_duplicate in
  let corrupt = Rng.float rng cfg.max_corrupt in
  let delay_us = Rng.int rng (cfg.max_delay_us + 1) in
  let crash = Rng.chance rng 0.5 in
  let crash_epoch =
    if crash then Some (1 + Rng.int rng cfg.max_crash_epoch) else None
  in
  let reintegrate = crash && Rng.chance rng 0.5 in
  let backup_crash_epoch =
    (* never both: with no survivor there is nothing to check *)
    if (not crash) && Rng.chance rng 0.25 then
      Some (1 + Rng.int rng cfg.max_crash_epoch)
    else None
  in
  let hv_faults =
    if not cfg.with_hv_faults then []
    else
      let n = Rng.int rng (cfg.max_hv_faults + 1) in
      List.init n (fun _ ->
          (* if a processor fail-stop is scheduled, only seed hypervisor
             faults on the node that dies anyway: a recovery escalation
             on the *other* node could otherwise leave no survivor, and
             with no survivor there is nothing to check *)
          let hf_target =
            match (crash_epoch, backup_crash_epoch) with
            | Some _, _ -> `Primary
            | _, Some _ -> `Backup
            | None, None -> if Rng.chance rng 0.5 then `Primary else `Backup
          in
          let hf_kind =
            hv_fault_kinds.(Rng.int rng (Array.length hv_fault_kinds))
          in
          let hf_epoch = 1 + Rng.int rng cfg.max_crash_epoch in
          { hf_target; hf_kind; hf_epoch })
  in
  {
    seed;
    loss;
    duplicate;
    corrupt;
    delay_us;
    crash_epoch;
    backup_crash_epoch;
    reintegrate;
    hv_faults;
  }

type trial = {
  index : int;
  schedule : schedule;
  violations : string list;  (** empty = every invariant held *)
  time : Time.t option;  (** virtual completion time, if anyone finished *)
  faults_injected : int;
  retransmits : int;
  duplicates_dropped : int;
  corruptions_detected : int;
  hv_injected : int;
  microreboots : int;
  recovery_escalations : int;
  reconciled_ios : int;
  reconciled_msgs : int;
  recovery_windows : Time.t list;
}

type reference = Bare.outcome

let reference cfg =
  let b = Bare.create ~params:cfg.params ~workload:cfg.workload () in
  Bare.init_disk_blocks b;
  Bare.run b

(* Is [got] the bare output with a replayed overlap — bare[0..i) ^
   bare[j..n) for some j <= i?  After a failover the promoted backup
   re-emits output the dead primary already produced (the paper
   promises at-least-once environment output under case (ii)), so the
   observed stream is the bare one with a possibly-duplicated middle
   and must still end with the complete bare suffix. *)
let console_replay_extension ~bare ~got =
  let nb = String.length bare and ng = String.length got in
  let i = ref 0 in
  while !i < nb && !i < ng && bare.[!i] = got.[!i] do
    incr i
  done;
  let i = !i in
  if i = ng then i = nb
  else
    let rem = ng - i in
    let j = nb - rem in
    j >= 0 && j <= i && String.sub bare j rem = String.sub got i rem

(* The invariants of a correct trial, checked against the bare run:
   whatever the channels and crash schedule did, the surviving machine
   must be indistinguishable (to the guest and to the environment)
   from a single fault-free processor. *)
let check_invariants ?(console = `Exact) ~(reference : Bare.outcome) sys
    (o : System.outcome) =
  let v = ref [] in
  let add fmt = Printf.ksprintf (fun s -> v := s :: !v) fmt in
  let finished_as_primary hv =
    Hypervisor.alive hv && Hypervisor.halted hv
    &&
    match Hypervisor.role hv with
    | Hypervisor.Primary | Hypervisor.Promoted -> true
    | Hypervisor.Backup -> false
  in
  let n =
    List.length
      (List.filter finished_as_primary [ System.primary sys; System.backup sys ])
  in
  if n <> 1 then add "%d nodes completed as primary (want exactly 1)" n;
  let r = o.System.results and br = reference.Bare.results in
  if r.Guest_results.ops <> br.Guest_results.ops then
    add "guest ops %d <> bare %d" r.Guest_results.ops br.Guest_results.ops;
  if r.Guest_results.checksum <> br.Guest_results.checksum then
    add "guest checksum 0x%x <> bare 0x%x" r.Guest_results.checksum
      br.Guest_results.checksum;
  if r.Guest_results.scratch <> br.Guest_results.scratch then
    add "guest scratch %d <> bare %d" r.Guest_results.scratch
      br.Guest_results.scratch;
  if r.Guest_results.ticks <> br.Guest_results.ticks then
    add "guest ticks %d <> bare %d" r.Guest_results.ticks
      br.Guest_results.ticks;
  (match console with
  | `Exact ->
    if o.System.console <> reference.Bare.console then
      add "console output diverges from bare (%d vs %d bytes)"
        (String.length o.System.console)
        (String.length reference.Bare.console)
  | `Replay_extension ->
    if
      not
        (console_replay_extension ~bare:reference.Bare.console
           ~got:o.System.console)
    then
      add
        "console output is not the bare stream with a replayed overlap (%d \
         vs %d bytes)"
        (String.length o.System.console)
        (String.length reference.Bare.console));
  if not o.System.disk_consistent then
    add "disk history not single-processor consistent (%s)"
      (match o.System.disk_errors with e :: _ -> e | [] -> "no detail");
  (match o.System.lockstep_mismatches with
  | [] -> ()
  | e :: _ as l ->
    add "lockstep diverged at %d epoch(s), first at %d" (List.length l) e);
  List.rev !v

(* The previous trial's system, with the params and workload it was
   built from.  A trial of physically the same ones resets its guest
   memories instead of allocating two fresh ones; anything else builds
   fresh.  The slot is emptied before each build and refilled only by
   a trial that returns, so an exception (from [System.create], or
   from inside a handler) leaves nothing half-run or half-reset to
   recycle. *)
let spare : (Params.t * Hft_guest.Workload.t * System.t) option ref = ref None

let run_trial ?obs cfg ~reference ~index schedule =
  let recycle =
    match !spare with
    | Some (p, w, old) when p == cfg.params && w == cfg.workload -> Some old
    | _ -> None
  in
  spare := None;
  let sys =
    System.create ~params:cfg.params ?obs ?recycle ~workload:cfg.workload ()
  in
  System.install_fault_model sys ~rng:(Rng.create schedule.seed)
    {
      Hft_net.Channel.loss = schedule.loss;
      duplicate = schedule.duplicate;
      corrupt = schedule.corrupt;
      delay_us = schedule.delay_us;
    };
  (match schedule.crash_epoch with
  | Some e -> System.crash_primary_on_epoch sys e
  | None -> ());
  (match schedule.backup_crash_epoch with
  | Some e -> System.crash_backup_on_epoch sys e
  | None -> ());
  if schedule.reintegrate then
    System.reintegrate_after_failover sys ~delay:(Time.of_ms 2);
  List.iter
    (fun f ->
      System.hv_fault_on_epoch sys ~target:f.hf_target ~kind:f.hf_kind
        f.hf_epoch)
    schedule.hv_faults;
  let stats () =
    let p = Hypervisor.stats (System.primary sys) in
    let b = Hypervisor.stats (System.backup sys) in
    ( System.faults_injected sys,
      p.Stats.retransmits + b.Stats.retransmits,
      p.Stats.duplicates_dropped + b.Stats.duplicates_dropped,
      p.Stats.corruptions_detected + b.Stats.corruptions_detected )
  in
  let recovery_stats () =
    let p = Hypervisor.stats (System.primary sys) in
    let b = Hypervisor.stats (System.backup sys) in
    ( p.Stats.hv_faults_injected + b.Stats.hv_faults_injected,
      p.Stats.microreboots + b.Stats.microreboots,
      p.Stats.recovery_escalations + b.Stats.recovery_escalations,
      p.Stats.reconciled_ios + b.Stats.reconciled_ios,
      p.Stats.reconciled_msgs + b.Stats.reconciled_msgs,
      p.Stats.recovery_windows @ b.Stats.recovery_windows )
  in
  let finish ~violations ~time =
    let fi, rtx, dup, cor = stats () in
    let hvi, mrb, esc, rio, rmsg, wins = recovery_stats () in
    {
      index;
      schedule;
      violations;
      time;
      faults_injected = fi;
      retransmits = rtx;
      duplicates_dropped = dup;
      corruptions_detected = cor;
      hv_injected = hvi;
      microreboots = mrb;
      recovery_escalations = esc;
      reconciled_ios = rio;
      reconciled_msgs = rmsg;
      recovery_windows = wins;
    }
  in
  let trial =
    match System.run sys with
    | exception Hft_sim.Engine.Runaway limit ->
      finish
        ~violations:
          [ Printf.sprintf "runaway simulation (event limit %d)" limit ]
        ~time:None
    | exception Failure msg ->
      finish
        ~violations:[ "no surviving machine completed: " ^ msg ]
        ~time:None
    | o ->
      finish
        ~violations:(check_invariants ~reference sys o)
        ~time:(Some o.System.time)
  in
  spare := Some (cfg.params, cfg.workload, sys);
  trial

let fails cfg ~reference s =
  (run_trial cfg ~reference ~index:(-1) s).violations <> []

(* Greedy shrinking: repeatedly take the first single-dimension
   reduction (drop a fault class outright, halve a rate, remove a
   crash) that still fails, to a fixpoint.  The result is a minimal
   reproducer in the sense that zeroing or halving any one remaining
   dimension makes the failure disappear. *)
let shrink ?(max_steps = 64) cfg ~reference schedule =
  let candidates s =
    List.concat
      [
        (match s.crash_epoch with
        | Some _ -> [ { s with crash_epoch = None; reintegrate = false } ]
        | None -> []);
        (match s.backup_crash_epoch with
        | Some _ -> [ { s with backup_crash_epoch = None } ]
        | None -> []);
        (match s.hv_faults with
        | [] -> []
        | fs ->
          (* drop them all, then each one individually *)
          { s with hv_faults = [] }
          :: List.mapi
               (fun i _ ->
                 { s with hv_faults = List.filteri (fun j _ -> j <> i) fs })
               fs);
        (if s.reintegrate then [ { s with reintegrate = false } ] else []);
        (if s.loss > 0. then
           [ { s with loss = 0. }; { s with loss = s.loss /. 2. } ]
         else []);
        (if s.duplicate > 0. then
           [
             { s with duplicate = 0. };
             { s with duplicate = s.duplicate /. 2. };
           ]
         else []);
        (if s.corrupt > 0. then
           [ { s with corrupt = 0. }; { s with corrupt = s.corrupt /. 2. } ]
         else []);
        (if s.delay_us > 0 then
           [ { s with delay_us = 0 }; { s with delay_us = s.delay_us / 2 } ]
         else []);
      ]
  in
  let rec fix steps s =
    if steps = 0 then s
    else
      match List.find_opt (fails cfg ~reference) (candidates s) with
      | Some s' -> fix (steps - 1) s'
      | None -> s
  in
  fix max_steps schedule

type summary = {
  trials : trial list;
  failures : (trial * schedule) list;
      (** each failing trial with its shrunk schedule *)
}

let run ?(shrink_failures = true) ?on_trial cfg =
  let reference = reference cfg in
  let rng = Rng.create cfg.master_seed in
  let trials =
    List.init cfg.trials (fun index ->
        let s = generate cfg rng in
        let t = run_trial cfg ~reference ~index s in
        (match on_trial with Some f -> f t | None -> ());
        t)
  in
  let failing = List.filter (fun t -> t.violations <> []) trials in
  let failures =
    List.map
      (fun t ->
        ( t,
          if shrink_failures then shrink cfg ~reference t.schedule
          else t.schedule ))
      failing
  in
  { trials; failures }

let hv_fault_spec_to_string f =
  Printf.sprintf "%s:%s:%d"
    (match f.hf_target with `Primary -> "primary" | `Backup -> "backup")
    (Hypervisor.hv_fault_kind f.hf_kind)
    f.hf_epoch

let hv_fault_spec_of_string s =
  match String.split_on_char ':' s with
  | [ target; kind; epoch ] -> (
    let target =
      match target with
      | "primary" -> Some `Primary
      | "backup" -> Some `Backup
      | _ -> None
    in
    let kind =
      match kind with
      | "crash" -> Some Hypervisor.Hv_crash
      | "hang" -> Some Hypervisor.Hv_hang
      | "corrupt-epoch" -> Some (Hypervisor.Hv_corrupt Hypervisor.C_epoch)
      | "corrupt-acks" -> Some (Hypervisor.Hv_corrupt Hypervisor.C_acks)
      | "corrupt-rtx" -> Some (Hypervisor.Hv_corrupt Hypervisor.C_rtx)
      | _ -> None
    in
    match (target, kind, int_of_string_opt epoch) with
    | Some hf_target, Some hf_kind, Some hf_epoch when hf_epoch > 0 ->
      Ok { hf_target; hf_kind; hf_epoch }
    | _ ->
      Error
        (Printf.sprintf
           "bad hv fault spec %S (want TARGET:KIND:EPOCH, e.g. \
            primary:crash:3)"
           s))
  | _ ->
    Error
      (Printf.sprintf
         "bad hv fault spec %S (want TARGET:KIND:EPOCH, e.g. primary:crash:3)"
         s)

(* Command-line flags that replay this exact schedule standalone
   (`hftsim chaos --exact ...`). *)
let flags s =
  String.concat " "
    (List.filter
       (fun x -> x <> "")
       ([
          Printf.sprintf "--exact --seed %d" s.seed;
          Printf.sprintf "--loss %g" s.loss;
          Printf.sprintf "--dup %g" s.duplicate;
          Printf.sprintf "--corrupt %g" s.corrupt;
          Printf.sprintf "--delay-us %d" s.delay_us;
          (match s.crash_epoch with
          | Some e -> Printf.sprintf "--crash-epoch %d" e
          | None -> "");
          (match s.backup_crash_epoch with
          | Some e -> Printf.sprintf "--backup-crash-epoch %d" e
          | None -> "");
          (if s.reintegrate then "--reintegrate" else "");
        ]
       @ List.map
           (fun f ->
             Printf.sprintf "--hv-fault %s" (hv_fault_spec_to_string f))
           s.hv_faults))
