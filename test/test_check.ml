(* Model-checker tests: exhaustive scenario pins, the seeded-bug
   counterexample with its replay round-trip, and schedule
   serialization. *)

open Hft_check
module Scenarios = Hft_harness.Scenarios

let find_scenario name =
  match Scenarios.find name with
  | Some sc -> sc
  | None -> Alcotest.failf "unknown scenario %S" name

let explore ?options name ~variant =
  Checker.explore ?options (find_scenario name) ~variant

(* The acceptance-bar scenario: 2 replicas, one optional crash, guest
   done within three epochs — explored to fixpoint, no violations. *)
let handoff_fixpoint () =
  let r = explore "handoff" ~variant:Scenarios.correct in
  Alcotest.(check bool) "fixpoint" true r.Checker.r_complete;
  Alcotest.(check int) "no violations" 0 (List.length r.Checker.r_violations);
  Alcotest.(check bool)
    "nontrivial state space" true
    (r.Checker.r_stats.Checker.states > 100);
  Alcotest.(check bool)
    "dpor actually pruned" true
    (r.Checker.r_stats.Checker.sleep_skipped > 0)

(* The ReHype extension pinned exhaustively: every interleaving of a
   mid-epoch hypervisor crash / hang / corruption with the guest's
   console output must heal by in-place microreboot with no
   guest-visible divergence (exact-console + lockstep invariants) and
   no protocol progress while the faulted hypervisor is down.  The
   state count is pinned so a change to the recovery state machine is
   a visible diff, not silent drift. *)
let hv_crash_fixpoint () =
  let r = explore "hv-crash" ~variant:Scenarios.correct in
  Alcotest.(check bool) "fixpoint" true r.Checker.r_complete;
  Alcotest.(check int) "no violations" 0 (List.length r.Checker.r_violations);
  Alcotest.(check int) "states pinned" 952 r.Checker.r_stats.Checker.states

(* The checker's fixed cost per transition, pinned as minor-heap words
   over a whole exploration: a scheduled step, the invariant checks
   between events and the bursts they dispatch allocate only what the
   schedule itself needs (events, choices, new frames). *)
let transition_budget = 140.

let transition_cost () =
  let before = Gc.minor_words () in
  let r = explore "handoff" ~variant:Scenarios.correct in
  let words = Gc.minor_words () -. before in
  let per = words /. float r.Checker.r_stats.Checker.transitions in
  if per >= transition_budget then
    Alcotest.failf "%.1f minor words per transition, budget %.0f" per
      transition_budget

(* Every scenario's exploration, pinned by all three counts: schedules
   run, frontier states, and scheduler transitions.  A change to the
   protocol, the reductions or the checker's replay shows up here as a
   visible diff, not silent drift. *)
let pins =
  [
    ("handoff", 156, 618, 8136);
    ("crash-write", 788, 2998, 155694);
    ("crash-loss", 936, 3887, 48995);
    ("reintegration-loss", 664, 2819, 38913);
    ("hv-crash", 209, 952, 11092);
  ]

let check_pinned ~what sc (name, runs, states, transitions) =
  let r = Checker.explore sc ~variant:Scenarios.correct in
  let st = r.Checker.r_stats in
  Alcotest.(check bool) (name ^ " fixpoint") true r.Checker.r_complete;
  Alcotest.(check int)
    (name ^ " no violations")
    0
    (List.length r.Checker.r_violations);
  Alcotest.(check (list int))
    (Printf.sprintf "%s runs/states/transitions %s" name what)
    [ runs; states; transitions ]
    [ st.Checker.runs; st.Checker.states; st.Checker.transitions ];
  st

let counts_pinned () =
  List.iter
    (fun ((name, _, _, _) as pin) ->
      ignore (check_pinned ~what:"pinned" (find_scenario name) pin))
    pins

(* Hashing and snapshot work in deterministic units, the gate on
   chunk-grained write tracking: the words the guest-memory digests hash
   over one [check --all] round and over one [run -w cpu] (both
   replicas), and the words the round's memory saves and restores move.
   Tracking writes per 1024-word page, the digests hashed 2 143 232 and
   1 024 000.  When saves held page digests instead of chunk digests,
   a restore left the chunks it rewrote to be hashed again (the round
   hashed 57 472 words), and the saves and restores moved 772 992 words
   of per-page flags and digests besides the same chunk words.  The
   round's node fingerprints ([Hypervisor.fingerprint]) are pinned with
   them: recomputing both nodes at every system fingerprint took
   22 548; caching each node's across steps and recomputing only the
   nodes a step can have changed takes 14 020. *)
let words_hashed_pinned () =
  let module Memory = Hft_machine.Memory in
  let copied = Memory.words_copied () in
  let nodes = Hft_core.Hypervisor.fingerprints_computed () in
  let hashed f =
    let before = Memory.words_hashed () in
    f ();
    Memory.words_hashed () - before
  in
  let round =
    hashed (fun () ->
        List.iter
          (fun sc -> ignore (Checker.explore sc ~variant:Scenarios.correct))
          Scenarios.all)
  in
  let copied = Memory.words_copied () - copied in
  let nodes = Hft_core.Hypervisor.fingerprints_computed () - nodes in
  let cpu =
    hashed (fun () ->
        let workload = Hft_guest.Workload.dhrystone ~iterations:20_000 in
        let params = Hft_core.Params.default in
        let sys = Hft_core.System.create ~params ~workload () in
        ignore (Hft_core.System.run sys))
  in
  Alcotest.(check (list int))
    "hashed by check --all, run -w cpu; copied, nodes fingerprinted by \
     check --all"
    [ 55424; 32192; 108576; 14020 ] [ round; cpu; copied; nodes ]

(* An exploration's first build recycles the previous exploration's
   system, whatever scenario that explored.  Each scenario explored
   right after another one must report exactly what it reports on
   fresh machines: every counter of the search, the verdict and the
   violations, and it must hash and copy as many guest-memory words
   (a memory that kept anything of its last run would not).  A fresh
   build is forced by exploring, just before, a few states of a
   scenario whose guest memory has another size, which nothing can
   recycle. *)
let recycled_exploration () =
  let variant = Scenarios.correct in
  let other_geometry =
    let sc = Scenarios.handoff in
    let p = sc.Scenarios.sc_params in
    let cpu = p.Hft_core.Params.cpu_config in
    {
      sc with
      Scenarios.sc_name = "handoff-double-memory";
      sc_params =
        {
          p with
          Hft_core.Params.cpu_config =
            {
              cpu with
              Hft_machine.Cpu.mem_words = 2 * cpu.Hft_machine.Cpu.mem_words;
            };
        };
    }
  in
  let observe sc =
    let module Memory = Hft_machine.Memory in
    let hashed = Memory.words_hashed () and copied = Memory.words_copied () in
    let r = Checker.explore sc ~variant in
    let s = r.Checker.r_stats in
    ( [
        Memory.words_hashed () - hashed;
        Memory.words_copied () - copied;
        s.Checker.runs; s.Checker.states; s.Checker.transitions;
        s.Checker.executed; s.Checker.snapshots; s.Checker.fingerprints;
        s.Checker.pruned_visited; s.Checker.sleep_skipped;
        s.Checker.sleep_pruned; s.Checker.truncated_runs; s.Checker.max_depth;
      ],
      r.Checker.r_complete,
      List.map
        (fun v -> (v.Checker.v_reason, v.Checker.v_roots, v.Checker.v_choices))
        r.Checker.r_violations )
  in
  let all = Array.of_list Scenarios.all in
  let n = Array.length all in
  Array.iteri
    (fun i sc ->
      ignore
        (Checker.explore
           ~options:{ Checker.default_options with Checker.max_states = Some 1 }
           other_geometry ~variant);
      let fresh = observe sc in
      let before = all.((i + n - 1) mod n) in
      ignore (Checker.explore before ~variant);
      let name =
        Printf.sprintf "%s after %s" sc.Scenarios.sc_name
          before.Scenarios.sc_name
      in
      let stats, complete, violations = observe sc in
      let fstats, fcomplete, fviolations = fresh in
      Alcotest.(check (list int)) (name ^ ": stats") fstats stats;
      Alcotest.(check bool) (name ^ ": complete") fcomplete complete;
      Alcotest.(check int)
        (name ^ ": violations")
        (List.length fviolations) (List.length violations);
      Alcotest.(check bool)
        (name ^ ": same violations")
        true (fviolations = violations))
    all

(* Digest soundness at scale: crash-write crossed with one loss on each
   channel reaches 60 001 distinct states.  The checker prunes on the
   state digest alone, so a digest narrow enough to collide silently
   cuts subtrees and still reports a fixpoint (a 30-bit key stopped at
   58 758).  Kept out of [Scenarios.all], so the pinned five and their
   fixtures are unaffected. *)
let crash_write_loss_sc =
  {
    Scenarios.crash_write with
    Scenarios.sc_name = "crash-write-loss";
    sc_roots =
      (let lose node n = Some (Hft_core.System.Lose (node, n)) in
       Scenarios.crash_write.Scenarios.sc_roots
       @ [
           ("loss_pb", None :: List.map (lose `Backup) [ 0; 1; 2; 3 ]);
           ("loss_bp", None :: List.map (lose `Primary) [ 0; 1; 2 ]);
         ]);
  }

let crash_write_loss () =
  let st =
    check_pinned ~what:"pinned" crash_write_loss_sc
      ("crash-write-loss", 15756, 60001, 3111731)
  in
  (* resumed runs execute only their new suffixes *)
  if st.Checker.executed * 8 > st.Checker.transitions then
    Alcotest.failf "executed %d of %d transitions, not 8x fewer"
      st.Checker.executed st.Checker.transitions;
  (* and the work behind them, in deterministic units: a retention
     that thrashes on crash-write's 595-deep paths snapshots and
     re-executes about twice as much *)
  Alcotest.(check (list int))
    "executed/snapshots/fingerprints pinned" [ 102981; 26508; 60001 ]
    [ st.Checker.executed; st.Checker.snapshots; st.Checker.fingerprints ]

(* The event limit counts from the root, so a run resumed from a
   snapshot cannot dodge the runaway verdict by starting a fresh
   budget.  Handoff's deepest schedules dispatch about 185 events; at a
   limit of 150, without reductions (so sibling schedules run as deep
   instead of being slept or pruned) and collecting three
   counterexamples unshrunk, the second and third run away in runs
   that branch at depths 98 and 96, resumed from the snapshots held at
   98 and 94.  Everything but [executed] is pinned to what replay from
   the root found. *)
let limits_survive_restore () =
  let sc = { (find_scenario "handoff") with Scenarios.sc_limit = 150 } in
  let options =
    {
      Checker.default_options with
      Checker.dpor = false;
      fingerprints = false;
      max_violations = 3;
      shrink = false;
    }
  in
  let r = Checker.explore ~options sc ~variant:Scenarios.correct in
  let st = r.Checker.r_stats in
  Alcotest.(check (list int))
    "runs/states/transitions/prunes/depth"
    [ 3; 254; 450; 0; 0; 0; 0; 149 ]
    [
      st.Checker.runs; st.Checker.states; st.Checker.transitions;
      st.Checker.pruned_visited; st.Checker.sleep_skipped;
      st.Checker.sleep_pruned; st.Checker.truncated_runs; st.Checker.max_depth;
    ];
  Alcotest.(check bool) "incomplete" false r.Checker.r_complete;
  Alcotest.(check bool)
    "resumed runs skipped their prefixes" true
    (st.Checker.executed < st.Checker.transitions);
  let nonzero l =
    List.concat (List.mapi (fun i c -> if c <> 0 then [ i ] else []) l)
  in
  Alcotest.(check (list (triple string (list int) (pair int (list int)))))
    "violations: reason, roots, (choices, non-default picks)"
    (List.map
       (fun picks ->
         ( "runaway simulation (event limit 150)",
           [ 0 ],
           (150, picks) ))
       [ []; [ 98 ]; [ 96 ] ])
    (List.map
       (fun v ->
         ( v.Checker.v_reason,
           v.Checker.v_roots,
           (List.length v.Checker.v_choices, nonzero v.Checker.v_choices) ))
       r.Checker.r_violations)

(* [max_states] caps the states visited exactly. *)
let max_states_exact () =
  let options =
    { Checker.default_options with Checker.max_states = Some 100 }
  in
  let r = explore ~options "crash-write" ~variant:Scenarios.correct in
  Alcotest.(check int) "states" 100 r.Checker.r_stats.Checker.states;
  Alcotest.(check bool) "incomplete" false r.Checker.r_complete

(* Every table and queue of a node's protocol state reaches the
   fingerprint and comes back from a save.  No pinned count depends on
   them, so each gets a direct check: a fresh handoff system's node
   receives reliable messages that land in exactly one container, in
   two versions differing in one field; both the node's and the
   system's fingerprints must tell them apart.  In every version a
   [Hypervisor.save] taken before the messages, restored after them,
   gives back the earlier node fingerprint.

   The retransmission queue is filled by the revived ex-primary, which
   sends every reliable message it receives back to its peer (the echo
   in [handle_body]): two values arriving in either order leave the
   same forwarded-value table and counters and differ only in which
   [dseq] carries which value.  The suppressed-I/O record fills only at
   the guest's own doorbell, together with the controller registers and
   the pc that issued it, so it has no two-version case; a crash-write
   backup stepped to its first suppressed write checks that the
   fingerprint moves and that the save from the step before brings the
   empty record back. *)
let tables_fingerprinted () =
  let module M = Hft_core.Message in
  let module H = Hft_core.Hypervisor in
  let module System = Hft_core.System in
  let module Layout = Hft_guest.Layout in
  let system name =
    let sc = find_scenario name in
    System.create ~params:sc.Scenarios.sc_params
      ~workload:sc.Scenarios.sc_workload ()
  in
  let unrestored = ref [] in
  let restores table n saved before =
    H.restore n saved;
    if H.fingerprint n <> before then unrestored := table :: !unrestored
  in
  let fingerprints table node msgs =
    let sys = system "handoff" in
    let n = node sys in
    let saved = H.save n and before = H.fingerprint n in
    List.iter
      (fun (dseq, body) -> H.on_message n (M.make ~seq:0 ~dseq body))
      msgs;
    let after = (H.fingerprint n, System.fingerprint sys) in
    restores table n saved before;
    after
  in
  let backup = System.backup in
  let ex_primary sys =
    let p = System.primary sys in
    H.revive_as_backup p;
    p
  in
  let tme tod = M.Tme { epoch = 3; tod_us = tod; timer_deadline_us = -1 } in
  let intr status =
    M.Intr { epoch = 1; completion = { M.status; dma = None } }
  in
  let env idx value = M.Env_val { epoch = 1; idx; value } in
  let blind (table, node, a, b) =
    let node_a, sys_a = fingerprints table node a
    and node_b, sys_b = fingerprints table node b in
    List.filter_map Fun.id
      [
        (if node_a = node_b then Some (table ^ " (node)") else None);
        (if sys_a = sys_b then Some (table ^ " (system)") else None);
      ]
  in
  let one dseq body = [ (dseq, body) ] in
  let cases =
    [
      ("tmes", backup, one 0 (tme 100), one 0 (tme 101));
      ( "ends",
        backup,
        one 0 (M.Epoch_end { epoch = 1 }),
        one 0 (M.Epoch_end { epoch = 2 }) );
      ("env_vals", backup, one 0 (env 0 7), one 0 (env 0 8));
      ( "buffered_by_epoch",
        backup,
        one 0 (intr Layout.status_ok),
        one 0 (intr Layout.status_uncertain) );
      (* dseq 2 arrives ahead of 0 and 1, so it is held *)
      ("rcv_hold", backup, one 2 (tme 100), one 2 (tme 101));
      ( "rtx_queue",
        ex_primary,
        [ (0, env 0 7); (1, env 1 8) ],
        [ (0, env 1 8); (1, env 0 7) ] );
    ]
  in
  Alcotest.(check (list string))
    "tables whose two versions fingerprint alike" []
    (List.concat_map blind cases);
  (* outstanding *)
  let sys = system "crash-write" in
  let b = System.backup sys in
  System.start sys;
  let rec to_first_write () =
    let saved = H.save b and before = H.fingerprint b in
    if not (Hft_sim.Engine.step (System.engine sys)) then
      Alcotest.fail "crash-write's backup never suppressed a write"
    else if H.outstanding_io b = 0 then to_first_write ()
    else (saved, before)
  in
  let saved, before = to_first_write () in
  Alcotest.(check bool) "outstanding moves the fingerprint" true
    (H.fingerprint b <> before);
  restores "outstanding" b saved before;
  Alcotest.(check int) "outstanding restored empty" 0 (H.outstanding_io b);
  Alcotest.(check (list string))
    "containers a restore did not bring back" [] !unrestored

(* Every slot of the hypervisor's state table is held to its
   declaration, on an hv-crash backup part-way through its run.
   Perturbing a slot moves the node's fingerprint exactly when the slot
   is declared fingerprinted, and restoring an earlier save heals it.
   A protected slot is committed to the recovery block: a value it
   held while the node serviced an event (a corrupt frame, which
   changes nothing else) stays in the fingerprint after the slot is
   put back.  And it is healed by the microreboot a crash fault starts
   when perturbed after that commit: once the node is healthy again,
   its slots and fingerprint equal those of the same run without the
   perturbation.  Every slot a corruption fault scrambles is
   protected. *)
let slots_held_to_declaration () =
  let module H = Hft_core.Hypervisor in
  let module System = Hft_core.System in
  let module Engine = Hft_sim.Engine in
  let sc = find_scenario "hv-crash" in
  let slots = List.mapi (fun i d -> (i, d)) H.slots in
  let mid_run () =
    let sys =
      System.create ~params:sc.Scenarios.sc_params
        ~workload:sc.Scenarios.sc_workload ()
    in
    System.start sys;
    Engine.run_until (System.engine sys) (Hft_sim.Time.of_us 1000);
    (sys, System.backup sys)
  in
  let _, b = mid_run () in
  Alcotest.(check bool) "mid-run" true
    (H.alive b && (not (H.halted b)) && H.epoch b > 0
    && H.hv_health b = H.Healthy);
  let failures = ref [] in
  let fail i (d : H.slot) what =
    failures := Printf.sprintf "%d %s: %s" i d.H.name what :: !failures
  in
  let saved = H.save b and fp = H.fingerprint b in
  let junk =
    Hft_core.Message.(corrupt ~flip:1 (make ~seq:0 (Ack { upto = 0 })))
  in
  Alcotest.(check bool) "the frame is corrupt" false
    (Hft_core.Message.valid junk);
  H.on_message b junk;
  Alcotest.(check bool) "a corrupt frame leaves the fingerprint" true
    (H.fingerprint b = fp);
  H.restore b saved;
  List.iter
    (fun (i, (d : H.slot)) ->
      let v = H.slot b i in
      H.set_slot b i (v + 1);
      if (H.fingerprint b <> fp) <> d.H.fingerprinted then
        fail i d
          (if d.H.fingerprinted then "does not move the fingerprint"
           else "moves the fingerprint");
      H.restore b saved;
      if H.slot b i <> v || H.fingerprint b <> fp then
        fail i d "not healed by restore";
      if d.H.protected then begin
        H.set_slot b i (v + 1000);
        H.on_message b junk;
        H.set_slot b i v;
        if H.fingerprint b = fp then
          fail i d "not committed to the recovery block";
        H.restore b saved
      end)
    slots;
  let after_reboot perturb =
    let sys, b = mid_run () in
    perturb b;
    H.inject_hv_fault b H.Hv_crash;
    let eng = System.engine sys in
    while H.hv_health b <> H.Healthy && Engine.step eng do
      ()
    done;
    (List.map (fun (i, _) -> H.slot b i) slots, H.fingerprint b)
  in
  let reference = after_reboot ignore in
  List.iter
    (fun (i, (d : H.slot)) ->
      if d.H.protected then
        let healed =
          after_reboot (fun b -> H.set_slot b i (H.slot b i + 1000))
        in
        if healed <> reference then fail i d "not healed by the microreboot")
    slots;
  List.iter
    (fun target ->
      List.iter
        (fun (i, _) ->
          let d = List.nth H.slots i in
          if not d.H.protected then fail i d "scrambled but not protected")
        (H.scramble_offsets target))
    [ H.C_epoch; H.C_acks; H.C_rtx ];
  (* Reintegration: the revived node takes each carried slot from the
     new primary as it stood at the offer (for [vtod_us], the primary's
     clock reading, so not its slot), and the snapshot writes no other
     slot.  The offer's delivery itself moves the receive side's
     [heartbeat] and [data_recvd], and the [Snapshot_done] reply the
     send side's [data_sent] and [send_seq]. *)
  let stream = [ "heartbeat"; "data_recvd"; "data_sent"; "send_seq" ] in
  let system = ref None in
  let at_offer = ref [] and delivered = ref [] and restored = ref None in
  let values hv = List.map (fun (i, _) -> H.slot hv i) slots in
  let tap (e : Hft_obs.Recorder.entry) =
    match !system with
    | None -> ()
    | Some sys -> (
      match e.Hft_obs.Recorder.ev with
      | Hft_obs.Event.Reintegration_offer _ ->
        at_offer := values (System.backup sys)
      | Hft_obs.Event.Ch_deliver _
        when e.Hft_obs.Recorder.source = "backup->primary" ->
        delivered := values (System.primary sys)
      | Hft_obs.Event.Snapshot_restored _ ->
        restored := Some (!delivered, values (System.primary sys))
      | _ -> ())
  in
  let sys =
    Scenarios.instantiate
      (find_scenario "reintegration-loss")
      ~variant:Scenarios.correct
      ~faults:[ Hft_core.System.Crash (`Primary, 1) ]
      ~obs:(Hft_obs.Recorder.create ~capacity:1 ~tap ())
      ()
  in
  system := Some sys;
  ignore (System.run sys);
  let delivered, restored =
    match !restored with
    | Some r -> r
    | None -> Alcotest.fail "no snapshot was restored"
  in
  List.iteri
    (fun k (i, (d : H.slot)) ->
      let offer = List.nth !at_offer k
      and before = List.nth delivered k
      and after = List.nth restored k in
      if d.H.carried then begin
        if d.H.name <> "vtod_us" && after <> offer then
          fail i d "not carried by the snapshot"
      end
      else if after <> before && not (List.mem d.H.name stream) then
        fail i d "written by the snapshot but not carried")
    slots;
  Alcotest.(check bool) "the snapshot moved the epoch" true
    (List.nth delivered 0 <> List.nth restored 0);
  Alcotest.(check (list string)) "slots off their declaration" []
    (List.rev !failures)

(* PR 1's failover-during-reintegration-snapshot bug, pinned
   exhaustively: every single-loss schedule across the reintegration
   handshake must satisfy the invariants. *)
let reintegration_regression () =
  let r = explore "reintegration-loss" ~variant:Scenarios.correct in
  Alcotest.(check bool) "fixpoint" true r.Checker.r_complete;
  Alcotest.(check int) "no violations" 0 (List.length r.Checker.r_violations)

(* The seeded bug: without retransmission a lost acknowledgement
   splits the brain.  The checker must find it, shrink it, and the
   serialized counterexample must replay to the same violation. *)
let broken_variant_counterexample () =
  let variant = { Scenarios.retransmit = false; ack_wait = true } in
  let r = explore "crash-loss" ~variant in
  match r.Checker.r_violations with
  | [] -> Alcotest.fail "no-retransmit variant should violate"
  | v :: _ ->
    Alcotest.(check bool) "shrunk" true v.Checker.v_shrunk;
    let sched = Checker.schedule_of_violation r v in
    Alcotest.(check bool)
      "schedule remembers the violation" true
      (sched.Schedule.violation <> None);
    (* text round-trip *)
    let text = Schedule.to_string sched in
    (match Schedule.of_string text with
    | Error m -> Alcotest.failf "of_string: %s" m
    | Ok sched' ->
      Alcotest.(check string) "round-trip" text (Schedule.to_string sched'));
    (* the replayable counterexample reproduces the violation *)
    (match Checker.replay sched with
    | Ok (Some _) -> ()
    | Ok None -> Alcotest.fail "replay did not reproduce the violation"
    | Error m -> Alcotest.failf "replay: %s" m)

(* The correct variant survives the same scenario the broken one
   fails, so the counterexample above is the protocol's fault, not the
   scenario's. *)
let correct_variant_survives () =
  let r = explore "crash-loss" ~variant:Scenarios.correct in
  Alcotest.(check bool) "fixpoint" true r.Checker.r_complete;
  Alcotest.(check int) "no violations" 0 (List.length r.Checker.r_violations)

let run_forced_fault_free () =
  let sc = find_scenario "handoff" in
  match
    Checker.run_forced sc ~variant:Scenarios.correct
      ~roots:[ 0 ] ~choices:[] ()
  with
  | None -> ()
  | Some v -> Alcotest.failf "fault-free schedule violated: %s" v

(* An exhausted event budget is reported as a runaway, with its limit,
   not as a generic run failure. *)
let run_forced_runaway () =
  let sc = { (find_scenario "handoff") with Scenarios.sc_limit = 50 } in
  Alcotest.(check (option string))
    "typed runaway" (Some "runaway simulation (event limit 50)")
    (Checker.run_forced sc ~variant:Scenarios.correct ~roots:[ 0 ] ~choices:[]
       ())

let schedule_round_trip () =
  let check_rt sched =
    let text = Schedule.to_string sched in
    match Schedule.of_string text with
    | Error m -> Alcotest.failf "of_string: %s" m
    | Ok sched' ->
      Alcotest.(check string) "text round-trip" text
        (Schedule.to_string sched')
  in
  check_rt
    {
      Schedule.scenario = "handoff";
      retransmit = true;
      ack_wait = true;
      roots = [ 1 ];
      choices = [ 0; 2; 1 ];
      violation = None;
    };
  check_rt
    {
      Schedule.scenario = "crash-loss";
      retransmit = false;
      ack_wait = true;
      roots = [ 0; 0; 1 ];
      choices = [];
      violation = Some "two live replicas hold a primary role (split brain)";
    }

let schedule_rejects_garbage () =
  (match Schedule.of_string "not a schedule\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted garbage");
  match Schedule.of_string "hftsim-check-replay/1\nroots: x y\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted malformed ints"

(* Replay files and hypervisor-fault specs are input boundaries:
   whatever the text, the parser answers [Ok] or [Error], never an
   exception.  The inputs are valid texts truncated, with one bit
   flipped, or spliced from two of them, like the image fuzzer's. *)
let mutations corpus =
  let open QCheck.Gen in
  let* text = oneofl corpus in
  let n = String.length text in
  oneof
    [
      map (fun k -> String.sub text 0 k) (int_bound n);
      map2
        (fun k bit ->
          String.mapi
            (fun j c ->
              if j = k then Char.chr (Char.code c lxor (1 lsl bit)) else c)
            text)
        (int_bound (n - 1)) (int_bound 7);
      (let* other = oneofl corpus in
       let m = String.length other in
       map2
         (fun a b -> String.sub text 0 a ^ String.sub other b (m - b))
         (int_bound n) (int_bound m));
    ]

let parser_fuzz_prop name corpus parse =
  QCheck.Test.make ~name ~count:3000
    (QCheck.make ~print:(Printf.sprintf "%S") (mutations corpus))
    (fun s -> match parse s with Ok _ | Error _ -> true)

let replay_fuzz_prop =
  parser_fuzz_prop "mutated replay files parse to Ok or Error"
    (List.map Schedule.to_string
       [
         {
           Schedule.scenario = "crash-loss";
           retransmit = false;
           ack_wait = true;
           roots = [ 0; 0; 1 ];
           choices = [];
           violation =
             Some "two live replicas hold a primary role (split brain)";
         };
         {
           Schedule.scenario = "handoff";
           retransmit = true;
           ack_wait = false;
           roots = [ 2 ];
           choices = [ 0; 3; 1; 0; 12 ];
           violation = None;
         };
       ])
    Schedule.of_string

let hv_fault_fuzz_prop =
  parser_fuzz_prop "mutated hv fault specs parse to Ok or Error"
    [
      "primary:crash:3";
      "backup:hang:12";
      "primary:corrupt-epoch:1";
      "backup:corrupt-acks:7";
      "primary:corrupt-rtx:24";
    ]
    Hft_harness.Campaign.hv_fault_of_string

(* A directory opens on Linux but fails on the first read: that must be
   a typed error too, not an escaping Sys_error. *)
let load_rejects_unreadable () =
  List.iter
    (fun path ->
      match Schedule.load path with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "loaded %S" path)
    [ Filename.current_dir_name; "no-such-file.sched" ]

let replay_unknown_scenario () =
  let sched =
    {
      Schedule.scenario = "no-such-scenario";
      retransmit = true;
      ack_wait = true;
      roots = [ 0 ];
      choices = [];
      violation = None;
    }
  in
  match Checker.replay sched with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "replayed an unknown scenario"

(* Out-of-range indices are refused with a message naming the
   dimension, and a root list of the wrong length with one naming both
   counts, never silently replayed as a different schedule (the
   all-defaults root, for roots 99 or none).  Handoff has one root
   dimension, crash-loss three. *)
let replay_rejects_out_of_range () =
  let sched ?(scenario = "handoff") roots choices =
    {
      Schedule.scenario;
      retransmit = true;
      ack_wait = true;
      roots;
      choices;
      violation = None;
    }
  in
  let contains s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  List.iter
    (fun (what, s, mention) ->
      match Checker.replay s with
      | Error m ->
        if not (contains m mention) then
          Alcotest.failf "%s: %S does not mention %S" what m mention
      | Ok _ -> Alcotest.failf "%s: replayed" what)
    [
      ("roots 99", sched [ 99 ] [], "crash_epochs");
      ( "six roots",
        sched [ 0; 0; 0; 0; 0; 0 ] [],
        "6 roots given, the scenario has 1" );
      ( "negative root",
        sched ~scenario:"crash-loss" [ 0; -1; 0 ] [],
        "root 1 (loss_pb) is -1" );
      ("negative choice", sched [ 0 ] [ 0; -2 ], "choice 1");
      ("no roots", sched [] [], "0 roots given, the scenario has 1");
      ( "short roots",
        sched ~scenario:"crash-loss" [ 0; 1 ] [],
        "2 roots given, the scenario has 3" );
    ]

(* The system caches each hypervisor's fingerprint across steps and
   recomputes only the nodes a step can have changed
   ([System.fingerprint]).  At every scheduler call of [check --all]
   on each backend, under the correct protocol and [--no-ack-wait],
   and of crash-write-loss, each cached digest the next fingerprint
   would reuse must equal a fresh [Hypervisor.fingerprint] of its node.
   No explored count sees a missed invalidation: a cache that misses
   the reintegration handoff's write to the peer keeps every state,
   run and transition count, and fails only here and in the node count
   pinned above.  The fresh digest is not free of side effects: it
   drains each memory's dirty-chunk list earlier than the checker
   would and bumps the work counters, so this exploration's counters
   differ from a plain one's.  A memory digest's value does not depend
   on when its dirty chunks are drained, so every fingerprint, and
   with it every explored count, is the same as without [inspect];
   the test checks that too. *)
let node_cache_cross_checked () =
  let module H = Hft_core.Hypervisor in
  let module System = Hft_core.System in
  let module Params = Hft_core.Params in
  let run backend variant (sc : Scenarios.bounded) =
    let sc =
      {
        sc with
        Scenarios.sc_params =
          Params.with_exec_backend sc.Scenarios.sc_params backend;
      }
    in
    let checked = ref 0 and stale = ref [] in
    let node name hv = function
      | None -> ()
      | Some cached ->
        incr checked;
        if cached <> H.fingerprint hv && !stale = [] then
          stale := [ Printf.sprintf "%s after %d checks" name !checked ]
    in
    let inspect sys =
      let p, b = System.cached_fingerprints sys in
      node "primary" (System.primary sys) p;
      node "backup" (System.backup sys) b
    in
    let inspected = Checker.explore ~inspect sc ~variant in
    let plain = Checker.explore sc ~variant in
    let what =
      Printf.sprintf "%s %s%s" sc.Scenarios.sc_name
        (Params.backend_name backend)
        (if variant.Scenarios.ack_wait then "" else " --no-ack-wait")
    in
    Alcotest.(check (list string)) (what ^ ": stale cached digests") [] !stale;
    if !checked = 0 then Alcotest.failf "%s: no cached digest checked" what;
    if inspected.Checker.r_stats <> plain.Checker.r_stats then
      Alcotest.failf "%s: inspecting moved an explored count" what
  in
  let no_ack_wait = { Scenarios.correct with Scenarios.ack_wait = false } in
  List.iter
    (fun backend ->
      List.iter
        (fun variant -> List.iter (run backend variant) Scenarios.all)
        [ Scenarios.correct; no_ack_wait ])
    Params.[ Interp; Threaded; Differential ];
  run Params.Interp Scenarios.correct crash_write_loss_sc

let () =
  let open Alcotest in
  run "hft_check"
    [
      ( "scenarios",
        [
          test_case "handoff explored to fixpoint" `Quick handoff_fixpoint;
          test_case "hv-crash microreboot explored to fixpoint" `Quick
            hv_crash_fixpoint;
          test_case "reintegration-loss regression pin" `Quick
            reintegration_regression;
          test_case "runs, states and transitions pinned" `Quick
            counts_pinned;
          test_case "every protocol table reaches the fingerprint" `Quick
            tables_fingerprinted;
          test_case "correct variant survives crash-loss" `Quick
            correct_variant_survives;
          test_case "fault-free forced run is clean" `Quick
            run_forced_fault_free;
          test_case "an exhausted event budget is a runaway" `Quick
            run_forced_runaway;
          test_case
            (Printf.sprintf "handoff allocates under %.0f words a transition"
               transition_budget)
            `Quick transition_cost;
          test_case "crash-write-loss: 60 001 states, none lost to the digest"
            `Quick crash_write_loss;
          test_case "every state slot keeps its declaration" `Quick
            slots_held_to_declaration;
          test_case "a resumed run is held to the event limit" `Quick
            limits_survive_restore;
          test_case "--max-states N visits exactly N states" `Quick
            max_states_exact;
          test_case "words hashed by check --all and run -w cpu pinned"
            `Quick words_hashed_pinned;
          test_case "cached node fingerprints equal fresh ones at every step"
            `Quick node_cache_cross_checked;
          test_case "an exploration after another scenario's equals a fresh one"
            `Quick recycled_exploration;
        ] );
      ( "counterexamples",
        [
          test_case "no-retransmit found, shrunk, replayable" `Quick
            broken_variant_counterexample;
        ] );
      ( "schedules",
        [
          test_case "serialization round-trips" `Quick schedule_round_trip;
          test_case "garbage rejected" `Quick schedule_rejects_garbage;
          test_case "directory or missing file rejected" `Quick
            load_rejects_unreadable;
          test_case "unknown scenario rejected" `Quick replay_unknown_scenario;
          test_case "out-of-range roots and choices rejected" `Quick
            replay_rejects_out_of_range;
          QCheck_alcotest.to_alcotest replay_fuzz_prop;
          QCheck_alcotest.to_alcotest hv_fault_fuzz_prop;
        ] );
    ]
