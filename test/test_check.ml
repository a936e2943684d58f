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
    [ st.Checker.runs; st.Checker.states; st.Checker.transitions ]

let counts_pinned () =
  List.iter
    (fun ((name, _, _, _) as pin) ->
      check_pinned ~what:"pinned" (find_scenario name) pin)
    pins

(* Observability neutrality: arming the guest hot-spot profiler
   (which recompiles translated blocks with counting prologues and
   disables loop hoisting) must not perturb any architectural state
   the lockstep protocol hashes.  Each scenario's exploration must
   reach the same pinned counts as without profiling — a drift here
   means the profiler leaked into System.fingerprint. *)
let profiling_neutral () =
  List.iter
    (fun ((name, _, _, _) as pin) ->
      let sc = find_scenario name in
      let sc =
        {
          sc with
          Scenarios.sc_params =
            Hft_core.Params.with_profile_guest sc.Scenarios.sc_params true;
        }
      in
      check_pinned ~what:"unchanged under profiling" sc pin)
    pins

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
      ~roots:[ 0; 0; 0; 0 ] ~choices:[] ()
  with
  | None -> ()
  | Some v -> Alcotest.failf "fault-free schedule violated: %s" v

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
      roots = [ 1; 0; 0; 0 ];
      choices = [ 0; 2; 1 ];
      violation = None;
    };
  check_rt
    {
      Schedule.scenario = "crash-loss";
      retransmit = false;
      ack_wait = true;
      roots = [ 0; 0; 0; 1 ];
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
      roots = [ 0; 0; 0; 0 ];
      choices = [];
      violation = None;
    }
  in
  match Checker.replay sched with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "replayed an unknown scenario"

(* Out-of-range indices are refused with a message naming the
   dimension, never silently replayed as a different schedule (the
   all-defaults root, for roots 99). *)
let replay_rejects_out_of_range () =
  let sched roots choices =
    {
      Schedule.scenario = "handoff";
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
      ("roots 99", sched [ 99; 99; 99; 99; 99 ] [], "crash_epochs");
      ("six roots", sched [ 0; 0; 0; 0; 0; 0 ] [], "6 roots");
      ("negative root", sched [ 0; -1 ] [], "backup_crash_epochs");
      ("negative choice", sched [ 0 ] [ 0; -2 ], "choice 1");
    ]

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
          test_case "profiling leaves every state space untouched" `Slow
            profiling_neutral;
          test_case "correct variant survives crash-loss" `Quick
            correct_variant_survives;
          test_case "fault-free forced run is clean" `Quick
            run_forced_fault_free;
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
        ] );
    ]
