(* Chaos-campaign smoke tests: a fixed-seed slice of what `hftsim
   chaos` runs at scale.  The hardened protocol must survive every
   sampled fault schedule; with retransmission disabled the campaign
   must catch at least one assumption violation, and the shrunk
   schedule must reproduce it standalone. *)

open Hft_core
open Hft_harness

let workload = Hft_guest.Workload.mixed ~compute:50 ~ops:6 ()

let smoke_config ?params ~trials ~seed () =
  Campaign.default_config ?params ~workload ~trials ~seed ()

let chaos_tests =
  let open Alcotest in
  [
    test_case "hardened: 20 mixed-fault trials, zero violations" `Quick
      (fun () ->
        let cfg = smoke_config ~trials:20 ~seed:2026 () in
        let s = Campaign.run ~shrink_failures:false cfg in
        List.iter
          (fun (t : Campaign.trial) ->
            check (list string)
              (Printf.sprintf "trial %d (%s)" t.Campaign.index
                 (Campaign.flags t.Campaign.schedule))
              [] t.Campaign.violations)
          s.Campaign.trials;
        (* the campaign must actually have exercised the channel *)
        check bool "faults were injected" true
          (List.exists
             (fun (t : Campaign.trial) -> t.Campaign.faults_injected > 100)
             s.Campaign.trials);
        check bool "retransmission did the healing" true
          (List.exists
             (fun (t : Campaign.trial) -> t.Campaign.retransmits > 0)
             s.Campaign.trials));
    test_case
      "unhardened: a violation is caught, shrunk and reproduced standalone"
      `Quick (fun () ->
        let params = Params.with_retransmit Params.default false in
        let cfg = smoke_config ~params ~trials:6 ~seed:2026 () in
        let s = Campaign.run ~shrink_failures:false cfg in
        (match s.Campaign.failures with
        | [] ->
          fail "no violation found: the campaign lost its teeth"
        | ((t : Campaign.trial), _) :: _ ->
          let reference = Campaign.reference cfg in
          (* the (seed, schedule) pair alone replays the failure *)
          let again =
            Campaign.run_trial cfg ~reference ~index:0 t.Campaign.schedule
          in
          check bool "standalone reproduction fails too" true
            (again.Campaign.violations <> []);
          check (list string) "identical violations on replay"
            t.Campaign.violations again.Campaign.violations;
          let shrunk = Campaign.shrink cfg ~reference t.Campaign.schedule in
          let small =
            Campaign.run_trial cfg ~reference ~index:0 shrunk
          in
          check bool "shrunk schedule still fails" true
            (small.Campaign.violations <> []);
          check bool "shrinking reduced the fault intensity" true
            (shrunk.Campaign.loss <= t.Campaign.schedule.Campaign.loss
            && shrunk.Campaign.corrupt <= t.Campaign.schedule.Campaign.corrupt)));
    test_case "a schedule is deterministic: same seed, same trial" `Quick
      (fun () ->
        let cfg = smoke_config ~trials:1 ~seed:7 () in
        let reference = Campaign.reference cfg in
        let sched =
          Campaign.generate cfg (Hft_sim.Rng.create cfg.Campaign.master_seed)
        in
        let a = Campaign.run_trial cfg ~reference ~index:0 sched in
        let b = Campaign.run_trial cfg ~reference ~index:0 sched in
        check (list string) "same violations" a.Campaign.violations
          b.Campaign.violations;
        check int "same fault count" a.Campaign.faults_injected
          b.Campaign.faults_injected;
        check int "same retransmit count" a.Campaign.retransmits
          b.Campaign.retransmits);
  ]

(* -------- recycled trial machines -------- *)

(* Every field of a trial, named, so a mismatch says which one. *)
let trial_fields (t : Campaign.trial) =
  let time v = string_of_int (Hft_sim.Time.to_ns v) in
  [
    ("index", string_of_int t.Campaign.index);
    ("schedule", Campaign.flags t.Campaign.schedule);
    ("violations", String.concat "; " t.Campaign.violations);
    ("time", match t.Campaign.time with Some v -> time v | None -> "none");
    ("faults_injected", string_of_int t.Campaign.faults_injected);
    ("retransmits", string_of_int t.Campaign.retransmits);
    ("duplicates_dropped", string_of_int t.Campaign.duplicates_dropped);
    ("corruptions_detected", string_of_int t.Campaign.corruptions_detected);
    ("hv_injected", string_of_int t.Campaign.hv_injected);
    ("microreboots", string_of_int t.Campaign.microreboots);
    ("recovery_escalations", string_of_int t.Campaign.recovery_escalations);
    ("reconciled_ios", string_of_int t.Campaign.reconciled_ios);
    ("reconciled_msgs", string_of_int t.Campaign.reconciled_msgs);
    ( "recovery_windows",
      String.concat "," (List.map time t.Campaign.recovery_windows) );
  ]

let major_words () =
  let _, _, major = Gc.counters () in
  major

let recycle_tests =
  let open Alcotest in
  let cfg =
    Campaign.default_config ~hv_faults:true ~workload ~trials:6 ~seed:31 ()
  in
  (* equal params by value but a different record: the campaign's
     spare is keyed physically, so this never recycles [cfg]'s system *)
  let other =
    {
      cfg with
      Campaign.params =
        { cfg.Campaign.params with Params.hv_recovery = true };
    }
  in
  [
    test_case "recycled trials equal fresh ones, in any order" `Quick
      (fun () ->
        let reference = Campaign.reference cfg in
        let rng = Hft_sim.Rng.create cfg.Campaign.master_seed in
        let schedules =
          List.init cfg.Campaign.trials (fun i ->
              (i, Campaign.generate cfg rng))
        in
        let run (i, s) = Campaign.run_trial cfg ~reference ~index:i s in
        (* a different-cfg trial in between makes each one build fresh *)
        let fresh =
          List.map
            (fun x ->
              ignore (Campaign.run_trial other ~reference ~index:(-1)
                        (snd x));
              run x)
            schedules
        in
        let forward = List.map run schedules in
        let reversed = List.rev (List.map run (List.rev schedules)) in
        List.iter2
          (fun (f : Campaign.trial) (a, b) ->
            let name = Printf.sprintf "trial %d" f.Campaign.index in
            check (list (pair string string)) (name ^ " forward")
              (trial_fields f) (trial_fields a);
            check (list (pair string string)) (name ^ " reversed")
              (trial_fields f) (trial_fields b))
          fresh
          (List.combine forward reversed));
    (* a compute-only guest: each disk I/O costs a block-sized array
       in the major heap, which is the disk's cost, not set-up's *)
    test_case "a recycled trial allocates under mem_words / 16" `Quick
      (fun () ->
        let cfg =
          Campaign.default_config ~hv_faults:true
            ~workload:(Hft_guest.Workload.dhrystone ~iterations:500)
            ~trials:1 ~seed:5 ()
        in
        let reference = Campaign.reference cfg in
        let s = Campaign.generate cfg (Hft_sim.Rng.create 5) in
        ignore (Campaign.run_trial cfg ~reference ~index:0 s);
        let before = major_words () in
        let t = Campaign.run_trial cfg ~reference ~index:0 s in
        let words = major_words () -. before in
        check (list string) "clean" [] t.Campaign.violations;
        let mem_words =
          Hft_machine.Cpu.default_config.Hft_machine.Cpu.mem_words
        in
        if words >= Float.of_int mem_words /. 16. then
          failf "recycled trial allocated %.0f major words, budget %d" words
            (mem_words / 16));
    test_case "a different machine geometry builds fresh" `Quick (fun () ->
        let s = Campaign.generate cfg (Hft_sim.Rng.create 3) in
        ignore
          (Campaign.run_trial cfg ~reference:(Campaign.reference cfg)
             ~index:0 s);
        let p = cfg.Campaign.params in
        let big =
          {
            cfg with
            Campaign.params =
              {
                p with
                Params.cpu_config =
                  {
                    p.Params.cpu_config with
                    Hft_machine.Cpu.mem_words =
                      2 * p.Params.cpu_config.Hft_machine.Cpu.mem_words;
                  };
              };
          }
        in
        let t =
          Campaign.run_trial big ~reference:(Campaign.reference big) ~index:0
            s
        in
        check (list string) "clean" [] t.Campaign.violations);
  ]

let () =
  Alcotest.run "hft_chaos"
    [ ("chaos-smoke", chaos_tests); ("trial-reuse", recycle_tests) ]
