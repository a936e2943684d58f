(* Hypervisor-failure recovery (ReHype extension): in-place
   microreboot under crash/hang/corruption faults, reconciliation of
   parked disk completions and dropped channel traffic, double-fault
   escalation to the ordinary failover path, and the mixed-fault chaos
   campaign.  Throughout, the bar is the paper's own: the surviving
   virtual machine must be indistinguishable from a fault-free
   processor. *)

open Hft_core
module Time = Hft_sim.Time
module Obs = Hft_obs

let base = { Params.default with Params.epoch_length = 512 }

let run_sys ?(params = base) ?obs ~workload setup =
  let sys = System.create ~params ?obs ~workload () in
  setup sys;
  (sys, System.run sys)

let check_clean ?(ops = None) label (o : System.outcome) =
  Alcotest.(check (list int)) (label ^ ": lockstep") [] o.System.lockstep_mismatches;
  Alcotest.(check bool) (label ^ ": disk consistent") true o.System.disk_consistent;
  match ops with
  | Some n ->
    Alcotest.(check int) (label ^ ": guest ops") n
      o.System.results.Guest_results.ops
  | None -> ()

let recovery_stats (sys : System.t) =
  let p = Hypervisor.stats (System.primary sys) in
  let b = Hypervisor.stats (System.backup sys) in
  ( p.Stats.microreboots + b.Stats.microreboots,
    p.Stats.recovery_escalations + b.Stats.recovery_escalations,
    p.Stats.reconciled_ios + b.Stats.reconciled_ios,
    p.Stats.reconciled_msgs + b.Stats.reconciled_msgs )

(* A crash fault while a disk write is in flight: the completion
   arrives during the reboot window, is parked by the port mask (so
   the shared-disk history still shows it completing once, at its real
   time), and is delivered to the recovered hypervisor as a reconciled
   I/O.  The guest never notices. *)
let reboot_with_outstanding_io () =
  let workload = Hft_guest.Workload.disk_write ~ops:3 ~pad:20 ~spin:20 () in
  let sys, o =
    run_sys ~workload (fun sys ->
        System.hv_fault_at sys ~target:`Primary ~kind:Hypervisor.Hv_crash
          (Time.of_ms 20))
  in
  check_clean ~ops:(Some 3) "outstanding-io" o;
  Alcotest.(check bool) "completed by the primary" true
    (o.System.completed_by = `Primary);
  let reboots, escalations, ios, _ = recovery_stats sys in
  Alcotest.(check int) "one microreboot" 1 reboots;
  Alcotest.(check int) "no escalation" 0 escalations;
  Alcotest.(check bool) "the in-flight completion was reconciled" true
    (ios >= 1)

(* Reboot in the middle of a retransmission chain: a burst of data
   losses forces the primary into backoff retransmission, then its
   hypervisor crashes.  The restored retransmission queue plus the
   resync handshake must still deliver every frame exactly once. *)
let reboot_mid_retransmission_chain () =
  let workload = Hft_guest.Workload.dhrystone ~iterations:4000 in
  let sys, o =
    run_sys ~workload (fun sys ->
        (* drop a run of consecutive data frames to start the chain *)
        Hft_net.Channel.set_loss_plan
          (System.channel_to_backup sys)
          (fun n -> n >= 2 && n <= 5);
        System.hv_fault_at sys ~target:`Primary ~kind:Hypervisor.Hv_crash
          (Time.of_ms 3))
  in
  check_clean "mid-rtx" o;
  Alcotest.(check int) "guest finished" 4000 o.System.results.Guest_results.ops;
  let reboots, _, _, _ = recovery_stats sys in
  Alcotest.(check int) "one microreboot" 1 reboots;
  Alcotest.(check bool) "the chain actually retransmitted" true
    (o.System.primary_stats.Stats.retransmits > 0)

(* A second fault while the first is still being detected is a double
   fault: recovery gives up, the node fail-stops, and the ordinary
   failover path takes over (the paper's case (ii)). *)
let double_fault_escalates_to_failover () =
  let workload = Hft_guest.Workload.disk_write ~ops:3 ~pad:20 ~spin:20 () in
  let sys, o =
    run_sys ~workload (fun sys ->
        System.hv_fault_at sys ~target:`Primary ~kind:Hypervisor.Hv_crash
          (Time.of_ms 20);
        (* inside the 50us panic-detection latency of the first *)
        System.hv_fault_at sys ~target:`Primary ~kind:Hypervisor.Hv_hang
          (Time.of_us 20_010))
  in
  check_clean ~ops:(Some 3) "double-fault" o;
  Alcotest.(check bool) "failover happened" true o.System.failover;
  Alcotest.(check bool) "completed by the promoted backup" true
    (o.System.completed_by = `Promoted_backup);
  let reboots, escalations, _, _ = recovery_stats sys in
  Alcotest.(check int) "no microreboot" 0 reboots;
  Alcotest.(check int) "one escalation" 1 escalations

(* An exhausted reboot budget escalates too: with hv_recovery_max = 1
   the first fault heals and the second fail-stops the node. *)
let budget_exhaustion_escalates () =
  let params = { base with Params.hv_recovery_max = 1 } in
  let workload = Hft_guest.Workload.dhrystone ~iterations:30_000 in
  let sys, o =
    run_sys ~params ~workload (fun sys ->
        System.hv_fault_at sys ~target:`Primary ~kind:Hypervisor.Hv_crash
          (Time.of_ms 5);
        System.hv_fault_at sys ~target:`Primary ~kind:Hypervisor.Hv_crash
          (Time.of_ms 40))
  in
  check_clean ~ops:(Some 30_000) "budget" o;
  Alcotest.(check bool) "failover happened" true o.System.failover;
  let reboots, escalations, _, _ = recovery_stats sys in
  Alcotest.(check int) "first fault healed" 1 reboots;
  Alcotest.(check int) "second fault escalated" 1 escalations

(* The hang detector is out-of-band by construction (satellite audit:
   a hung hypervisor cannot service its own watchdog), so a hang on
   either node must be detected by the watchdog, not the panic path. *)
let watchdog_detects_hang () =
  let workload = Hft_guest.Workload.dhrystone ~iterations:20_000 in
  let obs = Obs.Recorder.create () in
  let sys, o =
    run_sys ~obs ~workload (fun sys ->
        System.hv_fault_at sys ~target:`Backup ~kind:Hypervisor.Hv_hang
          (Time.of_ms 7))
  in
  check_clean ~ops:(Some 20_000) "hang" o;
  let reboots, escalations, _, _ = recovery_stats sys in
  Alcotest.(check int) "one microreboot" 1 reboots;
  Alcotest.(check int) "no escalation" 0 escalations;
  match Obs.Span.recoveries (Obs.Recorder.entries obs) with
  | [ r ] ->
    Alcotest.(check (option string))
      "detected by the watchdog" (Some "watchdog") r.Obs.Span.detected_by;
    Alcotest.(check bool) "recovery window closed" true
      (r.Obs.Span.first_epoch_time <> None)
  | rs -> Alcotest.failf "expected 1 recovery record, got %d" (List.length rs)

(* Seeded corruption of the ack bookkeeping: the integrity audit
   catches it before the corrupt counters are used, and the recovery
   block restores the real ones.  Lockstep hashing then proves the
   guests never diverged. *)
let corruption_healed_invisibly () =
  let workload = Hft_guest.Workload.dhrystone ~iterations:20_000 in
  let sys, o =
    run_sys ~workload (fun sys ->
        let corrupt node target epoch =
          System.inject sys
            (System.Hv_fault (node, Hypervisor.Hv_corrupt target, epoch))
        in
        corrupt `Primary Hypervisor.C_acks 2;
        corrupt `Backup Hypervisor.C_rtx 4)
  in
  check_clean ~ops:(Some 20_000) "corruption" o;
  Alcotest.(check bool) "completed by the primary" true
    (o.System.completed_by = `Primary);
  let reboots, escalations, _, _ = recovery_stats sys in
  Alcotest.(check int) "both corruptions healed" 2 reboots;
  Alcotest.(check int) "no escalation" 0 escalations

(* Without the recovery extension every hypervisor fault is what the
   paper assumed: fail-stop, detected by the peer, handled by
   failover. *)
let without_recovery_faults_are_failstop () =
  let params = { base with Params.hv_recovery = false } in
  let workload = Hft_guest.Workload.disk_write ~ops:3 ~pad:20 ~spin:20 () in
  let sys, o =
    run_sys ~params ~workload (fun sys ->
        System.hv_fault_at sys ~target:`Primary ~kind:Hypervisor.Hv_hang
          (Time.of_ms 20))
  in
  check_clean ~ops:(Some 3) "failstop" o;
  Alcotest.(check bool) "failover happened" true o.System.failover;
  let reboots, _, _, _ = recovery_stats sys in
  Alcotest.(check int) "no microreboot" 0 reboots

(* The mixed-fault campaign: channel faults, processor crashes and
   hypervisor faults sampled together, every trial checked against the
   bare machine. *)
let mixed_campaign_smoke () =
  let open Hft_harness in
  let workload = Hft_guest.Workload.mixed ~compute:50 ~ops:6 () in
  let cfg =
    Campaign.default_config ~hv_faults:true ~workload ~trials:15 ~seed:2026 ()
  in
  let s = Campaign.run ~shrink_failures:false cfg in
  List.iter
    (fun (t : Campaign.trial) ->
      Alcotest.(check (list string))
        (Printf.sprintf "trial %d (%s)" t.Campaign.index
           (Campaign.flags t.Campaign.schedule))
        [] t.Campaign.violations)
    s.Campaign.trials;
  Alcotest.(check bool) "hypervisor faults were sampled" true
    (List.exists
       (fun (t : Campaign.trial) -> t.Campaign.hv_injected > 0)
       s.Campaign.trials);
  Alcotest.(check bool) "microreboots happened" true
    (List.exists
       (fun (t : Campaign.trial) -> t.Campaign.microreboots > 0)
       s.Campaign.trials);
  Alcotest.(check bool) "recovery windows were measured" true
    (List.exists
       (fun (t : Campaign.trial) -> t.Campaign.recovery_windows <> [])
       s.Campaign.trials)

(* The fault-spec grammar round-trips (it is both the campaign
   shrinker's replay format and the CLI argument format). *)
let fault_spec_round_trip () =
  let open Hft_harness in
  List.iter
    (fun s ->
      match Campaign.hv_fault_of_string s with
      | Error m -> Alcotest.failf "%s: %s" s m
      | Ok f ->
        Alcotest.(check string) "round-trip" s (Campaign.hv_fault_to_string f))
    [
      "primary:crash:3";
      "backup:hang:12";
      "primary:corrupt-epoch:1";
      "backup:corrupt-acks:7";
      "primary:corrupt-rtx:24";
    ];
  List.iter
    (fun s ->
      match Campaign.hv_fault_of_string s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted %S" s)
    [ "primary:crash"; "nobody:crash:3"; "primary:melt:3"; "primary:crash:0" ]

let () =
  Alcotest.run "hft_recovery"
    [
      ( "microreboot",
        [
          Alcotest.test_case "outstanding disk I/O reconciled" `Quick
            reboot_with_outstanding_io;
          Alcotest.test_case "mid-retransmission-chain reboot" `Quick
            reboot_mid_retransmission_chain;
          Alcotest.test_case "watchdog detects a hang" `Quick
            watchdog_detects_hang;
          Alcotest.test_case "corruption healed invisibly" `Quick
            corruption_healed_invisibly;
        ] );
      ( "escalation",
        [
          Alcotest.test_case "double fault escalates to failover" `Quick
            double_fault_escalates_to_failover;
          Alcotest.test_case "exhausted reboot budget escalates" `Quick
            budget_exhaustion_escalates;
          Alcotest.test_case "hv_recovery off means fail-stop" `Quick
            without_recovery_faults_are_failstop;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "mixed-fault campaign, zero violations" `Quick
            mixed_campaign_smoke;
          Alcotest.test_case "fault-spec grammar round-trips" `Quick
            fault_spec_round_trip;
        ] );
    ]
