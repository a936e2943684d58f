(* Failure injection: the failover protocol (P6/P7), the failure
   detector, outstanding-I/O handling with uncertain interrupts, the
   environment-consistency condition of section 2.2, the two-generals
   edge cases, and the reintegration extension. *)

open Hft_core
open Hft_guest

let small_params = { Params.default with Params.epoch_length = 512 }

(* Reference replay of the write workload to predict final disk
   contents: the i-th write puts tag i+1 in word 0 of block f(i). *)
let expected_final_blocks ~seed ~range ~ops =
  let s = ref seed in
  let final = Hashtbl.create 16 in
  for i = 0 to ops - 1 do
    s := Hft_machine.Word.add (Hft_machine.Word.mul !s 1103515245) 12345;
    let blk = Hft_machine.Word.shift_right_logical !s 8 mod range in
    Hashtbl.replace final blk (i + 1)
  done;
  final

let check_final_disk sys ~seed ~range ~ops =
  let final = expected_final_blocks ~seed ~range ~ops in
  Hashtbl.iter
    (fun blk tag ->
      let data = Hft_devices.Disk.read_block_now (System.disk sys) blk in
      Alcotest.(check int) (Printf.sprintf "block %d final tag" blk) tag data.(0))
    final

let crash_write_test ~name ~crash_ms ~ops =
  Alcotest.test_case name `Quick (fun () ->
      let w = Workload.disk_write ~ops ~pad:50 ~spin:50 () in
      let sys = System.create ~params:small_params ~workload:w () in
      System.crash_primary_at sys (Hft_sim.Time.of_ms crash_ms);
      let o = System.run sys in
      Alcotest.(check bool) "failover happened" true o.System.failover;
      Alcotest.(check bool) "completed by backup" true
        (o.System.completed_by = `Promoted_backup);
      Alcotest.(check int) "all ops" ops o.System.results.Guest_results.ops;
      Alcotest.(check bool) "disk consistent" true o.System.disk_consistent;
      Alcotest.(check (list int)) "lockstep" [] o.System.lockstep_mismatches;
      check_final_disk sys ~seed:0x1234 ~range:64 ~ops)

let failover_tests =
  let open Alcotest in
  [
    crash_write_test ~name:"crash early in the run" ~crash_ms:5 ~ops:5;
    crash_write_test ~name:"crash mid run" ~crash_ms:60 ~ops:5;
    crash_write_test ~name:"crash during later ops" ~crash_ms:100 ~ops:5;
    test_case "crash during cpu workload preserves results" `Quick (fun () ->
        let w = Workload.dhrystone ~iterations:50_000 in
        let bare = Bare.run (Bare.create ~workload:w ()) in
        let sys = System.create ~params:small_params ~workload:w () in
        System.crash_primary_on_epoch sys 30;
        let o = System.run sys in
        check bool "failover" true o.System.failover;
        check int "checksum preserved"
          bare.Bare.results.Guest_results.checksum
          o.System.results.Guest_results.checksum;
        check int "all iterations" 50_000 o.System.results.Guest_results.ops);
    test_case "uncertain interrupt synthesized for outstanding io (P7)" `Quick
      (fun () ->
        (* crash while a write is on the wire to the disk: the paper's
           case (ii).  26ms write issued after ~1ms of driver work;
           crash at 10ms lands mid-transfer. *)
        let w = Workload.disk_write ~ops:3 ~pad:50 ~spin:50 () in
        let sys = System.create ~params:small_params ~workload:w () in
        System.crash_primary_at sys (Hft_sim.Time.of_ms 10);
        let o = System.run sys in
        check bool "failover" true o.System.failover;
        let st = Hypervisor.stats (System.backup sys) in
        check bool "P7 fired" true (st.Stats.uncertain_synthesized > 0);
        check bool "driver retried" true
          (o.System.results.Guest_results.retries > 0);
        check bool "disk consistent" true o.System.disk_consistent;
        check_final_disk sys ~seed:0x1234 ~range:64 ~ops:3);
    test_case "write performed but completion lost: retry is tolerated" `Quick
      (fun () ->
        (* crash just before the 26ms completion of the first write:
           the disk performed it, the interrupt dies with the primary,
           the backup retries (IO2 repetition tolerance) *)
        let w = Workload.disk_write ~ops:2 ~pad:50 ~spin:50 () in
        let sys = System.create ~params:small_params ~workload:w () in
        System.crash_primary_at sys (Hft_sim.Time.of_us 27_000);
        let o = System.run sys in
        check bool "failover" true o.System.failover;
        check bool "disk consistent" true o.System.disk_consistent;
        check int "ops" 2 o.System.results.Guest_results.ops;
        check_final_disk sys ~seed:0x1234 ~range:64 ~ops:2;
        (* the duplicate must come from the other port *)
        let log = Hft_devices.Disk.Log.entries (System.disk sys) in
        check bool "both ports appear" true
          (List.exists (fun e -> e.Hft_devices.Disk.Log.port = 1) log));
    test_case "failover with two operations in flight (P7 x2)" `Quick
      (fun () ->
        (* both writes of a pair are outstanding when the primary
           dies: the backup synthesizes an uncertain completion for
           each, and the guest retries the pair *)
        let w = Workload.queued_io ~pairs:2 in
        let sys = System.create ~params:small_params ~workload:w () in
        (* first pair issued after ~30us; both in flight until 26ms *)
        System.crash_primary_at sys (Hft_sim.Time.of_ms 10);
        let o = System.run sys in
        check bool "failover" true o.System.failover;
        check int "pairs completed" 2 o.System.results.Guest_results.ops;
        check bool "disk consistent" true o.System.disk_consistent;
        let st = Hypervisor.stats (System.backup sys) in
        check int "two uncertains synthesized" 2
          st.Stats.uncertain_synthesized;
        check bool "guest retried the pair" true
          (o.System.results.Guest_results.retries > 0));
    test_case "console output across failover loses nothing before the crash"
      `Quick (fun () ->
        let text = "abcdefghijklmnopqrstuvwxyz" in
        let w = Workload.console_hello ~text in
        let params = { small_params with Params.epoch_length = 16 } in
        let sys = System.create ~params ~workload:w () in
        System.crash_primary_at sys (Hft_sim.Time.of_us 300);
        let o = System.run sys in
        (* every prefix the primary printed is preserved; the backup
           continues the stream (possibly duplicating characters of
           the failover epoch, which the paper accepts for devices
           without completion interrupts) *)
        check bool "is printed" true (String.length o.System.console > 0);
        let sorted_unique s =
          List.sort_uniq Char.compare (List.of_seq (String.to_seq s))
        in
        check bool "all characters eventually appear" true
          (sorted_unique o.System.console = sorted_unique text));
    test_case "detector waits out in-flight messages" `Quick (fun () ->
        (* the backup must consume everything the primary sent before
           promoting: tags of relayed epochs never exceed what the
           backup processes *)
        let w = Workload.dhrystone ~iterations:20_000 in
        let sys = System.create ~params:small_params ~workload:w () in
        System.crash_primary_at sys (Hft_sim.Time.of_ms 20);
        let o = System.run sys in
        check bool "completes" true (o.System.results.Guest_results.ops = 20_000));
    test_case "failover works under the revised protocol too" `Quick (fun () ->
        let w = Workload.disk_write ~ops:4 ~pad:50 ~spin:50 () in
        let params = Params.with_protocol small_params Params.Revised in
        let sys = System.create ~params ~workload:w () in
        System.crash_primary_at sys (Hft_sim.Time.of_ms 40);
        let o = System.run sys in
        check bool "failover" true o.System.failover;
        check int "ops" 4 o.System.results.Guest_results.ops;
        check bool "disk consistent" true o.System.disk_consistent;
        check (list int) "lockstep" [] o.System.lockstep_mismatches;
        check_final_disk sys ~seed:0x1234 ~range:64 ~ops:4);
    test_case "backup death: primary detects and continues solo" `Quick
      (fun () ->
        let w = Workload.dhrystone ~iterations:20_000 in
        let sys = System.create ~params:small_params ~workload:w () in
        (* crash the backup by reaching in directly *)
        ignore
          (Hft_sim.Engine.at (System.engine sys) (Hft_sim.Time.of_ms 5)
             (fun () -> Hypervisor.crash (System.backup sys)));
        let o = System.run sys in
        check bool "primary finishes" true (o.System.completed_by = `Primary);
        check int "all iterations" 20_000 o.System.results.Guest_results.ops);
    test_case "no crash means no failover" `Quick (fun () ->
        let w = Workload.dhrystone ~iterations:1000 in
        let sys = System.create ~params:small_params ~workload:w () in
        let o = System.run sys in
        check bool "no failover" false o.System.failover;
        ignore sys);
    test_case "a crash after the primary halts is no failover" `Quick
      (fun () ->
        let w = Workload.dhrystone ~iterations:1000 in
        let sys = System.create ~params:small_params ~workload:w () in
        let clean = System.run sys in
        let sys = System.create ~params:small_params ~workload:w () in
        System.crash_primary_at sys (Hft_sim.Time.of_sec 100);
        let o = System.run sys in
        check bool "completed by the primary" true
          (o.System.completed_by = `Primary);
        check bool "no failover" false o.System.failover;
        check int "halted when the crash-free run did"
          (Hft_sim.Time.to_ns clean.System.time)
          (Hft_sim.Time.to_ns o.System.time));
    test_case "a promotion's boundary time is counted" `Quick (fun () ->
        (* with free sends and deliveries every boundary costs exactly
           [hv_epoch_local], whether the node ends its epoch as backup,
           by promotion or as primary *)
        let params =
          {
            small_params with
            Params.hv_send_setup = Hft_sim.Time.zero;
            hv_intr_deliver = Hft_sim.Time.zero;
          }
        in
        let w = Workload.dhrystone ~iterations:20_000 in
        let sys = System.create ~params ~workload:w () in
        System.crash_primary_on_epoch sys 30;
        let o = System.run sys in
        let st = o.System.backup_stats in
        check bool "failover" true o.System.failover;
        check int "boundary time, ns"
          (Hft_sim.Time.to_ns
             (Hft_sim.Time.scale params.Params.hv_epoch_local st.Stats.epochs))
          (Hft_sim.Time.to_ns st.Stats.boundary));
  ]

let timer_failover_tests =
  let open Alcotest in
  [
    test_case "timer-paced server runs in lockstep" `Quick (fun () ->
        let w = Workload.server ~requests:4 ~period_us:3000 in
        let sys = System.create ~params:small_params ~workload:w () in
        let o = System.run sys in
        check int "requests served" 4 o.System.results.Guest_results.ops;
        check (list int) "lockstep" [] o.System.lockstep_mismatches;
        check bool "disk consistent" true o.System.disk_consistent;
        ignore sys);
    test_case "timer-paced server survives failover" `Quick (fun () ->
        let w = Workload.server ~requests:4 ~period_us:3000 in
        let sys = System.create ~params:small_params ~workload:w () in
        System.crash_primary_at sys (Hft_sim.Time.of_ms 40);
        let o = System.run sys in
        check bool "failover" true o.System.failover;
        check int "all requests served" 4 o.System.results.Guest_results.ops;
        check bool "disk consistent" true o.System.disk_consistent);
    test_case "virtual timer keeps ticking after promotion" `Quick (fun () ->
        let w = Workload.timer_tick ~period_us:400 ~ticks:20 in
        let sys = System.create ~params:small_params ~workload:w () in
        System.crash_primary_at sys (Hft_sim.Time.of_ms 3);
        let o = System.run sys in
        check bool "failover" true o.System.failover;
        check int "all ticks" 20 o.System.results.Guest_results.ticks);
    test_case "clock reads continue monotonically after promotion" `Quick
      (fun () ->
        let w = Workload.clock_sampler ~samples:400 in
        let sys = System.create ~params:small_params ~workload:w () in
        System.crash_primary_at sys (Hft_sim.Time.of_ms 5);
        let o = System.run sys in
        check bool "failover" true o.System.failover;
        check int "all samples" 400 o.System.results.Guest_results.ops;
        (* the accumulated deltas are a sum of non-negative numbers in
           32-bit arithmetic; monotonicity means no giant wrapped
           value appears *)
        check bool "no wrap-around" true
          (o.System.results.Guest_results.checksum < 0x1000_0000));
  ]

let reintegration_tests =
  let open Alcotest in
  [
    test_case "failed primary reintegrates as new backup" `Quick (fun () ->
        let w = Workload.dhrystone ~iterations:60_000 in
        let sys = System.create ~params:small_params ~workload:w () in
        System.crash_primary_at sys (Hft_sim.Time.of_ms 5);
        System.reintegrate_after_failover sys ~delay:(Hft_sim.Time.of_ms 5);
        let o = System.run sys in
        check bool "failover" true o.System.failover;
        check int "all iterations" 60_000 o.System.results.Guest_results.ops;
        (* after reintegration the revived node runs as backup and
           should have made progress *)
        check bool "revived node executed" true
          (Hypervisor.halted (System.primary sys)
          || Hypervisor.epoch (System.primary sys) > 0));
    test_case "reintegrated pair stays in lockstep" `Quick (fun () ->
        let w = Workload.dhrystone ~iterations:60_000 in
        let sys = System.create ~params:small_params ~workload:w () in
        System.crash_primary_at sys (Hft_sim.Time.of_ms 5);
        System.reintegrate_after_failover sys ~delay:(Hft_sim.Time.of_ms 5);
        let o = System.run sys in
        (* hashes recorded after reintegration must pair up cleanly *)
        check (list int) "no mismatches" [] o.System.lockstep_mismatches;
        check bool "epochs compared after rejoin" true
          (o.System.epochs_compared > 0));
    test_case "reintegration during io workload" `Quick (fun () ->
        let w = Workload.disk_write ~ops:6 ~pad:50 ~spin:50 () in
        let sys = System.create ~params:small_params ~workload:w () in
        System.crash_primary_at sys (Hft_sim.Time.of_ms 20);
        System.reintegrate_after_failover sys ~delay:(Hft_sim.Time.of_ms 10);
        let o = System.run sys in
        check int "ops" 6 o.System.results.Guest_results.ops;
        check bool "disk consistent" true o.System.disk_consistent;
        check_final_disk sys ~seed:0x1234 ~range:64 ~ops:6);
    test_case "pinned reintegration run: traffic in both directions" `Quick
      (fun () ->
        (* `hftsim run -w write --crash 40 --reintegrate 10`.  Each node
           sends everything on its own channel, so the two channels'
           counts cover every message of the run.  After reintegration
           the revived ex-primary echoes each reliable message it
           receives (1059 tme + 1059 end + 24 intr); deleting the echo
           re-pins [echoed] to 0 and the channel counts with it.  Every
           recorded event — time, source, tag and fields — is folded
           into one digest, so the run's whole timeline (what
           `--trace-out -` prints) is pinned too. *)
        let after = ref false and echoed = ref 0 in
        let events = ref 0 and digest = ref Hft_sim.Fnv.basis in
        let field h (name, v) =
          let h = Hft_sim.Fnv.string h name in
          match v with
          | Hft_obs.Event.Int i -> Hft_sim.Fnv.int h i
          | Hft_obs.Event.Str s -> Hft_sim.Fnv.string h s
          | Hft_obs.Event.Bool b -> Hft_sim.Fnv.bool h b
        in
        let tap (e : Hft_obs.Recorder.entry) =
          let ev = e.Hft_obs.Recorder.ev in
          incr events;
          digest :=
            Hft_sim.Fnv.list field
              (Hft_sim.Fnv.string
                 (Hft_sim.Fnv.string
                    (Hft_sim.Fnv.int !digest
                       (Hft_sim.Time.to_ns e.Hft_obs.Recorder.time))
                    e.Hft_obs.Recorder.source)
                 (Hft_obs.Event.tag ev))
              (Hft_obs.Event.fields ev);
          match ev with
          | Hft_obs.Event.Reintegration_done _ -> after := true
          | Hft_obs.Event.Msg_send _
            when !after && e.Hft_obs.Recorder.source = "primary" ->
            incr echoed
          | _ -> ()
        in
        let obs = Hft_obs.Recorder.create ~capacity:1 ~tap () in
        let sys =
          System.create ~obs ~workload:(Workload.disk_write ~ops:24 ()) ()
        in
        System.crash_primary_at sys (Hft_sim.Time.of_ms 40);
        System.reintegrate_after_failover sys ~delay:(Hft_sim.Time.of_ms 10);
        let o = System.run sys in
        let traffic ch =
          [ Hft_net.Channel.messages_sent ch; Hft_net.Channel.bytes_sent ch ]
        in
        check (list int) "primary->backup messages, bytes" [ 4383; 149312 ]
          (traffic (System.channel_to_backup sys));
        check (list int) "backup->primary messages, bytes" [ 4383; 411072 ]
          (traffic (System.channel_to_primary sys));
        check (list int) "outcome reports primary->backup" [ 4383; 149312 ]
          [ o.System.messages_sent; o.System.bytes_sent ];
        check int "sent by the revived node after reintegration" 2142
          !echoed;
        check (pair int int) "events recorded, their digest"
          (33_151, 4_611_388_733_651_224_038)
          (!events, !digest));
  ]

(* Property: crash at a random time, the workload still completes with
   the right answer and a single-processor-consistent device history. *)
let random_crash_prop =
  QCheck.Test.make ~name:"failover is correct at any crash time" ~count:25
    QCheck.(int_range 100 120_000)
    (fun crash_us ->
      let ops = 3 in
      let w = Workload.disk_write ~ops ~pad:30 ~spin:30 () in
      let sys = System.create ~params:small_params ~workload:w () in
      System.crash_primary_at sys (Hft_sim.Time.of_us crash_us);
      let o = System.run sys in
      let final = expected_final_blocks ~seed:0x1234 ~range:64 ~ops in
      let disk_ok =
        Hashtbl.fold
          (fun blk tag acc ->
            acc
            && (Hft_devices.Disk.read_block_now (System.disk sys) blk).(0) = tag)
          final true
      in
      o.System.results.Guest_results.ops = ops
      && o.System.disk_consistent && disk_ok)

let random_crash_cpu_prop =
  QCheck.Test.make ~name:"cpu results survive any crash time" ~count:15
    QCheck.(int_range 100 50_000)
    (fun crash_us ->
      let w = Workload.dhrystone ~iterations:10_000 in
      let bare = Bare.run (Bare.create ~workload:w ()) in
      let sys = System.create ~params:small_params ~workload:w () in
      System.crash_primary_at sys (Hft_sim.Time.of_us crash_us);
      let o = System.run sys in
      o.System.results.Guest_results.checksum
      = bare.Bare.results.Guest_results.checksum)

(* Transient device faults under replication: the device returns
   uncertain completions (IO2); the relayed copy carries the same
   status, both replicas deliver it at the same boundary, and the
   driver's retries stay in lockstep. *)
let device_fault_tests =
  let open Alcotest in
  let faulty_params rate =
    {
      small_params with
      Params.disk =
        { Hft_devices.Disk.default_params with Hft_devices.Disk.fault_rate = rate };
    }
  in
  [
    test_case "uncertain completions relay in lockstep" `Quick (fun () ->
        let w = Workload.disk_write ~ops:6 ~pad:30 ~spin:30 () in
        let sys = System.create ~params:(faulty_params 0.3) ~workload:w () in
        let o = System.run sys in
        check int "all ops" 6 o.System.results.Guest_results.ops;
        check bool "retries happened" true
          (o.System.results.Guest_results.retries > 0);
        check (list int) "lockstep" [] o.System.lockstep_mismatches;
        check bool "disk consistent" true o.System.disk_consistent;
        check_final_disk sys ~seed:0x1234 ~range:64 ~ops:6);
    test_case "device faults and a crash combine correctly" `Quick (fun () ->
        let w = Workload.disk_write ~ops:4 ~pad:30 ~spin:30 () in
        let sys = System.create ~params:(faulty_params 0.25) ~workload:w () in
        System.crash_primary_at sys (Hft_sim.Time.of_ms 50);
        let o = System.run sys in
        check bool "failover" true o.System.failover;
        check int "all ops" 4 o.System.results.Guest_results.ops;
        check bool "disk consistent" true o.System.disk_consistent;
        check_final_disk sys ~seed:0x1234 ~range:64 ~ops:4);
    test_case "reads that fault are retried and re-fetch" `Quick (fun () ->
        let w = Workload.disk_read ~ops:5 ~pad:30 ~spin:30 () in
        let sys = System.create ~params:(faulty_params 0.3) ~workload:w () in
        let o = System.run sys in
        check int "all ops" 5 o.System.results.Guest_results.ops;
        check bool "retries happened" true
          (o.System.results.Guest_results.retries > 0);
        check (list int) "lockstep" [] o.System.lockstep_mismatches);
  ]

(* The backup's execution lags the primary's by at most about one
   epoch plus message latency — protocol structure, not an accident. *)
let lag_tests =
  let open Alcotest in
  [
    test_case "backup finishes within an epoch of the primary" `Quick
      (fun () ->
        let w = Workload.dhrystone ~iterations:20_000 in
        let sys = System.create ~params:small_params ~workload:w () in
        let o = System.run sys in
        ignore o;
        let p = Hypervisor.halt_time (System.primary sys) in
        let b = Hypervisor.halt_time (System.backup sys) in
        check bool "backup later" true Hft_sim.Time.(p <= b);
        let lag = Hft_sim.Time.to_us (Hft_sim.Time.diff b p) in
        (* one 512-instruction epoch is ~10us of work plus ~450us of
           boundary processing and ~200us of link latency *)
        check bool "lag bounded" true (lag < 2_000.0));
  ]

(* Violating the model's assumptions: the paper assumes fail-stop
   processors and reliable FIFO channels (failure is detected only
   after the last sent message arrives).  With lossy channels that
   model is unattainable (the two-generals problem, section 2.2);
   these tests document what the implementation does — and that the
   environment-consistency checker catches the damage when it
   matters.  Retransmission is switched off so the bare protocol's
   behaviour stays observable; the hardened runs follow below. *)
let unhardened = Params.with_retransmit small_params false

let assumption_violation_tests =
  let open Alcotest in
  [
    test_case "lost coordination message: pure-CPU work still completes"
      `Quick (fun () ->
        (* drop one primary-to-backup message: the backup stalls on
           that epoch, eventually suspects the primary and promotes;
           the blocked primary suspects the backup and continues solo.
           The split brain is harmless without environment output, and
           the deterministic guest even stays in lockstep. *)
        let w = Workload.dhrystone ~iterations:30_000 in
        let sys = System.create ~params:unhardened ~workload:w () in
        Hft_net.Channel.set_loss_plan (System.channel_to_backup sys)
          (fun n -> n = 50);
        let o = System.run sys in
        check bool "primary completes" true (o.System.completed_by = `Primary);
        check int "all iterations" 30_000 o.System.results.Guest_results.ops);
    test_case "lost acknowledgement with io: the checker flags split brain"
      `Quick (fun () ->
        (* drop one backup-to-primary acknowledgement: the primary's
           boundary wait times out, it writes on alone; the starved
           backup later promotes and re-issues the same writes.  The
           environment sees two processors — exactly what the
           single-processor-consistency checker exists to catch. *)
        let w = Workload.disk_write ~ops:3 ~pad:30 ~spin:30 () in
        let sys = System.create ~params:unhardened ~workload:w () in
        Hft_net.Channel.set_loss_plan (System.channel_to_primary sys)
          (fun n -> n = 4);
        let o = System.run sys in
        check int "primary finished its ops" 3
          o.System.results.Guest_results.ops;
        let ports =
          List.sort_uniq Int.compare
            (List.map
               (fun e -> e.Hft_devices.Disk.Log.port)
               (Hft_devices.Disk.Log.entries (System.disk sys)))
        in
        if List.length ports > 1 then
          check bool "split brain detected by the checker" false
            o.System.disk_consistent);
    test_case "a dropped ack is absorbed when traffic continues" `Quick
      (fun () ->
        (* cumulative acknowledgements: with long epochs, hundreds of
           forwarded clock values (and their acks) flow before the
           first boundary wait, so dropping one early ack is covered
           by any later one and nothing is lost *)
        let w = Workload.clock_sampler ~samples:500 in
        let params = Params.with_epoch_length unhardened 20_000 in
        let sys = System.create ~params ~workload:w () in
        Hft_net.Channel.set_loss_plan (System.channel_to_primary sys)
          (fun n -> n = 5);
        let o = System.run sys in
        check bool "no failover" false o.System.failover;
        check int "all samples" 500 o.System.results.Guest_results.ops;
        check (list int) "still in lockstep" [] o.System.lockstep_mismatches);
  ]

(* The same channel abuse with the hardening left on: checksums turn
   corruption into loss, and the ack-driven retransmission queue turns
   loss into latency, so the paper's reliable-FIFO assumption is
   re-established underneath the unchanged protocol. *)
let hardened_channel_tests =
  let open Alcotest in
  let total_retransmits sys =
    (Hypervisor.stats (System.primary sys)).Hft_core.Stats.retransmits
    + (Hypervisor.stats (System.backup sys)).Hft_core.Stats.retransmits
  in
  [
    test_case "a lost coordination message is retransmitted, not fatal"
      `Quick (fun () ->
        (* the same drop that splits the brain in the unhardened run
           above: now the sender's timer re-offers it and replication
           simply continues *)
        let w = Workload.dhrystone ~iterations:30_000 in
        let sys = System.create ~params:small_params ~workload:w () in
        Hft_net.Channel.set_loss_plan (System.channel_to_backup sys)
          (fun n -> n = 50);
        let o = System.run sys in
        check bool "no failover" false o.System.failover;
        check int "all iterations" 30_000 o.System.results.Guest_results.ops;
        check (list int) "lockstep clean" [] o.System.lockstep_mismatches;
        check bool "the loss was healed by retransmission" true
          (total_retransmits sys > 0));
    test_case "a lost acknowledgement is retransmitted: one writer only"
      `Quick (fun () ->
        let w = Workload.disk_write ~ops:3 ~pad:30 ~spin:30 () in
        let sys = System.create ~params:small_params ~workload:w () in
        Hft_net.Channel.set_loss_plan (System.channel_to_primary sys)
          (fun n -> n = 4);
        let o = System.run sys in
        check bool "no failover" false o.System.failover;
        check int "all writes" 3 o.System.results.Guest_results.ops;
        check bool "disk consistent" true o.System.disk_consistent;
        let ports =
          List.sort_uniq Int.compare
            (List.map
               (fun e -> e.Hft_devices.Disk.Log.port)
               (Hft_devices.Disk.Log.entries (System.disk sys)))
        in
        check int "single writer" 1 (List.length ports));
    test_case "sustained random loss and corruption are absorbed" `Quick
      (fun () ->
        let w = Workload.mixed ~compute:60 ~ops:6 () in
        let sys = System.create ~params:small_params ~workload:w () in
        System.install_fault_model sys ~rng:(Hft_sim.Rng.create 2024)
          {
            Hft_net.Channel.loss = 0.15;
            duplicate = 0.1;
            corrupt = 0.05;
            delay_us = 300;
          };
        let o = System.run sys in
        check bool "no failover" false o.System.failover;
        check (list int) "lockstep clean" [] o.System.lockstep_mismatches;
        check bool "disk consistent" true o.System.disk_consistent;
        let st p = Hypervisor.stats p in
        let b = st (System.backup sys) in
        check bool "corruption was detected" true
          (b.Hft_core.Stats.corruptions_detected
           + (st (System.primary sys)).Hft_core.Stats.corruptions_detected
          > 0);
        check bool "faults were actually injected" true
          (System.faults_injected sys > 0));
    test_case "reintegration completes while the channel drops messages"
      `Quick (fun () ->
        (* satellite of the chaos work: the snapshot offer, the
           streamed state and the resumed replication all cross a
           lossy channel; retransmission must carry each of them *)
        let w = Workload.dhrystone ~iterations:60_000 in
        let sys = System.create ~params:small_params ~workload:w () in
        System.install_fault_model sys ~rng:(Hft_sim.Rng.create 77)
          { Hft_net.Channel.fair with Hft_net.Channel.loss = 0.15 };
        System.crash_primary_at sys (Hft_sim.Time.of_ms 5);
        System.reintegrate_after_failover sys ~delay:(Hft_sim.Time.of_ms 5);
        let o = System.run sys in
        check bool "failover" true o.System.failover;
        check int "all iterations" 60_000 o.System.results.Guest_results.ops;
        check bool "revived node executed" true
          (Hypervisor.halted (System.primary sys)
          || Hypervisor.epoch (System.primary sys) > 0);
        check (list int) "post-reintegration lockstep clean" []
          o.System.lockstep_mismatches;
        check bool "loss hit the reintegration traffic" true
          (total_retransmits sys > 0));
    test_case "reintegration survives loss with jitter and duplication"
      `Quick (fun () ->
        let w = Workload.disk_write ~ops:4 ~pad:30 ~spin:40 () in
        let sys = System.create ~params:small_params ~workload:w () in
        System.install_fault_model sys ~rng:(Hft_sim.Rng.create 4242)
          {
            Hft_net.Channel.loss = 0.1;
            duplicate = 0.1;
            corrupt = 0.05;
            delay_us = 200;
          };
        System.crash_primary_at sys (Hft_sim.Time.of_ms 5);
        System.reintegrate_after_failover sys ~delay:(Hft_sim.Time.of_ms 5);
        let o = System.run sys in
        check bool "failover" true o.System.failover;
        check int "all writes" 4 o.System.results.Guest_results.ops;
        check bool "disk consistent" true o.System.disk_consistent);
  ]

let () =
  Alcotest.run "hft_failover"
    [
      ("failover", failover_tests);
      ("clocks", timer_failover_tests);
      ("reintegration", reintegration_tests);
      ("device-faults", device_fault_tests);
      ("backup-lag", lag_tests);
      ("assumption-violations", assumption_violation_tests);
      ("hardened-channel", hardened_channel_tests);
      ( "properties",
        [
          QCheck_alcotest.to_alcotest random_crash_prop;
          QCheck_alcotest.to_alcotest random_crash_cpu_prop;
        ] );
    ]
