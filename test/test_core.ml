(* Tests of the hypervisor and the replica-coordination protocol in
   failure-free operation: lockstep determinism (identical instruction
   streams with identical effects), environment-instruction
   forwarding, I/O suppression, the privilege-mapping quirks of
   section 3.1, the TLB story of section 3.2, and the original/revised
   protocol variants. *)

open Hft_core
open Hft_guest

let small_params =
  { Params.default with Params.epoch_length = 512 }

let run_sys ?(params = small_params) w =
  let sys = System.create ~params ~workload:w () in
  (sys, System.run sys)

let check_lockstep name (o : System.outcome) =
  Alcotest.(check (list int)) (name ^ ": no divergence") []
    o.System.lockstep_mismatches;
  Alcotest.(check bool) (name ^ ": epochs compared") true
    (o.System.epochs_compared > 0)

let lockstep_tests =
  let open Alcotest in
  [
    test_case "cpu workload runs in lockstep" `Quick (fun () ->
        let _, o = run_sys (Workload.dhrystone ~iterations:3000) in
        check_lockstep "cpu" o;
        check int "ops" 3000 o.System.results.Guest_results.ops;
        check bool "primary completed" true (o.System.completed_by = `Primary));
    test_case "replicated results equal bare results" `Quick (fun () ->
        let w = Workload.dhrystone ~iterations:1500 in
        let bare = Bare.run (Bare.create ~workload:w ()) in
        let _, o = run_sys w in
        check int "checksum" bare.Bare.results.Guest_results.checksum
          o.System.results.Guest_results.checksum;
        check int "syscalls" bare.Bare.results.Guest_results.syscalls
          o.System.results.Guest_results.syscalls);
    test_case "backup reaches the same final state" `Quick (fun () ->
        let sys, o = run_sys (Workload.dhrystone ~iterations:1000) in
        check_lockstep "cpu" o;
        check bool "backup halted" true (Hypervisor.halted (System.backup sys));
        check int "final state hash"
          (Hypervisor.vm_state_hash (System.primary sys))
          (Hypervisor.vm_state_hash (System.backup sys)));
    test_case "disk write workload in lockstep" `Quick (fun () ->
        let sys, o = run_sys (Workload.disk_write ~ops:4 ~pad:20 ~spin:20 ()) in
        check_lockstep "write" o;
        check bool "disk consistent" true o.System.disk_consistent;
        check int "backup suppressed all io" 4
          (Hypervisor.stats (System.backup sys)).Stats.io_suppressed;
        check int "primary submitted all io" 4
          (Hypervisor.stats (System.primary sys)).Stats.io_submitted);
    test_case "disk read DMA applied identically at both replicas" `Quick
      (fun () ->
        let sys, o = run_sys (Workload.disk_read ~ops:4 ~pad:20 ~spin:20 ()) in
        check_lockstep "read" o;
        check int "final hash equal"
          (Hypervisor.vm_state_hash (System.primary sys))
          (Hypervisor.vm_state_hash (System.backup sys));
        check bool "checksum nonzero" true
          (o.System.results.Guest_results.checksum <> 0));
    test_case "timer interrupts delivered at the same epochs" `Quick (fun () ->
        let _, o = run_sys (Workload.timer_tick ~period_us:400 ~ticks:6) in
        check_lockstep "timer" o;
        check int "ticks" 6 o.System.results.Guest_results.ticks);
    test_case "clock values forwarded, not read locally" `Quick (fun () ->
        (* the backup's clock is skewed; lockstep holds only because
           Rdtod results are forwarded from the primary *)
        let _, o = run_sys (Workload.clock_sampler ~samples:300) in
        check_lockstep "clock" o);
    test_case "queued io: two outstanding operations stay ordered" `Quick
      (fun () ->
        let w = Workload.queued_io ~pairs:3 in
        let sys, o = run_sys ~params:Params.default w in
        check int "pairs" 3 o.System.results.Guest_results.ops;
        check (list int) "lockstep" [] o.System.lockstep_mismatches;
        check bool "disk consistent" true o.System.disk_consistent;
        check int "six ops submitted" 6
          (Hypervisor.stats (System.primary sys)).Stats.io_submitted;
        (* device completions arrive in submission order *)
        let ids =
          List.map
            (fun e -> e.Hft_devices.Disk.Log.op_id)
            (Hft_devices.Disk.Log.entries (System.disk sys))
        in
        check (list int) "FIFO" (List.sort Int.compare ids) ids;
        (* bare equivalence *)
        let b = Bare.create ~workload:w () in
        let bo = Bare.run b in
        check int "bare pairs" 3 bo.Bare.results.Guest_results.ops);
    test_case "masked critical sections hold interrupts pending" `Quick
      (fun () ->
        (* the completion arrives while the guest has interrupts off;
           delivery must wait for the unmask, identically at both
           replicas, and nothing may be lost *)
        let w = Workload.masked_io ~ops:2 in
        let sys, o = run_sys ~params:Params.default w in
        check int "ops" 2 o.System.results.Guest_results.ops;
        check (list int) "lockstep" [] o.System.lockstep_mismatches;
        check bool "disk consistent" true o.System.disk_consistent;
        check int "interrupts delivered" 2
          (Hypervisor.stats (System.primary sys)).Stats.interrupts_delivered;
        (* same on bare hardware *)
        let b = Bare.run (Bare.create ~workload:w ()) in
        check int "bare ops" 2 b.Bare.results.Guest_results.ops);
    test_case "mixed workload in lockstep" `Quick (fun () ->
        let _, o = run_sys (Workload.mixed ~compute:40 ~ops:3 ()) in
        check_lockstep "mixed" o;
        check bool "disk consistent" true o.System.disk_consistent);
  ]

(* Interval-timer reads (Rdtmr) are environment instructions too: the
   remaining time depends on the primary's clock and must be forwarded
   like time-of-day reads. *)
let rdtmr_workload =
  let open Hft_machine.Asm in
  let main =
    [
      comment "arm a long interval, then sample the remaining time";
      ldi r1 500000;
      wrtmr r1;
      ldi r2 0;
      ldi r3 0;
      label "rt_loop";
      ldi r4 40;
      bge r2 r4 (lbl "rt_done");
      rdtmr r5;
      add r3 r3 r5;
      comment "spread the samples out";
      ldi r6 0;
      label "rt_spin";
      addi r6 r6 1;
      muli r7 r6 3;
      ldi r8 50;
      blt r6 r8 (lbl "rt_spin");
      addi r2 r2 1;
      jmp (lbl "rt_loop");
      label "rt_done";
      ldi r1 0;
      wrtmr r1;
      st r3 r0 Layout.res_checksum;
      st r2 r0 Layout.res_ops;
      halt;
    ]
  in
  {
    Workload.name = "rdtmr";
    description = "interval-timer reads forwarded to the backup";
    program = Kernel.program ~main;
    config = [];
    instructions_per_iteration = 160;
  }

let timer_env_tests =
  let open Alcotest in
  [
    test_case "rdtmr values are forwarded, lockstep holds" `Quick (fun () ->
        let sys, o = run_sys rdtmr_workload in
        check int "samples" 40 o.System.results.Guest_results.ops;
        check (list int) "lockstep" [] o.System.lockstep_mismatches;
        check bool "values nonzero" true
          (o.System.results.Guest_results.checksum > 0);
        check int "final hash equal"
          (Hypervisor.vm_state_hash (System.primary sys))
          (Hypervisor.vm_state_hash (System.backup sys)));
    test_case "wrtmr of zero cancels on both replicas" `Quick (fun () ->
        (* the workload cancels its timer at the end: no tick must
           ever be delivered *)
        let _, o = run_sys rdtmr_workload in
        check int "no ticks" 0 o.System.results.Guest_results.ticks);
    test_case "rdtmr on the bare machine reads the real device" `Quick
      (fun () ->
        let b = Bare.run (Bare.create ~workload:rdtmr_workload ()) in
        check int "samples" 40 b.Bare.results.Guest_results.ops;
        check bool "values nonzero" true
          (b.Bare.results.Guest_results.checksum > 0));
  ]

let suppression_tests =
  let open Alcotest in
  [
    test_case "console output is produced exactly once" `Quick (fun () ->
        let _, o = run_sys (Workload.console_hello ~text:"exactly-once") in
        check string "console" "exactly-once" o.System.console);
    test_case "backup issues no disk operations" `Quick (fun () ->
        let sys, o = run_sys (Workload.disk_write ~ops:3 ~pad:10 ~spin:10 ()) in
        ignore o;
        let log = Hft_devices.Disk.Log.entries (System.disk sys) in
        check bool "only port 0" true
          (List.for_all (fun e -> e.Hft_devices.Disk.Log.port = 0) log));
    test_case "backup counts suppressed environment output" `Quick (fun () ->
        let sys, o = run_sys (Workload.console_hello ~text:"abc") in
        ignore o;
        (* both executed the same Out instructions *)
        check bool "backup simulated them" true
          ((Hypervisor.stats (System.backup sys)).Stats.simulated > 0));
  ]

let section31_tests =
  let open Alcotest in
  [
    test_case "probe reveals real privilege 1 under the hypervisor" `Quick
      (fun () ->
        let _, o = run_sys Workload.probe_priv in
        check int "probe sees 1" 1 o.System.results.Guest_results.scratch);
    test_case "virtualised status register shows virtual privilege 0" `Quick
      (fun () ->
        let _, o = run_sys Workload.probe_priv in
        check int "mfcr status" 0 o.System.results.Guest_results.checksum);
    test_case "branch-and-link deposits real privilege in link" `Quick
      (fun () ->
        let _, o = run_sys Workload.probe_priv in
        check int "link low bits" 1 o.System.results.Guest_results.ops);
  ]

let tlb_tests =
  let open Alcotest in
  let random_tlb_params tlb_mode =
    {
      small_params with
      Params.tlb_mode;
      Params.cpu_config =
        {
          Hft_machine.Cpu.default_config with
          Hft_machine.Cpu.tlb_entries = 4;
          Hft_machine.Cpu.tlb_policy =
            Hft_machine.Tlb.Random (Hft_sim.Rng.create 0);
        };
    }
  in
  (* touch many pages so a 4-entry TLB keeps missing: stores sweep 16
     pages round-robin *)
  let paging_workload =
    let open Hft_machine.Asm in
    let main =
      [
        ldi r1 3000;
        ldi r2 0;
        label "pg_loop";
        bge r2 r1 (lbl "pg_done");
        andi r3 r2 15;
        slli r3 r3 10;
        addi r3 r3 0x1000;
        st r2 r3 0;
        ld r4 r3 0;
        add r5 r5 r4;
        addi r2 r2 1;
        jmp (lbl "pg_loop");
        label "pg_done";
        st r5 r0 Layout.res_checksum;
        halt;
      ]
    in
    {
      Workload.name = "paging";
      description = "sweeps 16 pages to pressure a tiny TLB";
      program = Kernel.program ~main;
      config = [];
      instructions_per_iteration = 9;
    }
  in
  [
    test_case "nondeterministic TLB diverges with guest-managed misses" `Quick
      (fun () ->
        (* reproduces the HP 9000/720 problem of section 3.2 *)
        let params = random_tlb_params Params.Guest_managed in
        let sys =
          System.create ~params ~tlb_seeds:(1, 2) ~workload:paging_workload ()
        in
        let diverged =
          try
            let o = System.run sys in
            o.System.lockstep_mismatches <> []
          with Failure _ -> true
        in
        check bool "diverges" true diverged);
    test_case "hypervisor-managed TLB restores lockstep" `Quick (fun () ->
        (* the paper's fix: the hypervisor performs the fills, so TLB
           state never becomes visible to the guest *)
        let params = random_tlb_params Params.Hypervisor_managed in
        let sys =
          System.create ~params ~tlb_seeds:(1, 2) ~workload:paging_workload ()
        in
        let o = System.run sys in
        check (list int) "no divergence" [] o.System.lockstep_mismatches;
        check bool "fills happened" true
          ((Hypervisor.stats (System.primary sys)).Stats.tlb_fills > 0));
    test_case "guest-managed misses with deterministic TLB stay in lockstep"
      `Quick (fun () ->
        let params =
          {
            small_params with
            Params.tlb_mode = Params.Guest_managed;
            Params.cpu_config =
              {
                Hft_machine.Cpu.default_config with
                Hft_machine.Cpu.tlb_entries = 4;
              };
          }
        in
        let sys = System.create ~params ~workload:paging_workload () in
        let o = System.run sys in
        check (list int) "no divergence" [] o.System.lockstep_mismatches;
        check bool "guest handled misses" true
          ((Hypervisor.stats (System.primary sys)).Stats.reflected_traps > 0));
    test_case "Scenario.replicated refuses a diverged run" `Quick (fun () ->
        (* the same guest through the experiment driver: it passes the
           lint gate, so only the lockstep comparison can refuse it.
           Fresh params per run: the random policy's RNG is mutable. *)
        let params () = random_tlb_params Params.Guest_managed in
        let first =
          let sys =
            System.create ~params:(params ()) ~workload:paging_workload ()
          in
          match (System.run sys).System.lockstep_mismatches with
          | e :: _ -> e
          | [] -> fail "expected the replicas to diverge"
        in
        let contains s sub =
          let n = String.length sub in
          let rec go i =
            i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
          in
          go 0
        in
        (match
           Hft_harness.Scenario.replicated ~params:(params ()) paging_workload
         with
        | _ -> fail "Scenario.replicated returned a diverged run"
        | exception Failure msg ->
          check bool ("names the workload: " ^ msg) true
            (contains msg "\"paging\"");
          check bool ("names the first diverged epoch: " ^ msg) true
            (contains msg (Printf.sprintf "first at epoch %d" first)));
        let o =
          Hft_harness.Scenario.replicated ~params:small_params
            (Workload.dhrystone ~iterations:1500)
        in
        check bool "clean run compares epochs" true
          (o.System.epochs_compared > 0));
  ]

let protocol_variant_tests =
  let open Alcotest in
  [
    test_case "revised protocol produces identical guest results" `Quick
      (fun () ->
        let w = Workload.disk_write ~ops:4 ~pad:20 ~spin:20 () in
        let _, o1 = run_sys ~params:small_params w in
        let _, o2 =
          run_sys
            ~params:(Params.with_protocol small_params Params.Revised)
            w
        in
        check int "same ops" o1.System.results.Guest_results.ops
          o2.System.results.Guest_results.ops;
        check (list int) "revised lockstep" [] o2.System.lockstep_mismatches);
    test_case "revised protocol is faster for CPU-bound work" `Quick (fun () ->
        let w = Workload.dhrystone ~iterations:4000 in
        let _, o_old = run_sys w in
        let _, o_new =
          run_sys
            ~params:(Params.with_protocol small_params Params.Revised)
            w
        in
        check_lockstep "revised cpu" o_new;
        check bool "new < old" true
          Hft_sim.Time.(o_new.System.time < o_old.System.time));
    test_case "primary waits for acks before issuing io (revised)" `Quick
      (fun () ->
        let w = Workload.disk_write ~ops:3 ~pad:10 ~spin:10 () in
        let sys, o =
          run_sys ~params:(Params.with_protocol small_params Params.Revised) w
        in
        ignore o;
        (* ack-wait time is accounted at io issue rather than at
           boundaries; with few messages it may be zero, but the stat
           plumbing must not go negative *)
        check bool "ack wait non-negative" true
          (Hft_sim.Time.to_ns
             (Hypervisor.stats (System.primary sys)).Stats.ack_wait
          >= 0));
    test_case "atm link speeds up the original protocol" `Quick (fun () ->
        let w = Workload.dhrystone ~iterations:4000 in
        let _, o_eth = run_sys w in
        let _, o_atm =
          run_sys
            ~params:(Params.with_link small_params Hft_net.Link.atm)
            w
        in
        check_lockstep "atm cpu" o_atm;
        check bool "atm faster" true
          Hft_sim.Time.(o_atm.System.time < o_eth.System.time));
  ]

let epoch_length_tests =
  let open Alcotest in
  [
    test_case "longer epochs mean fewer epochs" `Quick (fun () ->
        let w = Workload.dhrystone ~iterations:3000 in
        let epochs el =
          let sys, _ =
            run_sys
              ~params:(Params.with_epoch_length small_params el)
              w
          in
          (Hypervisor.stats (System.primary sys)).Stats.epochs
        in
        let e512 = epochs 512 and e2048 = epochs 2048 in
        check bool "fewer" true (e2048 < e512);
        check bool "about 4x" true (e512 / e2048 >= 3 && e512 / e2048 <= 5));
    test_case "longer epochs improve cpu-bound completion time" `Quick
      (fun () ->
        let w = Workload.dhrystone ~iterations:3000 in
        let time el =
          let _, o =
            run_sys
              ~params:(Params.with_epoch_length small_params el)
              w
          in
          o.System.time
        in
        check bool "monotone" true Hft_sim.Time.(time 4096 < time 512));
    test_case "epoch counting matches instruction budget" `Quick (fun () ->
        let w = Workload.dhrystone ~iterations:2000 in
        let sys, o = run_sys w in
        let st = Hypervisor.stats (System.primary sys) in
        ignore o;
        (* instructions + simulated cannot exceed epochs * EL +
           one partial epoch *)
        check bool "budget" true
          (st.Stats.instructions + st.Stats.simulated
          <= (st.Stats.epochs + 1) * small_params.Params.epoch_length));
  ]

(* The entire replicated system is a pure function of its seeds: two
   identical runs must agree on every observable, down to the
   nanosecond.  This is what makes every other test in this repository
   trustworthy. *)
let reproducibility_tests =
  let open Alcotest in
  [
    test_case "identical runs are bit-for-bit identical" `Quick (fun () ->
        let go () =
          let w = Workload.mixed ~compute:30 ~ops:2 () in
          let sys = System.create ~params:small_params ~workload:w () in
          let o = System.run sys in
          ( Hft_sim.Time.to_ns o.System.time,
            o.System.messages_sent,
            o.System.bytes_sent,
            o.System.results,
            Hypervisor.vm_state_hash (System.primary sys) )
        in
        let a = go () and b = go () in
        check bool "identical" true (a = b));
    test_case "identical crash runs are identical" `Quick (fun () ->
        let go () =
          let w = Workload.disk_write ~ops:3 ~pad:20 ~spin:20 () in
          let sys = System.create ~params:small_params ~workload:w () in
          System.crash_primary_at sys (Hft_sim.Time.of_ms 17);
          let o = System.run sys in
          (Hft_sim.Time.to_ns o.System.time, o.System.results)
        in
        check bool "identical" true (go () = go ()));
    test_case "different disk seeds change fault schedules only" `Quick
      (fun () ->
        let go seed =
          let params =
            {
              small_params with
              Params.disk =
                {
                  Hft_devices.Disk.default_params with
                  Hft_devices.Disk.fault_rate = 0.3;
                };
            }
          in
          let w = Workload.disk_write ~ops:4 ~pad:20 ~spin:20 () in
          let sys = System.create ~params ~disk_seed:seed ~workload:w () in
          let o = System.run sys in
          (o.System.results.Guest_results.ops, o.System.results.Guest_results.retries)
        in
        let ops1, r1 = go 1 and ops2, r2 = go 2 in
        check int "all ops seed 1" 4 ops1;
        check int "all ops seed 2" 4 ops2;
        (* retry counts will usually differ; completion must not *)
        ignore (r1, r2));
  ]

let api_edge_tests =
  let open Alcotest in
  [
    test_case "request_reintegration on a backup is rejected" `Quick
      (fun () ->
        let w = Workload.dhrystone ~iterations:10 in
        let sys = System.create ~params:small_params ~workload:w () in
        let raised =
          try
            Hypervisor.request_reintegration (System.backup sys);
            false
          with Invalid_argument _ -> true
        in
        check bool "raised" true raised);
    test_case "system without completion raises" `Quick (fun () ->
        (* crash the primary before boot and the backup immediately:
           nobody can finish *)
        let w = Workload.dhrystone ~iterations:100 in
        let sys = System.create ~params:small_params ~workload:w () in
        Hypervisor.crash (System.primary sys);
        Hypervisor.crash (System.backup sys);
        let raised =
          try ignore (System.run sys); false with Failure _ -> true
        in
        check bool "raised" true raised);
    test_case "channel stats drain to zero" `Quick (fun () ->
        let w = Workload.dhrystone ~iterations:500 in
        let sys = System.create ~params:small_params ~workload:w () in
        let _ = System.run sys in
        check int "to backup drained" 0
          (Hft_net.Channel.in_flight (System.channel_to_backup sys));
        check int "to primary drained" 0
          (Hft_net.Channel.in_flight (System.channel_to_primary sys)));
  ]

let messaging_tests =
  let open Alcotest in
  [
    test_case "every data message is acknowledged" `Quick (fun () ->
        let w = Workload.dhrystone ~iterations:1000 in
        let sys, o = run_sys w in
        ignore o;
        ignore sys;
        (* run drains: no messages in flight at the end *)
        ());
    test_case "message counts scale with epochs" `Quick (fun () ->
        let w = Workload.dhrystone ~iterations:2000 in
        let sys, o = run_sys w in
        let st = Hypervisor.stats (System.primary sys) in
        (* two protocol messages (Tme, end) per epoch, plus relays *)
        check bool "at least 2 per epoch" true
          (o.System.messages_sent >= 2 * st.Stats.epochs));
    test_case "env values relayed once per environment instruction" `Quick
      (fun () ->
        let w = Workload.clock_sampler ~samples:100 in
        let sys, _ = run_sys w in
        let st = Hypervisor.stats (System.primary sys) in
        (* 100 rdtod samples, each relayed *)
        check bool "at least 100" true (st.Stats.env_values >= 100));
  ]

(* Random-program lockstep: the strongest determinism property.  The
   kernel plus a random straight-line main must execute identically at
   both replicas, epoch by epoch. *)

let random_main_gen =
  let open QCheck.Gen in
  let reg = int_range 1 11 in
  let alu_op =
    oneofl
      [
        Hft_machine.Isa.Add; Hft_machine.Isa.Sub; Hft_machine.Isa.Mul;
        Hft_machine.Isa.Xor; Hft_machine.Isa.And; Hft_machine.Isa.Or;
        Hft_machine.Isa.Sll; Hft_machine.Isa.Srl;
      ]
  in
  let item =
    frequency
      [
        (5, map (fun ((op, a), (b, c)) ->
                 Hft_machine.Asm.insn (Hft_machine.Isa.Alu (op, a, b, c)))
              (pair (pair alu_op reg) (pair reg reg)));
        (2, map2 (fun r v -> Hft_machine.Asm.ldi r v) reg (int_range 0 100000));
        (2, map2 (fun r off -> Hft_machine.Asm.ld r 0 off) reg (int_range 0x1000 0x17FF));
        (2, map2 (fun r off -> Hft_machine.Asm.st r 0 off) reg (int_range 0x1000 0x17FF));
        (1, map (fun r -> Hft_machine.Asm.rdtod r) reg);
        (1, map (fun r -> Hft_machine.Asm.out r) reg);
      ]
  in
  map
    (fun l ->
      l
      @ [
          Hft_machine.Asm.st 1 0 Layout.res_checksum;
          Hft_machine.Asm.halt;
        ])
    (list_size (int_range 50 600) item)

(* Structured random programs with bounded loops: richer control flow
   than the straight-line generator, still guaranteed to terminate.
   Programs are trees of blocks; loops use a dedicated counter
   register and unique labels. *)
let structured_main_gen =
  let open QCheck.Gen in
  let fresh =
    let n = ref 0 in
    fun () ->
      incr n;
      Printf.sprintf "q%d" !n
  in
  let reg = int_range 1 9 in
  let alu_op =
    oneofl
      Hft_machine.Isa.
        [ Add; Sub; Mul; Xor; And; Or; Sll; Srl; Slt ]
  in
  let simple =
    frequency
      [
        (5, map (fun ((op, a), (b, c)) ->
                 [ Hft_machine.Asm.insn (Hft_machine.Isa.Alu (op, a, b, c)) ])
              (pair (pair alu_op reg) (pair reg reg)));
        (2, map2 (fun r v -> [ Hft_machine.Asm.ldi r v ]) reg (int_range 0 65535));
        (2, map2 (fun r off -> [ Hft_machine.Asm.st r 0 off ])
              reg (int_range 0x1200 0x15FF));
        (2, map2 (fun r off -> [ Hft_machine.Asm.ld r 0 off ])
              reg (int_range 0x1200 0x15FF));
        (1, map (fun r -> [ Hft_machine.Asm.rdtod r ]) reg);
        (1, map (fun r -> [ Hft_machine.Asm.out r ]) reg);
        (1, return [ Hft_machine.Asm.trapc 1 ]);
      ]
  in
  (* a loop runs its body a fixed small number of times using r10/r11 *)
  let loop body_gen =
    map2
      (fun n bodies ->
        let l = fresh () in
        [
          Hft_machine.Asm.ldi 10 0;
          Hft_machine.Asm.ldi 11 n;
          Hft_machine.Asm.label l;
        ]
        @ List.concat bodies
        @ [
            Hft_machine.Asm.addi 10 10 1;
            Hft_machine.Asm.blt 10 11 (Hft_machine.Asm.lbl l);
          ])
      (int_range 1 12)
      (list_size (int_range 1 8) body_gen)
  in
  let block = frequency [ (3, simple); (1, loop simple) ] in
  map
    (fun blocks ->
      List.concat blocks
      @ [
          Hft_machine.Asm.st 1 0 Layout.res_checksum;
          Hft_machine.Asm.halt;
        ])
    (list_size (int_range 3 25) block)

let structured_lockstep_prop =
  QCheck.Test.make ~name:"random structured programs stay in lockstep"
    ~count:25 (QCheck.make structured_main_gen) (fun main ->
      let w =
        {
          Workload.name = "structured";
          description = "random program with loops";
          program = Kernel.program ~main;
          config = [];
          instructions_per_iteration = 1;
        }
      in
      let params = { Params.default with Params.epoch_length = 128 } in
      let sys = System.create ~params ~workload:w () in
      let o = System.run sys in
      o.System.lockstep_mismatches = []
      && Hypervisor.vm_state_hash (System.primary sys)
         = Hypervisor.vm_state_hash (System.backup sys))

let structured_rewriting_prop =
  QCheck.Test.make
    ~name:"random structured programs stay in lockstep under rewriting"
    ~count:10 (QCheck.make structured_main_gen) (fun main ->
      let w =
        {
          Workload.name = "structured";
          description = "random program with loops";
          program = Kernel.program ~main;
          config = [];
          instructions_per_iteration = 1;
        }
      in
      let params =
        {
          Params.default with
          Params.epoch_length = 128;
          Params.epoch_mechanism = Params.Code_rewriting;
        }
      in
      let sys = System.create ~params ~workload:w () in
      let o = System.run sys in
      o.System.lockstep_mismatches = [])

let random_lockstep_prop =
  QCheck.Test.make ~name:"random programs stay in lockstep" ~count:30
    (QCheck.make random_main_gen) (fun main ->
      let w =
        {
          Workload.name = "random";
          description = "random straight-line program";
          program = Kernel.program ~main;
          config = [];
          instructions_per_iteration = 1;
        }
      in
      let params = { Params.default with Params.epoch_length = 64 } in
      let sys = System.create ~params ~workload:w () in
      let o = System.run sys in
      o.System.lockstep_mismatches = []
      && Hypervisor.vm_state_hash (System.primary sys)
         = Hypervisor.vm_state_hash (System.backup sys))

(* -------- incremental lockstep hashing -------- *)

let incremental_hashing_tests =
  let open Alcotest in
  [
    test_case "epoch hashes agree under the incremental scheme" `Quick
      (fun () ->
        let sys, o = run_sys (Workload.dhrystone ~iterations:2000) in
        check_lockstep "incremental" o;
        check int "final hash equal"
          (Hypervisor.vm_state_hash (System.primary sys))
          (Hypervisor.vm_state_hash (System.backup sys)));
    test_case "incremental and full-rehash schemes give equal hashes" `Quick
      (fun () ->
        (* at every boundary of both replicas, the incremental state
           hash the protocol compares equals a from-scratch rehash of
           all of memory: dirty tracking is invisible to the protocol *)
        let w = Workload.dhrystone ~iterations:1500 in
        let sys = System.create ~params:small_params ~workload:w () in
        let checked = ref 0 and differ = ref [] in
        List.iter
          (fun hv ->
            let previous = Hypervisor.get_on_epoch_boundary hv in
            Hypervisor.set_on_epoch_boundary hv (fun ~epoch ~hash ->
                let cpu = Hypervisor.cpu hv in
                incr checked;
                if
                  Hft_machine.Cpu.state_hash ~include_tlb:false cpu
                  <> Hft_machine.Cpu.state_hash ~include_tlb:false ~full:true
                       cpu
                then differ := epoch :: !differ;
                previous ~epoch ~hash))
          [ System.primary sys; System.backup sys ];
        let o = System.run sys in
        check_lockstep "schemes" o;
        check bool "boundaries checked" true (!checked > 0);
        check (list int) "schemes agree" [] !differ);
    test_case "a single corrupted word is caught at the next boundary" `Quick
      (fun () ->
        let w = Workload.dhrystone ~iterations:3000 in
        let sys = System.create ~params:small_params ~workload:w () in
        (* flip one word of the backup's memory mid-run, in an area the
           guest never touches: only the state hash can see it *)
        ignore
          (Hft_sim.Engine.at (System.engine sys) (Hft_sim.Time.of_ms 2)
             (fun () ->
               let mem = Hft_machine.Cpu.mem (Hypervisor.cpu (System.backup sys)) in
               Hft_machine.Memory.write mem 0xE000
                 (Hft_machine.Memory.read mem 0xE000 + 1)));
        let o = System.run sys in
        check bool "mismatch detected" true
          (o.System.lockstep_mismatches <> []));
    test_case "boundary hashing reuses cached page digests" `Quick (fun () ->
        let sys, o = run_sys (Workload.dhrystone ~iterations:2000) in
        check_lockstep "stats" o;
        let st = Hypervisor.stats (System.primary sys) in
        check bool "some pages hashed" true (st.Stats.pages_hashed > 0);
        check bool "most pages skipped" true
          (st.Stats.pages_skipped > st.Stats.pages_hashed));
  ]

(* -------- creation cost -------- *)

(* The initial state is a pure function of the parameters: a pristine
   disk and zero-filled memory with known chunk digests cost nothing to
   build or hash.  Pinned deterministically as major-heap words, which
   counts the two guest memories (about [2 x mem_words]) but nothing
   proportional to the disk or to a hashing pass over memory. *)
let major_words () =
  let _, _, major = Gc.counters () in
  major

let major_words_of f =
  let before = major_words () in
  let r = f () in
  let words = major_words () -. before in
  ignore (Sys.opaque_identity r);
  words

(* Each bounded scenario with its guests on the given backend. *)
let on_backend backend (b : Hft_harness.Scenarios.bounded) =
  {
    b with
    Hft_harness.Scenarios.sc_params =
      Params.with_exec_backend b.Hft_harness.Scenarios.sc_params backend;
  }

let backends = [ ("interp", Params.Interp); ("threaded", Params.Threaded) ]

let create_cost_tests =
  let mem_words = Hft_machine.Cpu.default_config.Hft_machine.Cpu.mem_words in
  let budget = 4. *. float mem_words in
  let pin name words =
    if words >= budget then
      Alcotest.failf "%s allocated %.0f major words, budget %.0f" name words
        budget
  in
  let module S = Hft_harness.Scenarios in
  Alcotest.test_case "System.create allocates under 4 x mem_words" `Quick
    (fun () ->
      pin "System.create"
        (major_words_of (fun () ->
             System.create ~params:Params.default
               ~workload:(Workload.dhrystone ~iterations:20_000) ())))
  :: List.concat_map
       (fun (b : S.bounded) ->
         [
           Alcotest.test_case
             (Printf.sprintf "instantiate %s allocates under 4 x mem_words"
                b.S.sc_name)
             `Quick (fun () ->
               pin b.S.sc_name
                 (major_words_of (fun () ->
                      S.instantiate b ~variant:S.correct ())));
           (* recycling reuses both guest memories and the snapshot
              base, so what is left is a few small tables *)
           Alcotest.test_case
             (Printf.sprintf "recycled %s allocates under mem_words / 16"
                b.S.sc_name)
             `Quick (fun () ->
               let donor = S.instantiate b ~variant:S.correct () in
               ignore (System.run ~limit:b.S.sc_limit donor);
               let words =
                 major_words_of (fun () ->
                     S.instantiate b ~variant:S.correct ~recycle:donor ())
               in
               let budget = float mem_words /. 16. in
               if words >= budget then
                 Alcotest.failf "recycled %s allocated %.0f major words, \
                                 budget %.0f"
                   b.S.sc_name words budget);
         ]
         (* a recycled build over the same image re-arms the
            predecessor's validator tables and translation instead of
            rebuilding them: what is left is the hypervisor records
            and the system around them *)
         @ List.map
             (fun (backend_name, backend) ->
               let budget = 2_500 in
               let name =
                 Printf.sprintf "recycled %s (%s)" b.S.sc_name backend_name
               in
               Alcotest.test_case
                 (Printf.sprintf "%s allocates under %d minor words" name budget)
                 `Quick (fun () ->
                   let b = on_backend backend b in
                   let donor = S.instantiate b ~variant:S.correct () in
                   ignore (System.run ~limit:b.S.sc_limit donor);
                   let before = Gc.minor_words () in
                   let sys =
                     S.instantiate b ~variant:S.correct ~recycle:donor ()
                   in
                   let words = Gc.minor_words () -. before in
                   ignore (Sys.opaque_identity sys);
                   if words >= float budget then
                     Alcotest.failf "%s allocated %.0f minor words, budget %d"
                       name words budget))
             backends)
       S.all

(* -------- per-transition cost -------- *)

(* A model-checker transition mostly runs bursts of one or two
   instructions, so a burst's fixed cost is pinned as minor-heap words:
   a one-instruction [Cpu.run] on a started hypervisor's CPU allocates
   its 3-word result and nothing per call besides. *)
let burst_cost_tests =
  let module S = Hft_harness.Scenarios in
  let budget = 8. in
  [
    Alcotest.test_case
      (Printf.sprintf "a one-instruction burst allocates at most %.0f words"
         budget)
      `Quick (fun () ->
        let b = Option.get (S.find "handoff") in
        let sys = S.instantiate b ~variant:S.correct () in
        Hypervisor.start (System.primary sys);
        Hypervisor.start (System.backup sys);
        for _ = 1 to 50 do
          ignore (Hft_sim.Engine.step (System.engine sys))
        done;
        let cpu = Hypervisor.cpu (System.primary sys) in
        let before = Gc.minor_words () in
        let r = Hft_machine.Cpu.run cpu ~fuel:1 in
        let words = Gc.minor_words () -. before in
        ignore (Sys.opaque_identity r);
        Alcotest.(check int) "one instruction" 1 r.Hft_machine.Cpu.executed;
        if words > budget then
          Alcotest.failf "Cpu.run ~fuel:1 allocated %.0f minor words, budget %.0f"
            words budget);
    (* Work gates: a burst runs on through the driver's plain register
       writes, so a CLI run dispatches about one event per doorbell,
       epoch and message rather than two per write (16 883 and 111 286
       with a stop/resume pair per write). *)
    Alcotest.test_case "run -w mixed and -w write dispatch counts pinned"
      `Quick (fun () ->
        List.iter
          (fun (w, expected) ->
            let sys, _ = run_sys ~params:Params.default w in
            Alcotest.(check int)
              (w.Workload.name ^ " dispatches")
              expected
              (Hft_sim.Engine.events_dispatched (System.engine sys)))
          [
            (Workload.mixed ~compute:100 ~ops:12 (), 7_798);
            (Workload.disk_write ~ops:24 (), 20_446);
          ]);
    (* The threaded backend's translated work on [run -w cpu --backend
       threaded], summed over both replicas: instructions run threaded,
       entries, blocks, then the budget, priv, link, indirect, bail and
       stop fallbacks.  The block prologue's budget check is the only
       thing that decides where a burst leaves translated code, so a
       change to it moves these counts.  (The translator forms no
       superinstructions: a block is one closure per instruction, so
       there is no fusion count to pin.) *)
    Alcotest.test_case "run -w cpu threaded translation work pinned" `Quick
      (fun () ->
        let params = Params.with_exec_backend Params.default Params.Threaded in
        let sys, _ =
          run_sys ~params (Workload.dhrystone ~iterations:20_000)
        in
        let st = [ System.primary sys; System.backup sys ] in
        let sum f =
          List.fold_left (fun a h -> a + f (Hypervisor.stats h)) 0 st
        in
        Alcotest.(check (list int))
          "translated work"
          [ 2_800_178; 42_690; 60; 1_613; 0; 940; 39_947; 948; 4 ]
          (List.map sum
             [
               (fun s -> s.Stats.threaded_instrs);
               (fun s -> s.Stats.threaded_entries);
               (fun s -> s.Stats.blocks_translated);
               (fun s -> s.Stats.fallback_budget);
               (fun s -> s.Stats.fallback_priv);
               (fun s -> s.Stats.fallback_link);
               (fun s -> s.Stats.fallback_indirect);
               (fun s -> s.Stats.fallback_bail);
               (fun s -> s.Stats.fallback_stop);
             ]));
    (* The interpreter's work on [run -w cpu], summed over both
       replicas: deferred validator windows opened, the instructions
       retired inside their tight loops, and every instruction the
       validator checked.  A change that falls back to per-instruction
       checking moves the first two. *)
    Alcotest.test_case "run -w cpu interpreter window work pinned" `Quick
      (fun () ->
        let sys, _ =
          run_sys ~params:Params.default (Workload.dhrystone ~iterations:20_000)
        in
        let cpus =
          List.map Hypervisor.cpu [ System.primary sys; System.backup sys ]
        in
        let sum f = List.fold_left (fun a c -> a + f c) 0 cpus in
        Alcotest.(check (list int))
          "windows, window instructions, checked"
          [ 482_581; 2_725_177; 2_805_706 ]
          [
            sum Hft_machine.Cpu.windows_opened;
            sum Hft_machine.Cpu.window_instrs;
            sum (fun c -> (Hft_machine.Cpu.validator_coverage c).checked);
          ]);
    (* Alone (its primary crashed) and with an epoch longer than the
       test could run, the backup's burst is bounded by nothing but the
       per-dispatch budget, so only that keeps the event limit in
       reach. *)
    Alcotest.test_case "a guest spinning on a register write hits the limit"
      `Quick (fun () ->
        let open Hft_machine.Asm in
        let w =
          {
            Workload.name = "pad-spin";
            description = "writes the controller's pad register forever";
            program =
              Kernel.program
                ~main:
                  [
                    ldi 6 Layout.disk_pad;
                    label "spin";
                    st 5 6 0;
                    jmp (lbl "spin");
                  ];
            config = [];
            instructions_per_iteration = 2;
          }
        in
        let params = Params.with_epoch_length Params.default (1 lsl 30) in
        let sys = System.create ~params ~workload:w () in
        System.crash_primary_at sys (Hft_sim.Time.of_us 100);
        System.start sys;
        let engine = System.engine sys in
        Hft_sim.Engine.run_until engine (Hft_sim.Time.of_us 100);
        let limit = Hft_sim.Engine.events_dispatched engine + 2 in
        match System.drive ~limit sys with
        | _ -> Alcotest.fail "the run ended"
        | exception Hft_sim.Engine.Runaway n ->
          Alcotest.(check int) "limit" limit n;
          let b = Hypervisor.stats (System.backup sys) in
          if b.Stats.simulated < Params.max_burst / 2 then
            Alcotest.failf "the backup simulated only %d writes" b.Stats.simulated);
  ]

(* the node's (epoch, hash) at every boundary, newest first, chained
   in front of the hooks already installed *)
let record_hashes hv =
  let log = ref [] in
  let previous = Hypervisor.get_on_epoch_boundary hv in
  Hypervisor.set_on_epoch_boundary hv (fun ~epoch ~hash ->
      log := (epoch, hash) :: !log;
      previous ~epoch ~hash);
  log

(* Every root assignment of a bounded scenario: its crash epochs,
   losses and hypervisor fault crossed, as [Scenarios.instantiate]
   arguments. *)
type roots = {
  crash : int option;
  backup_crash : int option;
  loss_pb : int option;
  loss_bp : int option;
  hv : Hft_harness.Campaign.hv_fault_spec option;
}

let all_roots (b : Hft_harness.Scenarios.bounded) =
  let module S = Hft_harness.Scenarios in
  List.concat_map
    (fun crash ->
      List.concat_map
        (fun backup_crash ->
          List.concat_map
            (fun loss_pb ->
              List.concat_map
                (fun loss_bp ->
                  List.map
                    (fun hv -> { crash; backup_crash; loss_pb; loss_bp; hv })
                    b.S.sc_hv_faults)
                b.S.sc_loss_bp)
            b.S.sc_loss_pb)
        b.S.sc_backup_crash_epochs)
    b.S.sc_crash_epochs

(* Run one root assignment of a bounded scenario on its default
   schedule, recording everything observable: the outcome with its
   full statistics, the disk log, each node's (epoch, hash) at every
   boundary and instructions retired, and the system fingerprint at
   every scheduler call.  With [resume_at], the run snapshots the
   system at that scheduler call, runs to the end, restores the
   snapshot (and the recorders' own logs) and runs to the end again:
   what it returns is the second ending.  Also returns the number of
   scheduler calls and the first one at which a hypervisor is hung
   (-1 if none is), which falls before the watchdog detects the
   hang. *)
let observe (b : Hft_harness.Scenarios.bounded) ?roots ?(resume_at = -1)
    ?recycle () =
  let module S = Hft_harness.Scenarios in
  let r =
    match roots with
    | Some r -> r
    | None ->
      {
        crash = List.find_map Fun.id b.S.sc_crash_epochs;
        backup_crash = None;
        loss_pb = None;
        loss_bp = None;
        hv = None;
      }
  in
  let sys =
    S.instantiate b ~variant:S.correct ?crash_epoch:r.crash
      ?backup_crash_epoch:r.backup_crash ?loss_pb:r.loss_pb ?loss_bp:r.loss_bp
      ?hv_fault:r.hv ?recycle ()
  in
  let hp = record_hashes (System.primary sys)
  and hb = record_hashes (System.backup sys) in
  let fps = ref [] and calls = ref 0 and saved = ref None in
  let hung = ref (-1) in
  let is_hung hv =
    Hypervisor.hv_health hv = Hypervisor.Faulted Hypervisor.Hv_hang
  in
  Hft_sim.Engine.set_scheduler (System.engine sys) (fun _ ->
      if
        !hung < 0
        && (is_hung (System.primary sys) || is_hung (System.backup sys))
      then hung := !calls;
      if !calls = resume_at then
        saved := Some (System.snapshot sys, !fps, !hp, !hb);
      incr calls;
      fps := System.fingerprint sys :: !fps;
      0);
  let o = System.run ~limit:b.S.sc_limit sys in
  let o =
    match !saved with
    | None -> o
    | Some (snap, f, p, q) ->
      System.restore sys snap;
      fps := f;
      hp := p;
      hb := q;
      System.drive ~limit:b.S.sc_limit sys
  in
  let retired hv = Hft_machine.Cpu.instructions_retired (Hypervisor.cpu hv) in
  ( sys,
    ( o,
      Hft_devices.Disk.Log.entries (System.disk sys),
      (List.rev !hp, List.rev !hb, retired (System.primary sys),
       retired (System.backup sys)),
      List.rev !fps ),
    !calls,
    !hung )

let same_observation (o1, d1, h1, f1) (o2, d2, h2, f2) =
  let open Alcotest in
  check string "console" o1.System.console o2.System.console;
  check string "primary stats"
    (Format.asprintf "%a" Stats.pp o1.System.primary_stats)
    (Format.asprintf "%a" Stats.pp o2.System.primary_stats);
  check string "backup stats"
    (Format.asprintf "%a" Stats.pp o1.System.backup_stats)
    (Format.asprintf "%a" Stats.pp o2.System.backup_stats);
  check bool "outcome and stats" true (o1 = o2);
  check bool "disk log" true (d1 = d2);
  check bool "epoch hashes and instructions retired" true (h1 = h2);
  check int "scheduler calls" (List.length f1) (List.length f2);
  check bool "fingerprints" true (f1 = f2)

(* the interpreter cases keep the scenario's bare name *)
let backend_case name (b : Hft_harness.Scenarios.bounded) (backend_name, backend)
    f =
  let b = on_backend backend b in
  Alcotest.test_case
    (if backend = Params.Interp then name else name ^ " " ^ backend_name)
    `Quick
    (fun () -> f b backend)

(* A recycled system must be indistinguishable from a fresh one.  Each
   bounded scenario runs its default schedule three times: a donor, a
   fresh system, and a system recycled from the finished donor.  The
   first crash option is taken where there is one, so the
   reintegration-loss donor has taken a snapshot, and the recycled
   run's must count the same bytes as a fresh one's.  Everything
   [observe] records must agree.  Every scenario runs on both
   backends; on the threaded one the statistics include the
   translation's entry, fallback and threaded-instruction counters,
   which a re-armed translation must restart from zero. *)
let recycle_tests =
  let module S = Hft_harness.Scenarios in
  let case (b : S.bounded) backend =
    backend_case b.S.sc_name b backend (fun b backend ->
        let donor, _, _, _ = observe b () in
        let _, fresh, _, _ = observe b () in
        let _, ((o2, _, _, _) as recycled), _, _ =
          observe b ~recycle:donor ()
        in
        same_observation fresh recycled;
        if b.S.sc_reintegrate_ms <> None then
          Alcotest.(check bool)
            "snapshot taken" true
            (o2.System.backup_stats.Stats.snapshot_delta_bytes > 0);
        if backend = Params.Threaded then
          Alcotest.(check bool)
            "threaded instructions" true
            (o2.System.primary_stats.Stats.threaded_instrs > 0))
  in
  List.concat_map (fun b -> List.map (case b) backends) S.all

(* A restored system must be indistinguishable from one that never
   left: for every root assignment of every bounded scenario, on both
   backends, the default schedule is snapshotted at its first
   scheduler call, a third of the way, two thirds, its last and, where
   a hypervisor hangs, the first call of the hang (so the restored
   heartbeat is what the pending watchdog compares), run to the end,
   restored and run to the end again; everything [observe] records
   about that second ending must equal an uninterrupted run.
   Builds after the first recycle the previous system, as the model
   checker's do. *)
let restore_tests =
  let module S = Hft_harness.Scenarios in
  let case (b : S.bounded) backend =
    backend_case b.S.sc_name b backend (fun b _ ->
        let spare = ref None in
        let observe ?resume_at roots =
          let sys, obs, calls, hung =
            observe b ~roots ?resume_at ?recycle:!spare ()
          in
          spare := Some sys;
          (obs, calls, hung)
        in
        List.iter
          (fun roots ->
            let reference, n, hung = observe roots in
            let hang = if hung < 0 then [] else [ hung ] in
            List.iter
              (fun k ->
                let resumed, _, _ = observe ~resume_at:k roots in
                same_observation reference resumed)
              ([ 0; n / 3; 2 * n / 3; n - 1 ] @ hang))
          (all_roots b))
  in
  List.concat_map (fun b -> List.map (case b) backends) S.all

(* Conservative lookahead changes how far a replica runs per dispatch,
   never what it computes.  A pass-through scheduler turns lookahead
   off (the engine then bounds every burst by the next event, and
   returning 0 reproduces the default dispatch order exactly), so each
   configuration runs twice and everything modelled must agree: the
   outcome, the modelled statistics, console and disk, the per-node
   epoch hashes, and the typed event stream.  Same-instant events of
   different sources may interleave differently, so the stream is
   compared after a stable sort by (time, source). *)

(* the CLI's [-w] workloads, scaled down where the CLI's size only
   repeats the same operations (sixteen configurations run each twice) *)
let cpu_workloads =
  [
    Workload.dhrystone ~iterations:5_000;
    Workload.clock_sampler ~samples:500;
    Workload.timer_tick ~period_us:1000 ~ticks:12;
    Workload.console_hello ~text:"hello from the replicated machine\n";
    Workload.probe_priv;
  ]

let io_workloads =
  [
    Workload.disk_write ~ops:3 ();
    Workload.disk_read ~ops:3 ();
    Workload.mixed ~compute:100 ~ops:3 ();
    Workload.masked_io ~ops:2;
    Workload.queued_io ~pairs:2;
    Workload.server ~requests:3 ~period_us:3000;
  ]

(* everything but the translation and certificate-coverage counters,
   which count host-side work per burst *)
let modelled (s : Stats.t) =
  {
    s with
    Stats.certified_instructions = 0;
    validated_instructions = 0;
    blocks_translated = 0;
    threaded_instrs = 0;
    threaded_entries = 0;
    fallback_budget = 0;
    fallback_priv = 0;
    fallback_link = 0;
    fallback_indirect = 0;
    fallback_bail = 0;
    fallback_stop = 0;
  }

let observe ~faults ~params ~per_dispatch (w : Workload.t) =
  let obs = Hft_obs.Recorder.create ~capacity:(1 lsl 20) () in
  let sys = System.create ~params ~obs ~workload:w () in
  let hp = record_hashes (System.primary sys)
  and hb = record_hashes (System.backup sys) in
  faults sys;
  if per_dispatch then Hft_sim.Engine.set_scheduler (System.engine sys) (fun _ -> 0);
  (* how bursts are cut shows only in [stop] and [resume] dispatches *)
  let handlers = Hashtbl.create 16 in
  Hft_sim.Engine.set_observer (System.engine sys) (fun _ ~label ~actor ->
      if label <> "stop" && label <> "resume" then
        Hashtbl.replace handlers (actor, label)
          (1 + Option.value ~default:0 (Hashtbl.find_opt handlers (actor, label))));
  let o = System.run sys in
  let events =
    List.map
      (fun (e : Hft_obs.Recorder.entry) ->
        (Hft_sim.Time.to_ns e.time, e.source, e.ev))
      (Hft_obs.Recorder.entries obs)
    |> List.stable_sort (fun (t1, s1, _) (t2, s2, _) ->
           compare (t1, s1) (t2, s2))
  in
  let handlers = List.sort compare (List.of_seq (Hashtbl.to_seq handlers)) in
  ( {
      o with
      System.primary_stats = modelled o.System.primary_stats;
      backup_stats = modelled o.System.backup_stats;
    },
    Hft_devices.Disk.Log.entries (System.disk sys),
    (List.rev !hp, List.rev !hb),
    events,
    handlers )

let configurations =
  List.concat_map
    (fun backend ->
      List.concat_map
        (fun protocol ->
          List.map
            (fun mechanism ->
              {
                (Params.with_protocol Params.default protocol) with
                Params.epoch_mechanism = mechanism;
                exec_backend = backend;
              })
            [ Params.Recovery_register; Params.Code_rewriting ])
        [ Params.Original; Params.Revised ])
    [ Params.Interp; Params.Threaded ]

let lookahead_case ?(label = "") ?epoch_length ?(faults = ignore)
    ?(reaches = ("", fun _ -> true)) (w : Workload.t) =
  let open Alcotest in
  test_case (w.Workload.name ^ label) `Quick (fun () ->
      List.iter
        (fun params ->
          let params =
            match epoch_length with
            | Some el -> Params.with_epoch_length params el
            | None -> params
          in
          let name =
            Format.asprintf "%a/%a/%s" Params.pp_backend
              params.Params.exec_backend Params.pp_protocol
              params.Params.protocol
              (match params.Params.epoch_mechanism with
              | Params.Recovery_register -> "recovery"
              | Params.Code_rewriting -> "rewriting")
          in
          let o1, d1, h1, e1, x1 = observe ~faults ~params ~per_dispatch:false w in
          let o2, d2, h2, e2, x2 = observe ~faults ~params ~per_dispatch:true w in
          check int (name ^ ": completion time")
            (Hft_sim.Time.to_ns o2.System.time)
            (Hft_sim.Time.to_ns o1.System.time);
          check string (name ^ ": console") o2.System.console
            o1.System.console;
          check string (name ^ ": primary stats")
            (Format.asprintf "%a" Stats.pp o2.System.primary_stats)
            (Format.asprintf "%a" Stats.pp o1.System.primary_stats);
          check bool (name ^ ": outcome and stats") true (o1 = o2);
          check bool (name ^ ": disk log") true (d1 = d2);
          check bool (name ^ ": epoch hashes") true (h1 = h2);
          check int (name ^ ": event count") (List.length e2) (List.length e1);
          check bool (name ^ ": event stream") true (e1 = e2);
          check bool (name ^ ": dispatches but stop and resume") true (x1 = x2);
          check bool (name ^ ": " ^ fst reaches) true (snd reaches o1))
        configurations)

(* Free-running, a replica also runs its burst on through plain
   controller-register writes (the scheduler hook turns that off too),
   so the I/O cases compare fused against unfused bursts; these add
   the fault paths around them. *)
let failover sys =
  System.crash_primary_at sys (Hft_sim.Time.of_ms 40);
  System.reintegrate_after_failover sys ~delay:(Hft_sim.Time.of_ms 10)

let lossy_failover sys =
  System.install_fault_model sys ~rng:(Hft_sim.Rng.create 17)
    { Hft_net.Channel.loss = 0.1; duplicate = 0.05; corrupt = 0.05; delay_us = 40 };
  System.crash_primary_on_epoch sys 5;
  System.reintegrate_after_failover sys ~delay:(Hft_sim.Time.of_ms 2)

let backup_hv_crash sys =
  System.hv_fault_on_epoch sys ~target:`Backup ~kind:Hypervisor.Hv_crash 3

(* The phase-lock regression: before lookahead each replica's burst
   ended at its peer's pending stop, so at long epochs the two took
   turns retiring one instruction per dispatch and the translated
   blocks, which need room to run, were mostly refused (39.4% of
   instructions direct-threaded). *)
let lookahead_regression_test =
  Alcotest.test_case "threaded replicas at EL 32768 stay direct-threaded"
    `Quick (fun () ->
      let params =
        Params.with_exec_backend
          (Params.with_epoch_length Params.default 32768)
          Params.Threaded
      in
      let _, o = run_sys ~params (Workload.dhrystone ~iterations:20_000) in
      check_lockstep "cpu" o;
      let frac =
        Option.value ~default:0.
          (Stats.threaded_fraction o.System.primary_stats)
      in
      if frac < 0.95 then
        Alcotest.failf "%.1f%% of instructions direct-threaded, want >= 95%%"
          (100. *. frac))

let () =
  Alcotest.run "hft_core"
    [
      ("lockstep", lockstep_tests);
      ("incremental-hashing", incremental_hashing_tests);
      ("suppression", suppression_tests);
      ("timer-env", timer_env_tests);
      ("section-3.1", section31_tests);
      ("section-3.2-tlb", tlb_tests);
      ("protocol-variants", protocol_variant_tests);
      ("epochs", epoch_length_tests);
      ("messaging", messaging_tests);
      ("reproducibility", reproducibility_tests);
      ("api-edges", api_edge_tests);
      ("create-cost", create_cost_tests);
      ("burst-cost", burst_cost_tests);
      ("recycle", recycle_tests);
      ("restore", restore_tests);
      ( "lookahead-cpu",
        List.map lookahead_case cpu_workloads @ [ lookahead_regression_test ] );
      ( "lookahead-io",
        List.map lookahead_case io_workloads
        @ [
            lookahead_case ~label:" with failover" ~faults:failover
              (Workload.disk_write ~ops:3 ());
            (* epochs short enough that some expire on a pad write *)
            lookahead_case ~label:" at EL 97" ~epoch_length:97
              (Workload.mixed ~compute:100 ~ops:3 ());
            lookahead_case ~label:" over a lossy channel with failover"
              ~faults:lossy_failover
              ~reaches:
                ( "reintegrated after failover",
                  fun o ->
                    o.System.failover
                    && o.System.backup_stats.Stats.snapshot_delta_bytes > 0 )
              (Workload.mixed ~compute:100 ~ops:3 ());
            lookahead_case ~label:" with a backup hypervisor crash"
              ~faults:backup_hv_crash
              ~reaches:
                ( "microrebooted",
                  fun o -> o.System.backup_stats.Stats.microreboots = 1 )
              (Workload.mixed ~compute:100 ~ops:3 ());
          ] );
      ( "random-lockstep",
        [
          QCheck_alcotest.to_alcotest random_lockstep_prop;
          QCheck_alcotest.to_alcotest structured_lockstep_prop;
          QCheck_alcotest.to_alcotest structured_rewriting_prop;
        ] );
    ]
