(* Tests for object-code editing (section 2.1's alternative epoch
   mechanism): the rewriting pass itself, and the full replicated
   system running on rewritten images. *)

open Hft_machine
open Hft_core

let loop_program =
  Asm.(
    assemble
      [
        ldi r1 100;
        ldi r2 0;
        label "loop";
        bge r2 r1 (lbl "done");
        addi r2 r2 1;
        addi r3 r3 7;
        xor r4 r4 r3;
        jmp (lbl "loop");
        label "done";
        halt;
      ])

(* Execute a rewritten image with marker semantics: reload the counter
   at each marker, count markers. *)
let run_with_markers ?(el = 64) code =
  let cpu = Cpu.create ~code () in
  Cpu.set_reg cpu Rewrite.counter_reg el;
  let markers = ref 0 and executed = ref 0 in
  let rec go budget =
    if budget = 0 then failwith "run_with_markers: runaway";
    let res = Cpu.run cpu ~fuel:1_000_000 in
    executed := !executed + res.Cpu.executed;
    match res.Cpu.stop with
    | Cpu.Syscall c when c = Rewrite.epoch_marker_code ->
      incr markers;
      Cpu.advance_pc cpu;
      Cpu.set_reg cpu Rewrite.counter_reg el;
      go (budget - 1)
    | Cpu.Stop_halt -> ()
    | s -> Alcotest.failf "unexpected stop %a" Cpu.pp_stop s
  in
  go 10_000;
  (cpu, !markers, !executed)

let rewrite_tests =
  let open Alcotest in
  [
    test_case "rewritten program computes the same result" `Quick (fun () ->
        let plain = Cpu.create ~code:loop_program.Asm.code () in
        let _ = Cpu.run plain ~fuel:10_000 in
        let r = Rewrite.rewrite_program ~every:64 loop_program in
        let cpu, markers, _ = run_with_markers r.Asm.code in
        check int "r2" (Cpu.reg plain 2) (Cpu.reg cpu 2);
        check int "r3" (Cpu.reg plain 3) (Cpu.reg cpu 3);
        check int "r4" (Cpu.reg plain 4) (Cpu.reg cpu 4);
        check bool "markers fired" true (markers > 0));
    test_case "markers fire about every epoch-length instructions" `Quick
      (fun () ->
        let r = Rewrite.rewrite_program ~every:64 loop_program in
        let _, markers, executed = run_with_markers ~el:64 r.Asm.code in
        (* the weights are static estimates: allow a factor of ~3 *)
        (* static weights under-estimate dynamic path length, so the
           realised epoch can exceed the nominal one by the ratio of
           loop length to back-edge weight; it must stay bounded *)
        let per = executed / max 1 markers in
        check bool "bounded below" true (per > 20);
        check bool "bounded above" true (per < 400));
    test_case "labels are relocated" `Quick (fun () ->
        let r = Rewrite.rewrite_program ~every:4 loop_program in
        check bool "done moved" true
          (Asm.find_label r "done" > Asm.find_label loop_program "done");
        (* the loop label must land on its counting sequence *)
        match r.Asm.code.(Asm.find_label r "loop") with
        | Isa.Alui (Isa.Sub, 15, 15, _) -> ()
        | i -> failf "expected counting sequence, got %a" Isa.pp i);
    test_case "code-address immediates are relocated" `Quick (fun () ->
        let p =
          Asm.(
            assemble
              [
                ldi_target r1 (lbl "target");
                nop; nop; nop; nop; nop; nop; nop;
                label "target";
                halt;
              ])
        in
        let r = Rewrite.rewrite_program ~every:4 p in
        match r.Asm.code.(0) with
        | Isa.Ldi (1, v) -> check int "relocated" (Asm.find_label r "target") v
        | i -> failf "expected ldi, got %a" Isa.pp i);
    test_case "marker code collision rejected" `Quick (fun () ->
        let p = Asm.(assemble [ trapc 255; halt ]) in
        let raised =
          try
            ignore (Rewrite.rewrite_program ~every:4 p);
            false
          with Invalid_argument _ -> true
        in
        check bool "raised" true raised);
    test_case "bad interval rejected" `Quick (fun () ->
        let raised =
          try
            ignore (Rewrite.rewrite_program ~every:0 loop_program);
            false
          with Invalid_argument _ -> true
        in
        check bool "raised" true raised);
    test_case "straight-line code gets periodic markers" `Quick (fun () ->
        let p = Asm.assemble (List.init 20 (fun _ -> Asm.nop) @ [ Asm.halt ]) in
        let t = Rewrite.insert_epoch_markers ~every:5 p in
        check int "markers" 4 t.Rewrite.markers);
  ]

(* Random loop-free programs: rewriting must preserve semantics
   exactly. *)
let rewrite_equivalence =
  let gen =
    let open QCheck.Gen in
    let reg = int_range 1 11 in
    let instr =
      frequency
        [
          (4, map2 (fun r v -> Asm.ldi r v) reg (int_range 0 100000));
          (4, map (fun ((a, b), c) -> Asm.add a b c)
                (pair (pair reg reg) reg));
          (2, map (fun ((a, b), c) -> Asm.xor a b c)
                (pair (pair reg reg) reg));
          (2, map2 (fun r off -> Asm.st r 0 off) reg (int_range 0x1000 0x10FF));
          (2, map2 (fun r off -> Asm.ld r 0 off) reg (int_range 0x1000 0x10FF));
        ]
    in
    map (fun l -> l @ [ Asm.halt ]) (list_size (int_range 10 300) instr)
  in
  QCheck.Test.make ~name:"rewriting preserves semantics" ~count:100
    (QCheck.make gen) (fun items ->
      let p = Asm.assemble items in
      let plain = Cpu.create ~code:p.Asm.code () in
      let _ = Cpu.run plain ~fuel:10_000 in
      let r = Rewrite.rewrite_program ~every:16 p in
      let cpu, _, _ = run_with_markers ~el:16 r.Asm.code in
      (* compare all registers except the reserved counter *)
      let same = ref true in
      for i = 0 to Isa.num_regs - 2 do
        if Cpu.reg plain i <> Cpu.reg cpu i then same := false
      done;
      !same)

(* Full system on rewritten images. *)
let system_tests =
  let rewriting_params =
    {
      Params.default with
      Params.epoch_length = 512;
      Params.epoch_mechanism = Params.Code_rewriting;
    }
  in
  let open Alcotest in
  [
    test_case "cpu workload in lockstep under code rewriting" `Quick (fun () ->
        let w = Hft_guest.Workload.dhrystone ~iterations:1500 in
        let bare = Bare.run (Bare.create ~workload:w ()) in
        let sys = System.create ~params:rewriting_params ~workload:w () in
        let o = System.run sys in
        check (list int) "lockstep" [] o.System.lockstep_mismatches;
        check bool "epochs compared" true (o.System.epochs_compared > 0);
        check int "checksum" bare.Bare.results.Guest_results.checksum
          o.System.results.Guest_results.checksum);
    test_case "io workload under code rewriting" `Quick (fun () ->
        let w = Hft_guest.Workload.disk_write ~ops:3 ~pad:20 ~spin:20 () in
        let sys = System.create ~params:rewriting_params ~workload:w () in
        let o = System.run sys in
        check int "ops" 3 o.System.results.Guest_results.ops;
        check bool "consistent" true o.System.disk_consistent;
        check (list int) "lockstep" [] o.System.lockstep_mismatches);
    test_case "failover under code rewriting" `Quick (fun () ->
        let w = Hft_guest.Workload.disk_write ~ops:3 ~pad:20 ~spin:20 () in
        let sys = System.create ~params:rewriting_params ~workload:w () in
        System.crash_primary_at sys (Hft_sim.Time.of_ms 20);
        let o = System.run sys in
        check bool "failover" true o.System.failover;
        check int "ops" 3 o.System.results.Guest_results.ops;
        check bool "consistent" true o.System.disk_consistent);
    test_case "rewriting costs more than the recovery register" `Quick
      (fun () ->
        (* the reason the prototype wanted PA-RISC: software counting
           spends instructions the recovery register gets for free *)
        let w = Hft_guest.Workload.dhrystone ~iterations:2000 in
        let t params =
          let sys = System.create ~params ~workload:w () in
          (System.run sys).System.time
        in
        let rr = t { rewriting_params with Params.epoch_mechanism = Params.Recovery_register } in
        let cr = t rewriting_params in
        check bool "rewriting slower" true Hft_sim.Time.(rr < cr));
    test_case "timer interrupts still line up under rewriting" `Quick
      (fun () ->
        let w = Hft_guest.Workload.timer_tick ~period_us:400 ~ticks:5 in
        let sys = System.create ~params:rewriting_params ~workload:w () in
        let o = System.run sys in
        check int "ticks" 5 o.System.results.Guest_results.ticks;
        check (list int) "lockstep" [] o.System.lockstep_mismatches);
  ]

let () =
  Alcotest.run "hft_rewrite"
    [
      ("pass", rewrite_tests @ [ QCheck_alcotest.to_alcotest rewrite_equivalence ]);
      ("system", system_tests);
    ]
