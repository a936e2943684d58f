(* Tests for the machine substrate: words, ISA, encoding, assembler,
   TLB, and the CPU stepper's semantics. *)

open Hft_machine

(* -------- Word -------- *)

let word_tests =
  let open Alcotest in
  [
    test_case "mask wraps at 32 bits" `Quick (fun () ->
        check int "wrap" 0 (Word.mask 0x1_0000_0000);
        check int "add wrap" 0 (Word.add 0xFFFF_FFFF 1);
        check int "sub wrap" 0xFFFF_FFFF (Word.sub 0 1));
    test_case "signed interpretation" `Quick (fun () ->
        check int "neg" (-1) (Word.signed 0xFFFF_FFFF);
        check int "pos" 5 (Word.signed 5);
        check int "roundtrip" 0xFFFF_FFFE (Word.of_signed (-2)));
    test_case "division by zero conventions" `Quick (fun () ->
        check int "divu" 0xFFFF_FFFF (Word.divu 10 0);
        check int "remu" 10 (Word.remu 10 0));
    test_case "shifts take amount mod 32" `Quick (fun () ->
        check int "sll 33 = sll 1" (Word.shift_left 1 1) (Word.shift_left 1 33);
        check int "sra sign extends" 0xFFFF_FFFF
          (Word.shift_right_arith 0x8000_0000 31));
    test_case "comparisons" `Quick (fun () ->
        check bool "signed" true (Word.lt_signed 0xFFFF_FFFF 0);
        check bool "unsigned" false (Word.lt_unsigned 0xFFFF_FFFF 0));
  ]

(* -------- ISA classification -------- *)

let isa_tests =
  let open Alcotest in
  [
    test_case "classification" `Quick (fun () ->
        check bool "add ordinary" true
          (Isa.classify (Isa.Alu (Isa.Add, 1, 2, 3)) = Isa.Ordinary);
        check bool "probe ordinary" true
          (Isa.classify (Isa.Probe 1) = Isa.Ordinary);
        check bool "rdtod environment" true (Isa.is_environment (Isa.Rdtod 1));
        check bool "wfi environment" true (Isa.is_environment Isa.Wfi);
        check bool "mtcr privileged" true
          (Isa.is_privileged (Isa.Mtcr (Isa.Cr_status, 1)));
        check bool "rfi privileged" true (Isa.is_privileged Isa.Rfi);
        check bool "trapc class" true (Isa.classify (Isa.Trapc 1) = Isa.Trap_call));
    test_case "status bit accessors" `Quick (fun () ->
        let s = 0 in
        let s = Isa.status_with_priv s 3 in
        let s = Isa.status_with_int_enable s true in
        let s = Isa.status_with_mmu_enable s true in
        check int "priv" 3 (Isa.status_priv s);
        check bool "int" true (Isa.status_int_enable s);
        check bool "mmu" true (Isa.status_mmu_enable s);
        check bool "rc off" false (Isa.status_rc_enable s);
        let s = Isa.status_with_priv s 0 in
        check int "priv cleared" 0 (Isa.status_priv s);
        check bool "int preserved" true (Isa.status_int_enable s));
    test_case "cr index roundtrip" `Quick (fun () ->
        for i = 0 to Isa.num_crs - 1 do
          match Isa.cr_of_index i with
          | Some cr -> check int "roundtrip" i (Isa.cr_index cr)
          | None -> fail "missing cr"
        done;
        check bool "out of range" true (Isa.cr_of_index Isa.num_crs = None));
  ]

(* -------- Encode -------- *)

let arbitrary_instr =
  let open QCheck.Gen in
  let reg = int_range 0 15 in
  let cr =
    map
      (fun i ->
        match Isa.cr_of_index i with Some c -> c | None -> Isa.Cr_status)
      (int_range 0 (Isa.num_crs - 1))
  in
  let alu_op =
    oneofl
      [
        Isa.Add; Isa.Sub; Isa.Mul; Isa.Divu; Isa.Remu; Isa.And; Isa.Or;
        Isa.Xor; Isa.Sll; Isa.Srl; Isa.Sra; Isa.Slt; Isa.Sltu;
      ]
  in
  let cond = oneofl [ Isa.Eq; Isa.Ne; Isa.Lt; Isa.Ge; Isa.Ltu; Isa.Geu ] in
  let imm16 = int_range (-32768) 32767 in
  let imm32 = map Word.mask (int_range 0 0xFFFF_FFFF) in
  let target = int_range 0 0xFFFF in
  oneof
    [
      return Isa.Nop;
      map2 (fun r v -> Isa.Ldi (r, v)) reg imm32;
      map (fun ((op, a), (b, c)) -> Isa.Alu (op, a, b, c))
        (pair (pair alu_op reg) (pair reg reg));
      map (fun ((op, a), (b, i)) -> Isa.Alui (op, a, b, i))
        (pair (pair alu_op reg) (pair reg imm16));
      map (fun ((a, b), i) -> Isa.Ld (a, b, i)) (pair (pair reg reg) imm16);
      map (fun ((a, b), i) -> Isa.St (a, b, i)) (pair (pair reg reg) imm16);
      map (fun ((c, a), (b, t)) -> Isa.Br (c, a, b, t))
        (pair (pair cond reg) (pair reg target));
      map (fun t -> Isa.Jmp t) target;
      map2 (fun r t -> Isa.Jal (r, t)) reg target;
      map (fun r -> Isa.Jr r) reg;
      map (fun r -> Isa.Probe r) reg;
      return Isa.Halt;
      return Isa.Wfi;
      map (fun r -> Isa.Rdtod r) reg;
      map (fun r -> Isa.Rdtmr r) reg;
      map (fun r -> Isa.Wrtmr r) reg;
      map (fun r -> Isa.Out r) reg;
      map (fun c -> Isa.Trapc c) (int_range 0 255);
      map2 (fun r c -> Isa.Mfcr (r, c)) reg cr;
      map2 (fun c r -> Isa.Mtcr (c, r)) cr reg;
      map2 (fun a b -> Isa.Tlbw (a, b)) reg reg;
      return Isa.Rfi;
    ]

let encode_roundtrip =
  QCheck.Test.make ~name:"encode/decode roundtrip" ~count:2000
    (QCheck.make ~print:(Format.asprintf "%a" Isa.pp) arbitrary_instr)
    (fun i -> Isa.equal (Encode.decode (Encode.encode i)) i)

let encode_tests =
  let open Alcotest in
  [
    test_case "known encodings are stable" `Quick (fun () ->
        check int64 "nop" 0L (Encode.encode Isa.Nop);
        check bool "distinct" true
          (Encode.encode (Isa.Ldi (1, 5)) <> Encode.encode (Isa.Ldi (2, 5))));
    test_case "bad opcode rejected" `Quick (fun () ->
        let raised =
          try
            ignore (Encode.decode 255L);
            false
          with Encode.Decode_error _ -> true
        in
        check bool "raised" true raised);
    test_case "program hash distinguishes programs" `Quick (fun () ->
        let a = [| Isa.Nop; Isa.Halt |] and b = [| Isa.Nop; Isa.Nop |] in
        check bool "differ" true (Encode.program_hash a <> Encode.program_hash b);
        check int "stable" (Encode.program_hash a) (Encode.program_hash a));
  ]

(* -------- Assembler -------- *)

let asm_tests =
  let open Alcotest in
  let open Asm in
  [
    test_case "forward and backward labels" `Quick (fun () ->
        let p =
          assemble
            [
              label "start";
              jmp (lbl "end");
              label "mid";
              nop;
              jmp (lbl "start");
              label "end";
              halt;
            ]
        in
        check int "start" 0 (find_label p "start");
        check int "mid" 1 (find_label p "mid");
        check int "end" 3 (find_label p "end");
        check bool "jmp resolved" true (Isa.equal p.code.(0) (Isa.Jmp 3)));
    test_case "duplicate label rejected" `Quick (fun () ->
        let raised =
          try
            ignore (assemble [ label "a"; nop; label "a" ]);
            false
          with Error _ -> true
        in
        check bool "raised" true raised);
    test_case "undefined label rejected" `Quick (fun () ->
        let raised =
          try
            ignore (assemble [ jmp (lbl "nowhere") ]);
            false
          with Error _ -> true
        in
        check bool "raised" true raised);
    test_case "bad register rejected" `Quick (fun () ->
        let raised = try ignore (ldi 16 0); false with Error _ -> true in
        check bool "raised" true raised);
    test_case "imm16 range enforced" `Quick (fun () ->
        let raised =
          try ignore (addi 1 1 40_000); false with Error _ -> true
        in
        check bool "raised" true raised);
    test_case "comments emit nothing" `Quick (fun () ->
        let p = assemble [ comment "hi"; nop; comment "there"; halt ] in
        check int "len" 2 (Array.length p.code));
  ]

(* -------- CPU -------- *)

let run_program ?(fuel = 10_000) items =
  let p = Asm.assemble items in
  let cpu = Cpu.create ~code:p.Asm.code () in
  let res = Cpu.run cpu ~fuel in
  (cpu, res)

let stop_is_halt = function Cpu.Stop_halt -> true | _ -> false

let cpu_tests =
  let open Alcotest in
  let open Asm in
  [
    test_case "arithmetic and registers" `Quick (fun () ->
        let cpu, res =
          run_program
            [
              ldi r1 7; ldi r2 5; add r3 r1 r2; sub r4 r1 r2; mul r5 r1 r2;
              slt r6 r2 r1; halt;
            ]
        in
        check bool "halt" true (stop_is_halt res.Cpu.stop);
        check int "add" 12 (Cpu.reg cpu r3);
        check int "sub" 2 (Cpu.reg cpu r4);
        check int "mul" 35 (Cpu.reg cpu r5);
        check int "slt" 1 (Cpu.reg cpu r6);
        check int "executed" 6 res.Cpu.executed);
    test_case "r0 is hardwired zero" `Quick (fun () ->
        let cpu, _ = run_program [ ldi r0 42; halt ] in
        check int "r0" 0 (Cpu.reg cpu r0));
    test_case "loads and stores" `Quick (fun () ->
        let cpu, _ =
          run_program [ ldi r1 0x100; ldi r2 99; st r2 r1 4; ld r3 r1 4; halt ]
        in
        check int "mem" 99 (Memory.read (Cpu.mem cpu) 0x104);
        check int "loaded" 99 (Cpu.reg cpu r3));
    test_case "branches taken and not taken" `Quick (fun () ->
        let cpu, _ =
          run_program
            [
              ldi r1 3; ldi r2 0;
              label "loop";
              addi r2 r2 10;
              subi r1 r1 1;
              bne r1 r0 (lbl "loop");
              halt;
            ]
        in
        check int "looped" 30 (Cpu.reg cpu r2));
    test_case "jal link carries privilege bits" `Quick (fun () ->
        (* at privilege 0 the low bits are zero; pc+1 is shifted left *)
        let cpu, _ =
          run_program [ jal r1 (lbl "f"); label "f"; halt ]
        in
        check int "link" (1 lsl 2) (Cpu.reg cpu r1));
    test_case "jr returns through the link" `Quick (fun () ->
        let cpu, _ =
          run_program
            [
              ldi r2 1;
              jal r1 (lbl "f");
              ldi r2 2;
              halt;
              label "f";
              jr r1;
            ]
        in
        check int "returned" 2 (Cpu.reg cpu r2));
    test_case "probe reveals privilege" `Quick (fun () ->
        let cpu, _ = run_program [ probe r1; halt ] in
        check int "priv0" 0 (Cpu.reg cpu r1));
    test_case "environment instructions stop the stepper" `Quick (fun () ->
        let _, res = run_program [ rdtod r1; halt ] in
        match res.Cpu.stop with
        | Cpu.Env (Isa.Rdtod 1) -> ()
        | s -> failf "unexpected stop %a" Cpu.pp_stop s);
    test_case "privileged executes at priv 0, traps at priv 3" `Quick
      (fun () ->
        let cpu, res =
          run_program [ mtcr Isa.Cr_scratch0 r0; halt ]
        in
        check bool "runs at priv0" true (stop_is_halt res.Cpu.stop);
        (* now at privilege 3 *)
        let p = Asm.assemble [ mfcr r1 Isa.Cr_status; halt ] in
        let cpu2 = Cpu.create ~code:p.Asm.code () in
        Cpu.set_priv cpu2 3;
        let res2 = Cpu.run cpu2 ~fuel:10 in
        (match res2.Cpu.stop with
        | Cpu.Priv (Isa.Mfcr _) -> ()
        | s -> failf "unexpected stop %a" Cpu.pp_stop s);
        ignore cpu);
    test_case "syscall stops with code" `Quick (fun () ->
        let _, res = run_program [ trapc 42; halt ] in
        match res.Cpu.stop with
        | Cpu.Syscall 42 -> ()
        | s -> failf "unexpected stop %a" Cpu.pp_stop s);
    test_case "wfi advances pc and stops" `Quick (fun () ->
        let cpu, res = run_program [ wfi; halt ] in
        check bool "wfi" true (res.Cpu.stop = Cpu.Stop_wfi);
        check int "pc past wfi" 1 (Cpu.pc cpu));
    test_case "fuel exhaustion" `Quick (fun () ->
        let _, res =
          run_program ~fuel:5 [ label "l"; addi r1 r1 1; jmp (lbl "l") ]
        in
        check bool "fuel" true (res.Cpu.stop = Cpu.Fuel);
        check int "executed" 5 res.Cpu.executed);
    test_case "mmio accesses stop the stepper" `Quick (fun () ->
        let _, res = run_program [ ldi r1 0xF0000; ld r2 r1 3; halt ] in
        (match res.Cpu.stop with
        | Cpu.Mmio_read { paddr = 0xF0003; reg = 2 } -> ()
        | s -> failf "unexpected stop %a" Cpu.pp_stop s);
        let _, res = run_program [ ldi r1 0xF0000; st r1 r1 0; halt ] in
        match res.Cpu.stop with
        | Cpu.Mmio_write { paddr = 0xF0000; value = 0xF0000 } -> ()
        | s -> failf "unexpected stop %a" Cpu.pp_stop s);
    test_case "bad pc faults" `Quick (fun () ->
        let _, res = run_program [ jmp (abs 9999) ] in
        match res.Cpu.stop with
        | Cpu.Fault _ -> ()
        | s -> failf "unexpected stop %a" Cpu.pp_stop s);
    test_case "out-of-range load faults" `Quick (fun () ->
        (* 0x80000 is beyond memory but below the MMIO base: a bus error *)
        let _, res = run_program [ ldi r1 0x80000; ld r2 r1 0; halt ] in
        (match res.Cpu.stop with
        | Cpu.Fault _ -> ()
        | s -> failf "unexpected stop %a" Cpu.pp_stop s);
        (* at or above the MMIO base it is device space *)
        let _, res = run_program [ ldi r1 0xF0010; ld r2 r1 0; halt ] in
        match res.Cpu.stop with
        | Cpu.Mmio_read _ -> ()
        | s -> failf "unexpected stop %a" Cpu.pp_stop s);
  ]

let recovery_tests =
  let open Alcotest in
  let open Asm in
  [
    test_case "recovery counter traps after exactly n instructions" `Quick
      (fun () ->
        let p =
          assemble [ label "l"; addi r1 r1 1; jmp (lbl "l") ]
        in
        let cpu = Cpu.create ~code:p.Asm.code () in
        Cpu.set_recovery cpu 10;
        let res = Cpu.run cpu ~fuel:1000 in
        check bool "recovery" true (res.Cpu.stop = Cpu.Recovery);
        check int "executed" 10 res.Cpu.executed;
        check int "remaining" 0 (Cpu.recovery_remaining cpu));
    test_case "recovery remaining counts down" `Quick (fun () ->
        let p = assemble [ label "l"; nop; jmp (lbl "l") ] in
        let cpu = Cpu.create ~code:p.Asm.code () in
        Cpu.set_recovery cpu 100;
        let _ = Cpu.run cpu ~fuel:30 in
        check int "remaining" 70 (Cpu.recovery_remaining cpu));
    test_case "tick_recovery expires" `Quick (fun () ->
        let p = assemble [ nop; halt ] in
        let cpu = Cpu.create ~code:p.Asm.code () in
        Cpu.set_recovery cpu 2;
        check bool "first" false (Cpu.tick_recovery cpu);
        check bool "second" true (Cpu.tick_recovery cpu));
    test_case "disabled counter never traps" `Quick (fun () ->
        let p = assemble [ label "l"; nop; jmp (lbl "l") ] in
        let cpu = Cpu.create ~code:p.Asm.code () in
        Cpu.set_recovery cpu 5;
        Cpu.disable_recovery cpu;
        let res = Cpu.run cpu ~fuel:50 in
        check bool "fuel" true (res.Cpu.stop = Cpu.Fuel));
  ]

let trap_tests =
  let open Alcotest in
  let open Asm in
  [
    test_case "deliver_trap vectors and saves state" `Quick (fun () ->
        let p =
          assemble
            [ nop; halt; label "vec"; mfcr r1 Isa.Cr_cause; rfi ]
        in
        let cpu = Cpu.create ~code:p.Asm.code () in
        Cpu.set_cr cpu Isa.Cr_ivec (Asm.find_label p "vec");
        Cpu.set_priv cpu 3;
        Cpu.set_pc cpu 0;
        Cpu.deliver_trap cpu ~cause:Isa.Cause.syscall ~epc:1;
        check int "pc at vector" (Asm.find_label p "vec") (Cpu.pc cpu);
        check int "priv 0" 0 (Cpu.priv cpu);
        check int "cause" Isa.Cause.syscall (Cpu.cr cpu Isa.Cr_cause);
        check int "epc" 1 (Cpu.cr cpu Isa.Cr_epc);
        check int "istatus keeps old priv" 3
          (Isa.status_priv (Cpu.cr cpu Isa.Cr_istatus));
        (* run handler: reads cause then rfi back to epc *)
        let res = Cpu.run cpu ~fuel:10 in
        check bool "halted" true (stop_is_halt res.Cpu.stop);
        check int "handler saw cause" Isa.Cause.syscall (Cpu.reg cpu r1);
        check int "privilege restored" 3 (Cpu.priv cpu));
    test_case "interrupts_enabled follows status" `Quick (fun () ->
        let p = assemble [ halt ] in
        let cpu = Cpu.create ~code:p.Asm.code () in
        check bool "off" false (Cpu.interrupts_enabled cpu);
        Cpu.set_cr cpu Isa.Cr_status
          (Isa.status_with_int_enable (Cpu.cr cpu Isa.Cr_status) true);
        check bool "on" true (Cpu.interrupts_enabled cpu));
  ]

let tlb_tests =
  let open Alcotest in
  [
    test_case "insert and lookup" `Quick (fun () ->
        let t = Tlb.create ~entries:4 Tlb.Round_robin in
        Tlb.insert t { Tlb.vpage = 1; ppage = 7; user_ok = true; writable = true };
        (match Tlb.lookup t ~vpage:1 with
        | Some e -> check int "ppage" 7 e.Tlb.ppage
        | None -> fail "missing");
        check bool "absent" true (Tlb.lookup t ~vpage:2 = None));
    test_case "same vpage replaces in place" `Quick (fun () ->
        let t = Tlb.create ~entries:4 Tlb.Round_robin in
        Tlb.insert t { Tlb.vpage = 1; ppage = 7; user_ok = false; writable = false };
        Tlb.insert t { Tlb.vpage = 1; ppage = 9; user_ok = true; writable = true };
        check int "one entry" 1 (List.length (Tlb.entries t));
        match Tlb.lookup t ~vpage:1 with
        | Some e -> check int "updated" 9 e.Tlb.ppage
        | None -> fail "missing");
    test_case "round robin evicts deterministically" `Quick (fun () ->
        let mk () =
          let t = Tlb.create ~entries:2 Tlb.Round_robin in
          for v = 0 to 5 do
            Tlb.insert t
              { Tlb.vpage = v; ppage = v; user_ok = true; writable = true }
          done;
          List.map (fun e -> e.Tlb.vpage) (Tlb.entries t)
        in
        check (list int) "same contents" (mk ()) (mk ()));
    test_case "random policies with different seeds diverge" `Quick (fun () ->
        (* compare the whole eviction history, not just the final set *)
        let fill seed =
          let t =
            Tlb.create ~entries:4 (Tlb.Random (Hft_sim.Rng.create seed))
          in
          let history = ref [] in
          for v = 0 to 63 do
            Tlb.insert t
              { Tlb.vpage = v; ppage = v; user_ok = true; writable = true };
            history :=
              List.map (fun e -> e.Tlb.vpage) (Tlb.entries t) :: !history
          done;
          !history
        in
        check bool "diverge" true (fill 1 <> fill 2);
        check bool "same seed agrees" true (fill 5 = fill 5));
    test_case "entry word roundtrip" `Quick (fun () ->
        let w = Tlb.entry_word ~ppage:0x3C0 ~user_ok:true ~writable:false in
        let e = Tlb.decode_entry_word ~vpage:5 w in
        check int "ppage" 0x3C0 e.Tlb.ppage;
        check bool "user" true e.Tlb.user_ok;
        check bool "writable" false e.Tlb.writable;
        check int "vpage" 5 e.Tlb.vpage);
    test_case "flush empties" `Quick (fun () ->
        let t = Tlb.create ~entries:4 Tlb.Round_robin in
        Tlb.insert t { Tlb.vpage = 1; ppage = 1; user_ok = true; writable = true };
        Tlb.flush t;
        check int "empty" 0 (List.length (Tlb.entries t)));
  ]

let mmu_tests =
  let open Alcotest in
  let open Asm in
  [
    test_case "mmu off means identity" `Quick (fun () ->
        let p = assemble [ halt ] in
        let cpu = Cpu.create ~code:p.Asm.code () in
        check bool "identity" true
          (Cpu.translate cpu ~write:false 0x1234 = Ok 0x1234));
    test_case "mmu on misses then translates" `Quick (fun () ->
        let p = assemble [ halt ] in
        let cpu = Cpu.create ~code:p.Asm.code () in
        Cpu.set_cr cpu Isa.Cr_status
          (Isa.status_with_mmu_enable (Cpu.cr cpu Isa.Cr_status) true);
        (match Cpu.translate cpu ~write:false 0x1234 with
        | Error (Cpu.Tlb_miss { vaddr = 0x1234; _ }) -> ()
        | _ -> fail "expected miss");
        Tlb.insert (Cpu.tlb cpu)
          { Tlb.vpage = 4; ppage = 9; user_ok = false; writable = true };
        check bool "translated" true
          (Cpu.translate cpu ~write:false 0x1234
          = Ok ((9 lsl 10) lor (0x1234 land 1023))));
    test_case "user access to kernel page protected" `Quick (fun () ->
        let p = assemble [ halt ] in
        let cpu = Cpu.create ~code:p.Asm.code () in
        Cpu.set_cr cpu Isa.Cr_status
          (Isa.status_with_mmu_enable (Cpu.cr cpu Isa.Cr_status) true);
        Tlb.insert (Cpu.tlb cpu)
          { Tlb.vpage = 0; ppage = 0; user_ok = false; writable = true };
        Cpu.set_priv cpu 3;
        match Cpu.translate cpu ~write:false 5 with
        | Error (Cpu.Protection _) -> ()
        | _ -> fail "expected protection");
    test_case "write to read-only page protected" `Quick (fun () ->
        let p = assemble [ halt ] in
        let cpu = Cpu.create ~code:p.Asm.code () in
        Cpu.set_cr cpu Isa.Cr_status
          (Isa.status_with_mmu_enable (Cpu.cr cpu Isa.Cr_status) true);
        Tlb.insert (Cpu.tlb cpu)
          { Tlb.vpage = 0; ppage = 0; user_ok = true; writable = false };
        (match Cpu.translate cpu ~write:true 5 with
        | Error (Cpu.Protection _) -> ()
        | _ -> fail "expected protection");
        check bool "read ok" true (Cpu.translate cpu ~write:false 5 = Ok 5));
  ]

(* Determinism: the Ordinary Instruction Assumption.  Random programs
   of safe ordinary instructions must leave two machines in identical
   states. *)

let safe_program_gen =
  let open QCheck.Gen in
  let reg = int_range 1 11 in
  let alu_op =
    oneofl
      [
        Isa.Add; Isa.Sub; Isa.Mul; Isa.Divu; Isa.Remu; Isa.And; Isa.Or;
        Isa.Xor; Isa.Sll; Isa.Srl; Isa.Sra; Isa.Slt; Isa.Sltu;
      ]
  in
  let mem_off = int_range 0x1000 0x1FFF in
  let instr =
    frequency
      [
        (4, map (fun ((op, a), (b, c)) -> Isa.Alu (op, a, b, c))
              (pair (pair alu_op reg) (pair reg reg)));
        (2, map (fun ((op, a), (b, i)) -> Isa.Alui (op, a, b, i))
              (pair (pair alu_op reg) (pair reg (int_range (-100) 100))));
        (2, map2 (fun r v -> Isa.Ldi (r, Word.mask v)) reg (int_range 0 1_000_000));
        (1, map2 (fun r off -> Isa.Ld (r, 0, off)) reg mem_off);
        (1, map2 (fun r off -> Isa.St (r, 0, off)) reg mem_off);
      ]
  in
  map
    (fun l -> Array.of_list (l @ [ Isa.Halt ]))
    (list_size (int_range 1 200) instr)

let determinism_prop =
  QCheck.Test.make ~name:"ordinary instructions are deterministic" ~count:100
    (QCheck.make safe_program_gen) (fun code ->
      let run () =
        let cpu = Cpu.create ~code () in
        let _ = Cpu.run cpu ~fuel:1000 in
        Cpu.state_hash cpu
      in
      run () = run ())

let snapshot_prop =
  QCheck.Test.make ~name:"snapshot/restore preserves state" ~count:50
    (QCheck.make safe_program_gen) (fun code ->
      let cpu = Cpu.create ~code () in
      let _ = Cpu.run cpu ~fuel:100 in
      let snap = Cpu.snapshot cpu in
      let h = Cpu.state_hash cpu in
      let _ = Cpu.run cpu ~fuel:1000 in
      Cpu.restore cpu snap;
      Cpu.state_hash cpu = h)

let hash_sensitivity =
  let open Alcotest in
  [
    test_case "hash reflects register change" `Quick (fun () ->
        let p = Asm.assemble [ Asm.halt ] in
        let cpu = Cpu.create ~code:p.Asm.code () in
        let h0 = Cpu.state_hash cpu in
        Cpu.set_reg cpu 1 42;
        check bool "changed" true (Cpu.state_hash cpu <> h0));
    test_case "hash reflects memory change" `Quick (fun () ->
        let p = Asm.assemble [ Asm.halt ] in
        let cpu = Cpu.create ~code:p.Asm.code () in
        let h0 = Cpu.state_hash cpu in
        Memory.write (Cpu.mem cpu) 0x500 1;
        check bool "changed" true (Cpu.state_hash cpu <> h0));
    test_case "tlb excluded unless requested" `Quick (fun () ->
        let p = Asm.assemble [ Asm.halt ] in
        let cpu = Cpu.create ~code:p.Asm.code () in
        let h0 = Cpu.state_hash cpu in
        let ht0 = Cpu.state_hash ~include_tlb:true cpu in
        Tlb.insert (Cpu.tlb cpu)
          { Tlb.vpage = 1; ppage = 1; user_ok = true; writable = true };
        check bool "without tlb stable" true (Cpu.state_hash cpu = h0);
        check bool "with tlb changes" true
          (Cpu.state_hash ~include_tlb:true cpu <> ht0));
  ]

let image_tests =
  let open Alcotest in
  let sample =
    Asm.(
      assemble
        [
          label "start";
          ldi_target r1 (lbl "vec");
          ldi r2 42;
          jmp (lbl "start");
          label "vec";
          halt;
        ])
  in
  [
    test_case "roundtrip preserves code, labels and relocations" `Quick
      (fun () ->
        let p = Image.of_string (Image.to_string sample) in
        check bool "code" true (p.Asm.code = sample.Asm.code);
        check int "vec label" (Asm.find_label sample "vec")
          (Asm.find_label p "vec");
        check (list int) "relocations" sample.Asm.code_refs p.Asm.code_refs);
    test_case "save and load through a file" `Quick (fun () ->
        let path = Filename.temp_file "hft" ".img" in
        Fun.protect
          ~finally:(fun () -> Sys.remove path)
          (fun () ->
            Image.save ~path sample;
            let p = Image.load ~path in
            check bool "code" true (p.Asm.code = sample.Asm.code)));
    test_case "bad magic rejected" `Quick (fun () ->
        let raised =
          try ignore (Image.of_string "NOPE 1\n0\n"); false
          with Image.Format_error _ -> true
        in
        check bool "raised" true raised);
    test_case "count mismatch rejected" `Quick (fun () ->
        let raised =
          try ignore (Image.of_string "HFT1 2\n0000000000000000\n"); false
          with Image.Format_error _ -> true
        in
        check bool "raised" true raised);
    test_case "garbage word rejected" `Quick (fun () ->
        let raised =
          try ignore (Image.of_string "HFT1 1\nzz\n"); false
          with Image.Format_error _ -> true
        in
        check bool "raised" true raised);
    test_case "undecodable word rejected" `Quick (fun () ->
        let raised =
          try ignore (Image.of_string "HFT1 1\nffffffffffffffff\n"); false
          with Image.Format_error _ -> true
        in
        check bool "raised" true raised);
    test_case "duplicate label rejected" `Quick (fun () ->
        let raised =
          try
            ignore
              (Image.of_string "HFT1 1\n0000000000000000\nL a 0\nL a 1\n");
            false
          with Image.Format_error _ -> true
        in
        check bool "raised" true raised);
    test_case "reloaded image can be rewritten (relocations survive)" `Quick
      (fun () ->
        let p = Image.of_string (Image.to_string sample) in
        let r = Rewrite.rewrite_program ~every:2 p in
        (* the vector immediate must point at the relocated label *)
        match r.Asm.code.(Asm.find_label r "start") with
        | Isa.Ldi (1, v) -> check int "relocated" (Asm.find_label r "vec") v
        | i -> failf "expected ldi, got %a" Isa.pp i);
  ]

let image_roundtrip_prop =
  QCheck.Test.make ~name:"images roundtrip random programs" ~count:200
    (QCheck.make
       QCheck.Gen.(
         map
           (fun l -> Array.of_list l)
           (list_size (int_range 1 60) arbitrary_instr)))
    (fun code ->
      let p =
        Asm.assemble (Array.to_list (Array.map Asm.insn code))
      in
      (Image.of_string (Image.to_string p)).Asm.code = p.Asm.code)

let memory_tests =
  let open Alcotest in
  [
    test_case "bounds checked" `Quick (fun () ->
        let m = Memory.create ~words:16 () in
        let raised =
          try ignore (Memory.read m 16); false with Invalid_argument _ -> true
        in
        check bool "read oob" true raised);
    test_case "blit in and out" `Quick (fun () ->
        let m = Memory.create ~words:64 () in
        Memory.blit_in m ~addr:8 [| 1; 2; 3 |];
        check bool "roundtrip" true
          (Memory.blit_out m ~addr:8 ~len:3 = [| 1; 2; 3 |]));
    test_case "save is deep" `Quick (fun () ->
        let m = Memory.create ~words:8 () in
        Memory.write m 0 4;
        let s = Memory.save m in
        Memory.write m 0 5;
        let c = Memory.create ~words:8 () in
        Memory.adopt c s;
        check int "save unchanged" 4 (Memory.read c 0));
  ]

(* -------- dirty-page tracking and incremental digests -------- *)

(* A page-level reference model of what a memory's caller can observe
   besides its words: which pages the next digest must re-hash
   ([stale]), which are snapshot-dirty ([snap]), whether anything was
   written since the last digest ([clean]), and the hash-work
   counters.  Chunk-grained tracking must be invisible at this level. *)
type model = {
  truth : int array;
  stale : bool array;
  snap : bool array;
  mutable clean : bool;
  mutable hashed : int;
  mutable skipped : int;
}

let model ~page_shift ~words =
  let pages = ((words - 1) lsr page_shift) + 1 in
  {
    truth = Array.make words 0;
    stale = Array.make pages false;
    snap = Array.make pages true;
    clean = false;
    hashed = 0;
    skipped = 0;
  }

let model_copy md =
  {
    md with
    truth = Array.copy md.truth;
    stale = Array.copy md.stale;
    snap = Array.copy md.snap;
  }

(* the page-level state of [src], into [md] *)
let model_load md src =
  Array.blit src.truth 0 md.truth 0 (Array.length md.truth);
  Array.blit src.stale 0 md.stale 0 (Array.length md.stale);
  Array.blit src.snap 0 md.snap 0 (Array.length md.snap);
  md.clean <- src.clean

let model_write md ~page_shift a block =
  Array.blit block 0 md.truth a (Array.length block);
  for p = a lsr page_shift to (a + Array.length block - 1) lsr page_shift do
    md.stale.(p) <- true;
    md.snap.(p) <- true
  done;
  md.clean <- false

let model_digest md =
  if md.clean then md.skipped <- md.skipped + Array.length md.stale
  else
    Array.iteri
      (fun p stale ->
        if stale then md.hashed <- md.hashed + 1
        else md.skipped <- md.skipped + 1;
        md.stale.(p) <- false)
      md.stale;
  md.clean <- true

let model_reset md =
  Array.fill md.truth 0 (Array.length md.truth) 0;
  Array.fill md.stale 0 (Array.length md.stale) false;
  Array.fill md.snap 0 (Array.length md.snap) true;
  md.clean <- false;
  md.hashed <- 0;
  md.skipped <- 0

let model_dirty md =
  List.filter (fun p -> md.snap.(p)) (List.init (Array.length md.snap) Fun.id)

(* The incremental digest must be indistinguishable from a from-scratch
   re-hash after any interleaving of writes, DMA blits in and out (an
   outbound blit must read back the model's words), digest reads (which
   build the caches), dirty-bit clears, resets, saves, restores of any
   earlier save, and adopting a save of a twin memory (written and
   digested on its own).  Throughout, a restore brings back the saved
   words, and the hash work and the snapshot-dirty set are those of
   the page-level [model].  Sizes are not multiples of a page or of a
   chunk, and pages run from one word to larger than the memory. *)
let digest_equiv_prop =
  let open QCheck.Gen in
  let geometry =
    pair
      (oneof [ int_range 0 10; return 16 ])
      (oneofl [ 1; 5; 31; 33; 700; 1000; 1024; 1025; 4096; 5000 ])
  in
  let anywhere = int_bound 1_000_000 in
  let value = int_range 0 1_000_000 in
  let op =
    frequency
      [
        (4, map2 (fun a v -> `Write (a, v)) anywhere value);
        (2, map2 (fun a v -> `Write_fast (a, v)) anywhere value);
        (2, map2 (fun a len -> `Blit (a, len)) anywhere (int_range 1 64));
        (1, map2 (fun a len -> `Blit_out (a, len)) anywhere (int_range 1 64));
        (2, return `Digest);
        (1, return `Full_digest);
        (1, return `Clear);
        (1, return `Reset);
        (2, return `Save);
        (2, map (fun i -> `Restore i) nat);
        ( 2,
          map2 (fun a v -> `Twin_write (a, v)) anywhere (int_bound 1_000_000) );
        (1, return `Twin_digest);
        (1, return `Adopt_twin);
      ]
  in
  let gen = pair geometry (list_size (int_range 1 120) op) in
  QCheck.Test.make ~name:"incremental digest equals full re-hash" ~count:300
    (QCheck.make gen) (fun ((page_shift, words), ops) ->
      let m = Memory.create ~page_shift ~words () in
      let md = model ~page_shift ~words in
      (* fresh memory: the cached zero digests are already right, so
         the first digest hashes nothing *)
      let d0 = Memory.digest m in
      model_digest md;
      let fresh_ok =
        Memory.take_hash_work m = (0, Memory.pages m)
        && d0 = Memory.full_digest m
      in
      ignore (Memory.take_hash_work m);
      md.skipped <- 0;
      let saves = ref [ (Memory.save m, model_copy md) ] in
      let twin = Memory.create ~page_shift ~words () in
      let twin_md = model ~page_shift ~words in
      let ok = ref fresh_ok in
      let expect b = if not b then ok := false in
      (* the hash work and dirty set the model predicts *)
      let agrees () =
        Memory.take_hash_work m = (md.hashed, md.skipped)
        && Memory.dirty_pages m = model_dirty md
        && (md.hashed <- 0;
            md.skipped <- 0;
            true)
      in
      List.iter
        (fun op ->
          match op with
          | `Write (a, v) ->
            let a = a mod words in
            Memory.write m a v;
            model_write md ~page_shift a [| Word.mask v |]
          | `Write_fast (a, v) ->
            let a = a mod words in
            Memory.write_fast m a (Word.mask v);
            model_write md ~page_shift a [| Word.mask v |]
          | `Blit (a, len) ->
            let a = a mod words in
            let len = min len (words - a) in
            let block = Array.init len (fun i -> Word.mask (a + (i * 37))) in
            Memory.blit_in m ~addr:a block;
            model_write md ~page_shift a block
          | `Blit_out (a, len) ->
            let a = a mod words in
            let len = min len (words - a) in
            expect (Memory.blit_out m ~addr:a ~len = Array.sub md.truth a len)
          | `Digest ->
            let d = Memory.digest m in
            model_digest md;
            expect (d = Memory.full_digest m);
            md.hashed <- md.hashed + Memory.pages m;
            expect (agrees ())
          | `Full_digest ->
            ignore (Memory.full_digest m);
            md.hashed <- md.hashed + Memory.pages m
          | `Clear ->
            Memory.clear_dirty m;
            Array.fill md.snap 0 (Array.length md.snap) false
          | `Reset ->
            Memory.reset m;
            model_reset md
          | `Save -> saves := (Memory.save m, model_copy md) :: !saves
          | `Restore i ->
            let s, smd = List.nth !saves (i mod List.length !saves) in
            Memory.restore m s;
            model_load md smd;
            md.hashed <- smd.hashed;
            md.skipped <- smd.skipped;
            expect (Memory.blit_out m ~addr:0 ~len:words = smd.truth)
          | `Twin_write (a, v) ->
            let a = a mod words in
            Memory.write twin a v;
            model_write twin_md ~page_shift a [| Word.mask v |]
          | `Twin_digest ->
            ignore (Memory.digest twin);
            model_digest twin_md
          | `Adopt_twin ->
            Memory.adopt m (Memory.save twin);
            model_load md twin_md;
            Array.fill md.snap 0 (Array.length md.snap) true)
        ops;
      let fresh = Memory.create ~page_shift ~words () in
      Memory.blit_in fresh ~addr:0 md.truth;
      let d = Memory.digest m in
      model_digest md;
      !ok && agrees ()
      && d = Memory.full_digest m
      && d = Memory.digest fresh
      && Memory.equal m fresh)

(* Recycling is exact: after any mix of the mutation paths a reset
   memory is indistinguishable from a fresh one — same words, digests,
   snapshot-dirty set and hash work — and stays so under a second
   random run.  [twin] (same geometry, digested now and then so its
   written pages need not be stale) feeds [adopt] saves of another
   memory; [Save]/[Restore] move the memory's own [head]. *)
let reset_exact_prop =
  let open QCheck.Gen in
  let geometry =
    pair (oneofl [ 0; 8; 10 ]) (oneofl [ 1; 700; 1024; 4096; 5000 ])
  in
  let anywhere = int_bound 1_000_000 in
  let value = int_range 0 1_000_000 in
  let op =
    frequency
      [
        (4, map2 (fun a v -> `Write (a, v)) anywhere value);
        (4, map2 (fun a v -> `Write_fast (a, v)) anywhere value);
        (2, map2 (fun a len -> `Blit (a, len)) anywhere (int_range 1 64));
        (2, map2 (fun a v -> `Twin_write (a, v)) anywhere value);
        (1, return `Twin_digest);
        (1, return `Adopt_twin);
        (1, return `Save);
        (1, return `Restore);
        (2, return `Digest);
        (1, return `Clear);
      ]
  in
  let ops = list_size (int_range 0 80) op in
  let gen = triple geometry ops ops in
  (* everything a caller can observe: each digest with the hash work
     it cost, the dirty set, and the final contents *)
  let observe ~page_shift ~words m ops =
    let twin = Memory.create ~page_shift ~words () in
    let saved = ref None in
    let log = ref [] in
    let note x = log := x :: !log in
    List.iter
      (function
        | `Write (a, v) -> Memory.write m (a mod words) v
        | `Write_fast (a, v) -> Memory.write_fast m (a mod words) (Word.mask v)
        | `Blit (a, len) ->
          let a = a mod words in
          Memory.blit_in m ~addr:a
            (Array.init (min len (words - a)) (fun i -> Word.mask (a + i + 1)))
        | `Twin_write (a, v) -> Memory.write twin (a mod words) v
        | `Twin_digest -> ignore (Memory.digest twin)
        | `Adopt_twin -> Memory.adopt m (Memory.save twin)
        | `Save -> saved := Some (Memory.save m)
        | `Restore -> Option.iter (Memory.restore m) !saved
        | `Digest ->
          let d = Memory.digest m in
          let hashed, skipped = Memory.take_hash_work m in
          note [ d; hashed; skipped ]
        | `Clear -> Memory.clear_dirty m)
      ops;
    let hashed, skipped = Memory.take_hash_work m in
    ( List.rev !log,
      [ hashed; skipped; Memory.digest m; Memory.full_digest m ],
      Memory.dirty_pages m,
      Memory.blit_out m ~addr:0 ~len:words )
  in
  QCheck.Test.make ~name:"reset memory is indistinguishable from fresh"
    ~count:200 (QCheck.make gen)
    (fun ((page_shift, words), before, after) ->
      let observe = observe ~page_shift ~words in
      let m = Memory.create ~page_shift ~words () in
      ignore (observe m before);
      Memory.reset m;
      let fresh = Memory.create ~page_shift ~words () in
      let every_page = List.init (Memory.pages m) Fun.id in
      Memory.take_hash_work m = (0, 0)
      && Memory.dirty_pages m = every_page
      && Memory.equal m fresh
      && Memory.digest m = Memory.digest fresh
      && Memory.take_hash_work m = (0, Memory.pages m)
      && Memory.full_digest m = Memory.full_digest fresh
      && (ignore (Memory.take_hash_work m, Memory.take_hash_work fresh);
          observe m after = observe fresh after))

(* Same equivalence at the CPU level, across run/snapshot/run/restore:
   the state hash a replica sends at a boundary must not depend on
   which digest scheme computed it. *)
let incremental_hash_prop =
  QCheck.Test.make ~name:"state hash scheme-independent across snapshots"
    ~count:50 (QCheck.make safe_program_gen) (fun code ->
      let cpu = Cpu.create ~code () in
      let _ = Cpu.run cpu ~fuel:100 in
      let agree () = Cpu.state_hash cpu = Cpu.state_hash ~full:true cpu in
      let ok0 = agree () in
      let snap = Cpu.snapshot cpu in
      let h = Cpu.state_hash cpu in
      let _ = Cpu.run cpu ~fuel:1000 in
      let ok1 = agree () in
      Cpu.restore cpu snap;
      ok0 && ok1 && agree () && Cpu.state_hash ~full:true cpu = h)

let dirty_page_tests =
  let open Alcotest in
  [
    test_case "dirty_pages tracks writes, clear_dirty resets" `Quick
      (fun () ->
        let m = Memory.create ~words:4096 () in
        check (list int) "all dirty initially" [ 0; 1; 2; 3 ]
          (Memory.dirty_pages m);
        Memory.clear_dirty m;
        check (list int) "clean after clear" [] (Memory.dirty_pages m);
        Memory.write m 0x500 1;
        Memory.write m 0xC01 2;
        check (list int) "written pages dirty" [ 1; 3 ] (Memory.dirty_pages m);
        Memory.blit_in m ~addr:0x3FE [| 1; 2; 3; 4 |];
        check (list int) "blit spans pages" [ 0; 1; 3 ]
          (Memory.dirty_pages m));
    test_case "single-word corruption flips the digest and back" `Quick
      (fun () ->
        let m = Memory.create ~words:4096 () in
        Memory.write m 7 123;
        let d0 = Memory.digest m in
        let prev = Memory.read m 0x800 in
        Memory.write m 0x800 (prev + 1);
        check bool "corruption detected" true (Memory.digest m <> d0);
        Memory.write m 0x800 prev;
        check int "restored digest" d0 (Memory.digest m));
    test_case "digest work is proportional to dirty pages" `Quick (fun () ->
        let m = Memory.create ~words:4096 () in
        ignore (Memory.digest m : int);
        ignore (Memory.take_hash_work m);
        Memory.write m 0 1;
        ignore (Memory.digest m : int);
        let hashed, skipped = Memory.take_hash_work m in
        check int "one page re-hashed" 1 hashed;
        check int "three reused" 3 skipped);
    test_case "adopt takes in another memory's save" `Quick (fun () ->
        let a = Memory.create ~words:64 () in
        let b = Memory.create ~words:64 () in
        Memory.write a 3 99;
        Memory.adopt b (Memory.save a);
        check int "copied" 99 (Memory.read b 3);
        check bool "equal" true (Memory.equal a b);
        check int "digest agrees" (Memory.digest a) (Memory.digest b);
        check (list int) "every page snapshot-dirty" [ 0 ]
          (Memory.dirty_pages b));
    test_case "a save of another geometry is rejected" `Quick (fun () ->
        (* 4096 and 4000 words are both 4 pages of 1 Ki words *)
        let big = Memory.create ~words:4096 () in
        Memory.write big 4095 7;
        let s = Memory.save big in
        let rejected f =
          try f (); false with Invalid_argument _ -> true
        in
        let small = Memory.create ~words:4000 () in
        check bool "restore: other size" true
          (rejected (fun () -> Memory.restore small s));
        check bool "adopt: other size" true
          (rejected (fun () -> Memory.adopt small s));
        let coarse = Memory.create ~page_shift:11 ~words:4096 () in
        check bool "restore: other page size" true
          (rejected (fun () -> Memory.restore coarse s));
        check bool "adopt: other page size" true
          (rejected (fun () -> Memory.adopt coarse s)));
    test_case "equal ignores tracking state" `Quick (fun () ->
        let a = Memory.create ~words:32 () in
        let b = Memory.create ~words:32 () in
        ignore (Memory.digest a : int);
        (* a has a built cache, b none *)
        Memory.clear_dirty a;
        check bool "same contents" true (Memory.equal a b);
        Memory.write b 31 1;
        check bool "differ" false (Memory.equal a b));
    test_case "snapshots copy the delta only" `Quick (fun () ->
        let p = Asm.assemble [ Asm.halt ] in
        let cpu = Cpu.create ~code:p.Asm.code () in
        let mem_bytes = 4 * Memory.size (Cpu.mem cpu) in
        ignore (Cpu.snapshot cpu);
        check int "first snapshot is a full copy" mem_bytes
          (Cpu.snapshot_bytes_copied cpu);
        Memory.write (Cpu.mem cpu) 0x2000 42;
        ignore (Cpu.snapshot cpu);
        check int "second copies one page" (mem_bytes + 4096)
          (Cpu.snapshot_bytes_copied cpu);
        ignore (Cpu.snapshot cpu);
        check int "unchanged memory copies nothing" (mem_bytes + 4096)
          (Cpu.snapshot_bytes_copied cpu));
    test_case "a snapshot outlives the next one" `Quick (fun () ->
        let p = Asm.assemble [ Asm.halt ] in
        let cpu = Cpu.create ~code:p.Asm.code () in
        Memory.write (Cpu.mem cpu) 0x2000 1;
        let first = Cpu.snapshot cpu in
        let h = Cpu.state_hash cpu in
        Memory.write (Cpu.mem cpu) 0x2000 2;
        ignore (Cpu.snapshot cpu);
        let peer = Cpu.create ~code:p.Asm.code () in
        Cpu.restore peer first;
        check int "first snapshot's memory" 1
          (Memory.read (Cpu.mem peer) 0x2000);
        check int "first snapshot's state" h (Cpu.state_hash peer));
    test_case "partial trailing page is tracked" `Quick (fun () ->
        let m = Memory.create ~page_shift:4 ~words:20 () in
        check int "two pages" 2 (Memory.pages m);
        check int "full page" 16 (Memory.page_words m 0);
        check int "partial page" 4 (Memory.page_words m 1);
        Memory.write m 19 7;
        check bool "digest sees the tail" true
          (Memory.digest m = Memory.full_digest m));
  ]

let () =
  Alcotest.run "hft_machine"
    [
      ("word", word_tests);
      ("isa", isa_tests);
      ( "encode",
        encode_tests @ [ QCheck_alcotest.to_alcotest encode_roundtrip ] );
      ("asm", asm_tests);
      ("memory", memory_tests);
      ("cpu", cpu_tests);
      ("recovery", recovery_tests);
      ("traps", trap_tests);
      ("tlb", tlb_tests);
      ("mmu", mmu_tests);
      ( "image",
        image_tests @ [ QCheck_alcotest.to_alcotest image_roundtrip_prop ] );
      ( "determinism",
        hash_sensitivity
        @ [
            QCheck_alcotest.to_alcotest determinism_prop;
            QCheck_alcotest.to_alcotest snapshot_prop;
          ] );
      ( "dirty-pages",
        dirty_page_tests
        @ [
            QCheck_alcotest.to_alcotest digest_equiv_prop;
            QCheck_alcotest.to_alcotest reset_exact_prop;
            QCheck_alcotest.to_alcotest incremental_hash_prop;
          ] );
    ]
