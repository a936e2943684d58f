(* Static analyzer tests: CFG recovery, the three checkers
   (privilege, determinism, epoch), value-set widening on a
   many-iteration loop, symbol/srcline survival through
   rewriting and the image format, and a seeded encoder round-trip
   property. *)

open Hft_machine
open Hft_analysis

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let pp_finding f = Format.asprintf "%a" Finding.pp f

let assert_finding ?msg_part ~checker ~severity ~where findings =
  let matches (f : Finding.t) =
    f.Finding.checker = checker
    && f.Finding.severity = severity
    && f.Finding.where = where
    && match msg_part with
       | None -> true
       | Some sub -> contains f.Finding.message sub
  in
  if not (List.exists matches findings) then
    Alcotest.failf "expected a %s %s finding at %s; got:@.%s"
      (Finding.severity_name severity)
      checker where
      (String.concat "\n" (List.map pp_finding findings))

let assert_no_errors name findings =
  match Finding.errors findings with
  | [] -> ()
  | e :: _ ->
    Alcotest.failf "%s: unexpected lint error: %s" name (pp_finding e)

(* ---------- CFG recovery ---------- *)

let test_blocks () =
  let p =
    Asm.(
      assemble
        [ ldi r1 1; label "lp"; addi r1 r1 1; bne r1 r0 (lbl "lp"); halt ])
  in
  let cfg = Cfg.of_program p in
  Alcotest.(check (list (pair int int)))
    "leaders and lengths"
    [ (0, 1); (1, 2); (3, 1) ]
    (Cfg.blocks cfg);
  let cyc = Cfg.on_cycle cfg in
  Alcotest.(check (list bool))
    "cycle membership" [ false; true; true; false ]
    (Array.to_list cyc)

let test_jr_resolved () =
  let p =
    Asm.(assemble [ jal r1 (lbl "f"); halt; label "f"; jr r1 ])
  in
  let cfg = Cfg.of_program p in
  Alcotest.(check (list int)) "no unresolved jr" [] cfg.Cfg.jr_unresolved;
  Alcotest.(check (list int))
    "jr returns to the link point" [ 1 ] cfg.Cfg.succs.(2)

let test_jr_unresolved () =
  let p = Asm.(assemble [ ld r1 r0 0; jr r1; halt ]) in
  let cfg = Cfg.of_program p in
  Alcotest.(check (list int))
    "loaded target is unanalyzable" [ 1 ] cfg.Cfg.jr_unresolved

let test_bad_target () =
  let p = Asm.(assemble [ insn (Isa.Jmp 100); halt ]) in
  let cfg = Cfg.of_program p in
  Alcotest.(check (list (pair int int)))
    "out-of-range transfer" [ (0, 100) ] cfg.Cfg.bad_targets;
  assert_finding ~checker:"cfg" ~severity:Finding.Error ~where:"@0"
    (Analysis.check p)

let test_ivec_root_survives_rewriting () =
  (* Rewriting consumes the relocation list, so vector roots must be
     recoverable from the Ldi/Mtcr Cr_ivec dataflow alone. *)
  let p =
    Asm.(
      assemble
        [
          ldi_target r5 (lbl "h");
          mtcr Isa.Cr_ivec r5;
          jmp (lbl "main");
          label "h";
          rfi;
          label "main";
          halt;
        ])
  in
  let rw = Rewrite.rewrite_program ~every:1000 p in
  Alcotest.(check (list int)) "relocations consumed" [] rw.Asm.code_refs;
  let cfg = Cfg.of_program rw in
  let h = Asm.find_label rw "h" in
  Alcotest.(check bool) "handler is a root" true (List.mem h cfg.Cfg.roots);
  Alcotest.(check bool) "handler reachable" true cfg.Cfg.reachable.(h)

(* ---------- abstract interpretation ---------- *)

let value =
  Alcotest.testable Absint.Value.pp Absint.Value.equal

let test_const_fold () =
  let p =
    Asm.(assemble [ ldi r1 6; addi r2 r1 7; st r2 r0 0x40; halt ])
  in
  let cfg = Cfg.of_program p in
  let consts = Absint.Consts.solve cfg in
  Alcotest.check value "r2 folds" (Absint.Value.Const 13)
    (Absint.Consts.reg consts.(2) 2);
  Alcotest.check value "r0 pinned" (Absint.Value.Const 0)
    (Absint.Consts.reg consts.(2) 0)

(* ---------- the deliberately broken image (ISSUE acceptance) ---------- *)

(* Same image [gen_broken.ml] feeds to the CLI exit-code rule: a
   sensitive instruction at user level with no trap vector, a read of
   a never-written register, and an uncounted indirect-jump loop. *)
let broken_program () =
  Asm.(
    assemble
      [
        comment "drop to user level with no trap vector installed";
        ldi r1 3;
        mtcr Isa.Cr_status r1;
        label "user";
        tlbw r0 r0;
        add r4 r5 r5;
        label "dispatch";
        ld r6 r0 0x50;
        jr r6;
        halt;
      ])

let test_broken_image () =
  let fs = Analysis.check (broken_program ()) in
  Alcotest.(check bool) "has errors" true (Finding.has_errors fs);
  assert_finding ~checker:"privilege" ~severity:Finding.Error ~where:"user" fs;
  assert_finding ~checker:"determinism" ~severity:Finding.Error
    ~where:"user+1" ~msg_part:"r5" fs;
  assert_finding ~checker:"epoch" ~severity:Finding.Error ~where:"dispatch+1"
    fs

(* ---------- privilege checker ---------- *)

let test_link_taint () =
  (* Section 3.1: the Jal link word carries the real privilege level in
     its low bits; storing it makes bare and virtualized runs differ. *)
  let p =
    Asm.(
      assemble
        [ jal r1 (lbl "f"); halt; label "f"; st r1 r0 0x40; jr r1 ])
  in
  let fs = Analysis.check p in
  assert_no_errors "link-taint image" fs;
  assert_finding ~checker:"privilege" ~severity:Finding.Warning ~where:"f"
    ~msg_part:"branch-and-link" fs

(* ---------- epoch checker ---------- *)

let counting_loop () =
  Asm.(
    assemble
      [ ldi r1 10; label "lp"; subi r1 r1 1; bne r1 r0 (lbl "lp"); halt ])

let test_uncounted_loop () =
  let fs = Analysis.check ~rewritten:true (counting_loop ()) in
  assert_finding ~checker:"epoch" ~severity:Finding.Error ~where:"lp+1"
    ~msg_part:"no counting site" fs

let test_rewritten_loop_clean () =
  let rw = Rewrite.rewrite_program ~every:4 (counting_loop ()) in
  assert_no_errors "rewritten loop" (Analysis.check ~rewritten:true rw)

let test_counter_clobber () =
  let p = Asm.(assemble [ ldi r15 5; halt ]) in
  assert_no_errors "plain image may use r15" (Analysis.check p);
  assert_finding ~checker:"epoch" ~severity:Finding.Error ~where:"@0"
    ~msg_part:"clobbers r15"
    (Analysis.check ~rewritten:true p)

let test_recovery_counter_write () =
  let p =
    Asm.(assemble [ ldi r1 9; insn (Isa.Mtcr (Isa.Cr_rc, 1)); halt ])
  in
  assert_finding ~checker:"epoch" ~severity:Finding.Error ~where:"@1"
    ~msg_part:"recovery counter" (Analysis.check p)

let test_scenario_gate () =
  let w =
    {
      Hft_guest.Workload.name = "broken";
      description = "violates the paper's assumptions on purpose";
      program = broken_program ();
      config = [];
      instructions_per_iteration = 1;
    }
  in
  match Hft_harness.Scenario.replicated ~params:Hft_core.Params.default w with
  | _ -> Alcotest.fail "the lint gate let a broken image run replicated"
  | exception Failure msg ->
    Alcotest.(check bool)
      "failure names the analyzer" true
      (contains msg "static analyzer")

(* ---------- shipped workloads lint error-free ---------- *)

let named_workloads () =
  let open Hft_guest.Workload in
  [
    dhrystone ~iterations:100;
    disk_write ~ops:2 ();
    disk_read ~ops:2 ();
    mixed ~compute:4 ~ops:2 ();
    clock_sampler ~samples:4;
    timer_tick ~period_us:200 ~ticks:2;
    console_hello ~text:"hi";
    probe_priv;
    masked_io ~ops:2;
    queued_io ~pairs:2;
    server ~requests:2 ~period_us:200;
  ]

let test_workloads_lint_clean () =
  List.iter
    (fun (w : Hft_guest.Workload.t) ->
      let data_init = List.map fst w.Hft_guest.Workload.config in
      assert_no_errors w.Hft_guest.Workload.name
        (Analysis.check ~data_init w.Hft_guest.Workload.program);
      let rw =
        Rewrite.rewrite_program ~every:4096 w.Hft_guest.Workload.program
      in
      assert_no_errors
        (w.Hft_guest.Workload.name ^ " (rewritten)")
        (Analysis.check ~rewritten:true ~data_init rw))
    (named_workloads ())

(* ---------- symbols and source lines round-trip ---------- *)

let test_symtab_image_roundtrip () =
  let p =
    Asm.(
      assemble
        [
          comment "boot";
          ldi r1 5;
          label "l";
          comment "the loop";
          addi r1 r1 1;
          jmp (lbl "l");
        ])
  in
  let q = Image.of_string (Image.to_string p) in
  Alcotest.(check (list (pair string int)))
    "labels survive" p.Asm.labels q.Asm.labels;
  Alcotest.(check (list (pair int string)))
    "srclines survive" p.Asm.srclines q.Asm.srclines;
  let sy = Symtab.of_program q in
  Alcotest.(check string) "pre-label address" "@0" (Symtab.resolve sy 0);
  Alcotest.(check string) "label" "l" (Symtab.resolve sy 1);
  Alcotest.(check string) "label+offset" "l+1" (Symtab.resolve sy 2);
  Alcotest.(check (option string))
    "srcline" (Some "the loop") (Symtab.srcline sy 2)

let test_srclines_survive_rewriting () =
  let p =
    Asm.(
      assemble
        [
          comment "boot";
          ldi r1 5;
          label "l";
          comment "the loop";
          addi r1 r1 1;
          jmp (lbl "l");
        ])
  in
  let rw = Rewrite.rewrite_program ~every:2 p in
  (* The label lands on the counting block; the comment stays with the
     instruction it described, at its relocated address. *)
  let { Rewrite.map; _ } = Rewrite.insert_epoch_markers ~every:2 p in
  Alcotest.(check (option string))
    "comment follows its instruction" (Some "the loop")
    (List.assoc_opt map.(1) rw.Asm.srclines);
  Alcotest.(check bool)
    "label at or before the instruction" true
    (Asm.find_label rw "l" <= map.(1))

(* ---------- seeded encoder round-trip property ---------- *)

let alu_ops =
  [
    Isa.Add; Isa.Sub; Isa.Mul; Isa.Divu; Isa.Remu; Isa.And; Isa.Or; Isa.Xor;
    Isa.Sll; Isa.Srl; Isa.Sra; Isa.Slt; Isa.Sltu;
  ]

let conds = [ Isa.Eq; Isa.Ne; Isa.Lt; Isa.Ge; Isa.Ltu; Isa.Geu ]

let gen_instr rng : Isa.instr =
  let open Hft_sim in
  let reg () = Rng.int rng Isa.num_regs in
  let imm32 () = Int64.to_int (Rng.bits64 rng) land 0xFFFF_FFFF in
  let off () = Rng.int rng 65536 - 32768 in
  let tgt () = Rng.int rng 0x10000 in
  let alu () = List.nth alu_ops (Rng.int rng (List.length alu_ops)) in
  let cond () = List.nth conds (Rng.int rng (List.length conds)) in
  let cr () =
    match Isa.cr_of_index (Rng.int rng Isa.num_crs) with
    | Some c -> c
    | None -> Isa.Cr_status
  in
  match Rng.int rng 22 with
  | 0 -> Isa.Nop
  | 1 -> Isa.Ldi (reg (), imm32 ())
  | 2 -> Isa.Alu (alu (), reg (), reg (), reg ())
  | 3 -> Isa.Alui (alu (), reg (), reg (), off ())
  | 4 -> Isa.Ld (reg (), reg (), off ())
  | 5 -> Isa.St (reg (), reg (), off ())
  | 6 -> Isa.Br (cond (), reg (), reg (), tgt ())
  | 7 -> Isa.Jmp (tgt ())
  | 8 -> Isa.Jal (reg (), tgt ())
  | 9 -> Isa.Jr (reg ())
  | 10 -> Isa.Probe (reg ())
  | 11 -> Isa.Halt
  | 12 -> Isa.Wfi
  | 13 -> Isa.Rdtod (reg ())
  | 14 -> Isa.Rdtmr (reg ())
  | 15 -> Isa.Wrtmr (reg ())
  | 16 -> Isa.Out (reg ())
  | 17 -> Isa.Trapc (Rng.int rng 256)
  | 18 -> Isa.Mfcr (reg (), cr ())
  | 19 -> Isa.Mtcr (cr (), reg ())
  | 20 -> Isa.Tlbw (reg (), reg ())
  | _ -> Isa.Rfi

let test_encode_roundtrip () =
  let rng = Hft_sim.Rng.create 0x1ce_b00da in
  for _ = 1 to 10_000 do
    let i = gen_instr rng in
    let j = Encode.decode (Encode.encode i) in
    if not (Isa.equal i j) then
      Alcotest.failf "round trip changed %a into %a" Isa.pp i Isa.pp j
  done;
  let prog = Array.init 256 (fun _ -> gen_instr rng) in
  let back = Encode.decode_program (Encode.encode_program prog) in
  Alcotest.(check bool) "program round trip" true
    (Array.for_all2 Isa.equal prog back)

(* ---------- widening ---------- *)

let test_widening_keeps_determinism () =
  (* 4000 iterations of a load through a pointer that is itself the
     guarded induction variable: under the old fixed iteration cap the
     solver gave up before the range converged and the pointer's value
     set snapped to the extremes, the load could no longer be proven
     below the MMIO window, and the block lost [Deterministic].
     Branch-edge refinement pins the back-edge range below the limit
     and the threshold ladder converges without the cap. *)
  let iters = 4_000 in
  let base = 0x1000 in
  let code =
    Isa.
      [|
        Ldi (4, base);
        Ldi (3, base + iters);
        Ld (5, 4, 0);
        Alui (Add, 4, 4, 1);
        Br (Ltu, 4, 3, 2);
        Halt;
      |]
  in
  let m = Manifest.of_code code in
  let body =
    match
      List.find_opt (fun (b : Manifest.block) -> b.leader = 2) m.blocks
    with
    | Some b -> b
    | None -> Alcotest.fail "loop body block missing"
  in
  Alcotest.(check bool)
    "load through the advancing pointer stays Deterministic" true
    (List.mem Manifest.Deterministic body.Manifest.certs);
  (* and the dynamic oracle agrees: a full validated run is silent *)
  let c = Cpu.create ~code () in
  Manifest.install m ~deprivileged:false c;
  (match (Cpu.run c ~fuel:1_000_000).Cpu.stop with
  | Cpu.Stop_halt -> ()
  | s -> Alcotest.failf "unexpected stop %a" Cpu.pp_stop s);
  Alcotest.(check int)
    "ran to completion" (base + iters)
    (Word.signed (Cpu.reg c 4))

let () =
  Alcotest.run "analysis"
    [
      ( "cfg",
        [
          Alcotest.test_case "basic blocks and cycles" `Quick test_blocks;
          Alcotest.test_case "jr resolved through jal link" `Quick
            test_jr_resolved;
          Alcotest.test_case "jr through a load is unresolved" `Quick
            test_jr_unresolved;
          Alcotest.test_case "out-of-range transfer" `Quick test_bad_target;
          Alcotest.test_case "ivec root survives rewriting" `Quick
            test_ivec_root_survives_rewriting;
        ] );
      ( "absint",
        [ Alcotest.test_case "constant folding" `Quick test_const_fold ] );
      ( "widening",
        [
          Alcotest.test_case "many-iteration loop keeps Deterministic" `Quick
            test_widening_keeps_determinism;
        ] );
      ( "checkers",
        [
          Alcotest.test_case "deliberately broken image" `Quick
            test_broken_image;
          Alcotest.test_case "branch-and-link taint (section 3.1)" `Quick
            test_link_taint;
          Alcotest.test_case "uncounted loop" `Quick test_uncounted_loop;
          Alcotest.test_case "rewritten loop is clean" `Quick
            test_rewritten_loop_clean;
          Alcotest.test_case "counter-register clobber" `Quick
            test_counter_clobber;
          Alcotest.test_case "recovery-counter write" `Quick
            test_recovery_counter_write;
          Alcotest.test_case "shipped workloads are error-free" `Quick
            test_workloads_lint_clean;
          Alcotest.test_case "scenario gate rejects a broken image" `Quick
            test_scenario_gate;
        ] );
      ( "symbols",
        [
          Alcotest.test_case "image round-trip" `Quick
            test_symtab_image_roundtrip;
          Alcotest.test_case "srclines survive rewriting" `Quick
            test_srclines_survive_rewriting;
        ] );
      ( "encode",
        [
          Alcotest.test_case "seeded round-trip property" `Quick
            test_encode_roundtrip;
        ] );
    ]
