(* Direct-threaded translation: the interpreter is the oracle.
   Every test here runs the same guest twice — once decode-per-step,
   once through the translation cache — and demands bit-identical
   architectural state, plus the specific fallback behaviours the
   backend promises (stale manifest -> full interpretation, stops and
   traps -> interpreter). *)

open Hft_machine
open Hft_core
module Manifest = Hft_analysis.Manifest
module Workload = Hft_guest.Workload
module Kernel = Hft_guest.Kernel
module Layout = Hft_guest.Layout

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* ---------- raw-CPU lockstep ---------- *)

(* Run a compute-only image on a bare Cpu until it halts, with and
   without the translation cache, comparing the full state hash. *)
let run_to_halt c =
  let rec go budget =
    if budget = 0 then Alcotest.fail "guest did not halt";
    match (Cpu.run c ~fuel:10_000).Cpu.stop with
    | Cpu.Stop_halt -> ()
    | Cpu.Fuel | Cpu.Recovery -> go (budget - 1)
    | s -> Alcotest.failf "unexpected stop %a" Cpu.pp_stop s
  in
  go 10_000

let compute_loop =
  (* a bounded loop over loads, stores and ALU traffic: exactly the
     shape the translator fuses *)
  Asm.(
    assemble
      [
        ldi r1 0x1234;
        ldi r2 0;
        ldi r3 64;
        ldi r4 0x1000;
        label "loop";
        insn (Isa.Alu (Isa.Xor, 5, 1, 2));
        st r5 r4 0;
        ld r6 r4 0;
        insn (Isa.Alu (Isa.Add, 1, 1, 6));
        addi r4 r4 1;
        addi r2 r2 1;
        blt r2 r3 (lbl "loop");
        st r1 r0 Layout.res_checksum;
        halt;
      ])

let test_raw_cpu_lockstep () =
  let code = compute_loop.Asm.code in
  let m = Manifest.of_code code in
  let interp = Cpu.create ~code () in
  let threaded = Cpu.create ~code () in
  (match Manifest.install_translation m ~deprivileged:false threaded with
  | Ok n -> Alcotest.(check bool) "some superblocks translated" true (n > 0)
  | Error e -> Alcotest.failf "translation refused a fresh manifest: %s" e);
  run_to_halt interp;
  run_to_halt threaded;
  Alcotest.(check int)
    "same instruction count"
    (Cpu.instructions_retired interp)
    (Cpu.instructions_retired threaded);
  Alcotest.(check int)
    "same architectural state"
    (Cpu.state_hash ~full:true interp)
    (Cpu.state_hash ~full:true threaded);
  match Cpu.translation threaded with
  | None -> Alcotest.fail "translation cache missing"
  | Some tx ->
    Alcotest.(check bool) "translated code actually ran" true
      (tx.Translate.threaded_instrs > 0);
    Alcotest.(check bool) "most instructions ran threaded" true
      (tx.Translate.threaded_instrs
      > Cpu.instructions_retired threaded / 2)

let test_fuel_slicing_matches () =
  (* odd fuel slices land mid-superblock; the budget precheck and the
     refund path must keep the two executions in instruction-exact
     agreement at every stop *)
  let code = compute_loop.Asm.code in
  let m = Manifest.of_code code in
  let interp = Cpu.create ~code () in
  let threaded = Cpu.create ~code () in
  (match Manifest.install_translation m ~deprivileged:false threaded with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "translation refused: %s" e);
  let rec go i =
    if i > 2_000 then Alcotest.fail "guest did not halt" else
    let fuel = 1 + (i * 7 mod 13) in
    let ri = Cpu.run interp ~fuel in
    (* drive the threaded side to the same instruction count, however
       many slices that takes: a budget-refused entry can stop short *)
    let rec catch_up need =
      if need > 0 then begin
        let rt = Cpu.run threaded ~fuel:need in
        (match rt.Cpu.stop with
        | Cpu.Fuel | Cpu.Recovery -> ()
        | Cpu.Stop_halt ->
          if ri.Cpu.stop <> Cpu.Stop_halt then
            Alcotest.fail "threaded halted early"
        | s -> Alcotest.failf "unexpected threaded stop %a" Cpu.pp_stop s);
        catch_up (need - rt.Cpu.executed)
      end
    in
    (match ri.Cpu.stop with
    | Cpu.Stop_halt ->
      catch_up ri.Cpu.executed;
      Alcotest.(check int) "state at halt"
        (Cpu.state_hash ~full:true interp)
        (Cpu.state_hash ~full:true threaded)
    | Cpu.Fuel | Cpu.Recovery ->
      catch_up ri.Cpu.executed;
      Alcotest.(check int)
        (Printf.sprintf "retired after slice %d" i)
        (Cpu.instructions_retired interp)
        (Cpu.instructions_retired threaded);
      if Cpu.state_hash ~full:true interp
         <> Cpu.state_hash ~full:true threaded
      then Alcotest.failf "state diverged after slice %d" i;
      go (i + 1)
    | s -> Alcotest.failf "unexpected stop %a" Cpu.pp_stop s)
  in
  go 0

(* ---------- memory stops: the interpreter raises them ---------- *)

(* Translated loads and stores run only their fast path and hand every
   other access back to the interpreter, which raises the stop.  One
   region of blocks [count; access; jump], so each access stops
   mid-block after a completed instruction: with the MMU off an MMIO
   read into a register and into r0, an MMIO write, and a load and a
   store at 0x2000; then the status register turns the MMU on at
   privilege 3 for a TLB miss on a read and on a write (pages 3 and 4
   start unmapped) and a protection fault on a read (page 2 is
   supervisor-only) and on a write (page 1 is read-only). *)
let handback_image ~mmio =
  let open Isa in
  let bodies =
    [
      [ Ldi (1, mmio); Ldi (2, 0x2000); Ldi (5, 42); Ldi (10, 0xC00);
        Ldi (11, 0x1000); Ldi (12, 0x800); Ldi (13, 0x400) ];
    ]
    @ List.map
        (fun access -> [ Alui (Add, 9, 9, 1); access ])
        [ Ld (3, 1, 0); Ld (0, 1, 0); St (5, 1, 1); Ld (4, 2, 0); St (5, 2, 0) ]
    @ [ [ Ldi (6, status_with_mmu_enable (status_with_priv 0 3) true);
          Mtcr (Cr_status, 6) ] ]
    @ List.map
        (fun access -> [ Alui (Add, 9, 9, 1); access ])
        [ Ld (8, 10, 0); St (5, 11, 0); Ld (8, 12, 0); St (5, 13, 0) ]
  in
  (* each block jumps to the next, the last to the halt after them *)
  let code, blocks, _ =
    List.fold_left
      (fun (code, blocks, at) body ->
        let len = List.length body + 1 in
        ( code @ body @ [ Jmp (at + len) ],
          { Translate.pb_leader = at; pb_len = len } :: blocks,
          at + len ))
      ([], [], 0) bodies
  in
  (Array.of_list (code @ [ Halt ]), List.rev blocks)

let test_memory_stops_handed_back () =
  let map vpage =
    { Tlb.vpage; ppage = vpage; user_ok = vpage <> 2; writable = vpage <> 1 }
  in
  let check_config (name, config, expected) =
    let code, blocks = handback_image ~mmio:config.Cpu.mmio_base in
    let arm translate =
      let c = Cpu.create ~config ~code () in
      List.iter (fun p -> Tlb.insert (Cpu.tlb c) (map p)) [ 1; 2 ];
      Cpu.install_profile c;
      if translate then
        Cpu.install_translation c
          [ { Translate.pr_head = 0; pr_blocks = blocks; pr_priv_mask = -1 } ];
      c
    in
    let interp = arm false and threaded = arm true in
    let both f = List.iter f [ interp; threaded ] in
    let block_sums c =
      let p = Option.get (Cpu.profile c) in
      List.map
        (fun (b : Translate.plan_block) ->
          Array.fold_left ( + ) 0 (Array.sub p b.pb_leader b.pb_len))
        blocks
    in
    let rec go k stops =
      if k > 100 then Alcotest.failf "%s: never halted" name;
      let ri = Cpu.run interp ~fuel:1000 and rt = Cpu.run threaded ~fuel:1000 in
      let what = Printf.sprintf "%s, run %d: " name k in
      let stop = Format.asprintf "%a" Cpu.pp_stop ri.Cpu.stop in
      Alcotest.(check string) (what ^ "stop") stop
        (Format.asprintf "%a" Cpu.pp_stop rt.Cpu.stop);
      Alcotest.(check int) (what ^ "pc") (Cpu.pc interp) (Cpu.pc threaded);
      Alcotest.(check (list int)) (what ^ "registers")
        (List.init Isa.num_regs (Cpu.reg interp))
        (List.init Isa.num_regs (Cpu.reg threaded));
      Alcotest.(check int) (what ^ "state hash")
        (Cpu.state_hash ~full:true ~include_tlb:true interp)
        (Cpu.state_hash ~full:true ~include_tlb:true threaded);
      Alcotest.(check int) (what ^ "retired")
        (Cpu.instructions_retired interp)
        (Cpu.instructions_retired threaded);
      Alcotest.(check (list int)) (what ^ "per-block profile")
        (block_sums interp) (block_sums threaded);
      match ri.Cpu.stop with
      | Cpu.Stop_halt -> List.rev stops
      | Cpu.Mmio_read { reg; _ } ->
        both (fun c ->
            Cpu.set_reg c reg 7;
            Cpu.advance_pc c);
        go (k + 1) (stop :: stops)
      | Cpu.(Mmio_write _ | Protection _ | Fault _) ->
        both Cpu.advance_pc;
        go (k + 1) (stop :: stops)
      | Cpu.Tlb_miss { vaddr; _ } ->
        let shift = config.Cpu.page_shift in
        both (fun c -> Tlb.insert (Cpu.tlb c) (map (vaddr lsr shift)));
        go (k + 1) (stop :: stops)
      | s -> Alcotest.failf "%s: unexpected stop %a" name Cpu.pp_stop s
    in
    Alcotest.(check (list string)) (name ^ ": stops") expected (go 0 []);
    let tx = Option.get (Cpu.translation threaded) in
    Alcotest.(check int) (name ^ ": every stop left translated code")
      (List.length expected) tx.Translate.fb_stop
  in
  let mmu_on =
    [ "tlb-miss(0xc00, r)"; "tlb-miss(0x1000, w)"; "protection(0x800, r)";
      "protection(0x400, w)" ]
  in
  List.iter check_config
    [
      ( "MMIO above memory",
        { Cpu.default_config with Cpu.mem_words = 0x2000 },
        [ "mmio-read(0xf0000 -> r3)"; "mmio-read(0xf0000 -> r0)";
          "mmio-write(0xf0001 <- 0x0000002a)";
          "fault(load from bad address 0x2000)";
          "fault(store to bad address 0x2000)" ]
        @ mmu_on );
      (* the MMIO window starts inside memory: the fast path's limit is
         the window's base, not the memory size *)
      ( "MMIO inside memory",
        { Cpu.default_config with Cpu.mem_words = 0x2000; mmio_base = 0x1800 },
        [ "mmio-read(0x1800 -> r3)"; "mmio-read(0x1800 -> r0)";
          "mmio-write(0x1801 <- 0x0000002a)"; "mmio-read(0x2000 -> r4)";
          "mmio-write(0x2000 <- 0x0000002a)" ]
        @ mmu_on );
    ]

(* ---------- stale manifest: full interpreter fallback ---------- *)

let test_stale_manifest_falls_back () =
  let fresh = Workload.dhrystone ~iterations:50 in
  let other = Workload.console_hello ~text:"hi" in
  let stale = Manifest.of_program other.Workload.program in
  let code = fresh.Workload.program.Asm.code in
  let c = Cpu.create ~code () in
  (match Manifest.install_translation stale ~deprivileged:false c with
  | Ok _ -> Alcotest.fail "stale manifest accepted for translation"
  | Error msg ->
    Alcotest.(check bool) "refusal names the mismatch" true
      (String.length msg > 0));
  (match Cpu.translation c with
  | None -> ()
  | Some _ -> Alcotest.fail "translation cache armed from a stale manifest");
  (* the threaded backend on a System degrades the same way: a run
     under Threaded with nothing translated is just the interpreter *)
  let params =
    Params.with_exec_backend
      { Params.default with Params.epoch_length = 256 }
      Params.Threaded
  in
  let sys = System.create ~params ~workload:fresh () in
  let o = System.run sys in
  Alcotest.(check (list int)) "no mismatches" [] o.System.lockstep_mismatches

(* ---------- listing ---------- *)

(* The listing names every translated instruction exactly once, by
   address, and nothing else as an instruction: its instruction lines
   are the indented ones other than the fall-through notes. *)
let test_listing_names_each_instruction_once () =
  let w = Workload.dhrystone ~iterations:10 in
  let code = w.Workload.program.Asm.code in
  let m = Manifest.of_code code in
  let c = Cpu.create ~code () in
  (match Manifest.install_translation m ~deprivileged:false c with
  | Ok n -> Alcotest.(check bool) "superblocks translated" true (n > 0)
  | Error e -> Alcotest.failf "fresh manifest refused: %s" e);
  match Cpu.translation c with
  | None -> Alcotest.fail "no translation installed"
  | Some tx ->
    let lines =
      String.split_on_char '\n'
        (Format.asprintf "%a" Translate.pp_listing tx)
    in
    let translated =
      List.concat_map
        (fun (r : Translate.plan_region) ->
          List.concat_map
            (fun (b : Translate.plan_block) ->
              List.init b.pb_len (fun i -> b.pb_leader + i))
            r.pr_blocks)
        tx.Translate.listing
    in
    Alcotest.(check int) "every translated instruction"
      tx.Translate.translated_instrs (List.length translated);
    List.iter
      (fun a ->
        let line = Format.asprintf "    %4d  %a" a Isa.pp code.(a) in
        Alcotest.(check int) line 1
          (List.length (List.filter (String.equal line) lines)))
      translated;
    Alcotest.(check int) "instruction lines" tx.Translate.translated_instrs
      (List.length
         (List.filter
            (fun l ->
              String.starts_with ~prefix:"    " l
              && not (contains l "fall-through"))
            lines))

(* ---------- Bare: backend equivalence over shipped workloads ---------- *)

let bare_outcome backend w =
  let params = Params.with_exec_backend Params.default backend in
  let b = Bare.create ~params ~workload:w () in
  Bare.init_disk_blocks b;
  let o = Bare.run b in
  (o, Cpu.state_hash ~full:true (Bare.cpu b), Cpu.translation (Bare.cpu b))

let test_bare_backend_equivalence () =
  List.iter
    (fun (name, w) ->
      let oi, hi, _ = bare_outcome Params.Interp w in
      let ot, ht, tx = bare_outcome Params.Threaded w in
      Alcotest.(check bool)
        (name ^ ": results equal") true
        (Guest_results.equal oi.Bare.results ot.Bare.results);
      Alcotest.(check string) (name ^ ": console equal") oi.Bare.console
        ot.Bare.console;
      Alcotest.(check int)
        (name ^ ": instructions equal")
        oi.Bare.instructions ot.Bare.instructions;
      Alcotest.(check bool)
        (name ^ ": same halt time") true
        (oi.Bare.time = ot.Bare.time);
      Alcotest.(check int) (name ^ ": same final state") hi ht;
      match tx with
      | None -> Alcotest.failf "%s: threaded backend left no cache" name
      | Some tx ->
        Alcotest.(check bool)
          (name ^ ": translated code ran")
          true
          (tx.Translate.threaded_instrs > 0))
    [
      ("dhrystone", Workload.dhrystone ~iterations:200);
      ("clock-sampler", Workload.clock_sampler ~samples:50);
      ("hello", Workload.console_hello ~text:"threaded backend");
      ("queued-io", Workload.queued_io ~pairs:6);
    ]

(* ---------- replicated system: threaded and differential ---------- *)

let run_sys ?(backend = Params.Interp) w =
  let params =
    Params.with_exec_backend
      { Params.default with Params.epoch_length = 512 }
      backend
  in
  let sys = System.create ~params ~workload:w () in
  (sys, System.run sys)

let test_threaded_system_lockstep () =
  let w = Workload.mixed ~compute:300 ~ops:6 () in
  let sys, o = run_sys ~backend:Params.Threaded w in
  Alcotest.(check (list int)) "no mismatches" [] o.System.lockstep_mismatches;
  Alcotest.(check bool) "epochs compared" true (o.System.epochs_compared > 0);
  Alcotest.(check int) "replicas agree"
    (Hypervisor.vm_state_hash (System.primary sys))
    (Hypervisor.vm_state_hash (System.backup sys));
  let st = Hypervisor.stats (System.primary sys) in
  Alcotest.(check bool) "threaded instructions counted" true
    (st.Stats.threaded_instrs > 0);
  Alcotest.(check bool) "blocks translated" true
    (st.Stats.blocks_translated > 0)

let test_differential_system () =
  let w = Workload.mixed ~compute:300 ~ops:6 () in
  let sys, o = run_sys ~backend:Params.Differential w in
  Alcotest.(check (list int)) "no divergence" [] o.System.lockstep_mismatches;
  let p = Hypervisor.stats (System.primary sys) in
  let b = Hypervisor.stats (System.backup sys) in
  Alcotest.(check bool) "primary ran threaded" true
    (p.Stats.threaded_instrs > 0);
  Alcotest.(check int) "backup stayed on the interpreter" 0
    b.Stats.threaded_instrs;
  Alcotest.(check int) "replicas agree"
    (Hypervisor.vm_state_hash (System.primary sys))
    (Hypervisor.vm_state_hash (System.backup sys))

let test_differential_interp_equivalence () =
  (* the threaded run must also match a pure-interpreter run of the
     same system, not merely its own backup *)
  let w = Workload.dhrystone ~iterations:500 in
  let sys_i, o_i = run_sys ~backend:Params.Interp w in
  let sys_t, o_t = run_sys ~backend:Params.Threaded w in
  Alcotest.(check bool) "same guest results" true
    (Guest_results.equal o_i.System.results o_t.System.results);
  Alcotest.(check bool) "same completion time" true
    (o_i.System.time = o_t.System.time);
  Alcotest.(check int) "same final VM state"
    (Hypervisor.vm_state_hash (System.primary sys_i))
    (Hypervisor.vm_state_hash (System.primary sys_t));
  Alcotest.(check int) "same instruction count"
    (Hypervisor.stats (System.primary sys_i)).Stats.instructions
    (Hypervisor.stats (System.primary sys_t)).Stats.instructions

(* ---------- randomized differential properties ---------- *)

(* Structured random programs with bounded loops, as in test_core —
   the strongest oracle we have: a random certified image must execute
   identically under every backend, epoch by epoch. *)
let structured_main_gen =
  let open QCheck.Gen in
  let fresh =
    let n = ref 0 in
    fun () ->
      incr n;
      Printf.sprintf "t%d" !n
  in
  let reg = int_range 1 9 in
  let alu_op =
    oneofl Isa.[ Add; Sub; Mul; Xor; And; Or; Sll; Srl; Slt ]
  in
  let simple =
    frequency
      [
        (5, map (fun ((op, a), (b, c)) -> [ Asm.insn (Isa.Alu (op, a, b, c)) ])
              (pair (pair alu_op reg) (pair reg reg)));
        (2, map2 (fun r v -> [ Asm.ldi r v ]) reg (int_range 0 65535));
        (2, map2 (fun r off -> [ Asm.st r 0 off ]) reg (int_range 0x1200 0x15FF));
        (2, map2 (fun r off -> [ Asm.ld r 0 off ]) reg (int_range 0x1200 0x15FF));
        (1, map (fun r -> [ Asm.rdtod r ]) reg);
        (1, map (fun r -> [ Asm.out r ]) reg);
        (1, return [ Asm.trapc 1 ]);
      ]
  in
  let loop body_gen =
    map2
      (fun n bodies ->
        let l = fresh () in
        [ Asm.ldi 10 0; Asm.ldi 11 n; Asm.label l ]
        @ List.concat bodies
        @ [ Asm.addi 10 10 1; Asm.blt 10 11 (Asm.lbl l) ])
      (int_range 1 12)
      (list_size (int_range 1 8) body_gen)
  in
  let block = frequency [ (3, simple); (1, loop simple) ] in
  map
    (fun blocks ->
      List.concat blocks
      @ [ Asm.st 1 0 Layout.res_checksum; Asm.halt ])
    (list_size (int_range 3 25) block)

let workload_of_main main =
  {
    Workload.name = "random-threaded";
    description = "random program, threaded backend";
    program = Kernel.program ~main;
    config = [];
    instructions_per_iteration = 1;
  }

let prop_threaded_lockstep =
  QCheck.Test.make ~name:"random programs: threaded replicas stay in lockstep"
    ~count:15 (QCheck.make structured_main_gen) (fun main ->
      let w = workload_of_main main in
      let params =
        Params.with_exec_backend
          { Params.default with Params.epoch_length = 128 }
          Params.Threaded
      in
      let sys = System.create ~params ~workload:w () in
      let o = System.run sys in
      o.System.lockstep_mismatches = []
      && Hypervisor.vm_state_hash (System.primary sys)
         = Hypervisor.vm_state_hash (System.backup sys))

let prop_differential_oracle =
  QCheck.Test.make
    ~name:"random programs: differential backend never diverges" ~count:15
    (QCheck.make structured_main_gen) (fun main ->
      let w = workload_of_main main in
      let params =
        Params.with_exec_backend
          { Params.default with Params.epoch_length = 128 }
          Params.Differential
      in
      (* record_boundary faults loudly on the first divergence, so
         completing the run is the property *)
      let sys = System.create ~params ~workload:w () in
      let o = System.run sys in
      o.System.lockstep_mismatches = []
      && Hypervisor.vm_state_hash (System.primary sys)
         = Hypervisor.vm_state_hash (System.backup sys))

(* Every instruction shape the interpreter decodes, folded into the
   checksum register: each ALU operator, register and immediate forms,
   with a negative operand and a divide by zero, the same into r0, each
   branch condition taken and not taken, and loads, links and probes
   into r0. *)
let every_shape_main =
  let open Asm in
  (* a multiply by an odd constant is a bijection on words, so no
     result is ever shifted out of the checksum *)
  let fold rd = [ xor r1 r1 rd; muli r1 r1 31 ] in
  let alu op =
    insn Isa.(Alu (op, 5, 2, 3))
    :: insn Isa.(Alu (op, 5, 3, 2))
    :: insn Isa.(Alu (op, 6, 2, 4))
    :: insn Isa.(Alui (op, 7, 2, -3))
    :: insn Isa.(Alui (op, 8, 3, 0))
    :: insn Isa.(Alu (op, 0, 2, 3))
    :: insn Isa.(Alui (op, 0, 2, 1))
    :: List.concat_map fold [ r5; r6; r7; r8 ]
  in
  let branch n br =
    List.concat_map
      (fun (k, a, b) ->
        let l = Printf.sprintf "shape_%d_%d" n k in
        [ ldi r8 1; br a b (lbl l); ldi r8 2; label l ] @ fold r8)
      [ (0, r2, r3); (1, r3, r2); (2, r2, r2) ]
  in
  [ ldi r1 0; ldi r2 (-13); ldi r3 5; ldi r4 0 ]
  @ List.concat_map alu
      Isa.[ Add; Sub; Mul; Divu; Remu; And; Or; Xor; Sll; Srl; Sra; Slt; Sltu ]
  @ List.concat (List.mapi branch [ beq; bne; blt; bge; bltu; bgeu ])
  @ [
      insn Isa.(Ldi (0, 9));
      st r3 0 0x1200;
      insn Isa.(Ld (0, 0, 0x1200));
      insn Isa.(Probe 0);
      jal r0 (lbl "shape_link");
      label "shape_link";
      jal r8 (lbl "shape_linked");
      label "shape_linked";
    ]
  @ fold r8
  @ [ st r1 r0 Layout.res_checksum; halt ]

let prop_bare_backends_agree =
  QCheck.Test.make
    ~name:"random programs: bare interp and threaded outcomes identical"
    ~count:15
    (QCheck.make
       (QCheck.Gen.graft_corners structured_main_gen [ every_shape_main ] ()))
    (fun main ->
      let w = workload_of_main main in
      let oi, hi, _ = bare_outcome Params.Interp w in
      let ot, ht, _ = bare_outcome Params.Threaded w in
      Guest_results.equal oi.Bare.results ot.Bare.results
      && oi.Bare.console = ot.Bare.console
      && oi.Bare.instructions = ot.Bare.instructions
      && oi.Bare.time = ot.Bare.time
      && hi = ht)

(* ---------- retirement profiler exactness ---------- *)

(* The profiler's contract: the interpreter bumps each completed
   instruction's address, the threaded backend credits whole blocks at
   their leaders and debits refunds on cold exits — different
   per-address shapes, identical per-block sums and identical totals
   on the same run. *)
let test_profiler_exactness () =
  let code = compute_loop.Asm.code in
  let m = Manifest.of_code code in
  let interp = Cpu.create ~code () in
  let threaded = Cpu.create ~code () in
  Cpu.install_profile interp;
  (* profile armed after translation: install_profile must recompile
     the stored plan, so arming order is immaterial *)
  (match Manifest.install_translation m ~deprivileged:false threaded with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "translation refused: %s" e);
  Cpu.install_profile threaded;
  run_to_halt interp;
  run_to_halt threaded;
  let total c = Cpu.profile_total c in
  Alcotest.(check int)
    "profiled totals equal" (total interp) (total threaded);
  Alcotest.(check int)
    "profile covers every retired instruction"
    (Cpu.instructions_retired interp)
    (total interp);
  let counts c =
    match Cpu.profile c with Some p -> p | None -> Alcotest.fail "no profile"
  in
  let block_sums c =
    let p = counts c in
    List.map
      (fun (b : Manifest.block) ->
        let s = ref 0 in
        for a = b.Manifest.leader to b.Manifest.leader + b.Manifest.len - 1 do
          s := !s + p.(a)
        done;
        !s)
      m.Manifest.blocks
  in
  Alcotest.(check (list int))
    "per-block sums identical" (block_sums interp) (block_sums threaded);
  (match Cpu.translation threaded with
  | None -> Alcotest.fail "translation cache missing"
  | Some tx ->
    Alcotest.(check bool) "translated code ran while profiling" true
      (tx.Translate.threaded_instrs > 0));
  (* and the two backends still landed in the same architectural state:
     profiling is observation, not perturbation *)
  Alcotest.(check int)
    "same architectural state"
    (Cpu.state_hash ~full:true interp)
    (Cpu.state_hash ~full:true threaded);
  (* disarming drops the counters and restores the unprofiled plan *)
  Cpu.clear_profile threaded;
  Alcotest.(check bool) "profile off" false (Cpu.profile_active threaded);
  Alcotest.(check int) "total zero when off" 0 (Cpu.profile_total threaded)

let test_profiler_fuel_slices () =
  (* cold exits (budget refusals mid-superblock) must debit exactly
     the uncompleted suffix: fuel-sliced runs stay per-block equal *)
  let code = compute_loop.Asm.code in
  let m = Manifest.of_code code in
  let interp = Cpu.create ~code () in
  let threaded = Cpu.create ~code () in
  Cpu.install_profile interp;
  Cpu.install_profile threaded;
  (match Manifest.install_translation m ~deprivileged:false threaded with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "translation refused: %s" e);
  let rec drive c budget =
    if budget = 0 then Alcotest.fail "guest did not halt"
    else
      match (Cpu.run c ~fuel:7).Cpu.stop with
      | Cpu.Stop_halt -> ()
      | Cpu.Fuel | Cpu.Recovery -> drive c (budget - 1)
      | s -> Alcotest.failf "unexpected stop %a" Cpu.pp_stop s
  in
  drive interp 10_000;
  drive threaded 10_000;
  Alcotest.(check int)
    "totals equal under 7-instruction slices"
    (Cpu.profile_total interp) (Cpu.profile_total threaded)

(* [Cpu.save_ints] and [Cpu.restore_ints] walk the registers, the pc,
   the counters, the validator's scalars and the translation's counters
   by position, so they must agree on the order.  On a CPU with both a
   validator and a translation every position is live: a distinct
   value written into each position of a save, restored and saved
   again, must come back in the same place. *)
let test_saved_ints_round_trip () =
  let code = compute_loop.Asm.code in
  let m = Manifest.of_code code in
  let c = Cpu.create ~code () in
  Manifest.install m ~deprivileged:false c;
  (match Manifest.install_translation m ~deprivileged:false c with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "translation refused: %s" e);
  Alcotest.(check bool) "validator and translation present" true
    (Cpu.validator_active c && Cpu.translation c <> None);
  let s = Cpu.save c in
  let ints = Cpu.ints s in
  Array.iteri (fun i _ -> ints.(i) <- 1000 + i) ints;
  Cpu.restore_saved c s;
  Alcotest.(check (array int)) "every position comes back" ints
    (Cpu.ints (Cpu.save c))

(* ---------- generated counted loops ---------- *)

(* One counted loop: [body] ALU/memory ops, then the induction step and
   the back branch. *)
let gen_loop ~init ~limit ~step ~body =
  let prologue =
    Isa.[ Ldi (2, init); Ldi (3, limit); Ldi (4, 0x1000); Ldi (5, 1) ]
  in
  let head = List.length prologue in
  let ops =
    List.init body (fun i ->
        match i mod 4 with
        | 0 -> Isa.Alu (Isa.Xor, 5, 5, 2)
        | 1 -> Isa.St (5, 4, 0)
        | 2 -> Isa.Ld (6, 4, 0)
        | _ -> Isa.Alu (Isa.Add, 5, 5, 6))
  in
  Array.of_list
    (prologue @ ops @ Isa.[ Alui (Add, 2, 2, step); Br (Ltu, 2, 3, head); Halt ])

(* A validated interpreter and a validated, translated CPU over the
   same loop retire the same instructions into the same architectural
   state. *)
let prop_generated_loops =
  QCheck.Test.make ~count:60 ~name:"generated loops retire alike"
    QCheck.(
      quad (int_range 0 20) (int_range 1 180) (int_range 1 3) (int_range 1 9))
    (fun (init, span, step, body) ->
      let code = gen_loop ~init ~limit:(init + span) ~step ~body in
      let m = Manifest.of_code code in
      let interp = Cpu.create ~code () in
      Manifest.install m ~deprivileged:false interp;
      run_to_halt interp;
      let threaded = Cpu.create ~code () in
      Manifest.install m ~deprivileged:false threaded;
      (match Manifest.install_translation m ~deprivileged:false threaded with
      | Ok _ -> ()
      | Error e -> QCheck.Test.fail_reportf "translation refused: %s" e);
      run_to_halt threaded;
      if Cpu.instructions_retired interp <> Cpu.instructions_retired threaded
      then
        QCheck.Test.fail_reportf "retired %d interp vs %d threaded"
          (Cpu.instructions_retired interp)
          (Cpu.instructions_retired threaded);
      if
        Cpu.state_hash ~full:true interp <> Cpu.state_hash ~full:true threaded
      then QCheck.Test.fail_report "architectural state diverged";
      true)

let test_loop_parity () =
  let code = gen_loop ~init:0 ~limit:120 ~step:1 ~body:4 in
  let m = Manifest.of_code code in
  let interp = Cpu.create ~code () in
  run_to_halt interp;
  let c = Cpu.create ~code () in
  Manifest.install m ~deprivileged:false c;
  (match Manifest.install_translation m ~deprivileged:false c with
  | Ok n -> Alcotest.(check bool) "translated" true (n > 0)
  | Error e -> Alcotest.failf "translation refused: %s" e);
  run_to_halt c;
  Alcotest.(check int) "retired"
    (Cpu.instructions_retired interp)
    (Cpu.instructions_retired c);
  Alcotest.(check int) "state"
    (Cpu.state_hash ~full:true interp)
    (Cpu.state_hash ~full:true c)

let test_loop_fuel_slicing () =
  (* adversarial fuel slices end before a block fits the budget; the
     per-block budget check hands the rest to the interpreter, and
     execution must stay instruction-exact at every stop *)
  let code = gen_loop ~init:0 ~limit:100 ~step:1 ~body:3 in
  let m = Manifest.of_code code in
  let interp = Cpu.create ~code () in
  let threaded = Cpu.create ~code () in
  Manifest.install m ~deprivileged:false threaded;
  (match Manifest.install_translation m ~deprivileged:false threaded with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "translation refused: %s" e);
  let rec go i =
    if i > 5_000 then Alcotest.fail "guest did not halt" else
    let fuel = 1 + (i * 7 mod 13) in
    let ri = Cpu.run interp ~fuel in
    let rec catch_up need =
      if need > 0 then begin
        let rt = Cpu.run threaded ~fuel:need in
        (match rt.Cpu.stop with
        | Cpu.Fuel | Cpu.Recovery -> ()
        | Cpu.Stop_halt ->
          if ri.Cpu.stop <> Cpu.Stop_halt then
            Alcotest.fail "threaded halted early"
        | s -> Alcotest.failf "unexpected threaded stop %a" Cpu.pp_stop s);
        catch_up (need - rt.Cpu.executed)
      end
    in
    match ri.Cpu.stop with
    | Cpu.Stop_halt ->
      catch_up ri.Cpu.executed;
      Alcotest.(check int) "state at halt"
        (Cpu.state_hash ~full:true interp)
        (Cpu.state_hash ~full:true threaded)
    | Cpu.Fuel | Cpu.Recovery ->
      catch_up ri.Cpu.executed;
      if
        Cpu.instructions_retired interp
        <> Cpu.instructions_retired threaded
        || Cpu.state_hash ~full:true interp
           <> Cpu.state_hash ~full:true threaded
      then Alcotest.failf "diverged after slice %d" i;
      go (i + 1)
    | s -> Alcotest.failf "unexpected stop %a" Cpu.pp_stop s
  in
  go 0

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "hft_translate"
    [
      ( "raw-cpu",
        [
          Alcotest.test_case "threaded run matches the interpreter to the halt"
            `Quick test_raw_cpu_lockstep;
          Alcotest.test_case "odd fuel slices keep instruction-exact agreement"
            `Quick test_fuel_slicing_matches;
          Alcotest.test_case "memory stops are raised by the interpreter"
            `Quick test_memory_stops_handed_back;
        ] );
      ( "threaded",
        [
          Alcotest.test_case "parity with the interpreter" `Quick
            test_loop_parity;
          Alcotest.test_case "fuel slicing stays instruction-exact" `Quick
            test_loop_fuel_slicing;
          q prop_generated_loops;
        ] );
      ( "profiler",
        [
          Alcotest.test_case "per-block retirement counts are exact" `Quick
            test_profiler_exactness;
          Alcotest.test_case "cold-exit refunds survive tiny fuel slices"
            `Quick test_profiler_fuel_slices;
        ] );
      ( "save",
        [
          Alcotest.test_case "every saved integer comes back in its place"
            `Quick test_saved_ints_round_trip;
        ] );
      ( "fallback",
        [
          Alcotest.test_case "stale manifest forces full interpretation" `Quick
            test_stale_manifest_falls_back;
        ] );
      ( "listing",
        [
          Alcotest.test_case "every translated instruction listed once"
            `Quick test_listing_names_each_instruction_once;
        ] );
      ( "bare",
        [
          Alcotest.test_case "backend equivalence over shipped workloads"
            `Quick test_bare_backend_equivalence;
        ] );
      ( "system",
        [
          Alcotest.test_case "threaded replicas stay in lockstep" `Quick
            test_threaded_system_lockstep;
          Alcotest.test_case "differential: threaded primary, interp backup"
            `Quick test_differential_system;
          Alcotest.test_case "threaded system matches a pure-interp system"
            `Quick test_differential_interp_equivalence;
        ] );
      ( "properties",
        [
          q prop_threaded_lockstep;
          q prop_differential_oracle;
          q prop_bare_backends_agree;
        ] );
    ]
