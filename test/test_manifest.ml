(* Certifying-analyzer tests: compilation manifests (certificates,
   superblocks, JSON round-trip, staleness), value-set analysis
   refinement, dominator trees, worklist-order iteration counts, the
   runtime certificate validator, and symbol survival of findings
   through object-code rewriting. *)

open Hft_machine
open Hft_analysis

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* the validator's (covered, checked) counters, [None] when none is
   armed *)
let coverage c =
  if Cpu.validator_active c then
    let { Cpu.covered; checked } = Cpu.validator_coverage c in
    Some (covered, checked)
  else None

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

(* Every image the repo ships, analyzed both as assembled and after
   object-code editing — the shapes the system actually runs. *)
let shipped_images () =
  List.concat_map
    (fun (w : Hft_guest.Workload.t) ->
      let p = w.Hft_guest.Workload.program in
      [
        (w.Hft_guest.Workload.name, false, p);
        ( w.Hft_guest.Workload.name ^ " (rewritten)",
          true,
          Rewrite.rewrite_program ~every:4096 p );
      ])
    (named_workloads ())

(* The refined pipeline the manifest is built from, exposed for
   structural property checks. *)
let analyze (p : Asm.program) =
  let coarse = Cfg.of_program p in
  let cfg = Vsa.refine coarse (Vsa.solve coarse) in
  let dom = Domtree.build cfg in
  let sb = Superblock.discover cfg dom in
  (cfg, dom, sb)

(* ---------- manifests over shipped images ---------- *)

let test_workloads_certify () =
  List.iter
    (fun (name, rewritten, p) ->
      let m = Manifest.of_program ~rewritten p in
      if Manifest.certified_superblocks m < 1 then
        Alcotest.failf "%s: no certified superblock" name;
      if Manifest.static_coverage m <= 0.0 then
        Alcotest.failf "%s: zero certified coverage" name;
      (* the manifest matches the image it was computed from *)
      (match Manifest.validate ~code:p.Asm.code m with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s: self-validation failed: %s" name e);
      (* translation entries sit only at block leaders, so the
         interpreter's tight windows, which run a block's straight-line
         instructions without looking for an entry, never skip one *)
      let cpu = Cpu.create ~code:p.Asm.code () in
      (match Manifest.install_translation m ~deprivileged:true cpu with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "%s: translation refused: %s" name e);
      let tx = Option.get (Cpu.translation cpu) in
      let leaders = List.map (fun b -> b.Manifest.leader) m.Manifest.blocks in
      Array.iteri
        (fun a e ->
          if e <> None && not (List.mem a leaders) then
            Alcotest.failf "%s: translation entry at %d is not a leader" name a)
        tx.Translate.entries)
    (shipped_images ())

let test_json_round_trip () =
  List.iter
    (fun (name, rewritten, p) ->
      let m = Manifest.of_program ~rewritten p in
      match Manifest.of_json (Manifest.to_json m) with
      | Error e -> Alcotest.failf "%s: reparse failed: %s" name e
      | Ok m' ->
        Alcotest.(check string)
          (name ^ ": JSON is a fixed point")
          (Hft_obs.Json.to_string (Manifest.to_json m))
          (Hft_obs.Json.to_string (Manifest.to_json m'));
        Alcotest.(check int)
          (name ^ ": certified blocks survive")
          (Manifest.certified_blocks m)
          (Manifest.certified_blocks m'))
    (shipped_images ())

let test_stale_manifest () =
  let cpu = Hft_guest.Workload.dhrystone ~iterations:100 in
  let hello = Hft_guest.Workload.console_hello ~text:"hi" in
  let m = Manifest.of_program cpu.Hft_guest.Workload.program in
  (match
     Manifest.validate ~code:hello.Hft_guest.Workload.program.Asm.code m
   with
  | Ok () -> Alcotest.fail "stale manifest accepted"
  | Error _ -> ());
  (* install refuses it too *)
  let c =
    Cpu.create ~code:hello.Hft_guest.Workload.program.Asm.code ()
  in
  match Manifest.install m ~deprivileged:false c with
  | () -> Alcotest.fail "install accepted a stale manifest"
  | exception Invalid_argument _ -> ()

(* A manifest of the very code validates and arms a CPU, and a
   replicated run, whose hypervisors certify the image themselves,
   boots on it. *)
let test_fresh_manifest_accepted () =
  let hello = Hft_guest.Workload.console_hello ~text:"hi" in
  let code = hello.Hft_guest.Workload.program.Asm.code in
  let m = Manifest.of_program hello.Hft_guest.Workload.program in
  (match Manifest.validate ~code m with
  | Ok () -> ()
  | Error e -> Alcotest.failf "fresh manifest refused: %s" e);
  Manifest.install m ~deprivileged:false (Cpu.create ~code ());
  let o =
    Hft_harness.Scenario.replicated ~params:Hft_core.Params.default hello
  in
  ignore (o : Hft_core.System.outcome)

(* [code_refs] lists the [Ldi] sites that load code pointers.  Two
   20-entry lists that differ only in their last entry root different
   code, and [Hashtbl.hash] reads only a prefix of a list, so the cache
   must key on the list itself. *)
let test_cache_key_covers_code_refs () =
  (* 0..18 load the entry address, 19 loads 21: a handler reachable
     only when 19 is listed as a code-pointer site *)
  let code =
    Array.init 22 (fun a ->
        if a < 19 then Isa.Ldi (1, 0)
        else if a = 19 then Isa.Ldi (1, 21)
        else Isa.Halt)
  in
  let refs last = List.init 19 Fun.id @ [ last ] in
  let json m = Hft_obs.Json.to_string (Manifest.to_json m) in
  let without = Manifest.of_code_cached ~code_refs:(refs 0) code in
  let with_19 = Manifest.of_code_cached ~code_refs:(refs 19) code in
  Alcotest.(check string) "cached equals uncached (ref 0)"
    (json (Manifest.of_code ~code_refs:(refs 0) code))
    (json without);
  Alcotest.(check string) "cached equals uncached (ref 19)"
    (json (Manifest.of_code ~code_refs:(refs 19) code))
    (json with_19);
  Alcotest.(check bool) "the handler is a block only under ref 19" true
    (List.exists (fun b -> b.Manifest.leader = 21) with_19.Manifest.blocks
    && not
         (List.exists (fun b -> b.Manifest.leader = 21) without.Manifest.blocks))

(* Re-arming a recycled CPU must never stand in for the staleness
   check: a same-length image with one instruction changed is refused
   after the manifest has armed a CPU, whether the CPU is fresh or
   recycled from the armed one. *)
let test_rearm_still_validates () =
  let w = Hft_guest.Workload.console_hello ~text:"hi" in
  let code = w.Hft_guest.Workload.program.Asm.code in
  let m = Manifest.of_program w.Hft_guest.Workload.program in
  let armed = Cpu.create ~code () in
  Manifest.install m ~deprivileged:true armed;
  (match Manifest.install_translation m ~deprivileged:true armed with
  | Ok n -> if n = 0 then Alcotest.fail "nothing translated"
  | Error e -> Alcotest.failf "fresh manifest refused: %s" e);
  ignore (Cpu.run armed ~fuel:50);
  let changed = Array.copy code in
  let i = Array.length code / 2 in
  changed.(i) <- (if changed.(i) = Isa.Nop then Isa.Halt else Isa.Nop);
  List.iter
    (fun (how, cpu) ->
      (match Manifest.install m ~deprivileged:true cpu with
      | () -> Alcotest.failf "%s: install accepted a stale manifest" how
      | exception Invalid_argument msg ->
        if not (contains msg "stale") then
          Alcotest.failf "%s: unexpected message: %s" how msg);
      match Manifest.install_translation m ~deprivileged:true cpu with
      | Ok _ -> Alcotest.failf "%s: translation accepted a stale manifest" how
      | Error _ ->
        Alcotest.(check bool) (how ^ ": nothing armed") false
          (Cpu.validator_active cpu || Cpu.translation cpu <> None))
    [
      ("fresh", Cpu.create ~code:changed ());
      ("recycled", Cpu.create ~recycle:armed ~code:changed ());
    ]

(* Armed state is per CPU: running one CPU leaves another armed from
   the same manifest at zero, and a recycled CPU re-armed with its
   predecessor's tables starts from zero too. *)
let test_rearm_shares_no_run_state () =
  let w = Hft_guest.Workload.dhrystone ~iterations:20 in
  let code = w.Hft_guest.Workload.program.Asm.code in
  let m = Manifest.of_program w.Hft_guest.Workload.program in
  let armed () =
    let c = Cpu.create ~code () in
    Manifest.install m ~deprivileged:false c;
    c
  in
  let zero how c =
    Alcotest.(check (option (pair int int))) (how ^ ": coverage")
      (Some (0, 0)) (coverage c);
    Alcotest.(check int) (how ^ ": windows") 0 (Cpu.windows_opened c)
  in
  let a = armed () and b = armed () in
  ignore (Cpu.run a ~fuel:5_000);
  (match coverage a with
  | Some (covered, _) when covered > 0 && Cpu.windows_opened a > 0 -> ()
  | _ -> Alcotest.fail "the run covered no region");
  zero "idle twin" b;
  let r = Cpu.create ~recycle:a ~code () in
  Manifest.install m ~deprivileged:false r;
  zero "recycled" r;
  (* and the re-armed tables check exactly as fresh ones do *)
  let f = armed () in
  let rr = Cpu.run r ~fuel:5_000 and rf = Cpu.run f ~fuel:5_000 in
  Alcotest.(check int) "same progress" rf.Cpu.executed rr.Cpu.executed;
  Alcotest.(check (option (pair int int))) "same coverage"
    (coverage f) (coverage r);
  Alcotest.(check int) "same windows" (Cpu.windows_opened f)
    (Cpu.windows_opened r)

(* The validator tables depend on the arming knobs as well as the
   manifest: tables built for a deprivileged guest (virtual level 0 at
   real level 1) must not be re-armed on a bare machine running at
   real level 0, where they would refuse every [Priv0] block. *)
let test_rearm_validator_only_for_same_knobs () =
  let w = Hft_guest.Workload.dhrystone ~iterations:20 in
  let code = w.Hft_guest.Workload.program.Asm.code in
  let m = Manifest.of_program w.Hft_guest.Workload.program in
  let run c =
    match (Cpu.run c ~fuel:5_000).Cpu.stop with
    | Cpu.Cert_violation { msg; _ } -> Some msg
    | _ -> None
  in
  let hv = Cpu.create ~code () in
  Manifest.install m ~deprivileged:true hv;
  Alcotest.(check bool) "deprivileged tables trip at real level 0" true
    (run hv <> None);
  let bare = Cpu.create ~recycle:hv ~code () in
  Manifest.install m ~deprivileged:false bare;
  Alcotest.(check (option string)) "bare tables rebuilt" None (run bare)

(* A recycled CPU keeps its translation exactly when the closures'
   aliases survive and nothing else changed: same code, same manifest
   and deprivileging, round-robin TLB, no profiler. *)
let test_rearm_translation_only_when_exact () =
  let w = Hft_guest.Workload.dhrystone ~iterations:20 in
  let code = w.Hft_guest.Workload.program.Asm.code in
  let m = Manifest.of_program w.Hft_guest.Workload.program in
  let arm ?config ?recycle ?(profile = false) ?(deprivileged = false) () =
    let c = Cpu.create ?config ?recycle ~code () in
    Manifest.install m ~deprivileged:false c;
    if profile then Cpu.install_profile c;
    (match Manifest.install_translation m ~deprivileged c with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "translation refused: %s" e);
    ignore (Cpu.run c ~fuel:2_000);
    c
  in
  let tx c = Option.get (Cpu.translation c) in
  let a = arm () in
  let ta = tx a in
  let b = arm ~recycle:a () in
  Alcotest.(check bool) "re-armed" true (tx b == ta);
  let c = arm ~recycle:b ~deprivileged:true () in
  Alcotest.(check bool) "other deprivileging recompiles" false (tx c == ta);
  let tc = tx c in
  let d = arm ~recycle:c ~profile:true () in
  Alcotest.(check bool) "profiler recompiles" false (tx d == tc);
  let e = arm ~recycle:d () in
  Alcotest.(check bool) "profiled donor recompiles" false (tx e == tx d);
  let random =
    {
      Cpu.default_config with
      Cpu.tlb_policy = Tlb.Random (Hft_sim.Rng.create 1);
    }
  in
  let te = tx e in
  let f = arm ~config:random ~recycle:e () in
  Alcotest.(check bool) "random TLB recompiles" false (tx f == te)

(* ---------- superblock structure ---------- *)

let test_superblock_single_entry () =
  List.iter
    (fun (name, _, p) ->
      let _cfg, dom, sb = analyze p in
      Array.iter
        (fun (r : Superblock.region) ->
          List.iter
            (fun b ->
              if b <> r.Superblock.head then
                List.iter
                  (fun pred ->
                    if sb.Superblock.region_of.(pred) <> r.Superblock.id then
                      Alcotest.failf
                        "%s: region %d member block %d has external \
                         predecessor %d"
                        name r.Superblock.id b pred)
                  dom.Domtree.bpreds.(b))
            r.Superblock.blocks)
        sb.Superblock.regions)
    (shipped_images ())

(* ---------- dominator tree ---------- *)

let test_domtree_diamond () =
  (* A(0) -> B(1,2) and C(3); both -> D(4): idom(B)=idom(C)=idom(D)=A *)
  let p =
    Asm.(
      assemble
        [
          beq r1 r0 (lbl "c");
          addi r2 r0 1;
          insn (Isa.Jmp 4);
          label "c";
          addi r2 r0 2;
          label "d";
          halt;
        ])
  in
  let _cfg, dom, _sb = analyze p in
  let b_of a = dom.Domtree.block_of.(a) in
  let a = b_of 0 and b = b_of 1 and c = b_of 3 and d = b_of 4 in
  Alcotest.(check int) "idom(B) = A" a dom.Domtree.idom.(b);
  Alcotest.(check int) "idom(C) = A" a dom.Domtree.idom.(c);
  Alcotest.(check int) "idom(D) = A" a dom.Domtree.idom.(d);
  Alcotest.(check int)
    "idom(A) is the virtual root" (Domtree.virtual_root dom)
    dom.Domtree.idom.(a);
  Alcotest.(check bool) "A dominates D" true (Domtree.dominates dom a d);
  Alcotest.(check bool) "B does not dominate D" false
    (Domtree.dominates dom b d)

let test_domtree_loop () =
  let p =
    Asm.(
      assemble
        [ ldi r1 4; label "lp"; subi r1 r1 1; bne r1 r0 (lbl "lp"); halt ])
  in
  let _cfg, dom, _sb = analyze p in
  (* the loop is one block, [1, 3), that branches back to itself *)
  let b_of a = dom.Domtree.block_of.(a) in
  let entry = b_of 0 and header = b_of 1 and exit = b_of 3 in
  Alcotest.(check int) "the latch is the header" header (b_of 2);
  Alcotest.(check bool) "the back edge is a block edge" true
    (List.mem header dom.Domtree.bsuccs.(header));
  Alcotest.(check int) "idom(header) = entry" entry dom.Domtree.idom.(header);
  Alcotest.(check bool) "header dominates the exit" true
    (Domtree.dominates dom header exit);
  Alcotest.(check bool) "the exit does not dominate the header" false
    (Domtree.dominates dom exit header)

(* ---------- value-set analysis ---------- *)

let test_vsa_resolves_computed_jr () =
  (* r2 <- encoded addr 4, then +4 -> addr 5.  The flow-insensitive
     candidate pass gives up on any register an ALU op writes; VSA
     follows the arithmetic. *)
  let code =
    Isa.
      [|
        Ldi (2, 16); Alui (Add, 2, 2, 4); Jr 2; Halt; Halt; Halt;
      |]
  in
  let coarse = Cfg.build code in
  Alcotest.(check (list int)) "coarse analysis cannot resolve it" [ 2 ]
    coarse.Cfg.jr_unresolved;
  let cfg = Vsa.refine coarse (Vsa.solve coarse) in
  Alcotest.(check (list int)) "VSA resolves it" [] cfg.Cfg.jr_unresolved;
  Alcotest.(check (list int)) "to the computed target" [ 5 ] cfg.Cfg.succs.(2);
  let m = Manifest.of_code code in
  Alcotest.(check int) "manifest credits the resolution" 1
    m.Manifest.jr_resolved_by_vsa;
  Alcotest.(check int) "nothing left unresolved" 0 m.Manifest.jr_unresolved

let test_vsa_jal_link () =
  let p = Asm.(assemble [ jal r1 (lbl "f"); halt; label "f"; jr r1 ]) in
  let cfg = Cfg.of_program p in
  let vsa = Vsa.solve cfg in
  (* the link value is (site+1) << 2 | priv, priv in 0..3 *)
  match Vsa.value_at vsa ~addr:2 ~reg:1 with
  | v ->
    Alcotest.(check bool)
      "link value covers the privilege low bits" true
      (Vsa.equal_value v (Vsa.join_value v (Vsa.Itv (4, 7))))

(* ---------- finding dedupe (satellite) ---------- *)

let test_duplicate_findings_collapse () =
  (* [Br (c, r1, r1)] reports "branched on" per operand: two
     byte-identical findings before dedupe. *)
  let p =
    Asm.(assemble [ jal r1 (lbl "f"); halt; label "f"; beq r1 r1 (lbl "f") ])
  in
  let fs = Analysis.check p in
  Alcotest.(check int)
    "identical findings are reported once"
    (List.length (List.sort_uniq Finding.compare fs))
    (List.length fs);
  let branched =
    List.filter (fun f -> contains f.Finding.message "branched on") fs
  in
  Alcotest.(check int) "one branched-on finding for Br(c,r,r)" 1
    (List.length branched)

(* ---------- findings map to symbols through rewriting ---------- *)

let test_findings_symbolize_through_rewrite () =
  (* Rewrite with a tiny marker spacing so every image gains many
     instrumentation sites (including Jal return points), then check
     that every finding and every marker site still resolves to a
     label+offset of the original program through the rebound symbol
     table — not to a bare "@addr". *)
  List.iter
    (fun (w : Hft_guest.Workload.t) ->
      let p = w.Hft_guest.Workload.program in
      if p.Asm.labels = [] then ()
      else begin
        let rw = Rewrite.rewrite_program ~every:64 p in
        let syms = Symtab.of_program rw in
        let original_labels = List.map fst p.Asm.labels in
        let check_addr what addr =
          let where = Symtab.resolve syms addr in
          if String.length where > 0 && where.[0] = '@' then
            Alcotest.failf "%s: %s at %d resolves to no label (%s)"
              w.Hft_guest.Workload.name what addr where;
          let label = List.hd (String.split_on_char '+' where) in
          if not (List.mem label original_labels) then
            Alcotest.failf "%s: %s at %d maps to %S, not an original label"
              w.Hft_guest.Workload.name what addr label
        in
        let data_init = List.map fst w.Hft_guest.Workload.config in
        List.iter
          (fun (f : Finding.t) -> check_addr "finding" f.Finding.addr)
          (Analysis.check ~rewritten:true ~data_init rw);
        Array.iteri
          (fun addr i ->
            match i with
            | Isa.Trapc c when c = Rewrite.epoch_marker_code ->
              check_addr "epoch marker" addr
            | _ -> ())
          rw.Asm.code
      end)
    (named_workloads ())

(* ---------- runtime certificate validator ---------- *)

let test_validator_priv_violation () =
  (* The code legitimately raises its privilege to 3; a manifest that
     certifies the block Priv0 is wrong and must trap at the first
     instruction executed above level 0. *)
  let code =
    Isa.[| Ldi (1, 3); Mtcr (Cr_status, 1); Alu (Add, 2, 0, 0); Halt |]
  in
  let c = Cpu.create ~code () in
  let len = Array.length code in
  Cpu.install_validator c
    (Cpu.validator_tables ~code
       ~priv_ok:(Array.make len 1) (* level 0 only *)
       ~det:(Array.make len false) ~uses:(Array.make len 0)
       ~def:(Array.make len 0) ~certified:(Array.make len false)
       ~random_tlb:false ());
  match (Cpu.run c ~fuel:10).Cpu.stop with
  | Cpu.Cert_violation { addr; msg } ->
    Alcotest.(check int) "traps at the deprivileged instruction" 2 addr;
    Alcotest.(check bool) "names the certificate" true
      (contains msg "Priv0")
  | s -> Alcotest.failf "expected Cert_violation, got %a" Cpu.pp_stop s

let test_validator_uninit_read () =
  let code = Isa.[| Alu (Add, 2, 1, 1); Halt |] in
  let c = Cpu.create ~code () in
  Cpu.install_validator c
    (Cpu.validator_tables ~code
       ~priv_ok:(Array.make 2 0xf)
       ~det:(Array.make 2 true)
       ~uses:[| 1 lsl 1; 0 |]
       ~def:[| 1 lsl 2; 0 |]
       ~certified:(Array.make 2 false) ~random_tlb:false ());
  match (Cpu.run c ~fuel:10).Cpu.stop with
  | Cpu.Cert_violation { addr; msg } ->
    Alcotest.(check int) "traps at the uninitialized read" 0 addr;
    Alcotest.(check bool) "names determinism" true
      (contains msg "Deterministic")
  | s -> Alcotest.failf "expected Cert_violation, got %a" Cpu.pp_stop s

let test_validator_clean_run_covers () =
  (* a correct manifest on a straight-line program: runs to Halt with
     full coverage and no violation *)
  let code =
    Isa.[| Ldi (1, 7); Alui (Add, 2, 1, 1); Alu (Xor, 3, 2, 1); Halt |]
  in
  let m = Manifest.of_code code in
  let c = Cpu.create ~code () in
  Manifest.install m ~deprivileged:false c;
  (match (Cpu.run c ~fuel:10).Cpu.stop with
  | Cpu.Stop_halt -> ()
  | s -> Alcotest.failf "expected Stop_halt, got %a" Cpu.pp_stop s);
  match coverage c with
  | Some (covered, checked) ->
    Alcotest.(check int) "three instructions validated" 3 checked;
    Alcotest.(check int) "all of them certified" 3 covered
  | None -> Alcotest.fail "validator not installed"

let test_validator_amnesty_on_trap () =
  (* r2 is written only before the trap; the handler reads it.  The
     static model treats trap roots as fully initialized (registers
     are replicated state), so delivery must reset the written set
     instead of flagging a stale mask. *)
  let code =
    Isa.
      [|
        (* 0: *) Ldi (1, 8);
        (* 1: *) Mtcr (Cr_ivec, 1);
        (* 2: *) Ldi (2, 5);
        (* 3: *) Trapc 7;
        (* 4: *) Halt;
        (* 5: *) Halt;
        (* handler: *)
        (* 6: would be unreachable *) Halt;
        (* 7: *) Halt;
        (* 8: *) Alu (Add, 3, 2, 2);
        (* 9: *) Halt;
      |]
  in
  let c = Cpu.create ~code () in
  let len = Array.length code in
  let uses = Array.make len 0 in
  uses.(8) <- 1 lsl 2;
  Cpu.install_validator c
    (Cpu.validator_tables ~code
       ~priv_ok:(Array.make len 0xf)
       ~det:(Array.make len true) ~uses ~def:(Array.make len 0)
       ~certified:(Array.make len false) ~random_tlb:false ());
  (* run to the Trapc stop, deliver the trap, continue into the
     handler: the read of r2 at 8 must pass via amnesty *)
  (match (Cpu.run c ~fuel:10).Cpu.stop with
  | Cpu.Syscall _ -> ()
  | s -> Alcotest.failf "expected Syscall, got %a" Cpu.pp_stop s);
  Cpu.deliver_trap c ~cause:9 ~epc:(Cpu.pc c);
  match (Cpu.run c ~fuel:10).Cpu.stop with
  | Cpu.Stop_halt -> ()
  | s -> Alcotest.failf "expected Stop_halt after handler, got %a" Cpu.pp_stop s

(* ---------- per-block crediting: deferred windows are exact ---------- *)

let stop_name s = Format.asprintf "%a" Cpu.pp_stop s

(* Arm two CPUs with the same hand-built tables, one with the block
   structure and one without it (every window a single instruction,
   i.e. per-instruction accounting), and run them in the same fuel
   slices.  Stops are completed as a hypervisor would: an MMIO load
   gets a fixed value and the pc moves on, an MMIO store and a
   protection stop are skipped, a TLB miss inserts [map vpage] and
   retries, and an expired recovery counter is re-armed with [rc].
   [setup] prepares both CPUs (privilege, MMU) and [profile] arms the
   retirement profiler on both.  After every slice the two must agree
   on the stop, the pc, the retired count, the full state hash, the
   coverage and the per-address profile; at the end the blocked CPU
   must have run tight windows, and when [model] is given
   ({!window_model}) exactly as many windows, tight instructions and
   covered instructions as it says.  Returns the terminal stop. *)
let run_twins ~code ~blk_end ?det ~certified ?config
    ?(setup = ignore) ?rc ?(profile = false) ?model
    ?(map = fun vpage -> { Tlb.vpage; ppage = vpage; user_ok = true;
                           writable = true }) ~slices () =
  let n = Array.length code in
  let det = match det with Some d -> d | None -> Array.make n true in
  let mask =
    List.fold_left (fun acc r -> if r = 0 then acc else acc lor (1 lsl r)) 0
  in
  let uses = Array.map (fun i -> mask (Determinism.uses i)) code in
  let def =
    Array.map (fun i -> mask (Option.to_list (Determinism.def i))) code
  in
  let arm ?blk_end () =
    let c = Cpu.create ?config ~code () in
    Cpu.install_validator c
      (Cpu.validator_tables ?blk_end ~code ~priv_ok:(Array.make n 0xf) ~det
         ~uses ~def ~certified ~random_tlb:false ());
    setup c;
    Option.iter (Cpu.set_recovery c) rc;
    if profile then Cpu.install_profile c;
    c
  in
  let blocked = arm ~blk_end () and single = arm () in
  let both f = List.iter f [ blocked; single ] in
  let rec go k =
    if k >= 1000 then Alcotest.fail "twins never reached a terminal stop";
    let fuel = List.nth slices (k mod List.length slices) in
    let a = Cpu.run blocked ~fuel and b = Cpu.run single ~fuel in
    let what = Printf.sprintf "slice %d: " k in
    Alcotest.(check string) (what ^ "stop") (stop_name b.Cpu.stop)
      (stop_name a.Cpu.stop);
    Alcotest.(check int) (what ^ "executed") b.Cpu.executed a.Cpu.executed;
    Alcotest.(check int) (what ^ "pc") (Cpu.pc single) (Cpu.pc blocked);
    Alcotest.(check int) (what ^ "retired")
      (Cpu.instructions_retired single)
      (Cpu.instructions_retired blocked);
    Alcotest.(check int) (what ^ "state hash")
      (Cpu.state_hash ~full:true single)
      (Cpu.state_hash ~full:true blocked);
    Alcotest.(check (option (pair int int))) (what ^ "coverage")
      (coverage single) (coverage blocked);
    Alcotest.(check (option (array int))) (what ^ "profile")
      (Cpu.profile single) (Cpu.profile blocked);
    match a.Cpu.stop with
    | Cpu.(Stop_halt | Cert_violation _ | Fault _) ->
      if Cpu.window_instrs blocked = 0 then
        Alcotest.fail "the blocked twin never ran a tight window";
      Option.iter
        (fun (opened, instrs, covered) ->
          Alcotest.(check int) "windows opened" opened
            (Cpu.windows_opened blocked);
          Alcotest.(check int) "instructions run tight" instrs
            (Cpu.window_instrs blocked);
          Alcotest.(check int) "instructions covered" covered
            (Cpu.validator_coverage blocked).Cpu.covered)
        model;
      a.Cpu.stop
    | Cpu.Mmio_read { reg; _ } ->
      both (fun c ->
          Cpu.set_reg c reg 7;
          Cpu.advance_pc c);
      go (k + 1)
    | Cpu.(Mmio_write _ | Protection _) ->
      both Cpu.advance_pc;
      go (k + 1)
    | Cpu.Tlb_miss { vaddr; _ } ->
      let shift = (Cpu.config blocked).Cpu.page_shift in
      both (fun c -> Tlb.insert (Cpu.tlb c) (map (vaddr lsr shift)));
      go (k + 1)
    | Cpu.Recovery ->
      both (fun c -> Option.iter (Cpu.set_recovery c) rc);
      go (k + 1)
    | _ -> go (k + 1)
  in
  go 0

(* What the blocked twin must do over [code] in [slices], read off the
   per-instruction trace of a CPU without a validator: a window opens
   wherever control reaches an address whose block run is longer than
   one instruction, other than by falling through inside the open
   window, and every instruction up to its block's end runs tight; a
   slice starts with no window open.  Every completion at a [certified]
   address is covered.  Exact for code of ordinary instructions with no
   hazard and no unwritten read, that ends in its only stop.  Returns
   the windows opened, the instructions they ran and the instructions
   covered. *)
let window_model ~code ~blk_end ~certified ~slices =
  let c = Cpu.create ~code () in
  let opened = ref 0 and tight = ref 0 and covered = ref 0 in
  let rec slice k =
    let fuel = List.nth slices (k mod List.length slices) in
    let rec next i ~prev ~until =
      if i = fuel then slice (k + 1)
      else begin
        let pc = Cpu.pc c in
        if (Cpu.run c ~fuel:1).Cpu.executed = 1 then begin
          let until =
            if pc = prev + 1 && pc < until then until
            else if blk_end.(pc) > pc + 1 then begin
              incr opened;
              blk_end.(pc)
            end
            else -1
          in
          if until > 0 then incr tight;
          if certified.(pc) then incr covered;
          next (i + 1) ~prev:pc ~until
        end
      end
    in
    next 0 ~prev:(-2) ~until:(-1)
  in
  slice 0;
  (!opened, !tight, !covered)

(* enough memory for the twins' stores, small enough to hash after
   every slice *)
let small_memory = { Cpu.default_config with Cpu.mem_words = 1 lsl 12 }

let test_deferred_odd_slices () =
  (* a counted loop over a store, in fuel slices that keep ending
     mid-block *)
  let code =
    Isa.
      [|
        Ldi (1, 0);
        Ldi (2, 10);
        Ldi (3, 0);
        Alui (Add, 1, 1, 1);
        Alu (Add, 3, 3, 1);
        St (3, 0, 100);
        Br (Ne, 1, 2, 3);
        Ld (4, 0, 100);
        Halt;
      |]
  in
  (* every slice length up to the loop block's 4, and recovery counters
     that expire at every offset inside it, with and without the
     profiler *)
  List.iter
    (fun (slices, rc, profile) ->
      let stop =
        run_twins ~code ~blk_end:[| 3; 3; 3; 7; 7; 7; 7; 9; 9 |]
          ~certified:(Array.make 9 true) ~config:small_memory ?rc ~profile
          ~slices ()
      in
      Alcotest.(check string) "halts" "halt" (stop_name stop))
    (List.concat_map
       (fun slices ->
         List.concat_map
           (fun rc -> [ (slices, rc, false); (slices, rc, true) ])
           [ None; Some 1; Some 2; Some 3; Some 5; Some 6 ])
       [ [ 1; 2; 3; 5; 7; 11 ]; [ 1 ]; [ 2 ]; [ 3 ]; [ 4 ]; [ 1000 ] ])

let test_deferred_mmio_wfi_mfcr () =
  (* one 10-instruction block (not Deterministic, so the MMIO load is a
     plain stop) holding an MMIO load, a Wfi, a control-register read
     (a status refresh) and an MMIO store *)
  let code =
    Isa.
      [|
        Ldi (1, 0xF0000);
        Ldi (2, 5);
        Ld (3, 1, 0);
        Alu (Add, 4, 3, 2);
        Wfi;
        Alui (Add, 6, 4, 4);
        Mfcr (7, Cr_epc);
        St (4, 1, 1);
        Alui (Add, 5, 4, 1);
        Halt;
      |]
  in
  List.iter
    (fun slices ->
      let stop =
        run_twins ~code ~blk_end:(Array.make 10 10) ~det:(Array.make 10 false)
          ~certified:(Array.make 10 true) ~slices ()
      in
      Alcotest.(check string) "halts" "halt" (stop_name stop))
    [ [ 100 ]; [ 1; 2 ]; [ 3 ] ];
  (* every memory stop inside one 9-instruction loop block, with the
     MMU off and on: a load and a store through a read-only page (a
     protection stop under the MMU), a page a 2-entry TLB keeps
     evicting (TLB misses), an MMIO load and store, and after the loop
     a load past the end of memory, which ends the run *)
  let code =
    Isa.
      [|
        Ldi (1, 0x400);
        Ldi (2, 0x800);
        Ldi (5, 0xF0000);
        Ldi (6, 0);
        Ldi (7, 3);
        (* loop: *)
        Alui (Add, 6, 6, 1);
        Ld (3, 1, 0);
        St (6, 1, 1);
        Ld (4, 2, 0);
        Ld (8, 5, 0);
        St (6, 5, 1);
        Alu (Add, 9, 3, 4);
        St (9, 2, 2);
        Br (Ne, 6, 7, 5);
        Ldi (10, 0x20000);
        Ld (11, 10, 0);
        Halt;
      |]
  in
  let config =
    { Cpu.default_config with Cpu.mem_words = 1 lsl 13; tlb_entries = 2 }
  in
  let mmu_on c =
    Cpu.set_cr c Isa.Cr_status
      (Isa.status_with_mmu_enable (Cpu.cr c Isa.Cr_status) true);
    Cpu.set_priv c 3
  in
  let map vpage =
    { Tlb.vpage; ppage = vpage; user_ok = true; writable = vpage <> 1 }
  in
  List.iter
    (fun ((mmu, setup), rc, profile, slices) ->
      let stop =
        run_twins ~code
          ~blk_end:[| 5; 5; 5; 5; 5; 14; 14; 14; 14; 14; 14; 14; 14; 14; 17;
                      17; 17 |]
          ~det:(Array.make 17 false) ~certified:(Array.make 17 true) ~config
          ~setup ~map ?rc ~profile ~slices ()
      in
      Alcotest.(check string) (mmu ^ ": ends past memory")
        "fault(load from bad address 0x20000)" (stop_name stop))
    (List.concat_map
       (fun mmu ->
         List.concat_map
           (fun rc ->
             List.concat_map
               (fun profile ->
                 List.map
                   (fun slices -> (mmu, rc, profile, slices))
                   [ [ 100 ]; [ 1 ]; [ 2; 3 ]; [ 4 ]; [ 9 ] ])
               [ false; true ])
           [ None; Some 1; Some 2; Some 3; Some 7 ])
       [ ("MMU off", ignore); ("MMU on", mmu_on) ])

let test_deferred_self_loop_header () =
  (* [2,5) branches back to its own head: every pass closes the window
     and opens the next *)
  let code =
    Isa.
      [|
        Ldi (1, 0);
        Ldi (2, 6);
        Alui (Add, 1, 1, 1);
        Alu (Xor, 3, 1, 2);
        Br (Ne, 1, 2, 2);
        Halt;
      |]
  in
  let blk_end = [| 2; 2; 5; 5; 5; 6 |] in
  let certified = Array.make 6 true in
  List.iter
    (fun slices ->
      let stop =
        run_twins ~code ~blk_end ~certified ~slices
          ~model:(window_model ~code ~blk_end ~certified ~slices) ()
      in
      Alcotest.(check string) "halts" "halt" (stop_name stop))
    [ [ 100 ]; [ 2; 5 ] ]

let test_deferred_jr_into_own_block () =
  (* block [3,9) ends in a computed jump back to its own second
     instruction, a target [Cfg] would not make a leader, until r2
     reaches 10 and the jump goes to the Halt: the jump must end the
     window, so that the next pass opens one of its own and runs tight
     instead of counting on inside the old one *)
  let code =
    Isa.
      [|
        Ldi (1, 0);
        Ldi (2, 0);
        Ldi (7, 9 lsl 2);
        Alui (Add, 1, 1, 1);
        Alu (Add, 2, 2, 1);
        Alui (Sltu, 6, 2, 10);
        Alui (Mul, 6, 6, 5 lsl 2);
        Alu (Sub, 5, 7, 6);
        Jr 5;
        Halt;
      |]
  in
  let blk_end = [| 3; 3; 3; 9; 9; 9; 9; 9; 9; 10 |] in
  (* only the looping block lies in a certified superblock *)
  let certified = Array.init 10 (fun a -> a >= 3 && a < 9) in
  List.iter
    (fun slices ->
      let stop =
        run_twins ~code ~blk_end ~certified ~profile:true ~slices
          ~model:(window_model ~code ~blk_end ~certified ~slices) ()
      in
      Alcotest.(check string) "halts" "halt" (stop_name stop))
    [ [ 100 ]; [ 5; 7 ]; [ 1 ] ]

(* ---------- differential: validator armed on a full run ---------- *)

let test_replicated_run_validates () =
  let params =
    Hft_core.Params.with_epoch_length Hft_core.Params.default 512
  in
  let w = Hft_guest.Workload.dhrystone ~iterations:200 in
  let o = Hft_harness.Scenario.replicated ~params w in
  let st = o.Hft_core.System.primary_stats in
  if st.Hft_core.Stats.validated_instructions = 0 then
    Alcotest.fail "validator did not observe the run";
  match Hft_core.Stats.certified_coverage st with
  | Some c ->
    if c < 0.5 then
      Alcotest.failf "certified coverage unexpectedly low: %.2f" c
  | None -> Alcotest.fail "no coverage recorded"

let () =
  Alcotest.run "manifest"
    [
      ( "manifest",
        [
          Alcotest.test_case "shipped images certify" `Quick
            test_workloads_certify;
          Alcotest.test_case "JSON round trip" `Quick test_json_round_trip;
          Alcotest.test_case "stale manifest refused everywhere" `Quick
            test_stale_manifest;
          Alcotest.test_case "fresh manifest boots" `Quick
            test_fresh_manifest_accepted;
          Alcotest.test_case "cache key covers all of code_refs" `Quick
            test_cache_key_covers_code_refs;
          Alcotest.test_case "re-arming still refuses a stale manifest"
            `Quick test_rearm_still_validates;
          Alcotest.test_case "armed CPUs share no run state" `Quick
            test_rearm_shares_no_run_state;
          Alcotest.test_case "validator re-armed only for the same knobs"
            `Quick test_rearm_validator_only_for_same_knobs;
          Alcotest.test_case "translation re-armed only when exact" `Quick
            test_rearm_translation_only_when_exact;
        ] );
      ( "superblocks",
        [
          Alcotest.test_case "single entry" `Quick
            test_superblock_single_entry;
        ] );
      ( "domtree",
        [
          Alcotest.test_case "diamond" `Quick test_domtree_diamond;
          Alcotest.test_case "natural loop" `Quick test_domtree_loop;
        ] );
      ( "vsa",
        [
          Alcotest.test_case "resolves computed jr" `Quick
            test_vsa_resolves_computed_jr;
          Alcotest.test_case "jal link interval" `Quick test_vsa_jal_link;
        ] );
      ( "findings",
        [
          Alcotest.test_case "duplicates collapse" `Quick
            test_duplicate_findings_collapse;
          Alcotest.test_case "symbols survive rewriting" `Quick
            test_findings_symbolize_through_rewrite;
        ] );
      ( "validator",
        [
          Alcotest.test_case "priv violation" `Quick
            test_validator_priv_violation;
          Alcotest.test_case "uninitialized read" `Quick
            test_validator_uninit_read;
          Alcotest.test_case "clean run covers" `Quick
            test_validator_clean_run_covers;
          Alcotest.test_case "amnesty on trap delivery" `Quick
            test_validator_amnesty_on_trap;
          Alcotest.test_case "deferred window: odd fuel slices" `Quick
            test_deferred_odd_slices;
          Alcotest.test_case "deferred window: MMIO, Wfi, Mfcr" `Quick
            test_deferred_mmio_wfi_mfcr;
          Alcotest.test_case "deferred window: self-loop header" `Quick
            test_deferred_self_loop_header;
          Alcotest.test_case "deferred window: Jr into its own block" `Quick
            test_deferred_jr_into_own_block;
          Alcotest.test_case "replicated run validates" `Quick
            test_replicated_run_validates;
        ] );
    ]
