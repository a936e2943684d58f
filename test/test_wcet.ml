(* Epoch-cost certification: loop-bound inference over value-set
   strides, WCET soundness against the dynamic oracle (the static
   bound must dominate what actually runs), threaded-loop digest parity
   under adversarial fuel slicing, the validator's loop-iteration
   trap on an under-bounded manifest, and the widening-ladder
   regression (a many-iteration loop must not cost a [Deterministic]
   certificate to the old iteration cap). *)

open Hft_machine
open Hft_analysis

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let loop_at m header =
  match
    List.find_opt (fun l -> l.Manifest.l_header = header) m.Manifest.loops
  with
  | Some l -> l
  | None -> Alcotest.failf "no loop with header %d in manifest" header

let run_to_halt ?(max_slices = 100_000) c =
  let rec go budget =
    if budget = 0 then Alcotest.fail "guest did not halt";
    match (Cpu.run c ~fuel:10_000).Cpu.stop with
    | Cpu.Stop_halt -> ()
    | Cpu.Fuel | Cpu.Recovery -> go (budget - 1)
    | s -> Alcotest.failf "unexpected stop %a" Cpu.pp_stop s
  in
  go max_slices

(* ---------- loop-bound inference ---------- *)

(* The bench loop workload: an inner counted self-loop (r2 from 0 to
   100 by 1) inside an outer unbounded loop (restarted by [Jmp]).
   Exactly half the loops are bounded. *)
let loop_nest_code =
  Isa.
    [|
      Ldi (3, 0x2000);
      Ldi (4, 0);
      Ldi (6, 100);
      Ldi (2, 0);
      Alui (Add, 2, 2, 1);
      Alu (Xor, 4, 4, 2);
      St (4, 3, 0);
      Ld (5, 3, 0);
      Br (Ltu, 2, 6, 4);
      Jmp 3;
    |]

let test_counted_loop_bound () =
  let m = Manifest.of_code loop_nest_code in
  Alcotest.(check int) "two natural loops" 2 (Manifest.loop_count m);
  Alcotest.(check int) "one bounded" 1 (Manifest.bounded_loops m);
  Alcotest.(check (float 0.001))
    "coverage is half" 0.5
    (Manifest.loop_bound_coverage m);
  let inner = loop_at m 4 in
  Alcotest.(check (option int))
    "inner trip bound" (Some 100) inner.Manifest.l_bound;
  Alcotest.(check (option int))
    "inner body cost" (Some 5) inner.Manifest.l_body_cost;
  Alcotest.(check (option int))
    "inner loop WCET" (Some 500) inner.Manifest.l_wcet;
  let outer = loop_at m 3 in
  Alcotest.(check (option int)) "outer unbounded" None outer.Manifest.l_bound;
  Alcotest.(check bool)
    "outer loop carries a witness path" true
    (outer.Manifest.l_witness <> [])

let test_decreasing_and_early_exit () =
  (* a count-down loop closed by [Ne] against the zero register: the
     singleton-stride exactness case *)
  let down =
    Isa.[| Ldi (2, 50); Alui (Sub, 2, 2, 1); Br (Ne, 2, 0, 1); Halt |]
  in
  let m = Manifest.of_code down in
  Alcotest.(check (option int))
    "count-down bound" (Some 50)
    (loop_at m 1).Manifest.l_bound;
  (* an early exit does not disturb the bound; it only makes it
     conservative (7 dynamic iterations under a static 40) *)
  let early =
    Isa.
      [|
        Ldi (2, 0);
        Ldi (3, 40);
        Ldi (4, 7);
        Alui (Add, 2, 2, 1);
        Br (Eq, 2, 4, 7);
        Br (Ltu, 2, 3, 3);
        Jmp 7;
        Halt;
      |]
  in
  let m = Manifest.of_code early in
  Alcotest.(check (option int))
    "early-exit bound" (Some 40)
    (loop_at m 3).Manifest.l_bound;
  let c = Cpu.create ~code:early () in
  Manifest.install m ~deprivileged:false c;
  run_to_halt c;
  Alcotest.(check int)
    "took the early exit" 7
    (Word.signed (Cpu.reg c 2))

let test_nested_loops () =
  (* inner 6-trip loop nested in an outer 5-trip loop: the inner
     bound is certified; the outer is refused (its body is not
     interior-acyclic, so the one-step-per-iteration argument does
     not apply) and carries a witness instead *)
  let nested =
    Isa.
      [|
        Ldi (2, 0);
        Ldi (3, 5);
        Ldi (5, 6);
        Ldi (4, 0);
        Alui (Add, 4, 4, 1);
        Br (Ltu, 4, 5, 4);
        Alui (Add, 2, 2, 1);
        Br (Ltu, 2, 3, 3);
        Halt;
      |]
  in
  let m = Manifest.of_code nested in
  Alcotest.(check int) "two loops" 2 (Manifest.loop_count m);
  Alcotest.(check (option int))
    "inner bound" (Some 6)
    (loop_at m 4).Manifest.l_bound;
  Alcotest.(check (option int))
    "outer refused" None (loop_at m 3).Manifest.l_bound;
  let c = Cpu.create ~code:nested () in
  Manifest.install m ~deprivileged:false c;
  run_to_halt c;
  Alcotest.(check int) "outer ran 5" 5 (Word.signed (Cpu.reg c 2));
  Alcotest.(check int) "inner left at 6" 6 (Word.signed (Cpu.reg c 4))

(* ---------- widening ladder regression ---------- *)

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
  Alcotest.(check (option int))
    "pathological loop still bounded" (Some iters)
    (loop_at m 2).Manifest.l_bound;
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
  run_to_halt c;
  Alcotest.(check int)
    "ran to completion" (base + iters)
    (Word.signed (Cpu.reg c 4))

(* ---------- WCET soundness: static >= dynamic ---------- *)

(* One generated counted loop: [body] ALU/memory ops, then the
   induction step and the back branch.  Returns the code and the
   exact dynamic header-visit count. *)
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
  let code =
    Array.of_list
      (prologue @ ops
      @ Isa.[ Alui (Add, 2, 2, step); Br (Ltu, 2, 3, head); Halt ])
  in
  let visits = if limit > init then (limit - init + step - 1) / step else 1 in
  (code, head, visits)

let prop_wcet_sound =
  QCheck.Test.make ~count:60 ~name:"static loop certificates dominate runs"
    QCheck.(
      quad (int_range 0 20) (int_range 1 180) (int_range 1 3) (int_range 1 9))
    (fun (init, span, step, body) ->
      let limit = init + span in
      let code, head, visits = gen_loop ~init ~limit ~step ~body in
      let m = Manifest.of_code code in
      let l = loop_at m head in
      (* exact inference on singleton strides *)
      if l.Manifest.l_bound <> Some visits then
        QCheck.Test.fail_reportf "bound %s, dynamic visits %d"
          (match l.Manifest.l_bound with
          | Some b -> string_of_int b
          | None -> "none")
          visits;
      let body_cost = body + 2 in
      (match l.Manifest.l_wcet with
      | Some w when w >= visits * body_cost -> ()
      | Some w ->
        QCheck.Test.fail_reportf "loop WCET %d below dynamic %d" w
          (visits * body_cost)
      | None -> QCheck.Test.fail_report "bounded loop without a WCET");
      (* dynamic oracle: a validated interpreter run is silent, and the
         threaded backend retires the same instructions into
         the same architectural state *)
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

(* ---------- threaded loops: parity and fuel slicing ---------- *)

let test_loop_parity () =
  let code, _, _ = gen_loop ~init:0 ~limit:120 ~step:1 ~body:4 in
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
  let code, _, _ = gen_loop ~init:0 ~limit:100 ~step:1 ~body:3 in
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

(* ---------- the validator's loop trap ---------- *)

let test_underbounded_manifest_traps () =
  let code, head, visits = gen_loop ~init:0 ~limit:80 ~step:1 ~body:2 in
  let m = Manifest.of_code code in
  let tampered =
    {
      m with
      Manifest.loops =
        List.map
          (fun l ->
            if l.Manifest.l_header = head then
              { l with Manifest.l_bound = Some (visits / 2) }
            else l)
          m.Manifest.loops;
    }
  in
  let c = Cpu.create ~code () in
  Manifest.install tampered ~deprivileged:false c;
  let rec go budget =
    if budget = 0 then Alcotest.fail "validator never tripped";
    match (Cpu.run c ~fuel:10_000).Cpu.stop with
    | Cpu.Cert_violation { msg; _ } ->
      Alcotest.(check bool)
        "names the loop-bound certificate" true
        (contains msg "loop-bound")
    | Cpu.Stop_halt -> Alcotest.fail "under-bounded loop ran to completion"
    | Cpu.Fuel | Cpu.Recovery -> go (budget - 1)
    | s -> Alcotest.failf "unexpected stop %a" Cpu.pp_stop s
  in
  go 1_000;
  (* the honest manifest on the same image is silent *)
  let c = Cpu.create ~code () in
  Manifest.install m ~deprivileged:false c;
  run_to_halt c

(* ---------- manifest v2 round trip ---------- *)

let test_loop_layer_round_trips () =
  let m = Manifest.of_code loop_nest_code in
  match Manifest.of_json (Manifest.to_json m) with
  | Error e -> Alcotest.failf "reparse failed: %s" e
  | Ok m' ->
    Alcotest.(check string) "JSON fixed point"
      (Hft_obs.Json.to_string (Manifest.to_json m))
      (Hft_obs.Json.to_string (Manifest.to_json m'));
    Alcotest.(check int) "loops survive" (Manifest.loop_count m)
      (Manifest.loop_count m');
    Alcotest.(check int) "bounds survive" (Manifest.bounded_loops m)
      (Manifest.bounded_loops m')

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "wcet"
    [
      ( "loopbound",
        [
          Alcotest.test_case "counted self-loop in an unbounded nest" `Quick
            test_counted_loop_bound;
          Alcotest.test_case "count-down and early-exit loops" `Quick
            test_decreasing_and_early_exit;
          Alcotest.test_case "nested loops: inner bounded, outer refused"
            `Quick test_nested_loops;
        ] );
      ( "widening",
        [
          Alcotest.test_case "many-iteration loop keeps Deterministic" `Quick
            test_widening_keeps_determinism;
        ] );
      ( "soundness",
        [ q prop_wcet_sound ] );
      ( "threaded",
        [
          Alcotest.test_case "parity with the interpreter" `Quick
            test_loop_parity;
          Alcotest.test_case "fuel slicing stays instruction-exact" `Quick
            test_loop_fuel_slicing;
        ] );
      ( "validator",
        [
          Alcotest.test_case "under-bounded manifest trips the trap" `Quick
            test_underbounded_manifest_traps;
        ] );
      ( "manifest",
        [
          Alcotest.test_case "loop layer round-trips through JSON" `Quick
            test_loop_layer_round_trips;
        ] );
    ]
