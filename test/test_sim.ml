(* Tests for the discrete-event engine, RNG and time. *)

open Hft_sim

let time_tests =
  let open Alcotest in
  [
    test_case "unit conversions" `Quick (fun () ->
        check int "us" 1_000 (Time.to_ns (Time.of_us 1));
        check int "ms" 1_000_000 (Time.to_ns (Time.of_ms 1));
        check int "s" 1_000_000_000 (Time.to_ns (Time.of_sec 1));
        check (float 1e-9) "to_us" 1.5 (Time.to_us (Time.of_ns 1_500)));
    test_case "of_us_float rounds" `Quick (fun () ->
        check int "15.12us" 15_120 (Time.to_ns (Time.of_us_float 15.12)));
    test_case "arithmetic" `Quick (fun () ->
        let a = Time.of_us 3 and b = Time.of_us 2 in
        check int "add" 5_000 (Time.to_ns (Time.add a b));
        check int "diff" 1_000 (Time.to_ns (Time.diff a b));
        check int "scale" 9_000 (Time.to_ns (Time.scale a 3)));
    test_case "negative construction rejected" `Quick (fun () ->
        check_raises "of_ns" (Invalid_argument "Time.of_ns: negative")
          (fun () -> ignore (Time.of_ns (-1))));
    test_case "diff underflow rejected" `Quick (fun () ->
        check_raises "diff" (Invalid_argument "Time.diff: negative result")
          (fun () -> ignore (Time.diff (Time.of_ns 1) (Time.of_ns 2))));
    test_case "ordering" `Quick (fun () ->
        check bool "lt" true Time.(Time.of_ns 1 < Time.of_ns 2);
        check bool "ge" true Time.(Time.of_ns 2 >= Time.of_ns 2));
  ]

(* The engine's event heap, seen through scheduling (push), [next_time]
   (peek) and dispatch (pop). *)
let heap_tests =
  let open Alcotest in
  let schedule e log us =
    ignore (Engine.at e (Time.of_us us) (fun () -> log := us :: !log))
  in
  [
    test_case "push/pop sorts" `Quick (fun () ->
        let e = Engine.create () in
        let log = ref [] in
        List.iter (schedule e log) [ 5; 1; 4; 1; 3; 9; 2 ];
        Engine.run e;
        check (list int) "sorted" [ 1; 1; 2; 3; 4; 5; 9 ] (List.rev !log));
    test_case "peek does not remove" `Quick (fun () ->
        let e = Engine.create () in
        let log = ref [] in
        List.iter (schedule e log) [ 2; 1 ];
        check (option int) "peek" (Some 1_000)
          (Option.map Time.to_ns (Engine.next_time e));
        check int "pending" 2 (Engine.pending e);
        check (list int) "nothing fired" [] !log);
  ]

let heap_property =
  QCheck.Test.make ~name:"heap drains sorted" ~count:200
    QCheck.(list small_nat)
    (fun l ->
      let e = Engine.create () in
      let log = ref [] in
      List.iteri
        (fun i us ->
          ignore
            (Engine.at e (Time.of_us us) (fun () -> log := (us, i) :: !log)))
        l;
      Engine.run e;
      List.rev !log = List.sort compare (List.mapi (fun i us -> (us, i)) l))

let rng_tests =
  let open Alcotest in
  [
    test_case "deterministic from seed" `Quick (fun () ->
        let a = Rng.create 7 and b = Rng.create 7 in
        for _ = 1 to 100 do
          check int64 "same stream" (Rng.bits64 a) (Rng.bits64 b)
        done);
    test_case "different seeds differ" `Quick (fun () ->
        let a = Rng.create 7 and b = Rng.create 8 in
        check bool "diverge" true (Rng.bits64 a <> Rng.bits64 b));
    test_case "copy is independent" `Quick (fun () ->
        let a = Rng.create 3 in
        let b = Rng.copy a in
        let x = Rng.bits64 a in
        check int64 "copy replays" x (Rng.bits64 b));
    test_case "int respects bound" `Quick (fun () ->
        let r = Rng.create 11 in
        for _ = 1 to 1000 do
          let v = Rng.int r 17 in
          check bool "in range" true (v >= 0 && v < 17)
        done);
    test_case "int rejects bad bound" `Quick (fun () ->
        let r = Rng.create 1 in
        check_raises "zero" (Invalid_argument "Rng.int: bound must be positive")
          (fun () -> ignore (Rng.int r 0)));
    test_case "chance extremes" `Quick (fun () ->
        let r = Rng.create 5 in
        check bool "p=0" false (Rng.chance r 0.0);
        check bool "p=1" true (Rng.chance r 1.0));
    test_case "float in range" `Quick (fun () ->
        let r = Rng.create 9 in
        for _ = 1 to 1000 do
          let v = Rng.float r 2.5 in
          check bool "in range" true (v >= 0.0 && v < 2.5)
        done);
  ]

let engine_tests =
  let open Alcotest in
  [
    test_case "events fire in time order" `Quick (fun () ->
        let e = Engine.create () in
        let log = ref [] in
        ignore (Engine.at e (Time.of_us 3) (fun () -> log := 3 :: !log));
        ignore (Engine.at e (Time.of_us 1) (fun () -> log := 1 :: !log));
        ignore (Engine.at e (Time.of_us 2) (fun () -> log := 2 :: !log));
        Engine.run e;
        check (list int) "order" [ 1; 2; 3 ] (List.rev !log));
    test_case "same-time events fire in schedule order" `Quick (fun () ->
        let e = Engine.create () in
        let log = ref [] in
        for i = 1 to 5 do
          ignore (Engine.at e (Time.of_us 1) (fun () -> log := i :: !log))
        done;
        Engine.run e;
        check (list int) "fifo ties" [ 1; 2; 3; 4; 5 ] (List.rev !log));
    test_case "clock advances to event time" `Quick (fun () ->
        let e = Engine.create () in
        let seen = ref Time.zero in
        ignore (Engine.after e (Time.of_ms 5) (fun () -> seen := Engine.now e));
        Engine.run e;
        check int "now" 5_000_000 (Time.to_ns !seen));
    test_case "cancel prevents firing" `Quick (fun () ->
        let e = Engine.create () in
        let fired = ref false in
        let h = Engine.after e (Time.of_us 1) (fun () -> fired := true) in
        Engine.cancel e h;
        Engine.run e;
        check bool "not fired" false !fired;
        check bool "not pending" false (Engine.is_pending e h));
    test_case "scheduling in the past rejected" `Quick (fun () ->
        let e = Engine.create () in
        ignore (Engine.after e (Time.of_us 5) (fun () -> ()));
        Engine.run e;
        let raised =
          try
            ignore (Engine.at e (Time.of_us 1) (fun () -> ()));
            false
          with Invalid_argument _ -> true
        in
        check bool "raised" true raised);
    test_case "next_time skips cancelled" `Quick (fun () ->
        let e = Engine.create () in
        let h = Engine.at e (Time.of_us 1) (fun () -> ()) in
        ignore (Engine.at e (Time.of_us 2) (fun () -> ()));
        Engine.cancel e h;
        check (option int) "next" (Some 2_000)
          (Option.map Time.to_ns (Engine.next_time e)));
    test_case "events may schedule events" `Quick (fun () ->
        let e = Engine.create () in
        let count = ref 0 in
        let rec chain n =
          if n > 0 then
            ignore
              (Engine.after e (Time.of_us 1) (fun () ->
                   incr count;
                   chain (n - 1)))
        in
        chain 10;
        Engine.run e;
        check int "chained" 10 !count;
        check int "now" 10_000 (Time.to_ns (Engine.now e)));
    test_case "run_until stops at deadline" `Quick (fun () ->
        let e = Engine.create () in
        let log = ref [] in
        ignore (Engine.at e (Time.of_us 1) (fun () -> log := 1 :: !log));
        ignore (Engine.at e (Time.of_us 10) (fun () -> log := 10 :: !log));
        Engine.run_until e (Time.of_us 5);
        check (list int) "only first" [ 1 ] !log;
        check int "clock at deadline" 5_000 (Time.to_ns (Engine.now e));
        Engine.run e;
        check (list int) "rest" [ 10; 1 ] !log);
    test_case "stop interrupts run" `Quick (fun () ->
        let e = Engine.create () in
        let count = ref 0 in
        for _ = 1 to 10 do
          ignore
            (Engine.after e (Time.of_us 1) (fun () ->
                 incr count;
                 if !count = 3 then Engine.stop e))
        done;
        Engine.run e;
        check int "stopped at 3" 3 !count);
    test_case "run limit guards runaway" `Quick (fun () ->
        let e = Engine.create () in
        let rec forever () =
          ignore (Engine.after e (Time.of_us 1) (fun () -> forever ()))
        in
        forever ();
        check_raises "limited" (Engine.Runaway 100) (fun () ->
            Engine.run ~limit:100 e));
  ]

(* The queue's order contract, against a list model: random top-level
   events, most of them cancelled (so the sweep of dead events runs),
   whose handlers schedule further events and cancel arbitrary ones.
   Dispatch order must be the never-cancelled events sorted by time,
   then by scheduling order. *)
let engine_order_property =
  let prop ops =
    let e = Engine.create () in
    let handles = Hashtbl.create 64 (* id -> handle, time *) in
    let fired = Hashtbl.create 64 and cancelled = Hashtbl.create 64 in
    let next_id = ref 0 and log = ref [] in
    let kill id =
      if not (Hashtbl.mem fired id) then begin
        Hashtbl.replace cancelled id ();
        Engine.cancel e (fst (Hashtbl.find handles id))
      end
    in
    let rec schedule time children =
      let id = !next_id in
      incr next_id;
      let h =
        Engine.at e time (fun () ->
            Hashtbl.replace fired id ();
            log := id :: !log;
            List.iter
              (fun (dt, victim) ->
                ignore
                  (schedule (Time.add (Engine.now e) (Time.of_us dt)) []);
                kill (victim mod !next_id))
              children)
      in
      Hashtbl.replace handles id (h, Time.to_ns time);
      id
    in
    let ids =
      List.map (fun (t, _, children) -> schedule (Time.of_us t) children) ops
    in
    List.iter2 (fun id (_, c, _) -> if c > 0 then kill id) ids ops;
    Engine.run e;
    let expected =
      Hashtbl.fold
        (fun id (_, t) acc ->
          if Hashtbl.mem cancelled id then acc else (t, id) :: acc)
        handles []
      |> List.sort compare |> List.map snd
    in
    List.rev !log = expected && Engine.pending e = 0
  in
  QCheck.Test.make ~name:"dispatch order is (time, scheduling order)"
    ~count:300
    QCheck.(
      list_of_size
        Gen.(int_range 20 80)
        (triple (int_range 0 30) (int_range 0 2)
           (small_list (pair (int_range 0 5) small_nat))))
    prop

(* Same-instant ordering under the model checker's scheduler hook:
   whatever index the hook picks, every event fires exactly once at
   its scheduled time, the clock never regresses, and each co-enabled
   batch is presented at one instant in scheduling (seq) order. *)
let scheduler_permutation_property =
  let prop (seed, delays) =
    let e = Engine.create () in
    let fired = ref [] in
    List.iteri
      (fun i d_us ->
        ignore
          (Engine.after e
             (Time.of_us (d_us mod 4))
             (fun () -> fired := (i, Engine.now e) :: !fired)))
      delays;
    let expected =
      List.mapi (fun i d_us -> (i, Time.of_us (d_us mod 4))) delays
    in
    let rng = Rng.create seed in
    let batches_ok = ref true in
    Engine.set_scheduler e (fun batch ->
        let t0 = batch.(0).Engine.c_time in
        let seqs = Array.map (fun c -> c.Engine.c_seq) batch in
        if
          not
            (Array.for_all (fun c -> Time.equal c.Engine.c_time t0) batch)
        then batches_ok := false;
        for i = 1 to Array.length seqs - 1 do
          if seqs.(i - 1) >= seqs.(i) then batches_ok := false
        done;
        Rng.int rng (Array.length batch));
    Engine.run e;
    let fired = List.rev !fired in
    let sort l =
      List.sort (fun (a, _) (b, _) -> Int.compare a b) l
    in
    let monotone =
      let rec go = function
        | (_, a) :: ((_, b) :: _ as rest) -> Time.(a <= b) && go rest
        | _ -> true
      in
      go fired
    in
    !batches_ok && monotone && sort fired = sort expected
  in
  QCheck.Test.make ~name:"seeded scheduler permutes same-instant ties safely"
    ~count:100
    QCheck.(pair small_nat (list_of_size Gen.(int_range 0 12) small_nat))
    prop

let scheduler_tests =
  let open Alcotest in
  [
    test_case "scheduler returning 0 reproduces default order" `Quick
      (fun () ->
        let order_with hook =
          let e = Engine.create () in
          let log = ref [] in
          List.iteri
            (fun i d ->
              ignore
                (Engine.after e (Time.of_us d) (fun () -> log := i :: !log)))
            [ 2; 1; 1; 2; 1; 3; 2 ];
          (match hook with
          | Some f -> Engine.set_scheduler e f
          | None -> ());
          Engine.run e;
          List.rev !log
        in
        check (list int) "identical orders" (order_with None)
          (order_with (Some (fun _ -> 0))));
    test_case "out-of-range scheduler choice falls back to 0" `Quick
      (fun () ->
        let e = Engine.create () in
        let log = ref [] in
        for i = 1 to 3 do
          ignore (Engine.after e (Time.of_us 1) (fun () -> log := i :: !log))
        done;
        Engine.set_scheduler e (fun _ -> 99);
        Engine.run e;
        check (list int) "default order" [ 1; 2; 3 ] (List.rev !log));
    test_case "clear_scheduler restores default dispatch" `Quick (fun () ->
        let e = Engine.create () in
        let calls = ref 0 in
        ignore (Engine.after e (Time.of_us 1) (fun () -> ()));
        ignore (Engine.after e (Time.of_us 2) (fun () -> ()));
        Engine.set_scheduler e (fun _ ->
            incr calls;
            0);
        ignore (Engine.step e);
        Engine.clear_scheduler e;
        ignore (Engine.step e);
        check int "hook saw only the first step" 1 !calls);
  ]

(* Conservative lookahead: [horizon] bounds an actor's burst by its
   own and shared events exactly, by other actors' events [L] later
   (one nanosecond short, so the burst ends strictly before anything
   they can cause), and [at] enforces the [L] it assumes. *)
let horizon_tests =
  let open Alcotest in
  let ns = Option.map Time.to_ns in
  let engine () =
    let e = Engine.create () in
    Engine.set_lookahead e (Time.of_us 60);
    e
  in
  let ev e ?actor us = Engine.at e ?actor (Time.of_us us) (fun () -> ()) in
  let raises f =
    match f () with
    | () -> false
    | exception Invalid_argument _ -> true
  in
  [
    test_case "own and shared events bound it exactly" `Quick (fun () ->
        let e = engine () in
        ignore (ev e ~actor:"a" 100);
        check (option int) "own" (Some 100_000)
          (ns (Engine.horizon e ~actor:"a"));
        ignore (ev e 40);
        check (option int) "shared" (Some 40_000)
          (ns (Engine.horizon e ~actor:"a")));
    test_case "another actor's event bounds it at +L" `Quick (fun () ->
        let e = engine () in
        ignore (ev e ~actor:"b" 10);
        ignore (ev e ~actor:"a" 200);
        check (option int) "other + L - 1ns" (Some 69_999)
          (ns (Engine.horizon e ~actor:"a"));
        check (option int) "b's own event" (Some 10_000)
          (ns (Engine.horizon e ~actor:"b"));
        check (option int) "next_time unchanged" (Some 10_000)
          (ns (Engine.next_time e)));
    test_case "no lookahead: horizon is next_time" `Quick (fun () ->
        let e = Engine.create () in
        ignore (ev e ~actor:"b" 10);
        ignore (ev e ~actor:"a" 20);
        check (option int) "L = 0" (Some 10_000)
          (ns (Engine.horizon e ~actor:"a")));
    test_case "cancelled events are ignored" `Quick (fun () ->
        let e = engine () in
        let h = ev e ~actor:"a" 5 in
        ignore (ev e 500);
        Engine.cancel e h;
        check (option int) "cancelled own" (Some 500_000)
          (ns (Engine.horizon e ~actor:"a"));
        Engine.cancel e (ev e ~actor:"b" 1);
        check (option int) "cancelled other" (Some 500_000)
          (ns (Engine.horizon e ~actor:"a"));
        check (option int) "empty" None
          (ns (Engine.horizon (engine ()) ~actor:"a")));
    test_case "an installed scheduler yields next_time" `Quick (fun () ->
        let e = engine () in
        ignore (ev e ~actor:"b" 10);
        ignore (ev e ~actor:"a" 200);
        Engine.set_scheduler e (fun _ -> 0);
        check (option int) "per-dispatch" (Some 10_000)
          (ns (Engine.horizon e ~actor:"a")));
    test_case "sweeping cancelled events keeps the order" `Quick (fun () ->
        let e = Engine.create () in
        let log = ref [] in
        let hs =
          List.init 100 (fun i ->
              Engine.at e
                (Time.of_us (100 - (i / 4)))
                (fun () -> log := i :: !log))
        in
        List.iteri (fun i h -> if i mod 2 = 1 then Engine.cancel e h) hs;
        check int "pending" 50 (Engine.pending e);
        Engine.run e;
        let by_time_then_seq a b = compare (-(a / 4), a) (-(b / 4), b) in
        check (list int) "survivors by time, ties by seq"
          (List.sort by_time_then_seq (List.init 50 (fun k -> 2 * k)))
          (List.rev !log));
    test_case "a cross-actor at inside L raises" `Quick (fun () ->
        let e = engine () in
        let verdicts = ref [] in
        let try_at actor us =
          verdicts :=
            raises (fun () ->
                ignore
                  (Engine.after e ?actor (Time.of_us us) (fun () -> ())))
            :: !verdicts
        in
        ignore
          (Engine.at e ~actor:"a" (Time.of_us 1) (fun () ->
               try_at (Some "a") 0;
               try_at (Some "b") 59;
               try_at None 59;
               try_at (Some "b") 60;
               try_at None 60));
        (* shared handlers and code outside any handler are free *)
        ignore (Engine.at e (Time.of_us 2) (fun () -> try_at (Some "b") 0));
        Engine.run e;
        try_at (Some "b") 0;
        check (list bool) "verdicts"
          [ false; true; true; false; false; false; false ]
          (List.rev !verdicts));
  ]

(* The property lookahead must keep: three toy actors run bursts up to
   their horizon, stopping early at seeded trap points; a trap sends a
   message to another actor (at least [L] later, often exactly [L] so
   ties with burst ends are common) or arms a shared event.  Every
   delivery logs how far its receiver has run, every shared event how
   far all have run.  The logs must equal those of a pass-through
   scheduler run, where every burst ends at the next event of anyone. *)
let lookahead_exactness_property =
  let unit = 10 and l = 100 and limit = 5_000 in
  let simulate ~seed ~per_dispatch =
    let e = Engine.create () in
    Engine.set_lookahead e (Time.of_ns l);
    if per_dispatch then Engine.set_scheduler e (fun _ -> 0);
    let actors = [| "a"; "b"; "c" |] in
    let reached = Array.make 3 0 in
    let log = ref [] in
    let draw i p k = Hashtbl.hash (seed, i, p) mod k in
    let now () = Time.to_ns (Engine.now e) in
    let rec burst i =
      let t = now () in
      if t < limit then begin
        let n =
          match Engine.horizon e ~actor:actors.(i) with
          | Some h -> max 1 ((Time.to_ns h - t) / unit)
          | None -> limit
        in
        (* halting is a program point too *)
        let n = min n ((limit - t) / unit) in
        let rec first_trap k =
          if k >= n then n
          else if draw i (t + (k * unit)) 5 = 0 then k
          else first_trap (k + 1)
        in
        let k = first_trap 1 in
        reached.(i) <- t + (k * unit);
        ignore
          (Engine.at e ~actor:actors.(i) (Time.of_ns reached.(i)) (fun () ->
               if draw i reached.(i) 5 = 0 then trap i;
               burst i))
      end
    and trap i =
      let t = now () in
      let at = Time.of_ns (t + l + (unit * draw i t 3)) in
      if draw i (t + 1) 4 = 0 then
        ignore
          (Engine.at e at (fun () ->
               log := (now (), -1, Array.fold_left ( + ) 0 reached) :: !log))
      else
        let j = (i + 1 + draw i (t + 2) 2) mod 3 in
        ignore
          (Engine.at e ~actor:actors.(j) at (fun () ->
               log := (now (), j, reached.(j)) :: !log))
    in
    Array.iteri
      (fun i a -> ignore (Engine.at e ~actor:a Time.zero (fun () -> burst i)))
      actors;
    Engine.run e;
    (List.sort compare !log, Engine.events_dispatched e)
  in
  QCheck.Test.make ~name:"lookahead bursts match per-event horizons"
    ~count:200 QCheck.small_nat (fun seed ->
      let lookahead, dispatched = simulate ~seed ~per_dispatch:false in
      let per_event, dispatched' = simulate ~seed ~per_dispatch:true in
      lookahead = per_event && dispatched <= dispatched')

(* The one hashing primitive.  A step reads only its input's low 62
   bits, so it agrees with the unmasked FNV loops behind every printed
   hash; strings mix their length. *)
let fnv_tests =
  let open Alcotest in
  let mix = Fnv.int in
  [
    test_case "a step reads the low 62 bits" `Quick (fun () ->
        let unmasked h v = (h lxor v) * 0x100000001b3 land Fnv.mask in
        List.iter
          (fun v ->
            check int (string_of_int v) (unmasked Fnv.basis v)
              (mix Fnv.basis v))
          [ 0; 1; -1; max_int; min_int; 0x3bf29ce484222325 ]);
    test_case "strings mix their length" `Quick (fun () ->
        let two a b = Fnv.string (Fnv.string Fnv.basis a) b in
        check bool "ab|c vs a|bc" false (two "ab" "c" = two "a" "bc"));
  ]

let () =
  Alcotest.run "hft_sim"
    [
      ("time", time_tests);
      ("fnv", fnv_tests);
      ("heap", heap_tests @ [ QCheck_alcotest.to_alcotest heap_property ]);
      ("rng", rng_tests);
      ( "engine",
        engine_tests @ [ QCheck_alcotest.to_alcotest engine_order_property ] );
      ( "horizon",
        horizon_tests
        @ [ QCheck_alcotest.to_alcotest lookahead_exactness_property ] );
      ( "scheduler",
        scheduler_tests
        @ [ QCheck_alcotest.to_alcotest scheduler_permutation_property ] );
    ]
