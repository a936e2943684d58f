(* Tests for the device models: disk (IO1/IO2), controller registers,
   console, clock, interval timer. *)

open Hft_sim
open Hft_devices

let mk_engine () = Engine.create ()

let mk_disk ?(fault_rate = 0.0) ?(seed = 1) engine =
  let params =
    {
      Disk.default_params with
      Disk.blocks = 16;
      block_words = 8;
      fault_rate;
    }
  in
  Disk.create ~engine ~rng:(Rng.create seed) params

let block n v = Array.make n v

let disk_tests =
  let open Alcotest in
  [
    test_case "write then read roundtrips (IO1)" `Quick (fun () ->
        let e = mk_engine () in
        let d = mk_disk e in
        let data = block 8 42 in
        let got = ref None in
        ignore
          (Disk.submit d ~port:0 (Disk.Write { block = 3; data })
             ~on_complete:(fun c ->
               ignore
                 (Disk.submit d ~port:0 (Disk.Read { block = 3 })
                    ~on_complete:(fun c2 -> got := Some (c, c2)))));
        Engine.run e;
        match !got with
        | Some (w, r) ->
          check bool "write ok" true (w.Disk.status = Disk.Ok && w.Disk.performed);
          check bool "read ok" true (r.Disk.status = Disk.Ok);
          (match r.Disk.data with
          | Some v -> check bool "data" true (v = data)
          | None -> fail "no data")
        | None -> fail "no completions");
    test_case "latencies match parameters" `Quick (fun () ->
        let e = mk_engine () in
        let d = mk_disk e in
        let w_done = ref Time.zero in
        ignore
          (Disk.submit d ~port:0 (Disk.Write { block = 0; data = block 8 1 })
             ~on_complete:(fun _ -> w_done := Engine.now e));
        Engine.run e;
        check int "26ms" 26_000_000 (Time.to_ns !w_done));
    test_case "operations are serialized FIFO" `Quick (fun () ->
        let e = mk_engine () in
        let d = mk_disk e in
        let order = ref [] in
        for i = 0 to 2 do
          ignore
            (Disk.submit d ~port:0 (Disk.Write { block = i; data = block 8 i })
               ~on_complete:(fun c -> order := c.Disk.op_id :: !order))
        done;
        check int "queued" 3 (Disk.queue_depth d);
        Engine.run e;
        check (list int) "fifo" [ 0; 1; 2 ] (List.rev !order);
        check int "78ms" 78_000_000 (Time.to_ns (Engine.now e)));
    test_case "fault injection produces uncertain completions (IO2)" `Quick
      (fun () ->
        let e = mk_engine () in
        let d = mk_disk ~fault_rate:0.5 e in
        let uncertain = ref 0 and performed_uncertain = ref 0 in
        let rec submit i =
          if i < 40 then
            ignore
              (Disk.submit d ~port:0
                 (Disk.Write { block = i mod 16; data = block 8 i })
                 ~on_complete:(fun c ->
                   if c.Disk.status = Disk.Uncertain then begin
                     incr uncertain;
                     if c.Disk.performed then incr performed_uncertain
                   end;
                   submit (i + 1)))
        in
        submit 0;
        Engine.run e;
        check bool "some uncertain" true (!uncertain > 5);
        check bool "uncertain sometimes performed" true
          (!performed_uncertain > 0 && !performed_uncertain < !uncertain));
    test_case "dual port shares storage" `Quick (fun () ->
        let e = mk_engine () in
        let d = mk_disk e in
        let got = ref None in
        ignore
          (Disk.submit d ~port:0 (Disk.Write { block = 1; data = block 8 77 })
             ~on_complete:(fun _ ->
               ignore
                 (Disk.submit d ~port:1 (Disk.Read { block = 1 })
                    ~on_complete:(fun c -> got := Some c))));
        Engine.run e;
        match !got with
        | Some { Disk.data = Some v; port = 1; _ } ->
          check bool "other port sees write" true (v = block 8 77)
        | _ -> fail "bad completion");
    test_case "bad geometry rejected" `Quick (fun () ->
        let e = mk_engine () in
        let d = mk_disk e in
        let raised =
          try
            ignore
              (Disk.submit d ~port:0 (Disk.Read { block = 99 })
                 ~on_complete:(fun _ -> ()));
            false
          with Invalid_argument _ -> true
        in
        check bool "bad block" true raised;
        let raised =
          try
            ignore
              (Disk.submit d ~port:0 (Disk.Write { block = 0; data = block 3 0 })
                 ~on_complete:(fun _ -> ()));
            false
          with Invalid_argument _ -> true
        in
        check bool "bad size" true raised);
    test_case "uncertain read delivers no data" `Quick (fun () ->
        let e = mk_engine () in
        let d = mk_disk ~fault_rate:1.0 ~seed:5 e in
        let res = ref None in
        ignore
          (Disk.submit d ~port:0 (Disk.Read { block = 1 })
             ~on_complete:(fun c -> res := Some c));
        Engine.run e;
        match !res with
        | Some c ->
          check bool "uncertain" true (c.Disk.status = Disk.Uncertain);
          check bool "no data" true (c.Disk.data = None)
        | None -> fail "no completion");
  ]

(* Model-based check of the lazily materialised storage against an
   eager reference: an array holding the full initial image (zeros, or
   the fill pattern after [fill]) and updated on every performed
   write, in the order the device performs them. *)
let disk_model_prop =
  let open QCheck.Gen in
  let blocks = 6 and bw = 4 in
  let blk = int_range 0 (blocks - 1) in
  let op =
    frequency
      [
        (1, return `Fill);
        (3, map2 (fun b v -> `Write_now (b, v)) blk (int_range 0 50));
        (2, map (fun b -> `Pattern_now b) blk);
        (3, map2 (fun b v -> `Submit_write (b, v)) blk (int_range 0 50));
        (3, map (fun b -> `Submit_read b) blk);
        (3, map (fun b -> `Read_now b) blk);
        (2, return `Drain);
      ]
  in
  let gen =
    triple bool (oneofl [ 0.0; 0.4 ]) (list_size (int_range 1 60) op)
  in
  let pristine ~filled b =
    Array.init bw (fun i ->
        if filled then Hft_machine.Word.mask ((b * 0x01000193) + i) else 0)
  in
  let data v = Array.init bw (fun i -> Hft_machine.Word.mask ((v * 7919) + i)) in
  let mk e ~fault_rate ~filled =
    let d =
      Disk.create ~engine:e ~rng:(Rng.create 11)
        { Disk.default_params with Disk.blocks; block_words = bw; fault_rate }
    in
    if filled then Disk.fill d;
    d
  in
  QCheck.Test.make ~name:"lazy storage matches an eager reference" ~count:300
    (QCheck.make gen) (fun (filled0, fault_rate, ops) ->
      let e = mk_engine () in
      let d = mk e ~fault_rate ~filled:filled0 in
      let filled = ref filled0 in
      let truth = Array.init blocks (fun b -> pristine ~filled:filled0 b) in
      let ok = ref true in
      let expect b got = if got <> truth.(b) then ok := false in
      List.iter
        (function
          | `Fill ->
            Disk.fill d;
            filled := true;
            Array.iteri (fun b _ -> truth.(b) <- pristine ~filled:true b) truth
          | `Write_now (b, v) ->
            Disk.write_block_now d b (data v);
            truth.(b) <- data v
          | `Pattern_now b ->
            Disk.write_block_now d b (pristine ~filled:!filled b);
            truth.(b) <- pristine ~filled:!filled b
          | `Submit_write (b, v) ->
            ignore
              (Disk.submit d ~port:0
                 (Disk.Write { block = b; data = data v })
                 ~on_complete:(fun c ->
                   if c.Disk.performed then truth.(b) <- data v))
          | `Submit_read b ->
            ignore
              (Disk.submit d ~port:1 (Disk.Read { block = b })
                 ~on_complete:(fun c ->
                   match c.Disk.data with Some got -> expect b got | None -> ()))
          | `Read_now b -> expect b (Disk.read_block_now d b)
          | `Drain -> Engine.run e)
        ops;
      Engine.run e;
      Array.iteri (fun b _ -> expect b (Disk.read_block_now d b)) truth;
      (* the same contents reached by another history: every block
         first scribbled over, then written its final contents in
         reverse order *)
      let other = mk (mk_engine ()) ~fault_rate:0.0 ~filled:!filled in
      for b = blocks - 1 downto 0 do
        Disk.write_block_now other b (data (b + 1000));
        Disk.write_block_now other b truth.(b)
      done;
      let same_hash = Disk.storage_hash other = Disk.storage_hash d in
      (* writing the initial image back restores a fresh disk's hash *)
      Array.iteri
        (fun b _ -> Disk.write_block_now d b (pristine ~filled:!filled b))
        truth;
      let fresh = mk (mk_engine ()) ~fault_rate:0.0 ~filled:!filled in
      !ok && same_hash && Disk.storage_hash d = Disk.storage_hash fresh)

(* The incremental storage hash against a fold from scratch: per block,
   the digest of its contents xor the digest of its pristine contents,
   each position-mixed as [Disk.storage_hash] documents.  Saves share
   blocks with the live disk and restores bring back earlier ones, so
   a hash cached with the wrong block, or a pristine hash of the wrong
   fill state, shows up here. *)
let storage_hash_prop =
  let open QCheck.Gen in
  let blocks = 5 and bw = 3 in
  let blk = int_range 0 (blocks - 1) in
  let op =
    frequency
      [
        (1, return `Fill);
        (4, map2 (fun b v -> `Write_now (b, v)) blk (int_range 0 9));
        (1, map (fun b -> `Pattern_now b) blk);
        (3, map2 (fun b v -> `Submit_write (b, v)) blk (int_range 0 9));
        (2, return `Drain);
        (2, return `Save);
        (2, map (fun i -> `Restore i) (int_range 0 7));
      ]
  in
  let pristine ~filled b =
    Array.init bw (fun i ->
        if filled then Hft_machine.Word.mask ((b * 0x01000193) + i) else 0)
  in
  let data v = Array.init bw (fun i -> Hft_machine.Word.mask ((v * 31) + i)) in
  let hash_content = Array.fold_left Fnv.int 0x1ff29ce484222325 in
  let block_hash b words = Fnv.int (Fnv.int Fnv.basis b) (hash_content words) in
  let from_scratch d ~filled =
    let h = ref 0 in
    for b = 0 to blocks - 1 do
      h :=
        !h
        lxor block_hash b (Disk.read_block_now d b)
        lxor block_hash b (pristine ~filled b)
    done;
    !h
  in
  QCheck.Test.make ~name:"storage hash equals a fold from scratch" ~count:300
    (QCheck.make (pair bool (list_size (int_range 1 60) op)))
    (fun (filled0, ops) ->
      let e = mk_engine () in
      let d =
        Disk.create ~engine:e ~rng:(Rng.create 5)
          { Disk.default_params with Disk.blocks; block_words = bw }
      in
      if filled0 then Disk.fill d;
      let filled = ref filled0 and saves = ref [] and ok = ref true in
      let check () =
        if Disk.storage_hash d <> from_scratch d ~filled:!filled then
          ok := false
      in
      List.iter
        (fun o ->
          (match o with
          | `Fill ->
            Disk.fill d;
            filled := true
          | `Write_now (b, v) -> Disk.write_block_now d b (data v)
          | `Pattern_now b -> Disk.write_block_now d b (pristine ~filled:!filled b)
          | `Submit_write (b, v) ->
            ignore
              (Disk.submit d ~port:0
                 (Disk.Write { block = b; data = data v })
                 ~on_complete:ignore)
          | `Drain -> Engine.run e
          | `Save ->
            let like = match !saves with (s, _) :: _ -> Some s | [] -> None in
            saves := (Disk.save ?like d, !filled) :: !saves
          | `Restore i -> (
            match List.nth_opt !saves i with
            | Some (s, f) ->
              Disk.restore d s;
              filled := f
            | None -> ()));
          check ())
        ops;
      Engine.run e;
      check ();
      !ok)

let log_tests =
  let open Alcotest in
  let run_ops e d ops =
    let rec go = function
      | [] -> ()
      | (port, op) :: rest ->
        ignore (Disk.submit d ~port op ~on_complete:(fun _ -> go rest))
    in
    go ops;
    Engine.run e
  in
  [
    test_case "clean single-port history is consistent" `Quick (fun () ->
        let e = mk_engine () in
        let d = mk_disk e in
        run_ops e d
          [
            (0, Disk.Write { block = 1; data = block 8 1 });
            (0, Disk.Write { block = 1; data = block 8 2 });
            (0, Disk.Read { block = 1 });
          ];
        check bool "consistent" true
          (Disk.Log.check_single_processor_consistency d ~errors:(fun _ -> ()));
        check int "entries" 3 (List.length (Disk.Log.entries d));
        check int "writes to 1" 2 (List.length (Disk.Log.writes_to_block d 1)));
    test_case "unjustified duplicate write is flagged" `Quick (fun () ->
        let e = mk_engine () in
        let d = mk_disk e in
        run_ops e d
          [
            (0, Disk.Write { block = 1; data = block 8 5 });
            (0, Disk.Write { block = 1; data = block 8 5 });
          ];
        let msgs = ref [] in
        check bool "inconsistent" false
          (Disk.Log.check_single_processor_consistency d ~errors:(fun m ->
               msgs := m :: !msgs));
        check bool "reported" true (!msgs <> []));
    test_case "port switch back is flagged" `Quick (fun () ->
        let e = mk_engine () in
        let d = mk_disk e in
        run_ops e d
          [
            (0, Disk.Write { block = 1; data = block 8 1 });
            (1, Disk.Write { block = 2; data = block 8 2 });
            (0, Disk.Write { block = 3; data = block 8 3 });
          ];
        check bool "inconsistent" false
          (Disk.Log.check_single_processor_consistency d ~errors:(fun _ -> ())));
    test_case "failover-shaped history is consistent" `Quick (fun () ->
        let e = mk_engine () in
        let d = mk_disk e in
        (* port 0 writes, then port 1 (the promoted backup) retries the
           same content and continues *)
        run_ops e d
          [
            (0, Disk.Write { block = 1; data = block 8 7 });
            (1, Disk.Write { block = 1; data = block 8 7 });
            (1, Disk.Write { block = 2; data = block 8 8 });
          ];
        check bool "consistent" true
          (Disk.Log.check_single_processor_consistency d ~errors:(fun _ -> ())));
    test_case "non-adjacent duplicate content is flagged" `Quick (fun () ->
        let e = mk_engine () in
        let d = mk_disk e in
        run_ops e d
          [
            (0, Disk.Write { block = 1; data = block 8 7 });
            (0, Disk.Write { block = 1; data = block 8 9 });
            (0, Disk.Write { block = 1; data = block 8 7 });
          ];
        check bool "inconsistent" false
          (Disk.Log.check_single_processor_consistency d ~errors:(fun _ -> ())));
  ]

let disk_ctl_tests =
  let open Alcotest in
  [
    test_case "registers latch and doorbell fires" `Quick (fun () ->
        let c = Disk_ctl.create () in
        check bool "plain" false (Disk_ctl.is_doorbell ~paddr:0xF0001);
        Disk_ctl.write c ~paddr:0xF0001 ~value:5;
        check bool "plain" false (Disk_ctl.is_doorbell ~paddr:0xF0002);
        Disk_ctl.write c ~paddr:0xF0002 ~value:0x800;
        check bool "doorbell" true (Disk_ctl.is_doorbell ~paddr:0xF0000);
        (match Disk_ctl.ring c ~value:2 with
        | { Disk_ctl.cmd = 2; block = 5; dma = 0x800 } -> ()
        | _ -> fail "doorbell");
        check int "block readback" 5 (Disk_ctl.read c ~paddr:0xF0001));
    test_case "status latch" `Quick (fun () ->
        let c = Disk_ctl.create () in
        Disk_ctl.set_status c 2;
        check int "status" 2 (Disk_ctl.read c ~paddr:0xF0003);
        check int "accessor" 2 (Disk_ctl.status c));
    test_case "unknown registers read zero" `Quick (fun () ->
        let c = Disk_ctl.create () in
        check int "zero" 0 (Disk_ctl.read c ~paddr:0xF0055));
    test_case "copy_state_from mirrors" `Quick (fun () ->
        let a = Disk_ctl.create () and b = Disk_ctl.create () in
        ignore (Disk_ctl.write a ~paddr:0xF0001 ~value:9);
        Disk_ctl.set_status a 1;
        Disk_ctl.copy_state_from b a;
        check int "block" 9 (Disk_ctl.read b ~paddr:0xF0001);
        check int "status" 1 (Disk_ctl.status b));
  ]

let misc_device_tests =
  let open Alcotest in
  [
    test_case "console accumulates characters" `Quick (fun () ->
        let c = Console.create () in
        String.iter (fun ch -> Console.put c (Char.code ch)) "hft";
        check string "contents" "hft" (Console.contents c);
        check int "length" 3 (Console.length c);
        Console.clear c;
        check string "cleared" "" (Console.contents c));
    test_case "console masks to a byte" `Quick (fun () ->
        let c = Console.create () in
        Console.put c (0x100 + Char.code 'x');
        check string "masked" "x" (Console.contents c));
    test_case "clock follows engine time plus skew" `Quick (fun () ->
        let e = mk_engine () in
        let c = Clock.create ~engine:e ~skew:(Time.of_us 100) () in
        ignore (Engine.at e (Time.of_us 250) (fun () -> ()));
        Engine.run e;
        check int "us" 350 (Clock.read_us c));
    test_case "interval timer fires once after the interval" `Quick (fun () ->
        let e = mk_engine () in
        let fired = ref [] in
        let t =
          Interval_timer.create ~engine:e
            ~on_expire:(fun () -> fired := Time.to_ns (Engine.now e) :: !fired)
            ()
        in
        Interval_timer.set t ~us:500;
        check bool "active" true (Interval_timer.active t);
        Engine.run e;
        check (list int) "fired once at 500us" [ 500_000 ] !fired;
        check bool "inactive" false (Interval_timer.active t));
    test_case "interval timer reload replaces" `Quick (fun () ->
        let e = mk_engine () in
        let fired = ref 0 in
        let t =
          Interval_timer.create ~engine:e ~on_expire:(fun () -> incr fired) ()
        in
        Interval_timer.set t ~us:500;
        Interval_timer.set t ~us:900;
        Engine.run e;
        check int "once" 1 !fired;
        check int "at 900" 900_000 (Time.to_ns (Engine.now e)));
    test_case "interval timer cancel by zero" `Quick (fun () ->
        let e = mk_engine () in
        let fired = ref 0 in
        let t =
          Interval_timer.create ~engine:e ~on_expire:(fun () -> incr fired) ()
        in
        Interval_timer.set t ~us:500;
        Interval_timer.set t ~us:0;
        Engine.run e;
        check int "never" 0 !fired);
    test_case "remaining_us counts down" `Quick (fun () ->
        let e = mk_engine () in
        let t = Interval_timer.create ~engine:e ~on_expire:(fun () -> ()) () in
        Interval_timer.set t ~us:1000;
        Engine.run_until e (Time.of_us 400);
        check int "remaining" 600 (Interval_timer.remaining_us t));
    test_case "interrupt pending buffer is FIFO" `Quick (fun () ->
        let p = Interrupt.Pending.create () in
        check bool "empty" true (Interrupt.Pending.is_empty p);
        Interrupt.Pending.post p Interrupt.Timer_expired;
        Interrupt.Pending.post p Interrupt.Timer_expired;
        check int "count" 2 (Interrupt.Pending.count p);
        check int "drain" 2 (List.length (Interrupt.Pending.drain p));
        check bool "empty again" true (Interrupt.Pending.is_empty p));
  ]

(* The console's running fingerprint against its contents: equal
   exactly when the contents are, over any mix of writes, clears,
   saves and restores of earlier saves.  Two letters (one also written
   with a high bit the console masks off) make equal contents recur
   along different histories. *)
let console_fingerprint_prop =
  let open QCheck.Gen in
  let op =
    frequency
      [
        (6, map (fun w -> `Put w) (oneofl [ 0x61; 0x62; 0x161 ]));
        (1, return `Clear);
        (2, return `Save);
        (2, map (fun i -> `Restore i) nat);
      ]
  in
  QCheck.Test.make ~name:"console fingerprint equal exactly when contents are"
    ~count:300
    (QCheck.make (list_size (int_range 1 60) op))
    (fun ops ->
      let c = Console.create () in
      let saves = ref [] and seen = ref [] and ok = ref true in
      List.iter
        (fun op ->
          (match op with
          | `Put w -> Console.put c w
          | `Clear -> Console.clear c
          | `Save -> saves := (Console.save c, Console.contents c) :: !saves
          | `Restore i ->
            if !saves <> [] then begin
              let s, text = List.nth !saves (i mod List.length !saves) in
              Console.restore c s;
              if Console.contents c <> text then ok := false
            end);
          seen := (Console.contents c, Console.fingerprint c) :: !seen)
        ops;
      !ok
      && List.for_all
           (fun (t1, f1) ->
             List.for_all (fun (t2, f2) -> (t1 = t2) = (f1 = f2)) !seen)
           !seen)

let () =
  Alcotest.run "hft_devices"
    [
      ( "disk",
        disk_tests
        @ [
            QCheck_alcotest.to_alcotest disk_model_prop;
            QCheck_alcotest.to_alcotest storage_hash_prop;
          ] );
      ("disk-log", log_tests);
      ("disk-ctl", disk_ctl_tests);
      ( "misc",
        misc_device_tests
        @ [ QCheck_alcotest.to_alcotest console_fingerprint_prop ] );
    ]
