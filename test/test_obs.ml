(* Tests for the observability layer (hft_obs): recorder ring
   semantics, histogram quantiles, span reconstruction (unit and
   seeded property tests), exporter round-trips against the validator,
   and the metrics registry. *)

open Hft_obs
module Time = Hft_sim.Time

let ev_note s = Event.Note s

let mk ?(source = "primary") ms ev =
  { Recorder.time = Time.of_ms ms; source; ev }

let emit_entry r (e : Recorder.entry) =
  Recorder.emit r ~time:e.Recorder.time ~source:e.Recorder.source e.Recorder.ev

(* ---------- recorder ring ---------- *)

let recorder_tests =
  let open Alcotest in
  [
    test_case "eviction keeps the newest, oldest first" `Quick (fun () ->
        let r = Recorder.create ~capacity:3 () in
        for i = 1 to 5 do
          emit_entry r (mk i (ev_note (string_of_int i)))
        done;
        let notes =
          List.map
            (fun (e : Recorder.entry) ->
              match e.Recorder.ev with Event.Note s -> s | _ -> assert false)
            (Recorder.entries r)
        in
        check (list string) "last three, oldest first" [ "3"; "4"; "5" ] notes);
    test_case "length vs total_recorded across wraparound" `Quick (fun () ->
        let r = Recorder.create ~capacity:4 () in
        check int "empty length" 0 (Recorder.length r);
        for i = 1 to 3 do
          emit_entry r (mk i (ev_note "x"))
        done;
        check int "before wrap" 3 (Recorder.length r);
        check int "total before wrap" 3 (Recorder.total_recorded r);
        for i = 4 to 11 do
          emit_entry r (mk i (ev_note "x"))
        done;
        check int "capped length" 4 (Recorder.length r);
        check int "total keeps counting" 11 (Recorder.total_recorded r);
        check int "entries agrees with length" 4
          (List.length (Recorder.entries r)));
    test_case "clear empties but keeps capacity" `Quick (fun () ->
        let r = Recorder.create ~capacity:4 () in
        emit_entry r (mk 1 (ev_note "x"));
        Recorder.clear r;
        check int "length" 0 (Recorder.length r);
        check (list string) "entries" []
          (List.map (fun _ -> "e") (Recorder.entries r));
        emit_entry r (mk 2 (ev_note "y"));
        check int "usable after clear" 1 (Recorder.length r));
    test_case "null sink records nothing and is disabled" `Quick (fun () ->
        emit_entry Recorder.null (mk 1 (ev_note "x"));
        check int "length" 0 (Recorder.length Recorder.null);
        check bool "enabled" false (Recorder.enabled Recorder.null);
        check bool "created is enabled" true
          (Recorder.enabled (Recorder.create ())));
    test_case "recording allocates and promotes nothing" `Quick (fun () ->
        (* one source name also arrives as an equal copy *)
        let sources = [| "primary"; "backup"; String.concat "" [ "pri"; "mary" ] |] in
        let events =
          [|
            Event.Msg_send { dseq = 1; kind = "tme"; bytes = 64 };
            Event.Ch_drop { seq = -7; bytes = max_int; reason = Event.Corrupt };
            Event.Intr_buffered { id = 1; kind = "disk"; epoch = 3 };
            Event.Io_complete
              { op_id = 4; port = 1; block = min_int; write = true; uncertain = true };
            Event.Dispatch { label = "primary->backup deliver" };
            Event.Ack_wait_end { upto = 2; released = Event.By_detector };
            Event.Epoch_end { epoch = 3; interrupts = 0 };
          |]
        in
        let n = 10_000 and warm = 21 in
        let entries =
          Array.init n (fun i ->
              {
                Recorder.time = Time.of_ns i;
                source = sources.(i mod 3);
                ev = events.(i / 3 mod 7);
              })
        in
        let r = Recorder.create () in
        (* the first entries are every (source, event) pair: they intern
           every string *)
        for i = 0 to warm - 1 do
          emit_entry r entries.(i)
        done;
        (* a float array, so reading the counters into it allocates
           nothing; in the major heap before the count starts *)
        let before = Array.make 2 0. in
        Gc.full_major ();
        before.(0) <- (Gc.quick_stat ()).Gc.promoted_words;
        before.(1) <- Gc.minor_words ();
        for i = 0 to n - 1 do
          emit_entry r entries.(i)
        done;
        let minor = Gc.minor_words () -. before.(1) in
        let promoted = (Gc.quick_stat ()).Gc.promoted_words -. before.(0) in
        check (float 0.) "minor words" 0. minor;
        check (float 0.) "promoted words" 0. promoted;
        check int "length" (warm + n) (Recorder.length r);
        check bool "entries decode to what was emitted" true
          (List.filteri (fun i _ -> i >= warm) (Recorder.entries r)
          = Array.to_list entries));
  ]

(* Ints the ring must carry unchanged: small, negative, extreme, and
   any. *)
let ring_int =
  QCheck.Gen.(
    oneof
      [
        int_range (-3) 3;
        oneofl [ min_int; min_int + 1; max_int; max_int - 1; 1 lsl 40; -(1 lsl 40) ];
        int;
      ])

(* Strings from a small pool (the empty string, repeats), copies of
   pool strings (equal, not identical), and random ones. *)
let ring_string =
  let pool = [ ""; "tme"; "disk"; "primary"; "primary->backup deliver" ] in
  QCheck.Gen.(
    oneof
      [
        oneofl pool;
        map (fun s -> Bytes.to_string (Bytes.of_string s)) (oneofl pool);
        string_size ~gen:printable (0 -- 6);
      ])

(* Every constructor of [Event.t]. *)
let ring_event =
  let open QCheck.Gen in
  let i = ring_int and s = ring_string in
  let reason =
    oneofl Event.[ Loss_plan; Fault_loss; Corrupt; Duplicate ]
  in
  oneof
    [
      map (fun epoch -> Event.Epoch_begin { epoch }) i;
      map2 (fun epoch interrupts -> Event.Epoch_end { epoch; interrupts }) i i;
      map2 (fun upto at_io -> Event.Ack_wait_begin { upto; at_io }) i bool;
      map2
        (fun upto released -> Event.Ack_wait_end { upto; released })
        i
        (oneofl Event.[ By_ack; By_detector ]);
      map3 (fun dseq kind bytes -> Event.Msg_send { dseq; kind; bytes }) i s i;
      map (fun dseq -> Event.Msg_acked { dseq }) i;
      map2 (fun round count -> Event.Rtx_round { round; count }) i i;
      map (fun rounds -> Event.Rtx_give_up { rounds }) i;
      map2
        (fun wire_seq reason -> Event.Frame_dropped { wire_seq; reason })
        i reason;
      map3 (fun id kind epoch -> Event.Intr_buffered { id; kind; epoch }) i s i;
      map2 (fun id kind -> Event.Intr_delivered { id; kind }) i s;
      map3 (fun op_id block write -> Event.Io_submit { op_id; block; write }) i i bool;
      map3
        (fun (op_id, port) block (write, uncertain) ->
          Event.Io_complete { op_id; port; block; write; uncertain })
        (pair i i) i (pair bool bool);
      map2 (fun block write -> Event.Io_suppressed { block; write }) i bool;
      return Event.Crash;
      map (fun epoch -> Event.Halt { epoch }) i;
      map (fun blocked -> Event.Detector_fired { blocked }) s;
      map3
        (fun epoch relayed synthesized ->
          Event.Promoted { epoch; relayed; synthesized })
        i i i;
      map2 (fun epoch bytes -> Event.Reintegration_offer { epoch; bytes }) i i;
      map (fun epoch -> Event.Snapshot_restored { epoch }) i;
      map (fun epoch -> Event.Reintegration_done { epoch }) i;
      map (fun kind -> Event.Hv_fault { kind }) s;
      map (fun by -> Event.Hv_detected { by }) s;
      map3
        (fun epoch reconciled_ios reconciled_msgs ->
          Event.Microreboot_done { epoch; reconciled_ios; reconciled_msgs })
        i i i;
      map (fun reason -> Event.Recovery_escalated { reason }) s;
      map2 (fun seq bytes -> Event.Ch_send { seq; bytes }) i i;
      map (fun seq -> Event.Ch_deliver { seq }) i;
      map3 (fun seq bytes reason -> Event.Ch_drop { seq; bytes; reason }) i i reason;
      map (fun label -> Event.Dispatch { label }) s;
      map (fun s -> Event.Note s) s;
    ]

let ring_entry =
  QCheck.Gen.(
    map3
      (fun time source ev -> { Recorder.time = Time.of_ns time; source; ev })
      (oneof [ int_bound 1000; oneofl [ 0; max_int ]; map (fun x -> x land max_int) int ])
      ring_string ring_event)

(* The ring against a list model: whatever the capacity (one slot, two,
   odd, around a chunk, the default), across chunk boundaries and the
   wraparound, before and after a [clear], [entries] decodes exactly
   the newest [capacity] entries emitted, oldest first, and the rest
   count as dropped. *)
let recorder_model_prop =
  let capacities = [| Some 1; Some 2; Some 7; Some 1023; Some 1024; Some 1025; None |] in
  let agrees r ~cap emitted =
    let n = List.length emitted in
    let kept = min n cap in
    Recorder.entries r = List.filteri (fun k _ -> k >= n - kept) emitted
    && Recorder.length r = kept
    && Recorder.total_recorded r = n
    && Recorder.dropped r = n - kept
  in
  (* half the counts sit on a boundary: a chunk or a capacity, or
     twice one, give or take one *)
  let count =
    QCheck.Gen.(
      oneof
        [
          int_range 0 2100;
          map2 ( + ) (oneofl [ 1; 2; 7; 14; 1023; 1024; 1025; 2048; 2050 ]) (int_range (-1) 1);
        ])
  in
  let entries = QCheck.Gen.list_size count ring_entry in
  let print (c, l1, l2) =
    let pp l =
      String.concat "; "
        (List.map
           (fun (e : Recorder.entry) ->
             Format.asprintf "%d %S %a" (Time.to_ns e.Recorder.time)
               e.Recorder.source Event.pp e.Recorder.ev)
           l)
    in
    Printf.sprintf "capacity %s\nfirst: %s\nafter clear: %s"
      (match capacities.(c) with Some n -> string_of_int n | None -> "default")
      (pp l1) (pp l2)
  in
  QCheck.Test.make ~name:"ring matches a list model" ~count:300
    (QCheck.make ~print
       ~shrink:QCheck.Shrink.(triple nil list list)
       QCheck.Gen.(triple (int_bound (Array.length capacities - 1)) entries entries))
    (fun (c, l1, l2) ->
      let r, cap =
        match capacities.(c) with
        | Some cap -> (Recorder.create ~capacity:cap (), cap)
        | None -> (Recorder.create (), 262_144)
      in
      List.iter (emit_entry r) l1;
      let first = agrees r ~cap l1 in
      Recorder.clear r;
      let cleared = agrees r ~cap [] in
      List.iter (emit_entry r) l2;
      first && cleared && agrees r ~cap l2)

(* ---------- ring wraparound drop accounting ---------- *)

let dropped_tests =
  let open Alcotest in
  [
    test_case "dropped counts ring-discarded events" `Quick (fun () ->
        let r = Recorder.create ~capacity:3 () in
        check int "empty" 0 (Recorder.dropped r);
        for i = 1 to 3 do
          emit_entry r (mk i (ev_note "x"))
        done;
        check int "full but nothing lost" 0 (Recorder.dropped r);
        for i = 4 to 8 do
          emit_entry r (mk i (ev_note "x"))
        done;
        check int "five evicted" 5 (Recorder.dropped r));
    test_case "jsonl header carries the drop count" `Quick (fun () ->
        let r = Recorder.create ~capacity:2 () in
        for i = 1 to 6 do
          emit_entry r (mk i (ev_note "x"))
        done;
        match
          Export.validate
            (Json.to_lines
               (Export.jsonl ~dropped:(Recorder.dropped r) (Recorder.entries r)))
        with
        | Ok s ->
          check int "drops surfaced" 4 s.Export.drops;
          check bool "jsonl" true (s.Export.format = `Jsonl)
        | Error m -> failf "jsonl with drops invalid: %s" m);
  ]

(* ---------- histogram ---------- *)

let hist_tests =
  let open Alcotest in
  [
    test_case "count, extremes and clamped quantiles" `Quick (fun () ->
        let h = Hist.create () in
        List.iter (fun us -> Hist.add h (Time.of_us us)) [ 10; 20; 30; 40 ];
        check int "count" 4 (Hist.count h);
        check int "min" 10_000 (Hist.min_ns h);
        check int "max" 40_000 (Hist.max_ns h);
        (* log-bucketed: quantiles are bucket midpoints clamped to the
           observed range *)
        check bool "p50 in range" true
          (Hist.quantile_ns h 0.5 >= 10_000. && Hist.quantile_ns h 0.5 <= 40_000.);
        check (float 1e-9) "p100 clamps to max" 40.0 (Hist.max_us h));
    test_case "empty histogram is all zeroes" `Quick (fun () ->
        let h = Hist.create () in
        check int "count" 0 (Hist.count h);
        check (float 1e-9) "quantile" 0.0 (Hist.quantile_ns h 0.99));
    test_case "identical samples collapse to one bucket" `Quick (fun () ->
        let h = Hist.create () in
        for _ = 1 to 100 do
          Hist.add h (Time.of_us 7)
        done;
        check int "one bucket" 1 (List.length (Hist.nonzero_buckets h));
        check (float 1e-9) "p50 exact via clamp" 7.0 (Hist.p50_us h));
  ]

(* ---------- span reconstruction: units ---------- *)

let span_of_cat spans cat =
  List.filter (fun (s : Span.t) -> s.Span.cat = cat) spans

let span_tests =
  let open Alcotest in
  [
    test_case "epoch begin/end pairs, keyed per source" `Quick (fun () ->
        let entries =
          [
            mk 0 (Event.Epoch_begin { epoch = 0 });
            mk ~source:"backup" 0 (Event.Epoch_begin { epoch = 0 });
            mk 1 (Event.Epoch_end { epoch = 0; interrupts = 1 });
            mk 1 (Event.Epoch_begin { epoch = 1 });
            mk ~source:"backup" 2 (Event.Epoch_end { epoch = 0; interrupts = 1 });
          ]
        in
        let spans = span_of_cat (Span.of_entries entries) "epoch" in
        check int "three spans" 3 (List.length spans);
        let closed = List.filter Span.closed spans in
        check int "two closed" 2 (List.length closed);
        List.iter
          (fun (s : Span.t) ->
            match Span.duration s with
            | Some d -> check bool "duration positive" true (Time.to_ns d > 0)
            | None -> ())
          spans);
    test_case "intr-delay keyed by id survives interleaving" `Quick (fun () ->
        let entries =
          [
            mk 1 (Event.Intr_buffered { id = 0; kind = "disk"; epoch = 3 });
            mk 2 (Event.Intr_buffered { id = 1; kind = "timer"; epoch = 3 });
            mk 4 (Event.Intr_delivered { id = 1; kind = "timer" });
            mk 9 (Event.Intr_delivered { id = 0; kind = "disk" });
          ]
        in
        let spans = span_of_cat (Span.of_entries entries) "intr-delay" in
        check int "two spans, both closed" 2
          (List.length (List.filter Span.closed spans));
        let by_label l =
          List.find (fun (s : Span.t) -> s.Span.label = l) spans
        in
        check (option int) "disk waited 8ms"
          (Some (Time.to_ns (Time.of_ms 8)))
          (Option.map Time.to_ns (Span.duration (by_label "disk intr #0")));
        check (option int) "timer waited 2ms"
          (Some (Time.to_ns (Time.of_ms 2)))
          (Option.map Time.to_ns
             (Span.duration (by_label "timer intr #1"))));
    test_case "unmatched begin is kept open" `Quick (fun () ->
        let entries =
          [ mk 1 (Event.Intr_buffered { id = 7; kind = "disk"; epoch = 0 }) ]
        in
        match span_of_cat (Span.of_entries entries) "intr-delay" with
        | [ s ] -> check bool "open" false (Span.closed s)
        | l -> failf "expected one span, got %d" (List.length l));
    test_case "failover span runs crash to first promoted I/O" `Quick
      (fun () ->
        let entries =
          [
            mk 5 Event.Crash;
            mk ~source:"backup" 105 (Event.Detector_fired { blocked = "tme" });
            mk ~source:"backup" 105
              (Event.Promoted { epoch = 9; relayed = 0; synthesized = 2 });
            mk ~source:"backup" 110
              (Event.Io_submit { op_id = 3; block = 1; write = true });
          ]
        in
        (match span_of_cat (Span.of_entries entries) "failover" with
        | [ s ] ->
          check bool "closed" true (Span.closed s);
          check (option int) "105ms blackout"
            (Some (Time.to_ns (Time.of_ms 105)))
            (Option.map Time.to_ns (Span.duration s))
        | l -> failf "expected one failover span, got %d" (List.length l));
        match Span.failovers entries with
        | [ f ] ->
          check string "crashed" "primary" f.Span.crashed;
          check (option string) "promoted" (Some "backup") f.Span.promoted;
          check int "synthesized" 2 f.Span.synthesized;
          check bool "detector attributed" true (f.Span.detector_time <> None)
        | l -> failf "expected one failover, got %d" (List.length l));
  ]

(* ---------- histogram merge (window compression) ---------- *)

let hist_merge_tests =
  let open Alcotest in
  [
    test_case "merge sums buckets and combines extremes" `Quick (fun () ->
        let a = Hist.create () and b = Hist.create () in
        List.iter (fun us -> Hist.add a (Time.of_us us)) [ 10; 20 ];
        List.iter (fun us -> Hist.add b (Time.of_us us)) [ 30; 400 ];
        let m = Hist.merge a b in
        check int "count" 4 (Hist.count m);
        check int "min" 10_000 (Hist.min_ns m);
        check int "max" 400_000 (Hist.max_ns m);
        check int "empty merge is identity" 2
          (Hist.count (Hist.merge a (Hist.create ()))));
  ]

(* ---------- metrics registry ---------- *)

let mk_ns ?(source = "primary") ns ev =
  { Recorder.time = Time.of_ns ns; source; ev }

let metrics_tests =
  let open Alcotest in
  [
    test_case "counter handles are stable find-or-register" `Quick (fun () ->
        let m = Metrics.create () in
        let s = Metrics.scope m "primary" in
        let c = Metrics.counter s "msgs_sent" in
        Metrics.incr c;
        Metrics.add c 2;
        check bool "same handle" true (c == Metrics.counter s "msgs_sent");
        check int "value" 3 (Metrics.value (Metrics.counter s "msgs_sent"));
        check int "one counter registered" 1
          (List.length (Metrics.counters m)));
    test_case "epoch pairs fold into rolling windows" `Quick (fun () ->
        (* 1 ms windows; epochs at 0.4 ms spacing span several *)
        let m = Metrics.create ~window_ns:1_000_000 () in
        for e = 0 to 9 do
          let t0 = e * 400_000 in
          Metrics.observe m (mk_ns t0 (Event.Epoch_begin { epoch = e }));
          Metrics.observe m
            (mk_ns (t0 + 100_000) (Event.Epoch_end { epoch = e; interrupts = 0 }))
        done;
        let ws = Metrics.windows m in
        check bool "several windows" true (List.length ws >= 3);
        let epochs =
          List.fold_left (fun acc w -> acc + w.Metrics.w_epochs) 0 ws
        in
        check int "every epoch landed in a window" 10 epochs;
        check int "window histograms have them all" 10
          (List.fold_left (fun acc w -> acc + Hist.count w.Metrics.w_epoch) 0 ws);
        List.iter
          (fun w ->
            check bool "fully available" true (Metrics.availability w = 1.0))
          ws);
    test_case "window count stays bounded by pairwise merge" `Quick (fun () ->
        let m = Metrics.create ~window_ns:1_000 ~max_windows:8 () in
        for e = 0 to 999 do
          let t0 = e * 1_000 in
          Metrics.observe m (mk_ns t0 (Event.Epoch_begin { epoch = e }));
          Metrics.observe m
            (mk_ns (t0 + 400) (Event.Epoch_end { epoch = e; interrupts = 0 }))
        done;
        let ws = Metrics.windows m in
        check bool "bounded" true (List.length ws <= 8);
        check int "merging loses no epochs" 1000
          (List.fold_left (fun acc w -> acc + w.Metrics.w_epochs) 0 ws));
    test_case "crash-to-promotion downtime dents availability" `Quick
      (fun () ->
        let m = Metrics.create ~window_ns:10_000_000 () in
        Metrics.observe m (mk_ns 0 (Event.Epoch_begin { epoch = 0 }));
        Metrics.observe m
          (mk_ns 1_000_000 (Event.Epoch_end { epoch = 0; interrupts = 0 }));
        Metrics.observe m (mk_ns 2_000_000 Event.Crash);
        Metrics.observe m
          (mk_ns ~source:"backup" 7_000_000
             (Event.Promoted { epoch = 1; relayed = 0; synthesized = 0 }));
        Metrics.observe m
          (mk_ns 9_000_000 (Event.Epoch_begin { epoch = 2 }));
        (match Metrics.windows m with
        | [ w ] ->
          let a = Metrics.availability w in
          check bool
            (Printf.sprintf "availability %.2f dips below 1" a)
            true
            (a < 1.0 && a > 0.0)
        | ws -> failf "expected one open window, got %d" (List.length ws));
        check int "crash counted" 1
          (Metrics.value (Metrics.counter (Metrics.scope m "primary") "crashes")));
    test_case "tapping a known source's counted events allocates nothing"
      `Quick (fun () ->
        let m = Metrics.create () in
        (* one source name arrives as a different string each time *)
        let sources = [| "primary"; "backup"; String.concat "" [ "pri"; "mary" ] |] in
        let events =
          [|
            Event.Msg_send { dseq = 1; kind = "tme"; bytes = 64 };
            Event.Msg_acked { dseq = 1 };
            Event.Epoch_begin { epoch = 3 };
            Event.Epoch_end { epoch = 3; interrupts = 0 };
            Event.Ack_wait_begin { upto = 2; at_io = true };
            Event.Ack_wait_end { upto = 2; released = Event.By_ack };
            Event.Io_submit { op_id = 1; block = 2; write = true };
            Event.Intr_buffered { id = 1; kind = "disk"; epoch = 3 };
            Event.Intr_delivered { id = 1; kind = "disk" };
          |]
        in
        let n = 10_000 in
        (* the first 27 entries are every (source, event) pair *)
        let entries =
          Array.init n (fun i ->
              mk_ns ~source:sources.(i mod 3) i events.(i / 3 mod 9))
        in
        Array.iter (Metrics.tap m) (Array.sub entries 0 27);
        let before = Gc.minor_words () in
        for i = 0 to n - 1 do
          Metrics.tap m entries.(i)
        done;
        let words = Gc.minor_words () -. before in
        check (float 0.) "minor words" 0. words;
        check int "one window" 1 (List.length (Metrics.windows m));
        let sent = ref 0 in
        (* the first 27 were tapped twice *)
        Array.iteri
          (fun i (e : Recorder.entry) ->
            match e.Recorder.ev with
            | Event.Msg_send _ when e.Recorder.source <> "backup" ->
              sent := !sent + if i < 27 then 2 else 1
            | _ -> ())
          entries;
        check int "msgs_sent counted under one name" !sent
          (Metrics.value
             (Metrics.counter (Metrics.scope m "primary") "msgs_sent")));
  ]

(* ---------- metrics/2 schema and validator ---------- *)

let metrics_schema_tests =
  let open Alcotest in
  [
    test_case "metrics/2 document round-trips the validator" `Quick (fun () ->
        let m = Metrics.create ~window_ns:1_000_000 () in
        let c = Metrics.counter (Metrics.scope m "primary") "msgs_sent" in
        Metrics.add c 5;
        Metrics.observe m (mk_ns 0 (Event.Epoch_begin { epoch = 0 }));
        Metrics.observe m
          (mk_ns 200_000 (Event.Epoch_end { epoch = 0; interrupts = 0 }));
        let h = Hist.create () in
        Hist.add h (Time.of_us 50);
        let doc =
          Json.to_string ~pretty:true
            (Export.metrics_json ~registry:m ~dropped:3 [ ("epoch", h) ])
        in
        (match Export.validate doc with
        | Ok s ->
          check bool "metrics format" true (s.Export.format = `Metrics);
          check int "drops" 3 s.Export.drops;
          check bool "counters exported" true (s.Export.counters > 0);
          check bool "windows exported" true (s.Export.windows > 0);
          check int "histograms" 1 s.Export.hists
        | Error e -> failf "metrics/2 invalid: %s" e);
        check bool "declares the v2 schema" true
          (match Json.parse doc with
          | Ok (Json.Obj kv) ->
            List.assoc_opt "schema" kv = Some (Json.Str Export.metrics_schema)
          | _ -> false));
    test_case "validator accepts v1, rejects unknown versions" `Quick
      (fun () ->
        let v1 = {|{"schema":"hftsim-metrics/1","histograms":[]}|} in
        (match Export.validate v1 with
        | Ok s -> check bool "metrics format" true (s.Export.format = `Metrics)
        | Error e -> failf "v1 compat broken: %s" e);
        match Export.validate {|{"schema":"hftsim-metrics/9","histograms":[]}|} with
        | Ok _ -> failf "unknown metrics version accepted"
        | Error e -> check bool "rejected with a reason" true (e <> ""));
    test_case "concatenated jsonl with mixed schemas is rejected" `Quick
      (fun () ->
        let contains hay needle =
          let nh = String.length hay and nn = String.length needle in
          let rec go i =
            i + nn <= nh && (String.sub hay i nn = needle || go (i + 1))
          in
          go 0
        in
        let r = Recorder.create () in
        emit_entry r (mk 1 (ev_note "x"));
        let a = Json.to_lines (Export.jsonl (Recorder.entries r)) in
        let stray =
          {|{"schema":"hftsim-trace/0","kind":"event","t_ns":1,"src":"s","ev":"note"}|}
          ^ "\n"
        in
        match Export.validate (a ^ stray) with
        | Ok _ -> failf "mixed-schema artifact accepted"
        | Error e ->
          check bool
            (Printf.sprintf "error names both schemas: %s" e)
            true
            (contains e "hftsim-trace/0" && contains e "mixed schemas"));
  ]

(* ---------- span reconstruction: seeded properties ---------- *)

(* Generator: per-source alternating begin/end epoch streams merged
   into one time-ordered list.  By construction every end has exactly
   one earlier begin with its key, so reconstruction must close
   exactly [ends] spans and leave [begins - ends] open. *)
let epoch_stream_gen =
  QCheck.Gen.(
    let* nsources = 1 -- 3 in
    let* shapes =
      list_repeat nsources
        (let* pairs = 0 -- 12 in
         let* trailing_begin = bool in
         return (pairs, trailing_begin))
    in
    let streams =
      List.mapi
        (fun si (pairs, trailing) ->
          let source = Printf.sprintf "src%d" si in
          let evs = ref [] in
          for e = 0 to pairs - 1 do
            evs :=
              (source, Event.Epoch_end { epoch = e; interrupts = 0 })
              :: (source, Event.Epoch_begin { epoch = e })
              :: !evs
          done;
          if trailing then
            evs := (source, Event.Epoch_begin { epoch = pairs }) :: !evs;
          List.rev !evs)
        shapes
    in
    (* Random fair interleaving that preserves each source's order. *)
    let* picks = list_repeat 200 (0 -- 1000) in
    let rec weave acc streams picks =
      let streams = List.filter (fun s -> s <> []) streams in
      match (streams, picks) with
      | [], _ -> List.rev acc
      | _, [] -> List.rev acc @ List.concat streams
      | _, pick :: rest ->
        let i = pick mod List.length streams in
        let hd, tl =
          match List.nth streams i with
          | hd :: tl -> (hd, tl)
          | [] -> assert false
        in
        let streams = List.mapi (fun j s -> if j = i then tl else s) streams in
        weave (hd :: acc) streams rest
    in
    let shuffled = weave [] streams picks in
    return
      (List.mapi
         (fun i (source, ev) ->
           { Recorder.time = Time.of_us (i + 1); source; ev })
         shuffled))

let span_pairing_prop =
  QCheck.Test.make ~name:"every epoch end closes exactly one begin" ~count:100
    (QCheck.make epoch_stream_gen) (fun entries ->
      let count p =
        List.length
          (List.filter (fun (e : Recorder.entry) -> p e.Recorder.ev) entries)
      in
      let begins =
        count (function Event.Epoch_begin _ -> true | _ -> false)
      in
      let ends = count (function Event.Epoch_end _ -> true | _ -> false) in
      let spans =
        List.filter
          (fun (s : Span.t) -> s.Span.cat = "epoch")
          (Span.of_entries entries)
      in
      let closed = List.filter Span.closed spans in
      List.length spans = begins
      && List.length closed = ends
      && List.for_all
           (fun (s : Span.t) ->
             match Span.duration s with
             | Some d -> Time.to_ns d >= 0
             | None -> true)
           spans)

(* ---------- end-to-end: real runs, exporters, validator ---------- *)

let run_with_obs ?crash_ms workload =
  let open Hft_core in
  let params = { Params.default with Params.epoch_length = 1024 } in
  let obs = Recorder.create () in
  let sys = System.create ~params ~obs ~workload () in
  (match crash_ms with
  | Some ms -> System.crash_primary_at sys (Time.of_ms ms)
  | None -> ());
  let o = System.run sys in
  (o, Recorder.entries obs)

let e2e_tests =
  let open Alcotest in
  [
    test_case "crash-free run: spans reconstruct and validate" `Quick
      (fun () ->
        let _, entries =
          run_with_obs (Hft_guest.Workload.disk_write ~ops:6 ())
        in
        check bool "events recorded" true (entries <> []);
        let spans = Span.of_entries entries in
        let cats =
          List.sort_uniq compare
            (List.map (fun (s : Span.t) -> s.Span.cat) spans)
        in
        List.iter
          (fun c ->
            check bool (c ^ " is a declared category") true
              (List.mem c Span.categories))
          cats;
        check bool "epoch spans present" true (List.mem "epoch" cats);
        check bool "msg-rtt spans present" true (List.mem "msg-rtt" cats);
        check bool "no failover without a crash" false
          (List.mem "failover" cats);
        (* every msg-rtt close pairs a send with the cumulative ack *)
        let rtt = List.filter (fun (s : Span.t) -> s.Span.cat = "msg-rtt") spans in
        check bool "some rtt spans closed" true
          (List.exists Span.closed rtt);
        (* exporters round-trip through the validator *)
        (match Export.validate (Json.to_string (Export.chrome entries)) with
        | Ok s ->
          check bool "chrome events" true (s.Export.events > 0);
          check bool "chrome spans" true (s.Export.spans > 0)
        | Error m -> failf "chrome artifact invalid: %s" m);
        match Export.validate (Json.to_lines (Export.jsonl entries)) with
        | Ok s ->
          check bool "jsonl is jsonl" true (s.Export.format = `Jsonl);
          check bool "jsonl hists" true (s.Export.hists > 0)
        | Error m -> failf "jsonl artifact invalid: %s" m);
    test_case "crash run: failover span and post-mortem" `Quick (fun () ->
        let o, entries =
          run_with_obs ~crash_ms:20 (Hft_guest.Workload.disk_write ~ops:6 ())
        in
        check bool "failover happened" true
          (o.Hft_core.System.completed_by = `Promoted_backup);
        let spans = Span.of_entries entries in
        let fo = List.filter (fun (s : Span.t) -> s.Span.cat = "failover") spans in
        check int "one failover span" 1 (List.length fo);
        check bool "failover span closed" true
          (List.for_all Span.closed fo);
        (match Span.failovers entries with
        | [ f ] ->
          check string "primary crashed" "primary" f.Span.crashed;
          check (option string) "backup promoted" (Some "backup")
            f.Span.promoted;
          check bool "first I/O observed" true (f.Span.first_io_time <> None)
        | l -> failf "expected one failover, got %d" (List.length l));
        let hists = Span.histograms spans in
        check bool "failover histogram present" true
          (List.mem_assoc "failover" hists);
        check bool "metrics json validates as json" true
          (match Json.parse (Json.to_string (Export.metrics_json hists)) with
          | Ok _ -> true
          | Error _ -> false));
    test_case "recorder off: run is unobserved but completes" `Quick
      (fun () ->
        let open Hft_core in
        let params = { Params.default with Params.epoch_length = 1024 } in
        let sys =
          System.create ~params
            ~workload:(Hft_guest.Workload.disk_write ~ops:3 ())
            ()
        in
        let o = System.run sys in
        check bool "completed" true
          (o.System.results.Guest_results.ops = 3));
  ]

(* ---------- Json: strict reader, one printer ---------- *)

(* One row per input: [Some v] must parse to [v], [None] must be a
   typed [Error] (never an exception). *)
let strict_parse_cases =
  [
    ("raw \\001 in a string", "\"a\001b\"", None);
    ("raw tab in a string", "\"a\tb\"", None);
    ("raw newline in a string", "\"a\nb\"", None);
    ("non-hex \\u escape", {|"\u00_1"|}, None);
    ("short \\u escape", {|"\u12"|}, None);
    ("unknown escape", {|"\x41"|}, None);
    ("leading plus", "+1", None);
    ("leading dot", ".5", None);
    ("trailing dot", "1.", None);
    ("leading zero", "01", None);
    ("bare minus", "-", None);
    ("empty exponent", "1e", None);
    ("overflowing number", "1e400", None);
    ("lone high surrogate", {|"\ud83d"|}, None);
    ("high surrogate then letter", {|"\ud83dx"|}, None);
    ("lone low surrogate", {|"\ude00"|}, None);
    ("trailing comma in array", "[1,]", None);
    ("trailing comma in object", {|{"a":1,}|}, None);
    ("single quotes", "'a'", None);
    ("trailing garbage", "1 2", None);
    ("empty input", "", None);
    ("nesting too deep", String.make 600 '[' ^ String.make 600 ']', None);
    ("surrogate pair", {|"\ud83d\ude00"|}, Some (Json.Str "\xf0\x9f\x98\x80"));
    ("BMP escape", {|"\u00e9\u0001"|}, Some (Json.Str "\xc3\xa9\001"));
    ("raw UTF-8 and DEL", "\"\xc3\xa9\x7f\"", Some (Json.Str "\xc3\xa9\x7f"));
    ("escaped solidus", {|"a\/b"|}, Some (Json.Str "a/b"));
    ("negative zero", "-0", Some (Json.Num (-0.)));
    ("exponent forms", "[1E2,-2.5e-1,3e+0]",
     Some (Json.Arr [ Json.Num 100.; Json.Num (-0.25); Json.Num 3. ]));
    ("whitespace", " {\t\"a\" :\r\n[ ] } ", Some (Json.Obj [ ("a", Json.Arr []) ]));
  ]

let strict_parse_test (name, input, expected) =
  Alcotest.test_case name `Quick (fun () ->
      match (Json.parse input, expected) with
      | Ok v, Some e -> Alcotest.(check bool) "parses to the expected value" true (v = e)
      | Error _, None -> ()
      | Ok _, None -> Alcotest.failf "accepted malformed input %S" input
      | Error m, Some _ -> Alcotest.failf "rejected %S: %s" input m)

let printer_tests =
  [
    Alcotest.test_case "layout, escapes and numbers" `Quick (fun () ->
        let v =
          Json.Obj
            [
              ("s", Json.Str "q\"b\\t\tn\nc\001");
              ("n", Json.Arr [ Json.int 3; Json.Num (-2.5); Json.Num 0.1; Json.Num 1e20 ]);
              ("o", Json.Obj [ ("a", Json.Null); ("e", Json.Arr []) ]);
              ("x", Json.Num Float.nan);
            ]
        in
        Alcotest.(check string) "compact"
          {|{"s":"q\"b\\t\tn\nc\u0001","n":[3,-2.5,0.1,1e+20],"o":{"a":null,"e":[]},"x":null}|}
          (Json.to_string v);
        Alcotest.(check string) "pretty"
          "{\n\
          \  \"s\": \"q\\\"b\\\\t\\tn\\nc\\u0001\",\n\
          \  \"n\": [3, -2.5, 0.1, 1e+20],\n\
          \  \"o\": {\"a\": null, \"e\": []},\n\
          \  \"x\": null\n\
           }"
          (Json.to_string ~pretty:true v));
  ]

(* Any value with finite numbers survives print-then-parse in both
   forms; strings range over all 256 byte values. *)
let json_gen =
  let open QCheck.Gen in
  let str = string_size ~gen:char (0 -- 10) in
  let num =
    oneof
      [
        map float_of_int (int_range (-1_000_000_000) 1_000_000_000);
        map2 (fun m e -> ldexp m e) (float_range (-1.) 1.) (int_range (-60) 80);
        oneofl [ 0.; -0.; 0.1; -1e-7; 1e17; 4503599627370497.; max_float; min_float ];
      ]
  in
  let scalar =
    oneof
      [
        return Json.Null;
        map (fun b -> Json.Bool b) bool;
        map (fun f -> Json.Num f) num;
        map (fun s -> Json.Str s) str;
      ]
  in
  sized
  @@ fix (fun self n ->
         if n <= 1 then scalar
         else
           frequency
             [
               (2, scalar);
               (1, map (fun l -> Json.Arr l) (list_size (0 -- 4) (self (n / 3))));
               ( 1,
                 map (fun l -> Json.Obj l)
                   (list_size (0 -- 4) (pair str (self (n / 3)))) );
             ])

let json_round_trip_prop =
  QCheck.Test.make ~name:"parse (to_string v) = Ok v, compact and pretty"
    ~count:500
    (QCheck.make ~print:(Json.to_string ~pretty:true) json_gen)
    (fun v ->
      Json.parse (Json.to_string v) = Ok v
      && Json.parse (Json.to_string ~pretty:true v) = Ok v)

let () =
  Alcotest.run "obs"
    [
      ( "recorder",
        recorder_tests @ [ QCheck_alcotest.to_alcotest recorder_model_prop ]
      );
      ("dropped", dropped_tests);
      ("hist", hist_tests);
      ("hist-merge", hist_merge_tests);
      ("metrics", metrics_tests);
      ("metrics-schema", metrics_schema_tests);
      ("spans", span_tests);
      ( "span-properties",
        [ QCheck_alcotest.to_alcotest ~long:false span_pairing_prop ] );
      ("end-to-end", e2e_tests);
      ("json-strict", List.map strict_parse_test strict_parse_cases);
      ("json-printer", printer_tests);
      ( "json-properties",
        [ QCheck_alcotest.to_alcotest ~long:false json_round_trip_prop ] );
    ]
