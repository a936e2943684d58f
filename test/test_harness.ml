(* Tests of the experiment harness: normalized-performance plumbing
   and report rendering. *)

open Hft_core
open Hft_harness

let quick_params = { Params.default with Params.epoch_length = 1024 }

let harness_tests =
  let open Alcotest in
  [
    test_case "normalized performance exceeds 1" `Quick (fun () ->
        let w = Hft_guest.Workload.dhrystone ~iterations:2000 in
        let r = Scenario.normalized ~params:quick_params w in
        check bool "np > 1" true (r.Scenario.np > 1.0);
        check int "epoch recorded" 1024 r.Scenario.epoch_length);
    test_case "bare baseline is reused across a sweep" `Quick (fun () ->
        let w = Hft_guest.Workload.dhrystone ~iterations:2000 in
        let runs =
          Scenario.sweep ~params:quick_params ~epoch_lengths:[ 512; 2048 ] w
        in
        match runs with
        | [ a; b ] ->
          check bool "same baseline" true
            (Hft_sim.Time.equal a.Scenario.bare_time b.Scenario.bare_time);
          check bool "np falls with epoch length" true
            (b.Scenario.np < a.Scenario.np)
        | _ -> fail "expected two runs");
    test_case "sweep covers protocol list" `Quick (fun () ->
        let w = Hft_guest.Workload.dhrystone ~iterations:1000 in
        let runs =
          Scenario.sweep ~params:quick_params ~epoch_lengths:[ 512 ]
            ~protocols:[ Params.Original; Params.Revised ] w
        in
        check int "two runs" 2 (List.length runs);
        check bool "revised faster" true
          (let o = List.nth runs 0 and n = List.nth runs 1 in
           n.Scenario.np < o.Scenario.np));
    test_case "standard workloads are well formed" `Quick (fun () ->
        check bool "cpu" true
          ((Scenario.cpu_workload ()).Hft_guest.Workload.name = "dhrystone");
        check bool "write" true
          ((Scenario.write_workload ()).Hft_guest.Workload.name = "disk-write");
        check bool "read" true
          ((Scenario.read_workload ()).Hft_guest.Workload.name = "disk-read"));
  ]

(* tiny substring helper, avoiding extra dependencies *)
let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let report_tests =
  let open Alcotest in
  let render f =
    let buf = Buffer.create 256 in
    let out = Format.formatter_of_buffer buf in
    f out;
    Format.pp_print_flush out ();
    Buffer.contents buf
  in
  [
    test_case "table renders aligned columns" `Quick (fun () ->
        let s =
          render (fun out ->
              Report.table ~out ~title:"T" ~header:[ "a"; "bee" ]
                [ [ "1"; "2" ]; [ "333"; "4" ] ])
        in
        check bool "has title" true
          (contains s "== T ==");
        check bool "has row" true (contains s "333"));
    test_case "row arity mismatch rejected" `Quick (fun () ->
        let raised =
          try
            Report.table ~title:"T" ~header:[ "a" ] [ [ "1"; "2" ] ];
            false
          with Invalid_argument _ -> true
        in
        check bool "raised" true raised);
    test_case "fnum formats two decimals" `Quick (fun () ->
        check string "fnum" "1.84" (Report.fnum 1.8351));
    test_case "check renders pass/fail" `Quick (fun () ->
        let s = render (fun out -> Report.check ~out ~label:"x" true) in
        check bool "pass" true (contains s "PASS"));
  ]

let () =
  Alcotest.run "hft_harness"
    [ ("scenario", harness_tests); ("report", report_tests) ]
