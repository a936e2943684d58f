(* Tests of the experiment harness: the standard workloads and report
   rendering.  Normalized performance itself is pinned by the
   [hftsim reproduce] fixture. *)

open Hft_harness

let harness_tests =
  let open Alcotest in
  [
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
