(* Every JSON artifact the CLI writes, taken from real runs, goes
   through the strict reader: it must parse, be exactly the text the
   one printer produces for the parsed value, and survive a second
   print/parse in both forms.  Every committed manifest (the images'
   embedded M lines and the manifest-set baseline) must be a fixed
   point of of_json/to_json. *)

module Json = Hft_obs.Json
module Manifest = Hft_analysis.Manifest

let hftsim = "../bin/hftsim.exe"

let read path = In_channel.with_open_bin path In_channel.input_all

(* [f dir] in a fresh temporary directory, removed afterwards. *)
let with_temp_dir f =
  let d = Filename.temp_file "hftsim" "" in
  Sys.remove d;
  Sys.mkdir d 0o755;
  Fun.protect
    ~finally:(fun () -> ignore (Sys.command ("rm -rf " ^ Filename.quote d)))
    (fun () -> f d)

(* Run the CLI for its exit status and combined stdout/stderr. *)
let output args =
  let tmp = Filename.temp_file "hftsim" ".out" in
  Fun.protect
    ~finally:(fun () -> Sys.remove tmp)
    (fun () ->
      let code =
        Sys.command
          (String.concat " " (List.map Filename.quote (hftsim :: args))
          ^ " > " ^ Filename.quote tmp ^ " 2>&1")
      in
      (code, read tmp))

(* Run the CLI for the files it writes; the exit status is
   irrelevant (a failing chaos campaign still writes its summary). *)
let run args = ignore (output args)

(* Index just past the first occurrence of [sub] in [s]. *)
let after s sub =
  let n = String.length s and m = String.length sub in
  let rec go i =
    if i + m > n then Alcotest.failf "%S not found" sub
    else if String.sub s i m = sub then i + m
    else go (i + 1)
  in
  go 0

let parse_exn what text =
  match Json.parse text with
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: strict parse failed: %s" what e

let str_member k v = Option.bind (Json.member k v) Json.to_string_opt

(* [text] is one document (pretty or compact, newline-terminated) or,
   for [`Lines], a JSONL stream. *)
let round_trip what form text =
  let values =
    match form with
    | `Lines ->
      let lines = String.split_on_char '\n' text |> List.filter (( <> ) "") in
      let vs = List.map (parse_exn what) lines in
      Alcotest.(check string) (what ^ ": printer output") text (Json.to_lines vs);
      vs
    | (`Pretty | `Compact) as f ->
      let v = parse_exn what text in
      Alcotest.(check string)
        (what ^ ": printer output")
        text
        (Json.to_string ~pretty:(f = `Pretty) v ^ "\n");
      [ v ]
  in
  List.iter
    (fun v ->
      Alcotest.(check bool)
        (what ^ ": compact round trip")
        true
        (Json.parse (Json.to_string v) = Ok v);
      Alcotest.(check bool)
        (what ^ ": pretty round trip")
        true
        (Json.parse (Json.to_string ~pretty:true v) = Ok v))
    values;
  values

let test_every_emitter d =
  let f name = Filename.concat d name in
  run [ "lint"; "-w"; "probe"; "--json"; f "lint.json"; "--sarif"; f "lint.sarif" ];
  run [ "lint"; "-w"; "probe"; "--manifest"; "--manifest-out"; f "manifest.json" ];
  run [ "lint"; "--all"; "--manifest"; "--manifest-out"; f "set.json" ];
  run
    [
      "chaos"; "-w"; "mixed"; "--trials"; "2"; "--seed"; "9"; "--no-retransmit";
      "--json"; f "chaos.json";
    ];
  run [ "check"; "--all"; "--max-states"; "200"; "--json"; f "check.json" ];
  run
    [
      "run"; "-w"; "write"; "--crash"; "40"; "--trace-out"; f "trace.json";
      "--metrics"; "--metrics-out"; f "metrics.json";
    ];
  run [ "run"; "-w"; "hello"; "--trace-out"; f "trace.jsonl" ];
  run [ "bench"; "--quick"; "--json"; f "bench.json" ];
  let schema what form file expected =
    match round_trip what form (read (f file)) with
    | v :: _ ->
      Alcotest.(check (option string))
        (what ^ ": schema") (Some expected) (str_member "schema" v)
    | [] -> Alcotest.failf "%s: empty" what
  in
  schema "lint/3" `Pretty "lint.json" "hftsim-lint/3";
  schema "manifest/2" `Pretty "manifest.json" "hftsim-manifest/2";
  schema "manifest-set/1" `Pretty "set.json" "hftsim-manifest-set/1";
  schema "chaos/1" `Pretty "chaos.json" "hftsim-chaos/1";
  schema "metrics/2" `Pretty "metrics.json" "hftsim-metrics/2";
  schema "trace/1" `Lines "trace.jsonl" "hftsim-trace/1";
  schema "bench-core/5" `Pretty "bench.json" "hftsim-bench-core/5";
  (match round_trip "SARIF" `Pretty (read (f "lint.sarif")) with
  | [ v ] ->
    Alcotest.(check (option string)) "SARIF version" (Some "2.1.0")
      (str_member "version" v)
  | _ -> Alcotest.fail "SARIF: not one document");
  (match round_trip "Chrome trace" `Compact (read (f "trace.json")) with
  | [ v ] ->
    Alcotest.(check bool) "Chrome trace has events" true
      (match Option.bind (Json.member "traceEvents" v) Json.to_list_opt with
      | Some (_ :: _) -> true
      | _ -> false)
  | _ -> Alcotest.fail "Chrome trace: not one document");
  match round_trip "check --all" `Pretty (read (f "check.json")) with
  | [ Json.Arr reports ] ->
    Alcotest.(check int) "one check/1 report per scenario" 5
      (List.length reports);
    List.iter
      (fun r ->
        Alcotest.(check (option string)) "check/1 schema"
          (Some "hftsim-check/1") (str_member "schema" r))
      reports
  | _ -> Alcotest.fail "check --all: not an array"

(* An image path with a tab, a double quote, a backslash and a UTF-8
   character is the lint title; both reports must stay valid JSON and
   carry it byte for byte. *)
let test_hostile_title d =
  let img = Filename.concat d "t\tab \"q\" b\\s \xc3\xa9.img" in
  Out_channel.with_open_bin img (fun oc ->
      output_string oc (read "../examples/images/probe.img"));
  let json = Filename.concat d "lint.json" in
  let sarif = Filename.concat d "lint.sarif" in
  run [ "lint"; "--image"; img; "--json"; json; "--sarif"; sarif ];
  let title_of path v =
    List.fold_left
      (fun v k ->
        match (v, k) with
        | Some v, `M k -> Json.member k v
        | Some (Json.Arr (x :: _)), `First -> Some x
        | _ -> None)
      (Some v) path
    |> Fun.flip Option.bind Json.to_string_opt
  in
  (match round_trip "lint/3" `Pretty (read json) with
  | [ v ] ->
    Alcotest.(check (option string)) "lint title" (Some img)
      (title_of [ `M "images"; `First; `M "title" ] v)
  | _ -> Alcotest.fail "lint/3: not one document");
  match round_trip "SARIF" `Pretty (read sarif) with
  | [ v ] ->
    Alcotest.(check (option string)) "SARIF artifact uri" (Some img)
      (title_of
         [
           `M "runs"; `First; `M "results"; `First; `M "locations"; `First;
           `M "physicalLocation"; `M "artifactLocation"; `M "uri";
         ]
         v)
  | _ -> Alcotest.fail "SARIF: not one document"

let fixed_point what j =
  match Manifest.of_json j with
  | Error e -> Alcotest.failf "%s: of_json: %s" what e
  | Ok m ->
    let j' = Manifest.to_json m in
    Alcotest.(check bool) (what ^ ": to_json (of_json j) = j") true (j' = j);
    Alcotest.(check bool)
      (what ^ ": reparses")
      true
      (Json.parse (Json.to_string j') = Ok j)

let test_committed_manifests () =
  let dir = "../examples/images" in
  let images =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".img")
    |> List.sort compare
  in
  Alcotest.(check int) "shipped images" 11 (List.length images);
  List.iter
    (fun f ->
      match
        Hft_machine.Image.manifest_of_string (read (Filename.concat dir f))
      with
      | None -> Alcotest.failf "%s: no M line" f
      | Some line -> fixed_point f (parse_exn f line))
    images;
  let baseline = parse_exn "baseline" (read "../MANIFEST_baseline.json") in
  match Option.bind (Json.member "images" baseline) Json.to_list_opt with
  | None | Some [] -> Alcotest.fail "baseline: no images"
  | Some entries ->
    List.iter
      (fun e ->
        match (str_member "title" e, Json.member "manifest" e) with
        | Some title, Some m -> fixed_point ("baseline " ^ title) m
        | _ -> Alcotest.fail "baseline: malformed entry")
      entries

(* The --workload help names its default and lists every workload; each
   of those names, and each name the parser's own error message offers,
   must parse back. *)
let test_workload_names () =
  let _, help = output [ "lint"; "--help=plain" ] in
  let i = after help "--workload=NAME (absent=" in
  let absent = String.sub help i (String.index_from help i ')' - i) in
  (* the doc paragraph: the lines after the option line, up to a blank *)
  let rec para acc = function
    | l :: rest when String.trim l <> "" -> para (String.trim l :: acc) rest
    | _ -> String.concat " " (List.rev acc)
  in
  let doc =
    match String.split_on_char '\n' (String.sub help i (String.length help - i)) with
    | _ :: lines -> para [] lines
    | [] -> ""
  in
  let listed =
    let j = after doc "Workload:" in
    String.sub doc j (String.length doc - j)
    |> String.map (function ',' | '.' -> ' ' | c -> c)
    |> String.split_on_char ' '
    |> List.filter (fun w -> w <> "" && w <> "or")
  in
  let _, err = output [ "lint"; "-w"; "no-such-workload" ] in
  let offered =
    let j = after err "(" in
    String.sub err j (String.index_from err j ')' - j)
    |> String.split_on_char '|'
  in
  List.iter
    (fun w ->
      Alcotest.(check bool)
        (Printf.sprintf "%S is in the --workload doc" w)
        true (List.mem w listed))
    offered;
  List.iter
    (fun w ->
      let code, out = output [ "lint"; "-w"; w ] in
      if code <> 0 then
        Alcotest.failf "lint -w %s exited %d:\n%s" w code out)
    (absent :: listed)

(* Every [hftsim.exe -- CMD] line in the README names a command the
   CLI lists in its own help. *)
let test_readme_commands () =
  let _, help = output [ "--help=plain" ] in
  (* the COMMANDS section: an entry is "       NAME [OPTION]...", its
     doc is indented further, and the next section starts at column 0 *)
  let listed =
    String.split_on_char '\n' help
    |> List.to_seq
    |> Seq.drop_while (( <> ) "COMMANDS")
    |> Seq.drop 1
    |> Seq.take_while (fun l -> l = "" || l.[0] = ' ')
    |> Seq.filter_map (fun l ->
           if String.length l > 7 && l.[7] <> ' ' then
             Some (List.hd (String.split_on_char ' ' (String.trim l)))
           else None)
    |> List.of_seq
  in
  let marker = "hftsim.exe -- " in
  let m = String.length marker in
  let rec command l i =
    if i + m > String.length l then None
    else if String.sub l i m = marker then
      let rest = String.sub l (i + m) (String.length l - i - m) in
      Some (List.hd (String.split_on_char ' ' rest))
    else command l (i + 1)
  in
  let shown =
    String.split_on_char '\n' (read "../README.md")
    |> List.filter_map (fun l -> command l 0)
  in
  Alcotest.(check bool) "the README shows some command" true (shown <> []);
  List.iter
    (fun c ->
      Alcotest.(check bool)
        (Printf.sprintf "README command %S is in hftsim --help" c)
        true (List.mem c listed))
    (List.sort_uniq compare shown)

(* A malformed image and a non-positive epoch length are reported
   usage errors (exit 124), never an uncaught exception (exit 125). *)
let test_malformed_inputs d =
  let image name text =
    let path = Filename.concat d name in
    Out_channel.with_open_bin path (fun oc -> output_string oc text);
    path
  in
  let short = image "short.img" "HFT1 2\n0000000000000000\n" in
  let garbled = image "garbled.img" "HFT1 1\nzzzz\n" in
  List.iter
    (fun args ->
      let code, out = output args in
      if code <> 124 then
        Alcotest.failf "%s exited %d, not 124:\n%s" (String.concat " " args)
          code out)
    [
      [ "lint"; "--image"; short ];
      [ "lint"; "--image"; garbled ];
      [ "profile"; "--image"; short ];
      [ "profile"; "--image"; garbled ];
      [ "run"; "-e"; "0" ];
      [ "chaos"; "-e"; "0" ];
    ]

let () =
  Alcotest.run "artifacts"
    [
      ( "round-trip",
        [
          Alcotest.test_case "every emitter, strict parse" `Quick (fun () ->
              with_temp_dir test_every_emitter);
          Alcotest.test_case "hostile image title in lint and SARIF" `Quick
            (fun () -> with_temp_dir test_hostile_title);
          Alcotest.test_case "committed manifests are fixed points" `Quick
            test_committed_manifests;
        ] );
      ( "cli",
        [
          Alcotest.test_case "every advertised workload name parses" `Quick
            test_workload_names;
          Alcotest.test_case "README commands exist" `Quick
            test_readme_commands;
          Alcotest.test_case "malformed inputs are usage errors" `Quick
            (fun () -> with_temp_dir test_malformed_inputs);
        ] );
    ]
