(* Every JSON artifact the CLI writes, taken from real runs, goes
   through the strict reader: it must parse, be exactly the text the
   one printer produces for the parsed value, and survive a second
   print/parse in both forms.  Every manifest in the committed
   manifest-set baseline must be a fixed point of of_json/to_json, and
   every committed image must be what its generator writes today. *)

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
  schema "lint/4" `Pretty "lint.json" "hftsim-lint/4";
  schema "manifest/4" `Pretty "manifest.json" "hftsim-manifest/4";
  schema "manifest-set/1" `Pretty "set.json" "hftsim-manifest-set/1";
  schema "chaos/1" `Pretty "chaos.json" "hftsim-chaos/1";
  schema "metrics/2" `Pretty "metrics.json" "hftsim-metrics/2";
  schema "trace/1" `Lines "trace.jsonl" "hftsim-trace/1";
  schema "bench-core/8" `Pretty "bench.json" "hftsim-bench-core/8";
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
  (match round_trip "lint/4" `Pretty (read json) with
  | [ v ] ->
    Alcotest.(check (option string)) "lint title" (Some img)
      (title_of [ `M "images"; `First; `M "title" ] v)
  | _ -> Alcotest.fail "lint/4: not one document");
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
  Alcotest.(check (option string)) (what ^ ": schema")
    (Some Manifest.schema) (str_member "schema" j);
  match Manifest.of_json j with
  | Error e -> Alcotest.failf "%s: of_json: %s" what e
  | Ok m ->
    let j' = Manifest.to_json m in
    Alcotest.(check bool) (what ^ ": to_json (of_json j) = j") true (j' = j);
    Alcotest.(check bool)
      (what ^ ": reparses")
      true
      (Json.parse (Json.to_string j') = Ok j)

(* The committed images: name and text. *)
let committed_images () =
  let dir = "../examples/images" in
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".img")
  |> List.sort compare
  |> List.map (fun f -> (f, read (Filename.concat dir f)))

(* The manifests of the committed baseline: title and document. *)
let baseline_manifests () =
  let baseline = parse_exn "baseline" (read "../MANIFEST_baseline.json") in
  match Option.bind (Json.member "images" baseline) Json.to_list_opt with
  | None | Some [] -> Alcotest.fail "baseline: no images"
  | Some entries ->
    List.map
      (fun e ->
        match (str_member "title" e, Json.member "manifest" e) with
        | Some title, Some m -> (title, m)
        | _ -> Alcotest.fail "baseline: malformed entry")
      entries

let test_committed_manifests () =
  List.iter
    (fun (title, m) -> fixed_point ("baseline " ^ title) m)
    (baseline_manifests ())

(* Each committed image is byte for byte what its generator writes:
   [disasm -w W --save] for a workload's image (at EL 4096 for
   cpu_rewritten), gen_loop_images.exe for the three loop images. *)
let test_images_match_generators d =
  let images = committed_images () in
  Alcotest.(check int) "shipped images" 11 (List.length images);
  let saved args =
    let path = Filename.concat d "saved.img" in
    (match output ([ "disasm" ] @ args @ [ "--save"; path ]) with
    | 0, _ -> ()
    | code, out ->
      Alcotest.failf "disasm %s exited %d:\n%s" (String.concat " " args) code
        out);
    read path
  in
  let loops = Filename.concat d "examples/images" in
  Sys.mkdir (Filename.dirname loops) 0o755;
  Sys.mkdir loops 0o755;
  let gen = Filename.concat (Sys.getcwd ()) "../examples/gen_loop_images.exe" in
  if
    Sys.command
      (Printf.sprintf "cd %s && %s > /dev/null" (Filename.quote d)
         (Filename.quote gen))
    <> 0
  then Alcotest.fail "gen_loop_images.exe failed";
  List.iter
    (fun (f, text) ->
      let regenerated =
        match Filename.chop_suffix f ".img" with
        | "cpu_rewritten" -> saved [ "-w"; "cpu"; "--rewrite"; "4096" ]
        | w when String.starts_with ~prefix:"loop_" w ->
          read (Filename.concat loops f)
        | w -> saved [ "-w"; w ]
      in
      Alcotest.(check string) (f ^ " matches its generator") regenerated text)
    images

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

(* A manifest of a retired schema is refused, by name, before anything
   else in it is read: the baseline gate reads through [of_json]. *)
let test_retired_schemas () =
  List.iter
    (fun (title, m) ->
      List.iter
        (fun old ->
          let stale =
            match m with
            | Json.Obj kvs ->
              Json.Obj
                (List.map
                   (fun (k, v) -> (k, if k = "schema" then Json.Str old else v))
                   kvs)
            | _ -> Alcotest.failf "%s: manifest is not an object" title
          in
          match Manifest.of_json stale with
          | Ok _ -> Alcotest.failf "%s: a %s manifest was read" title old
          | Error e -> ignore (after e ("\"" ^ old ^ "\"")))
        [ "hftsim-manifest/3"; "hftsim-manifest/2" ])
    (baseline_manifests ())

(* The image reader is an input boundary.  Whatever a file holds,
   [Image.of_string] answers a program or [Format_error], never another
   exception.  The inputs are the committed images, truncated, with one
   bit flipped, or spliced from two of them. *)
let image_fuzz_prop =
  let images = lazy (Array.of_list (List.map snd (committed_images ()))) in
  let gen =
    let open QCheck.Gen in
    let* i = int_bound 10 in
    let text = (Lazy.force images).(i) in
    let n = String.length text in
    oneof
      [
        map (fun k -> String.sub text 0 k) (int_bound n);
        map2
          (fun k bit ->
            String.mapi
              (fun j c ->
                if j = k then Char.chr (Char.code c lxor (1 lsl bit)) else c)
              text)
          (int_bound (n - 1)) (int_bound 7);
        (let* j = int_bound 10 in
         let other = (Lazy.force images).(j) in
         let m = String.length other in
         map2
           (fun a b -> String.sub text 0 a ^ String.sub other b (m - b))
           (int_bound n) (int_bound m));
      ]
  in
  QCheck.Test.make ~name:"mutated images load or Format_error"
    ~count:3000 (QCheck.make ~print:(Printf.sprintf "%S") gen) (fun s ->
      match Hft_machine.Image.of_string s with
      | (_ : Hft_machine.Asm.program) -> true
      | exception Hft_machine.Image.Format_error _ -> true)

(* A malformed image, a non-positive epoch length, a NaN fault rate,
   a negative trial count, a negative crash time or epoch, an output
   path that cannot be written, a lint flag that --all would ignore and
   an image that already carries epoch markers under --rewrite are
   reported errors (exit 124), never an uncaught exception (exit 125)
   or a run that ignores them. *)
let test_malformed_inputs d =
  let image name text =
    let path = Filename.concat d name in
    Out_channel.with_open_bin path (fun oc -> output_string oc text);
    path
  in
  let short = image "short.img" "HFT1 2\n0000000000000000\n" in
  let garbled = image "garbled.img" "HFT1 1\nzzzz\n" in
  let undecodable = image "undecodable.img" "HFT1 1\nffffffffffffffff\n" in
  let dup_label =
    image "dup_label.img" "HFT1 1\n0000000000000000\nL a 0\nL a 1\n"
  in
  (* an output path in a directory that does not exist *)
  let missing = Filename.concat d "missing" in
  let nowhere name = Filename.concat missing name in
  List.iter
    (fun args ->
      let code, out = output args in
      if code <> 124 then
        Alcotest.failf "%s exited %d, not 124:\n%s" (String.concat " " args)
          code out;
      if List.exists (String.starts_with ~prefix:missing) args then
        ignore (after out "cannot write ");
      if List.mem "--all" args then
        ignore (after out "cannot be combined with --all");
      if List.mem "--image" args && List.mem "--rewrite" args then
        ignore (after out "already carries epoch markers");
      if List.mem "--image" args && List.mem "-w" args then
        ignore (after out "cannot be combined with --image"))
    [
      [ "lint"; "--image"; short ];
      [ "lint"; "--image"; garbled ];
      [ "profile"; "--image"; short ];
      [ "profile"; "--image"; garbled ];
      [ "lint"; "--image"; undecodable ];
      [ "lint"; "--image"; dup_label ];
      [ "profile"; "--image"; undecodable ];
      [ "profile"; "--image"; dup_label ];
      [ "run"; "-e"; "0" ];
      [ "chaos"; "-e"; "0" ];
      [ "lint"; "--rewrite"; "0" ];
      [ "disasm"; "--rewrite"; "0" ];
      [ "check"; "--scenario"; "crash-loss"; "--depth=-1" ];
      [ "check"; "--scenario"; "crash-loss"; "--max-states=-5" ];
      [ "check"; "--scenario"; "crash-loss"; "--max-violations=0" ];
      [ "check"; "--scenario"; "crash-loss"; "--max-violations=-1" ];
      [ "chaos"; "-w"; "hello"; "--trials"; "2"; "--loss=nan" ];
      [ "chaos"; "-w"; "hello"; "--trials"; "2"; "--dup=nan" ];
      [ "chaos"; "-w"; "hello"; "--trials"; "2"; "--corrupt=nan" ];
      [ "chaos"; "-w"; "hello"; "--trials=-1" ];
      [ "chaos"; "-w"; "hello"; "--exact"; "--crash-epoch=-2" ];
      [ "chaos"; "-w"; "hello"; "--exact"; "--backup-crash-epoch=-2" ];
      [ "run"; "--crash=-5" ];
      [ "run"; "--crash=5"; "--reintegrate=-1" ];
      [ "run"; "-w"; "hello"; "--reintegrate"; "5" ];
      [ "run"; "--events=-1" ];
      [ "chaos"; "-w"; "mixed"; "--exact"; "--reintegrate" ];
      [ "profile"; "-w"; "cpu"; "--limit=0"; "--min-coverage"; "1" ];
      [ "profile"; "-w"; "cpu"; "--limit=-1" ];
      [ "check"; "--scenario"; "handoff"; "--json"; nowhere "check.json" ];
      [
        "check"; "--scenario"; "crash-loss"; "--no-retransmit";
        "--save-replay"; nowhere "cx.replay";
      ];
      [ "run"; "-w"; "hello"; "--trace-out"; nowhere "t.json" ];
      [ "run"; "-w"; "hello"; "--metrics-out"; nowhere "m.json" ];
      [ "chaos"; "-w"; "hello"; "--trials"; "1"; "--json"; nowhere "c.json" ];
      [ "lint"; "--json"; nowhere "lint.json" ];
      [ "profile"; "--flame"; nowhere "flame.txt" ];
      [ "disasm"; "--save"; nowhere "hello.img" ];
      [
        "lint"; "--image"; "../examples/images/cpu_rewritten.img"; "--rewrite";
        "4096";
      ];
      [ "lint"; "--all"; "--image"; "../examples/images/hello.img" ];
      [ "lint"; "--all"; "--rewritten" ];
      [ "lint"; "--all"; "--rewrite"; "4096" ];
      (* [-w] where it would be ignored *)
      [ "lint"; "--all"; "-w"; "cpu" ];
      [ "lint"; "--image"; "../examples/images/hello.img"; "-w"; "cpu" ];
      [ "profile"; "--image"; "../examples/images/hello.img"; "-w"; "cpu" ];
    ]

(* The certification gate reads every entry of its baseline: a baseline
   it cannot read is a regression, never a vacuous pass.  The intact
   baseline passes, so the failures below are the damage's doing. *)
let test_corrupt_baseline d =
  let baseline = parse_exn "baseline" (read "../MANIFEST_baseline.json") in
  let entries =
    match Option.bind (Json.member "images" baseline) Json.to_list_opt with
    | Some (_ :: _ as l) -> l
    | _ -> Alcotest.fail "baseline: no images"
  in
  (* [set k f v]: object [v] with field [k] replaced by [f] of it *)
  let set k f = function
    | Json.Obj kvs ->
      Json.Obj (List.map (fun (k', v) -> (k', if k = k' then f v else v)) kvs)
    | v -> v
  in
  let with_images images =
    Json.Obj
      [
        ("schema", Json.Str "hftsim-manifest-set/1");
        ("images", Json.Arr images);
      ]
  in
  let oops = set "manifest" (set "blocks" (fun _ -> Json.Str "oops")) in
  let numeric_title i e =
    if i = 0 then set "title" (fun _ -> Json.Num 7.) e else e
  in
  let schema v = set "manifest" (set "schema" (fun _ -> Json.Str v)) in
  let lint path = output [ "lint"; "--all"; "--manifest-baseline"; path ] in
  (match lint "../MANIFEST_baseline.json" with
  | 0, _ -> ()
  | code, out -> Alcotest.failf "intact baseline exited %d:\n%s" code out);
  (* each row: name, document, and what the gate's output must name *)
  List.iter
    (fun (name, doc, names) ->
      let path = Filename.concat d (name ^ ".json") in
      Out_channel.with_open_bin path (fun oc ->
          output_string oc (Json.to_string doc));
      let code, out = lint path in
      if code = 0 then Alcotest.failf "%s baseline passed the gate" name;
      ignore (after out ("regression: baseline " ^ path ^ ": "));
      ignore (after out names))
    [
      ("empty", Json.Obj [], "no schema");
      ( "wrong-schema",
        Json.Obj [ ("schema", Json.Str "x"); ("images", Json.Arr []) ],
        "schema \"x\"" );
      ("blocks-oops", with_images (List.map oops entries), "\"blocks\"");
      ( "numeric-title",
        with_images (List.mapi numeric_title entries),
        "no string title" );
      ( "schema-3",
        with_images (List.map (schema "hftsim-manifest/3") entries),
        "\"hftsim-manifest/3\"" );
      ( "schema-2",
        with_images (List.map (schema "hftsim-manifest/2") entries),
        "\"hftsim-manifest/2\"" );
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
          Alcotest.test_case "retired manifest schemas are refused" `Quick
            test_retired_schemas;
          Alcotest.test_case "committed images match their generators" `Quick
            (fun () -> with_temp_dir test_images_match_generators);
          QCheck_alcotest.to_alcotest ~long:false image_fuzz_prop;
        ] );
      ( "cli",
        [
          Alcotest.test_case "every advertised workload name parses" `Quick
            test_workload_names;
          Alcotest.test_case "README commands exist" `Quick
            test_readme_commands;
          Alcotest.test_case "malformed inputs are usage errors" `Quick
            (fun () -> with_temp_dir test_malformed_inputs);
          Alcotest.test_case "a corrupt manifest baseline fails the gate"
            `Quick (fun () -> with_temp_dir test_corrupt_baseline);
        ] );
    ]
