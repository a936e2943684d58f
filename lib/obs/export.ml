open Hft_sim

(* ---------- shared emission helpers ---------- *)

let ts_us ns = Json.Num (float ns /. 1_000.0)

let args ev =
  Json.Obj
    (List.map
       (fun (k, v) ->
         ( k,
           match v with
           | Event.Int i -> Json.int i
           | Event.Bool b -> Json.Bool b
           | Event.Str s -> Json.Str s ))
       (Event.fields ev))

let hist_fields cat h =
  [
    ("cat", Json.Str cat);
    ("count", Json.int (Hist.count h));
    ("p50_us", Json.fixed 3 (Hist.p50_us h));
    ("p95_us", Json.fixed 3 (Hist.p95_us h));
    ("p99_us", Json.fixed 3 (Hist.p99_us h));
    ("max_us", Json.fixed 3 (Hist.max_us h));
  ]

(* ---------- Chrome trace-event JSON (Perfetto) ---------- *)

(* Track layout: pid 1 = the replicas (one group of tracks per
   hypervisor), pid 2 = the channels, pid 3 = devices and everything
   else.  Within a source, instant events live on the base tid and
   each synchronous span category gets its own lane so slices never
   overlap on a track; intr-delay and msg-rtt spans (which genuinely
   overlap) are emitted as async begin/end pairs instead. *)

let lane_of_cat = function
  | "epoch" -> Some 1
  | "ack-wait" -> Some 2
  | "rtx-chain" -> Some 3
  | "failover" -> Some 4
  | "recovery" -> Some 5
  | _ -> None (* async: intr-delay, msg-rtt *)

let build_tracks entries =
  let tbl = Hashtbl.create 16 in
  let next = Hashtbl.create 4 in
  Hashtbl.replace next 1 3;
  Hashtbl.replace next 2 0;
  Hashtbl.replace next 3 0;
  let assign s =
    if not (Hashtbl.mem tbl s) then begin
      let pid, rank =
        match s with
        | "primary" -> (1, 0)
        | "backup" -> (1, 1)
        | "backup2" -> (1, 2)
        | _ when String.contains s '>' -> (2, -1)
        | _ -> (3, -1)
      in
      let rank =
        if rank >= 0 then rank
        else begin
          let r = Hashtbl.find next pid in
          Hashtbl.replace next pid (r + 1);
          r
        end
      in
      Hashtbl.replace tbl s (pid, rank * 8)
    end
  in
  List.iter (fun e -> assign e.Recorder.source) entries;
  tbl

let chrome entries =
  let spans = Span.of_entries entries in
  let tracks = build_tracks entries in
  let track s =
    match Hashtbl.find_opt tracks s with
    | Some pt -> pt
    | None -> (3, 99 * 8) (* a span source with no instant events *)
  in
  let ev ph ~pid ~tid fields =
    Json.Obj
      ([ ("ph", Json.Str ph); ("pid", Json.int pid) ]
      @ (match tid with Some t -> [ ("tid", Json.int t) ] | None -> [])
      @ fields)
  in
  let meta ~pid ?tid name value =
    ev "M" ~pid ~tid
      [ ("name", Json.Str name); ("args", Json.Obj [ ("name", Json.Str value) ]) ]
  in
  (* process names *)
  let pids = Hashtbl.create 4 in
  Hashtbl.iter (fun _ (pid, _) -> Hashtbl.replace pids pid ()) tracks;
  let process_names =
    List.filter_map
      (fun (pid, name) ->
        if Hashtbl.mem pids pid then Some (meta ~pid "process_name" name)
        else None)
      [ (1, "hftsim replicas"); (2, "hftsim channels"); (3, "hftsim devices") ]
  in
  (* base thread names *)
  let thread_names =
    Hashtbl.fold
      (fun src (pid, tid) acc -> meta ~pid ~tid "thread_name" src :: acc)
      tracks []
    |> List.rev
  in
  (* lane thread names, for the lanes actually used *)
  let lanes_named = Hashtbl.create 16 in
  let lane_names =
    List.filter_map
      (fun (s : Span.t) ->
        match lane_of_cat s.cat with
        | Some lane ->
          let pid, base = track s.source in
          let tid = base + lane in
          if Hashtbl.mem lanes_named (pid, tid) then None
          else begin
            Hashtbl.replace lanes_named (pid, tid) ();
            Some (meta ~pid ~tid "thread_name" (s.source ^ "/" ^ s.cat))
          end
        | None -> None)
      spans
  in
  let instant ~pid ~tid t0 name cat rest =
    ev "i" ~pid ~tid:(Some tid)
      ([
         ("ts", ts_us t0);
         ("s", Json.Str "t");
         ("name", Json.Str name);
         ("cat", Json.Str cat);
       ]
      @ rest)
  in
  (* instant events: one per recorded entry *)
  let instants =
    List.map
      (fun { Recorder.time; source; ev } ->
        let pid, tid = track source in
        instant ~pid ~tid (Time.to_ns time) (Event.tag ev) "event"
          [ ("args", args ev) ])
      entries
  in
  (* spans *)
  let async_id = ref 0 in
  let span_events =
    List.concat_map
      (fun (s : Span.t) ->
        let pid, base = track s.source in
        let named ph ~tid t rest =
          ev ph ~pid ~tid:(Some tid)
            ((("ts", ts_us (Time.to_ns t)) :: rest)
            @ [ ("name", Json.Str s.label); ("cat", Json.Str s.cat) ])
        in
        match (s.t1, lane_of_cat s.cat) with
        | Some t1, Some lane ->
          [
            named "X" ~tid:(base + lane) s.t0
              [ ("dur", ts_us (Time.to_ns (Time.diff t1 s.t0))) ];
          ]
        | Some t1, None ->
          incr async_id;
          let id = ("id", Json.Str (Printf.sprintf "0x%x" !async_id)) in
          [ named "b" ~tid:base s.t0 [ id ]; named "e" ~tid:base t1 [ id ] ]
        | None, lane ->
          (* unclosed: a marker, not a slice *)
          let tid = match lane with Some l -> base + l | None -> base in
          [
            instant ~pid ~tid (Time.to_ns s.t0) ("open: " ^ s.label) s.cat [];
          ])
      spans
  in
  Json.Obj
    [
      ("displayTimeUnit", Json.Str "ms");
      ( "traceEvents",
        Json.Arr
          (process_names @ thread_names @ lane_names @ instants @ span_events)
      );
    ]

(* ---------- hftsim-trace/1 JSONL ---------- *)

let schema = "hftsim-trace/1"
let metrics_schema = "hftsim-metrics/2"

let jsonl ?(dropped = 0) entries =
  let spans = Span.of_entries entries in
  let hists = Span.histograms spans in
  let header =
    Json.Obj
      [
        ("schema", Json.Str schema);
        ("kind", Json.Str "header");
        ("events", Json.int (List.length entries));
        ("spans", Json.int (List.length spans));
        ("hists", Json.int (List.length hists));
        ("dropped", Json.int dropped);
      ]
  in
  let event { Recorder.time; source; ev } =
    Json.Obj
      [
        ("kind", Json.Str "event");
        ("t_ns", Json.int (Time.to_ns time));
        ("src", Json.Str source);
        ("ev", Json.Str (Event.tag ev));
        ("args", args ev);
      ]
  in
  let span (s : Span.t) =
    let ns t = Json.int (Time.to_ns t) in
    let t1, dur =
      match s.t1 with
      | Some t1 -> (ns t1, ns (Time.diff t1 s.t0))
      | None -> (Json.Null, Json.Null)
    in
    Json.Obj
      [
        ("kind", Json.Str "span");
        ("cat", Json.Str s.cat);
        ("src", Json.Str s.source);
        ("label", Json.Str s.label);
        ("t0_ns", ns s.t0);
        ("t1_ns", t1);
        ("dur_ns", dur);
      ]
  in
  let hist (cat, h) = Json.Obj (("kind", Json.Str "hist") :: hist_fields cat h) in
  (header :: List.map event entries)
  @ List.map span spans
  @ List.map hist hists

(* ---------- hftsim-metrics/2 JSON ---------- *)

(* Schema note: /2 is a superset of /1.  The "histograms" array keeps
   the exact /1 element shape, so /1 readers that ignore unknown
   top-level members keep working; /2 adds "counters", "gauges",
   "windows" (the rolling aggregation) and "dropped_events". *)

let metrics_json ?registry ?(dropped = 0) hists =
  let from_registry f =
    Json.Arr (match registry with None -> [] | Some m -> f m)
  in
  let value actor name v =
    Json.Obj
      [ ("actor", Json.Str actor); ("name", Json.Str name); ("value", Json.int v) ]
  in
  Json.Obj
    [
      ("schema", Json.Str metrics_schema);
      ( "compat",
        Json.Str
          "histograms is unchanged from hftsim-metrics/1; /2 adds counters, \
           gauges, windows, dropped_events" );
      ("dropped_events", Json.int dropped);
      ( "histograms",
        Json.Arr
          (List.map
             (fun (cat, h) ->
               Json.Obj
                 (hist_fields cat h
                 @ [
                     ("mean_us", Json.fixed 3 (Hist.mean_ns h /. 1_000.0));
                     ( "buckets",
                       Json.Arr
                         (List.map
                            (fun (lo, n) -> Json.Arr [ Json.int lo; Json.int n ])
                            (Hist.nonzero_buckets h)) );
                   ]))
             hists) );
      ( "counters",
        from_registry (fun m ->
            List.map
              (fun (c : Metrics.counter) ->
                value c.Metrics.c_actor c.Metrics.c_name c.Metrics.c_val)
              (Metrics.counters m)) );
      (* the registry keeps no gauges; the /2 member stays *)
      ("gauges", Json.Arr []);
      ( "windows",
        from_registry (fun m ->
            List.map
              (fun (w : Metrics.window) ->
                Json.Obj
                  [
                    ("t0_ns", Json.int w.Metrics.w_t0_ns);
                    ("len_ns", Json.int w.Metrics.w_len_ns);
                    ("epochs", Json.int w.Metrics.w_epochs);
                    ("epoch_p50_us", Json.fixed 3 (Hist.p50_us w.Metrics.w_epoch));
                    ("epoch_p99_us", Json.fixed 3 (Hist.p99_us w.Metrics.w_epoch));
                    ("ack_count", Json.int (Hist.count w.Metrics.w_ack));
                    ("ack_p99_us", Json.fixed 3 (Hist.p99_us w.Metrics.w_ack));
                    ("availability", Json.fixed 4 (Metrics.availability w));
                  ])
              (Metrics.windows m)) );
    ]

(* ---------- validation ---------- *)

type summary = {
  format : [ `Chrome | `Jsonl | `Metrics ];
  events : int;
  spans : int;
  span_cats : string list;
  hists : int;
  drops : int;
      (** events the recorder ring discarded before export (jsonl
          header [dropped], metrics [dropped_events]); 0 for formats
          that do not carry the count *)
  counters : int;  (** metrics documents only *)
  windows : int;  (** metrics documents only *)
}

let ( let* ) = Result.bind
let str k v = Option.bind (Json.member k v) Json.to_string_opt
let num k v = Option.bind (Json.member k v) Json.to_float_opt

(* [spec] names the fields a record must carry and their kind. *)
let require ctx v spec =
  List.fold_left
    (fun acc (k, kind) ->
      let* () = acc in
      match (kind, Json.member k v) with
      | `Num, Some (Json.Num _) | `Str, Some (Json.Str _) -> Ok ()
      | `Num, _ -> Error (ctx (Printf.sprintf "%S missing or not a number" k))
      | `Str, _ -> Error (ctx (Printf.sprintf "%S missing or not a string" k)))
    (Ok ()) spec

let rec each ?(i = 0) check = function
  | [] -> Ok ()
  | v :: rest ->
    let* () = check i v in
    each ~i:(i + 1) check rest

(* Counts what a trace artifact holds while its records are checked. *)
type tally = {
  mutable n_events : int;
  mutable n_spans : int;
  mutable n_hists : int;
  cats : (string, unit) Hashtbl.t;
}

let tally () = { n_events = 0; n_spans = 0; n_hists = 0; cats = Hashtbl.create 8 }

let span t v =
  t.n_spans <- t.n_spans + 1;
  Option.iter (fun c -> Hashtbl.replace t.cats c ()) (str "cat" v)

let summary format ?(drops = 0) t =
  {
    format;
    events = t.n_events;
    spans = t.n_spans;
    span_cats =
      Hashtbl.fold (fun c () acc -> c :: acc) t.cats []
      |> List.sort String.compare;
    hists = t.n_hists;
    drops;
    counters = 0;
    windows = 0;
  }

let validate_chrome evs =
  let t = tally () in
  let* () =
    each
      (fun i v ->
        let ctx what = Printf.sprintf "traceEvents[%d]: %s" i what in
        let* spec, count =
          match str "ph" v with
          | Some "M" -> Ok ([ ("name", `Str); ("pid", `Num) ], ignore)
          | Some "i" ->
            Ok ([ ("name", `Str); ("ts", `Num) ], fun _ -> t.n_events <- t.n_events + 1)
          | Some "X" ->
            Ok ([ ("name", `Str); ("cat", `Str); ("ts", `Num); ("dur", `Num) ], span t)
          | Some "b" -> Ok ([ ("cat", `Str); ("id", `Str); ("ts", `Num) ], span t)
          | Some "e" -> Ok ([ ("cat", `Str); ("id", `Str); ("ts", `Num) ], ignore)
          | Some other -> Error (ctx (Printf.sprintf "unknown \"ph\":%S" other))
          | None -> Error (ctx "\"ph\" missing or not a string")
        in
        let* () = require ctx v spec in
        match num "dur" v with
        | Some d when d < 0.0 -> Error (ctx "negative \"dur\"")
        | _ -> Ok (count v))
      evs
  in
  Ok (summary `Chrome t)

let validate_jsonl content =
  let lines =
    String.split_on_char '\n' content
    |> List.filter (fun l -> String.trim l <> "")
  in
  match lines with
  | [] -> Error "empty file"
  | header :: rest ->
    let* h = Result.map_error (fun e -> "header: " ^ e) (Json.parse header) in
    let* s =
      Option.to_result ~none:"header \"schema\" missing" (str "schema" h)
    in
    let* () =
      if s = schema then Ok ()
      else Error (Printf.sprintf "schema %S, expected %S" s schema)
    in
    let t = tally () in
    let* () =
      each
        (fun i line ->
          let ctx what = Printf.sprintf "line %d: %s" (i + 2) what in
          let* v = Result.map_error ctx (Json.parse line) in
          (* a second schema declaration mid-stream means two artifacts
             were concatenated — reject with the schemas named rather
             than failing on whatever field differs first *)
          let* () =
            match str "schema" v with
            | Some s2 when s2 <> s ->
              Error
                (ctx
                   (Printf.sprintf
                      "mixed schemas: this line declares %S but the header \
                       declared %S — artifacts of different schemas must \
                       not be concatenated"
                      s2 s))
            | _ -> Ok ()
          in
          let* spec, count =
            match str "kind" v with
            | Some "event" ->
              Ok
                ( [ ("t_ns", `Num); ("src", `Str); ("ev", `Str) ],
                  fun _ -> t.n_events <- t.n_events + 1 )
            | Some "span" ->
              Ok ([ ("cat", `Str); ("src", `Str); ("t0_ns", `Num) ], span t)
            | Some "hist" ->
              Ok
                ( [ ("cat", `Str); ("count", `Num); ("p50_us", `Num); ("p99_us", `Num) ],
                  fun _ -> t.n_hists <- t.n_hists + 1 )
            | Some "header" ->
              Error
                (ctx
                   "unexpected second header — two artifacts must not be \
                    concatenated into one file")
            | Some other -> Error (ctx (Printf.sprintf "unknown \"kind\":%S" other))
            | None -> Error (ctx "\"kind\" missing or not a string")
          in
          let* () = require ctx v spec in
          Ok (count v))
        rest
    in
    (* captures from before the drop counter have no "dropped" *)
    let drops = Option.fold ~none:0 ~some:int_of_float (num "dropped" h) in
    Ok (summary `Jsonl ~drops t)

let validate_metrics top s =
  (* /1 has only histograms, so a missing array is an empty one *)
  let records k spec =
    match Json.member k top with
    | None -> Ok 0
    | Some (Json.Arr l) ->
      let* () =
        each (fun i v -> require (Printf.sprintf "%s[%d]: %s" k i) v spec) l
      in
      Ok (List.length l)
    | Some _ -> Error (Printf.sprintf "%S is not an array" k)
  in
  let value = [ ("actor", `Str); ("name", `Str); ("value", `Num) ] in
  let* hists =
    records "histograms"
      [ ("cat", `Str); ("count", `Num); ("p50_us", `Num); ("p99_us", `Num) ]
  in
  let* counters = records "counters" value in
  let* _gauges = records "gauges" value in
  let* windows =
    records "windows"
      [
        ("t0_ns", `Num);
        ("len_ns", `Num);
        ("epochs", `Num);
        ("epoch_p50_us", `Num);
        ("epoch_p99_us", `Num);
        ("availability", `Num);
      ]
  in
  let* () =
    if s = metrics_schema || s = "hftsim-metrics/1" then Ok ()
    else
      Error
        (Printf.sprintf "metrics schema %S, expected %S (or the /1 subset)" s
           metrics_schema)
  in
  let drops = Option.fold ~none:0 ~some:int_of_float (num "dropped_events" top) in
  Ok { (summary `Metrics ~drops (tally ())) with hists; counters; windows }

let validate content =
  match Json.parse (String.trim content) with
  | Ok top when Json.member "traceEvents" top <> None -> (
    match Option.bind (Json.member "traceEvents" top) Json.to_list_opt with
    | Some evs -> validate_chrome evs
    | None -> Error "\"traceEvents\" array missing")
  | Ok top -> (
    match str "schema" top with
    | Some s when String.starts_with ~prefix:"hftsim-metrics/" s ->
      validate_metrics top s
    | _ -> validate_jsonl content)
  | Error _ -> validate_jsonl content

let pp_summary fmt s =
  match s.format with
  | `Metrics ->
    Format.fprintf fmt
      "%s: %d histograms, %d counters, %d windows%s"
      metrics_schema s.hists s.counters s.windows
      (if s.drops > 0 then
         Printf.sprintf ", %d dropped event(s)" s.drops
       else "")
  | (`Chrome | `Jsonl) as f ->
    Format.fprintf fmt
      "%s: %d events, %d spans across %d categories%s, %d histograms%s"
      (match f with `Chrome -> "chrome trace" | `Jsonl -> schema)
      s.events s.spans
      (List.length s.span_cats)
      (match s.span_cats with
      | [] -> ""
      | cats -> " (" ^ String.concat ", " cats ^ ")")
      s.hists
      (if s.drops > 0 then
         Printf.sprintf ", %d dropped event(s)" s.drops
       else "")
