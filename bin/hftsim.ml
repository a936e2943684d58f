(* hftsim: command-line driver for the fault-tolerant virtual machine.

   Subcommands:
   - run:       execute one workload, bare or replicated, with optional
                crash injection, reintegration and hypervisor faults,
                and print the outcome and the requested trace artifacts;
   - validate:  structurally check a trace or metrics artifact;
   - model:     evaluate the analytic models of section 4;
   - reproduce: regenerate the paper's section-4 evaluation;
   - chaos, check: randomized and exhaustive fault exploration;
   - lint, profile, disasm, bench: analysis and host-side tooling. *)

open Cmdliner
open Hft_core

(* ---------- shared argument parsing ---------- *)

(* The named workloads, by CLI key: one table drives parsing, the
   help text, the printed default and [lint --all]. *)
let workloads =
  let open Hft_guest.Workload in
  [
    ("cpu", fun () -> dhrystone ~iterations:20_000);
    ("write", fun () -> disk_write ~ops:24 ());
    ("read", fun () -> disk_read ~ops:24 ());
    ("mixed", fun () -> mixed ~compute:100 ~ops:12 ());
    ("clock", fun () -> clock_sampler ~samples:2_000);
    ("timer", fun () -> timer_tick ~period_us:1000 ~ticks:50);
    ( "hello",
      fun () -> console_hello ~text:"hello from the replicated machine\n" );
    ("probe", fun () -> probe_priv);
    ("masked", fun () -> masked_io ~ops:4);
    ("queued", fun () -> queued_io ~pairs:8);
    ("server", fun () -> server ~requests:10 ~period_us:3000);
  ]

let workload_names = List.map fst workloads

let workload_of_string s =
  match List.assoc_opt s workloads with
  | Some make -> Ok (make ())
  | None ->
    Error
      (`Msg
        (Printf.sprintf "unknown workload %S (%s)" s
           (String.concat "|" workload_names)))

(* Print a workload as the key that parses back to it. *)
let workload_conv =
  let pp fmt (w : Hft_guest.Workload.t) =
    let name = w.Hft_guest.Workload.name in
    List.find_map
      (fun (key, make) ->
        if (make ()).Hft_guest.Workload.name = name then Some key else None)
      workloads
    |> Option.value ~default:name
    |> Format.pp_print_string fmt
  in
  Arg.conv (workload_of_string, pp)

let workload_arg =
  Arg.(
    value
    & opt workload_conv (List.assoc "cpu" workloads ())
    & info [ "w"; "workload" ] ~docv:"NAME"
        ~doc:
          (Printf.sprintf "Workload: %s."
             (String.concat ", " workload_names)))

let positive_int =
  Arg.conv
    ( (fun s ->
        match int_of_string_opt s with
        | Some n when n > 0 -> Ok n
        | _ ->
          Error (`Msg (Printf.sprintf "expected a positive integer, got %S" s))),
      Format.pp_print_int )

let epoch_arg =
  Arg.(
    value
    & opt positive_int Params.default.Params.epoch_length
    & info [ "e"; "epoch" ] ~docv:"N" ~doc:"Epoch length in instructions.")

let protocol_conv =
  Arg.conv
    ( (function
       | "original" | "old" -> Ok Params.Original
       | "revised" | "new" -> Ok Params.Revised
       | s -> Error (`Msg (Printf.sprintf "unknown protocol %S" s))),
      fun fmt p -> Params.pp_protocol fmt p )

let protocol_arg =
  Arg.(
    value
    & opt protocol_conv Params.Original
    & info [ "p"; "protocol" ] ~docv:"P"
        ~doc:"Replica-coordination protocol: original or revised.")

let link_conv =
  Arg.conv
    ( (function
       | "ethernet" -> Ok Hft_net.Link.ethernet
       | "atm" -> Ok Hft_net.Link.atm
       | s -> Error (`Msg (Printf.sprintf "unknown link %S" s))),
      fun fmt l -> Format.pp_print_string fmt l.Hft_net.Link.name )

let link_arg =
  Arg.(
    value
    & opt link_conv Hft_net.Link.ethernet
    & info [ "l"; "link" ] ~docv:"LINK"
        ~doc:"Hypervisor-to-hypervisor link: ethernet or atm.")

let mechanism_conv =
  Arg.conv
    ( (function
       | "recovery" | "recovery-register" -> Ok Params.Recovery_register
       | "rewriting" | "code-rewriting" -> Ok Params.Code_rewriting
       | s -> Error (`Msg (Printf.sprintf "unknown epoch mechanism %S" s))),
      fun fmt m ->
        Format.pp_print_string fmt
          (match m with
          | Params.Recovery_register -> "recovery-register"
          | Params.Code_rewriting -> "code-rewriting") )

let mechanism_arg =
  Arg.(
    value
    & opt mechanism_conv Params.Recovery_register
    & info [ "m"; "mechanism" ] ~docv:"M"
        ~doc:
          "Epoch mechanism: recovery-register (the PA-RISC feature the            prototype used) or code-rewriting (section 2.1's object-code            editing alternative).")

let backend_conv =
  Arg.conv
    ( (fun s ->
        match Params.backend_of_name s with
        | Some b -> Ok b
        | None ->
          Error
            (`Msg
              (Printf.sprintf
                 "unknown backend %S (interp|threaded|differential)" s))),
      Params.pp_backend )

let backend_arg =
  Arg.(
    value
    & opt backend_conv Params.Interp
    & info [ "backend" ] ~docv:"B"
        ~doc:
          "Guest execution backend: interp (the reference interpreter), \
           threaded (manifest-certified superblocks pre-decoded into \
           direct-threaded closure chains, interpreter on the cold path), \
           or differential (the primary runs threaded while the backup \
           runs the interpreter as an oracle; the first state-digest \
           divergence at an epoch boundary is fatal).")

let params_of ?(backend = Params.Interp) ~epoch ~protocol ~link ~mechanism () =
  {
    (Params.with_link
       (Params.with_protocol (Params.with_epoch_length Params.default epoch)
          protocol)
       link)
    with
    Params.epoch_mechanism = mechanism;
    exec_backend = backend;
  }

(* ---------- observability artifacts ---------- *)

module Obs = Hft_obs
module Campaign = Hft_harness.Campaign

let hv_fault_conv =
  Arg.conv
    ( (fun s ->
        match Campaign.hv_fault_spec_of_string s with
        | Ok f -> Ok f
        | Error m -> Error (`Msg m)),
      fun fmt f ->
        Format.pp_print_string fmt (Campaign.hv_fault_spec_to_string f) )

(* The edge every saved image comes in by, loaded while the command
   line is parsed: a directory or a malformed image is a reported usage
   error (exit 124), never an escaping exception. *)
let image_file =
  let parse path =
    Result.bind (Arg.conv_parser Arg.non_dir_file path) (fun path ->
        match Hft_machine.Image.load ~path with
        | program -> Ok (path, program)
        | exception Hft_machine.Image.Format_error m ->
          Error (`Msg (Printf.sprintf "%s: malformed image: %s" path m)))
  in
  Arg.conv (parse, fun fmt (path, _) -> Format.pp_print_string fmt path)

exception Unwritable of string

(* The edge every artifact leaves by: [path = "-"] is stdout.  A path
   that cannot be written raises [Unwritable]; see [writes]. *)
let write_file path contents =
  if path = "-" then print_string contents
  else
    try Out_channel.with_open_bin path (fun oc -> output_string oc contents)
    with Sys_error m ->
      let prefix = path ^ ": " in
      let reason =
        if String.starts_with ~prefix m then
          String.sub m (String.length prefix)
            (String.length m - String.length prefix)
        else m
      in
      raise (Unwritable (Printf.sprintf "cannot write %s: %s" path reason))

(* A command body that writes artifacts: a path that cannot be written
   is a reported error (exit 124) after whatever the command has
   printed, never an escaping [Sys_error]. *)
let writes body = try body () with Unwritable m -> `Error (false, m)

(* JSON documents are pretty-printed for people; pass [~pretty:false]
   for machine-only ones. *)
let write_json ?(pretty = true) path v =
  write_file path (Obs.Json.to_string ~pretty v ^ "\n")

let trace_out_arg =
  Arg.(
    value & opt_all string []
    & info [ "trace-out" ] ~docv:"FILE"
        ~doc:
          "Write the run's protocol timeline to FILE (repeatable).  A name \
           ending in $(b,.jsonl) gets the hftsim-trace/1 JSONL stream \
           (events, reconstructed spans, histogram summaries); $(b,-) \
           writes that stream to stdout and, under $(b,run), suppresses all \
           other output; any other name gets Chrome trace-event JSON \
           (loadable in ui.perfetto.dev or chrome://tracing).")

(* Shared post-run artifact emission: the last [events] recorded
   events, one trace file per [trace_out] path, metrics JSON, the
   span-quantile table, and — whenever a crash was recorded — the
   failover post-mortem timeline.  A [trace_out] of "-" puts the JSONL
   stream on stdout, so nothing else is printed.  [registry] is the
   windowed aggregation registry tapped into the recorder at creation:
   its counters and windows go into the hftsim-metrics/2 artifact and,
   under [--metrics], a windowed-summary table — aggregates survive
   ring wraparound because the tap saw every event. *)
let window_rows registry =
  List.filter_map
    (fun (w : Obs.Metrics.window) ->
      if w.Obs.Metrics.w_len_ns = 0 then None
      else
        Some
          [
            Printf.sprintf "%.1f" (float w.Obs.Metrics.w_t0_ns /. 1e6);
            Printf.sprintf "%.1f" (float w.Obs.Metrics.w_len_ns /. 1e6);
            string_of_int w.Obs.Metrics.w_epochs;
            Printf.sprintf "%.1f" (Obs.Hist.p50_us w.Obs.Metrics.w_epoch);
            Printf.sprintf "%.1f" (Obs.Hist.p99_us w.Obs.Metrics.w_epoch);
            string_of_int (Obs.Hist.count w.Obs.Metrics.w_ack);
            Printf.sprintf "%.1f" (Obs.Hist.p99_us w.Obs.Metrics.w_ack);
            Printf.sprintf "%.4f" (Obs.Metrics.availability w);
          ])
    (Obs.Metrics.windows registry)

let print_events obs entries n =
  let skip = max 0 (List.length entries - n) in
  if skip > 0 then
    Format.printf "... (%d earlier events; %d recorded in total)@." skip
      (Obs.Recorder.total_recorded obs);
  List.iteri
    (fun i (e : Obs.Recorder.entry) ->
      if i >= skip then
        Format.printf "%10.3fms %-8s %a@."
          (Hft_sim.Time.to_ms e.Obs.Recorder.time)
          e.Obs.Recorder.source Obs.Event.pp e.Obs.Recorder.ev)
    entries

let emit_artifacts ?(trace_out = []) ?(events = 0) ?(metrics = false)
    ?(metrics_out = None) ?registry obs =
  if Obs.Recorder.enabled obs then begin
    let quiet = List.mem "-" trace_out in
    let say fmt =
      if quiet then Format.ifprintf Format.std_formatter fmt
      else Format.printf fmt
    in
    let entries = Obs.Recorder.entries obs in
    let dropped = Obs.Recorder.dropped obs in
    if dropped > 0 then
      say
        "warning: ring wraparound discarded %d oldest event(s); spans and \
         timelines below are incomplete (windowed aggregates are not)@."
        dropped;
    if events > 0 && not quiet then print_events obs entries events;
    List.iter
      (fun path ->
        if path = "-" || Filename.check_suffix path ".jsonl" then begin
          write_file path
            (Obs.Json.to_lines (Obs.Export.jsonl ~dropped entries));
          say "trace written  : %s (%s JSONL)@." path Obs.Export.schema
        end
        else begin
          write_json ~pretty:false path (Obs.Export.chrome entries);
          say "trace written  : %s (chrome trace-event JSON)@." path
        end)
      trace_out;
    let hists =
      lazy (Obs.Span.histograms (Obs.Span.of_entries entries))
    in
    (match metrics_out with
    | Some path ->
      write_json path
        (Obs.Export.metrics_json ?registry ~dropped (Lazy.force hists));
      say "metrics written: %s (%s)@." path Obs.Export.metrics_schema
    | None -> ());
    if not quiet then begin
      if metrics then begin
        Hft_harness.Report.span_metrics (Lazy.force hists);
        match registry with
        | Some reg ->
          let rows = window_rows reg in
          if rows <> [] then
            Hft_harness.Report.table ~title:"windowed metrics"
              ~header:
                [
                  "t0_ms"; "len_ms"; "epochs"; "ep_p50us"; "ep_p99us";
                  "acks"; "ack_p99us"; "avail";
                ]
              rows
        | None -> ()
      end;
      Hft_harness.Report.failover_postmortem entries;
      Hft_harness.Report.recovery_postmortem entries
    end
  end

(* ---------- run ---------- *)

let print_outcome sys (o : System.outcome) =
  Format.printf "completed by   : %s@."
    (match o.System.completed_by with
    | `Primary -> "primary"
    | `Promoted_backup -> "promoted backup (failover)");
  Format.printf "virtual time   : %a@." Hft_sim.Time.pp o.System.time;
  Format.printf "guest results  : %a@." Guest_results.pp o.System.results;
  Format.printf "epochs         : %d (primary)@."
    o.System.primary_stats.Stats.epochs;
  (* each node sends on its own channel, named for its first role *)
  let to_primary = System.channel_to_primary sys in
  Format.printf
    "messages       : %d (%d bytes) from primary, %d (%d bytes) from backup@."
    o.System.messages_sent o.System.bytes_sent
    (Hft_net.Channel.messages_sent to_primary)
    (Hft_net.Channel.bytes_sent to_primary);
  Hft_harness.Report.channel_hardening
    [ o.System.primary_stats; o.System.backup_stats ];
  Hft_harness.Report.recovery
    [ o.System.primary_stats; o.System.backup_stats ];
  Hft_harness.Report.host_hashing
    [ o.System.primary_stats; o.System.backup_stats ];
  Hft_harness.Report.certification
    [ o.System.primary_stats; o.System.backup_stats ];
  Hft_harness.Report.translation
    [ o.System.primary_stats; o.System.backup_stats ];
  Format.printf "lockstep       : %d epoch pairs compared, %d mismatches%s@."
    o.System.epochs_compared
    (List.length o.System.lockstep_mismatches)
    (match o.System.lockstep_mismatches with
    | [] -> ""
    | e :: _ -> Printf.sprintf " (first at epoch %d)" e);
  Format.printf "disk history   : %s@."
    (if o.System.disk_consistent then "single-processor consistent"
     else "INCONSISTENT");
  List.iter (fun e -> Format.printf "  error: %s@." e) o.System.disk_errors;
  if o.System.console <> "" then
    Format.printf "console        : %S@." o.System.console

(* A replicated run fails when its replicas diverged or its disk
   history is not one a single processor could have produced. *)
let run_verdict (o : System.outcome) =
  if o.System.lockstep_mismatches <> [] then `Error (false, "lockstep mismatch")
  else if not o.System.disk_consistent then
    `Error (false, "inconsistent disk history")
  else `Ok ()

let run_bare ~params workload =
  let b = Bare.create ~params ~workload () in
  Bare.init_disk_blocks b;
  let o = Bare.run b in
  Format.printf "bare machine@.";
  Format.printf "virtual time   : %a@." Hft_sim.Time.pp o.Bare.time;
  Format.printf "instructions   : %d@." o.Bare.instructions;
  Format.printf "guest results  : %a@." Guest_results.pp o.Bare.results;
  (match Hft_machine.Cpu.translation (Bare.cpu b) with
  | Some tx when tx.Hft_machine.Translate.threaded_instrs > 0 ->
    Format.printf
      "translation    : %d instructions direct-threaded, %d entries over %d \
       blocks@."
      tx.Hft_machine.Translate.threaded_instrs
      tx.Hft_machine.Translate.entries_taken
      tx.Hft_machine.Translate.translated_blocks
  | _ -> ());
  if o.Bare.console <> "" then
    Format.printf "console        : %S@." o.Bare.console

let run_cmd =
  let bare =
    Arg.(
      value & flag
      & info [ "bare" ] ~doc:"Run on the bare machine, without replication.")
  in
  let crash_ms =
    Arg.(
      value
      & opt (some int) None
      & info [ "crash" ] ~docv:"MS"
          ~doc:"Fail-stop the primary at this many virtual milliseconds.")
  in
  let reintegrate_ms =
    Arg.(
      value
      & opt (some int) None
      & info [ "reintegrate" ] ~docv:"MS"
          ~doc:
            "After a failover, revive the failed node as a new backup this \
             many milliseconds later.  Needs $(b,--crash) or \
             $(b,--hv-fault).")
  in
  let metrics =
    Arg.(
      value & flag
      & info [ "metrics" ]
          ~doc:
            "Print span-duration quantiles (epoch, ack-wait, intr-delay, \
             msg-rtt, rtx-chain, failover) after the run.")
  in
  let metrics_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics-out" ] ~docv:"FILE"
          ~doc:
            "Write the aggregated metrics as machine-readable JSON (schema \
             hftsim-metrics/2: span histograms plus labeled counters and \
             rolling windowed aggregates) to FILE.")
  in
  let events =
    Arg.(
      value & opt int 0
      & info [ "events" ] ~docv:"N"
          ~doc:"Print the last N recorded protocol events after the run.")
  in
  let hv_fault_specs =
    Arg.(
      value
      & opt_all hv_fault_conv []
      & info [ "hv-fault" ] ~docv:"TARGET:KIND:EPOCH"
          ~doc:
            "Seed a hypervisor fault (repeatable): TARGET is primary or \
             backup, KIND is crash, hang, corrupt-epoch, corrupt-acks or \
             corrupt-rtx; the fault strikes mid-way through EPOCH and is \
             healed by an in-place microreboot (ReHype extension).")
  in
  let action workload epoch protocol link mechanism backend bare crash_ms
      reintegrate_ms hv_fault_list trace_out metrics metrics_out events =
    writes @@ fun () ->
    let params = params_of ~backend ~epoch ~protocol ~link ~mechanism () in
    let replicated_only =
      List.filter_map
        (fun (given, flag) -> if given then Some flag else None)
        [
          (crash_ms <> None, "--crash");
          (reintegrate_ms <> None, "--reintegrate");
          (hv_fault_list <> [], "--hv-fault");
          (trace_out <> [], "--trace-out");
          (metrics, "--metrics");
          (metrics_out <> None, "--metrics-out");
          (events > 0, "--events");
        ]
    in
    let negative = function Some ms -> ms < 0 | None -> false in
    if bare && replicated_only <> [] then
      `Error
        ( true,
          Printf.sprintf "--bare runs no replicated system, so %s cannot apply"
            (String.concat ", " replicated_only) )
    else if negative crash_ms || negative reintegrate_ms then
      `Error (true, "--crash and --reintegrate must be >= 0")
    else if events < 0 then `Error (true, "--events must be >= 0")
    else if reintegrate_ms <> None && crash_ms = None && hv_fault_list = []
    then
      `Error
        ( true,
          "nothing fails without --crash or --hv-fault, so --reintegrate \
           cannot apply" )
    else if bare then `Ok (run_bare ~params workload)
    else begin
      let registry = Obs.Metrics.create () in
      let obs =
        if
          trace_out <> [] || metrics || metrics_out <> None || events > 0
          || crash_ms <> None || hv_fault_list <> []
        then Obs.Recorder.create ~tap:(Obs.Metrics.tap registry) ()
        else Obs.Recorder.null
      in
      let sys = System.create ~params ~obs ~workload () in
      (match crash_ms with
      | Some ms -> System.crash_primary_at sys (Hft_sim.Time.of_ms ms)
      | None -> ());
      List.iter
        (fun (f : Campaign.hv_fault_spec) ->
          System.hv_fault_on_epoch sys ~target:f.Campaign.hf_target
            ~kind:f.Campaign.hf_kind f.Campaign.hf_epoch)
        hv_fault_list;
      (match reintegrate_ms with
      | Some ms ->
        System.reintegrate_after_failover sys ~delay:(Hft_sim.Time.of_ms ms)
      | None -> ());
      let quiet = List.mem "-" trace_out in
      if not quiet then
        Format.printf "replicated system (%a)@." Params.pp params;
      let o = System.run sys in
      if not quiet then print_outcome sys o;
      emit_artifacts ~trace_out ~events ~metrics ~metrics_out ~registry obs;
      run_verdict o
    end
  in
  let term =
    Term.(
      ret
        (const action $ workload_arg $ epoch_arg $ protocol_arg $ link_arg
       $ mechanism_arg $ backend_arg $ bare $ crash_ms $ reintegrate_ms
       $ hv_fault_specs $ trace_out_arg $ metrics $ metrics_out $ events))
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:
         "Run one workload, bare or replicated; a replicated run can inject \
          faults and export its protocol timeline.  A replicated run exits \
          124 when an epoch's state hashes differ between the replicas or \
          the disk history is not single-processor consistent.")
    term

(* ---------- validate ---------- *)

let validate_cmd =
  let file =
    Arg.(
      required
      & pos 0 (some non_dir_file) None
      & info [] ~docv:"FILE"
          ~doc:
            "Chrome trace-event JSON, hftsim-trace/1 JSONL or \
             hftsim-metrics/2 JSON.")
  in
  let action path =
    match
      Obs.Export.validate (In_channel.with_open_bin path In_channel.input_all)
    with
    | Ok s ->
      Format.printf "%s: %a@." path Obs.Export.pp_summary s;
      if s.Obs.Export.drops > 0 then
        Format.printf
          "warning: %d event(s) were discarded by ring wraparound before \
           export — the timeline is truncated at its oldest end@."
          s.Obs.Export.drops;
      `Ok ()
    | Error m -> `Error (false, Printf.sprintf "%s: %s" path m)
  in
  Cmd.v
    (Cmd.info "validate"
       ~doc:
         "Structurally validate a trace or metrics artifact, print its \
          summary and exit non-zero if it is malformed.")
    Term.(ret (const action $ file))

(* ---------- model ---------- *)

let model_cmd =
  let action link =
    let els = Hft_model.Model.standard_epoch_lengths @ [ 385_000 ] in
    let rows =
      List.map
        (fun el ->
          [
            string_of_int el;
            Hft_harness.Report.fnum (Hft_model.Model.npc ~link ~el ());
            Hft_harness.Report.fnum
              (Hft_model.Model.npc ~protocol:Hft_model.Model.Revised ~link ~el ());
            Hft_harness.Report.fnum (Hft_model.Model.npw ~link ~el ());
            Hft_harness.Report.fnum (Hft_model.Model.npr ~link ~el ());
          ])
        els
    in
    Hft_harness.Report.table
      ~title:(Printf.sprintf "analytic models on %s" link.Hft_net.Link.name)
      ~header:[ "EL"; "NPC"; "NPC(new)"; "NPW"; "NPR" ]
      rows
  in
  Cmd.v
    (Cmd.info "model" ~doc:"Evaluate the paper's analytic models (section 4).")
    Term.(const action $ link_arg)

(* ---------- reproduce ---------- *)

let reproduce_cmd =
  let action () = if not (Hft_harness.Paper.reproduce ()) then exit 1 in
  Cmd.v
    (Cmd.info "reproduce"
       ~doc:
         "Regenerate the paper's section-4 evaluation (Figures 2-4, Table 1, \
          the section 4.1/4.2 scalars and the ablations) as paper vs model \
          vs simulation, then check the paper's conclusions.  Exits 1 if any \
          shape check fails.")
    Term.(const action $ const ())

(* ---------- chaos ---------- *)

let print_trial (t : Campaign.trial) =
  let s = t.Campaign.schedule in
  Format.printf
    "trial %3d  seed %-19d loss %.3f dup %.3f corr %.3f delay %4dus%s%s%s%s | \
     %4d faults %4d rtx %3d dup-drop %3d corr-drop%s | %s@."
    t.Campaign.index s.Campaign.seed s.Campaign.loss s.Campaign.duplicate
    s.Campaign.corrupt s.Campaign.delay_us
    (match s.Campaign.crash_epoch with
    | Some e -> Printf.sprintf " crash@%d" e
    | None -> "")
    (if s.Campaign.reintegrate then "+reint" else "")
    (match s.Campaign.backup_crash_epoch with
    | Some e -> Printf.sprintf " bkcrash@%d" e
    | None -> "")
    (match s.Campaign.hv_faults with
    | [] -> ""
    | fs ->
      " hv["
      ^ String.concat "," (List.map Campaign.hv_fault_spec_to_string fs)
      ^ "]")
    t.Campaign.faults_injected t.Campaign.retransmits
    t.Campaign.duplicates_dropped t.Campaign.corruptions_detected
    (if t.Campaign.hv_injected = 0 then ""
     else
       Printf.sprintf " %d hv-fault %d reboot %d esc" t.Campaign.hv_injected
         t.Campaign.microreboots t.Campaign.recovery_escalations)
    (match t.Campaign.violations with
    | [] -> "PASS"
    | v :: _ -> "FAIL: " ^ v)

(* Aggregate recovery-window quantiles plus a machine-readable summary
   of the whole campaign ("hftsim-chaos/1") for CI artifact upload. *)
let recovery_window_hist trials =
  let h = Obs.Hist.create () in
  List.iter
    (fun (t : Campaign.trial) ->
      List.iter (Obs.Hist.add h) t.Campaign.recovery_windows)
    trials;
  h

let chaos_summary_json ~workload ~seed ~trials (s : Campaign.summary) =
  let module J = Obs.Json in
  let sum f =
    J.int (List.fold_left (fun acc t -> acc + f t) 0 s.Campaign.trials)
  in
  let h = recovery_window_hist s.Campaign.trials in
  J.Obj
    [
      ("schema", J.Str "hftsim-chaos/1");
      ("workload", J.Str workload);
      ("seed", J.int seed);
      ("trials", J.int trials);
      ("passed", J.int (trials - List.length s.Campaign.failures));
      ("failed", J.int (List.length s.Campaign.failures));
      ("channel_faults", sum (fun t -> t.Campaign.faults_injected));
      ("retransmits", sum (fun t -> t.Campaign.retransmits));
      ("hv_faults", sum (fun t -> t.Campaign.hv_injected));
      ("microreboots", sum (fun t -> t.Campaign.microreboots));
      ("recovery_escalations", sum (fun t -> t.Campaign.recovery_escalations));
      ("reconciled_ios", sum (fun t -> t.Campaign.reconciled_ios));
      ("reconciled_msgs", sum (fun t -> t.Campaign.reconciled_msgs));
      ( "recovery_window_us",
        J.Obj
          [
            ("count", J.int (Obs.Hist.count h));
            ("p50", J.fixed 3 (Obs.Hist.p50_us h));
            ("p99", J.fixed 3 (Obs.Hist.p99_us h));
            ("max", J.fixed 3 (Obs.Hist.max_us h));
          ] );
      ( "failures",
        J.Arr
          (List.map
             (fun ((t : Campaign.trial), shrunk) ->
               J.Obj
                 [
                   ("index", J.int t.Campaign.index);
                   ( "violation",
                     J.Str
                       (match t.Campaign.violations with
                       | v :: _ -> v
                       | [] -> "") );
                   ("flags", J.Str (Campaign.flags shrunk));
                 ])
             s.Campaign.failures) );
    ]

let chaos_cmd =
  let seed_arg =
    Arg.(
      value & opt int 1
      & info [ "seed" ] ~docv:"N"
          ~doc:
            "Campaign master seed (or, with $(b,--exact), the trial's own \
             channel seed).")
  in
  let trials_arg =
    Arg.(
      value & opt int 50
      & info [ "trials" ] ~docv:"N" ~doc:"Number of randomized trials.")
  in
  let loss_arg =
    Arg.(
      value & opt float 0.25
      & info [ "loss" ] ~docv:"P"
          ~doc:"Message-loss probability: sampling cap, or exact rate with \
                $(b,--exact).")
  in
  let dup_arg =
    Arg.(
      value & opt float 0.15
      & info [ "dup" ] ~docv:"P" ~doc:"Duplication probability (cap/exact).")
  in
  let corrupt_arg =
    Arg.(
      value & opt float 0.1
      & info [ "corrupt" ] ~docv:"P"
          ~doc:"Payload-corruption probability (cap/exact).")
  in
  let delay_arg =
    Arg.(
      value & opt int 3000
      & info [ "delay-us" ] ~docv:"US"
          ~doc:"Maximum extra delivery delay in microseconds (cap/exact).")
  in
  let no_retransmit =
    Arg.(
      value & flag
      & info [ "no-retransmit" ]
          ~doc:
            "Disable the retransmission hardening: the protocol trusts the \
             paper's reliable-channel assumption on a channel that no longer \
             honours it.  The campaign is expected to catch violations.")
  in
  let exact =
    Arg.(
      value & flag
      & info [ "exact" ]
          ~doc:
            "Run a single trial with exactly the given rates and crash \
             schedule instead of sampling a campaign (replays a failing \
             trial printed by the shrinker).")
  in
  let crash_epoch =
    Arg.(
      value & opt (some int) None
      & info [ "crash-epoch" ] ~docv:"E"
          ~doc:"With $(b,--exact): fail the primary at this epoch boundary.")
  in
  let backup_crash_epoch =
    Arg.(
      value & opt (some int) None
      & info [ "backup-crash-epoch" ] ~docv:"E"
          ~doc:"With $(b,--exact): fail the backup at this epoch boundary.")
  in
  let reintegrate =
    Arg.(
      value & flag
      & info [ "reintegrate" ]
          ~doc:
            "With $(b,--exact) and $(b,--crash-epoch) or $(b,--hv-fault): \
             after the failover, revive the crashed primary as a new \
             backup.")
  in
  let no_shrink =
    Arg.(
      value & flag
      & info [ "no-shrink" ] ~doc:"Do not shrink failing schedules.")
  in
  let hv_faults_flag =
    Arg.(
      value & flag
      & info [ "hv-faults" ]
          ~doc:
            "Also sample hypervisor faults (ReHype extension): crashes, \
             hangs and recovery-block corruption, up to two per trial, \
             healed by in-place microreboot or escalated to fail-stop.")
  in
  let hv_fault_specs =
    Arg.(
      value
      & opt_all hv_fault_conv []
      & info [ "hv-fault" ] ~docv:"TARGET:KIND:EPOCH"
          ~doc:
            "With $(b,--exact): seed this hypervisor fault (repeatable). \
             TARGET is primary or backup; KIND is crash, hang, \
             corrupt-epoch, corrupt-acks or corrupt-rtx; the fault strikes \
             mid-way through EPOCH.")
  in
  let json_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"PATH"
          ~doc:
            "Write the campaign summary as machine-readable JSON (schema \
             hftsim-chaos/1) to PATH.")
  in
  let action workload epoch protocol link backend seed trials loss dup corrupt
      delay_us no_retransmit exact crash_epoch backup_crash_epoch reintegrate
      no_shrink hv_faults hv_fault_list json trace_out =
    writes @@ fun () ->
    (* written so that NaN, which fails every comparison, is bad *)
    let bad_rate r = not (r >= 0. && r < 1.) in
    let bad_epoch = function Some e -> e < 0 | None -> false in
    let exact_only =
      List.filter_map
        (fun (given, flag) -> if given then Some flag else None)
        [
          (crash_epoch <> None, "--crash-epoch");
          (backup_crash_epoch <> None, "--backup-crash-epoch");
          (reintegrate, "--reintegrate");
          (hv_fault_list <> [], "--hv-fault");
          (trace_out <> [], "--trace-out");
        ]
    in
    if bad_rate loss || bad_rate dup || bad_rate corrupt || delay_us < 0 then
      `Error
        ( true,
          "fault rates must satisfy 0 <= rate < 1 and --delay-us must be >= 0"
        )
    else if bad_epoch crash_epoch || bad_epoch backup_crash_epoch then
      `Error (true, "--crash-epoch and --backup-crash-epoch must be >= 0")
    else if trials < 0 then `Error (true, "--trials must be >= 0")
    else if (not exact) && exact_only <> [] then
      `Error
        ( true,
          Printf.sprintf
            "a campaign samples its own fault schedule, so %s cannot apply \
             without --exact"
            (String.concat ", " exact_only) )
    else if reintegrate && crash_epoch = None && hv_fault_list = [] then
      `Error
        ( true,
          "nothing fails the primary without --crash-epoch or --hv-fault, \
           so --reintegrate cannot apply" )
    else begin
    let params =
      params_of ~backend ~epoch ~protocol ~link
        ~mechanism:Params.Recovery_register ()
    in
    let params = Params.with_retransmit params (not no_retransmit) in
    let cfg =
      {
        (Campaign.default_config ~params ~hv_faults ~workload ~trials ~seed ())
        with
        Campaign.max_loss = loss;
        max_duplicate = dup;
        max_corrupt = corrupt;
        max_delay_us = delay_us;
      }
    in
    if exact then begin
      let s =
        {
          Campaign.seed;
          loss;
          duplicate = dup;
          corrupt;
          delay_us;
          crash_epoch;
          backup_crash_epoch;
          reintegrate;
          hv_faults = hv_fault_list;
        }
      in
      let reference = Campaign.reference cfg in
      let obs =
        if trace_out <> [] then Obs.Recorder.create ()
        else Obs.Recorder.null
      in
      let t = Campaign.run_trial ~obs cfg ~reference ~index:0 s in
      print_trial t;
      List.iter (fun v -> Format.printf "  violation: %s@." v)
        t.Campaign.violations;
      emit_artifacts ~trace_out obs;
      if t.Campaign.violations = [] then `Ok ()
      else `Error (false, "invariant violation")
    end
    else begin
      Format.printf
        "chaos campaign: %d trials of %s, seed %d, retransmit %s%s@."
        trials workload.Hft_guest.Workload.name seed
        (if no_retransmit then "OFF" else "on")
        (if hv_faults then ", hv faults on" else "");
      let summary =
        Campaign.run ~shrink_failures:(not no_shrink) ~on_trial:print_trial
          cfg
      in
      let nfail = List.length summary.Campaign.failures in
      Format.printf "@.%d/%d trials passed every invariant@."
        (trials - nfail) trials;
      let hv_total =
        List.fold_left
          (fun acc (t : Campaign.trial) -> acc + t.Campaign.hv_injected)
          0 summary.Campaign.trials
      in
      if hv_total > 0 then begin
        let sum f =
          List.fold_left
            (fun acc t -> acc + f t)
            0 summary.Campaign.trials
        in
        Format.printf
          "hv recovery    : %d faults, %d microreboots, %d ios + %d msgs \
           reconciled, %d escalations@."
          hv_total
          (sum (fun t -> t.Campaign.microreboots))
          (sum (fun t -> t.Campaign.reconciled_ios))
          (sum (fun t -> t.Campaign.reconciled_msgs))
          (sum (fun t -> t.Campaign.recovery_escalations));
        let h = recovery_window_hist summary.Campaign.trials in
        if Obs.Hist.count h > 0 then
          Format.printf
            "recovery window: %d samples, p50 %.1f us, p99 %.1f us, max %.1f \
             us@."
            (Obs.Hist.count h) (Obs.Hist.p50_us h) (Obs.Hist.p99_us h)
            (Obs.Hist.max_us h)
      end;
      (match json with
      | Some path ->
        write_json path
          (chaos_summary_json ~workload:workload.Hft_guest.Workload.name
             ~seed ~trials summary);
        Format.printf "summary written: %s@." path
      | None -> ());
      List.iter
        (fun ((t : Campaign.trial), shrunk) ->
          Format.printf "@.trial %d FAILED:@." t.Campaign.index;
          List.iter
            (fun v -> Format.printf "  violation: %s@." v)
            t.Campaign.violations;
          Format.printf "  reproduce: hftsim chaos -w %s -e %d -p %a%s %s@."
            workload.Hft_guest.Workload.name epoch Params.pp_protocol protocol
            (if no_retransmit then " --no-retransmit" else "")
            (Campaign.flags t.Campaign.schedule);
          if shrunk <> t.Campaign.schedule then
            Format.printf "  shrunk to: hftsim chaos -w %s -e %d -p %a%s %s@."
              workload.Hft_guest.Workload.name epoch Params.pp_protocol
              protocol
              (if no_retransmit then " --no-retransmit" else "")
              (Campaign.flags shrunk))
        summary.Campaign.failures;
      if nfail = 0 then `Ok () else `Error (false, "invariant violations")
    end
    end
  in
  let term =
    Term.(
      ret
        (const action $ workload_arg $ epoch_arg $ protocol_arg $ link_arg
       $ backend_arg $ seed_arg $ trials_arg $ loss_arg $ dup_arg
       $ corrupt_arg $ delay_arg $ no_retransmit $ exact $ crash_epoch
       $ backup_crash_epoch $ reintegrate $ no_shrink $ hv_faults_flag
       $ hv_fault_specs $ json_arg $ trace_out_arg))
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Randomized fault-injection campaign: seeded loss, duplication, \
          corruption, delivery jitter, crashes and (with $(b,--hv-faults)) \
          hypervisor faults healed by microreboot, with per-trial invariant \
          checking against the bare machine and shrinking of failing \
          schedules.")
    term

(* ---------- profiling drivers ---------- *)

(* Wrap a loaded image file in a workload record so the bare executor
   can drive it.  No configuration words: an image carries none. *)
let workload_of_program ~name program =
  {
    Hft_guest.Workload.name;
    description = "image under profile";
    program;
    config = [];
    instructions_per_iteration = 70;
  }

(* Run a workload to completion on the bare machine with the
   retirement profiler armed.  Returns the CPU (for its profile array)
   and whether the guest halted within the fuel limit; a partial run
   still yields usable counters. *)
let driven_bare ~params ~limit workload =
  let b = Bare.create ~params ~workload () in
  Hft_machine.Cpu.install_profile (Bare.cpu b);
  Bare.init_disk_blocks b;
  let halted =
    try ignore (Bare.run ~limit b) ; true
    with Failure _ | Hft_sim.Engine.Runaway _ -> false
  in
  (Bare.cpu b, halted)

(* Fold the manifest's basic blocks into the machine-agnostic shape
   {!Hft_obs.Profile.attribute} takes, with each certified region
   rendered as a collapsed-stack frame named by its symbolized head. *)
let profile_blocks m ~symbol =
  let open Hft_analysis in
  List.map
    (fun (b : Manifest.block) ->
      let region =
        if b.Manifest.region < 0 then None
        else
          List.find_opt
            (fun (s : Manifest.superblock) -> s.Manifest.sid = b.Manifest.region)
            m.Manifest.superblocks
          |> Option.map (fun (s : Manifest.superblock) ->
                 Printf.sprintf "sb%d@%s" s.Manifest.sid (symbol s.Manifest.head))
      in
      {
        Obs.Profile.b_leader = b.Manifest.leader;
        b_len = b.Manifest.len;
        b_region = region;
      })
    m.Manifest.blocks

let symbolizer (workload : Hft_guest.Workload.t) =
  Hft_analysis.Symtab.resolve
    (Hft_analysis.Symtab.of_program workload.Hft_guest.Workload.program)

(* ---------- lint ---------- *)

let lint_cmd =
  let all_arg =
    Arg.(
      value & flag
      & info [ "all" ]
          ~doc:
            "Lint every named workload, as assembled and after object-code \
             editing at the default epoch length.")
  in
  let image_arg =
    Arg.(
      value
      & opt (some image_file) None
      & info [ "image" ] ~docv:"FILE"
          ~doc:"Lint a saved program image (HFT1 format) instead of a \
                workload.")
  in
  let rewrite_el =
    Arg.(
      value
      & opt (some positive_int) None
      & info [ "rewrite" ] ~docv:"EL"
          ~doc:
            "Rewrite the image for object-code editing with this epoch \
             length first, then lint the result with the rewritten-image \
             rules (counter-register reservation, cycle coverage).")
  in
  let rewritten_arg =
    Arg.(
      value & flag
      & info [ "rewritten" ]
          ~doc:
            "Treat the input as already rewritten: apply the \
             rewritten-image rules without editing it again (for images \
             saved with $(b,disasm --rewrite --save)).")
  in
  let strict_arg =
    Arg.(
      value & flag
      & info [ "strict" ] ~doc:"Exit non-zero on warnings, not just errors.")
  in
  let json_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"PATH"
          ~doc:
            "Write the findings as machine-readable JSON \
             (schema hftsim-lint/4, including a per-image compilation \
             manifest summary) to PATH; \
             $(b,-) writes JSON to stdout and suppresses the human \
             report.")
  in
  let sarif_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "sarif" ] ~docv:"PATH"
          ~doc:
            "Write the findings as a SARIF 2.1.0 log (one run, driver \
             $(b,hftsim-lint), one result per finding with the guest \
             address as the line number) to PATH; $(b,-) writes SARIF \
             to stdout and suppresses the human report.")
  in
  let manifest_arg =
    Arg.(
      value & flag
      & info [ "manifest" ]
          ~doc:
            "Print each image's compilation-manifest summary (certified \
             blocks/superblocks, coverage, indirect-jump resolution).")
  in
  let manifest_out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "manifest-out" ] ~docv:"PATH"
          ~doc:
            "Write the compilation manifest(s) as JSON: schema \
             hftsim-manifest/4 for a single image, hftsim-manifest-set/1 \
             (one manifest per analyzed image) with $(b,--all).")
  in
  let manifest_baseline_arg =
    Arg.(
      value
      & opt (some non_dir_file) None
      & info [ "manifest-baseline" ] ~docv:"FILE"
          ~doc:
            "Compare certification against a committed manifest-set \
             baseline: exit non-zero if any image in both sets lost \
             certified blocks, certified superblocks, or static coverage.")
  in
  let lint_one ~quiet ~title ~rewritten ~rewrite_el ~data_init program =
    let program, rewritten =
      match rewrite_el with
      | Some el -> (Hft_machine.Rewrite.rewrite_program ~every:el program, true)
      | None -> (program, rewritten)
    in
    (* one solve feeds both the findings and the manifest *)
    let solved =
      Hft_analysis.Analysis.solve ~rewritten
        ~code_refs:program.Hft_machine.Asm.code_refs
        program.Hft_machine.Asm.code
    in
    let fs =
      Hft_analysis.Analysis.findings ~data_init
        ~syms:(Hft_analysis.Symtab.of_program program)
        solved
    in
    if not quiet then Hft_harness.Report.findings ~title fs;
    (title, fs, Hft_analysis.Manifest.of_solved solved)
  in
  let module J = Obs.Json in
  let module F = Hft_analysis.Finding in
  let module M = Hft_analysis.Manifest in
  let lint_json runs =
    let manifest_summary (m : M.t) =
      J.Obj
        [
          ("image_hash", J.Str (Printf.sprintf "0x%x" m.M.image_hash));
          ("instructions", J.int m.M.instructions);
          ("blocks", J.int (List.length m.M.blocks));
          ("certified_blocks", J.int (M.certified_blocks m));
          ("superblocks", J.int (List.length m.M.superblocks));
          ("certified_superblocks", J.int (M.certified_superblocks m));
          ("static_coverage", J.fixed 4 (M.static_coverage m));
          ("jr_sites", J.int m.M.jr_sites);
          ("jr_unresolved", J.int m.M.jr_unresolved);
          ("jr_resolved_by_vsa", J.int m.M.jr_resolved_by_vsa);
          ("fixpoint_iterations", J.int m.M.fixpoint_iterations);
        ]
    in
    let finding (f : F.t) =
      J.Obj
        [
          ("checker", J.Str f.F.checker);
          ("severity", J.Str (F.severity_name f.F.severity));
          ("addr", J.int f.F.addr);
          ("where", J.Str f.F.where);
          ("message", J.Str f.F.message);
        ]
    in
    let all = List.concat_map (fun (_, fs, _) -> fs) runs in
    J.Obj
      [
        ("schema", J.Str "hftsim-lint/4");
        ( "images",
          J.Arr
            (List.map
               (fun (title, fs, manifest) ->
                 J.Obj
                   [
                     ("title", J.Str title);
                     ("findings", J.Arr (List.map finding fs));
                     ("manifest", manifest_summary manifest);
                   ])
               runs) );
        ( "summary",
          J.Obj
            [
              ("errors", J.int (List.length (F.errors all)));
              ("warnings", J.int (List.length (F.warnings all)));
              ("findings", J.int (List.length all));
            ] );
      ]
  in
  (* SARIF 2.1.0: one run, one result per finding.  Guest images have
     no source files, so the artifact is the image title and the
     "line" is the guest instruction address plus one (SARIF lines are
     1-based). *)
  let sarif_json runs =
    let level (f : F.t) =
      match f.F.severity with
      | F.Error -> "error"
      | F.Warning -> "warning"
      | F.Info -> "note"
    in
    let rules =
      List.sort_uniq compare
        (List.concat_map
           (fun (_, fs, _) -> List.map (fun (f : F.t) -> f.F.checker) fs)
           runs)
    in
    let text t = J.Obj [ ("text", J.Str t) ] in
    let rule r =
      J.Obj [ ("id", J.Str r); ("shortDescription", text (r ^ " checker")) ]
    in
    let result title (f : F.t) =
      let location =
        J.Obj
          [
            ("artifactLocation", J.Obj [ ("uri", J.Str title) ]);
            ("region", J.Obj [ ("startLine", J.int (f.F.addr + 1)) ]);
          ]
      in
      J.Obj
        [
          ("ruleId", J.Str f.F.checker);
          ("level", J.Str (level f));
          ("message", text (f.F.message ^ " [" ^ f.F.where ^ "]"));
          ("locations", J.Arr [ J.Obj [ ("physicalLocation", location) ] ]);
        ]
    in
    let driver =
      J.Obj
        [
          ("name", J.Str "hftsim-lint");
          ("informationUri", J.Str "https://example.invalid/hftsim");
          ("rules", J.Arr (List.map rule rules));
        ]
    in
    let results =
      List.concat_map (fun (title, fs, _) -> List.map (result title) fs) runs
    in
    J.Obj
      [
        ("$schema", J.Str "https://json.schemastore.org/sarif-2.1.0.json");
        ("version", J.Str "2.1.0");
        ( "runs",
          J.Arr
            [
              J.Obj
                [
                  ("tool", J.Obj [ ("driver", driver) ]);
                  ("results", J.Arr results);
                ];
            ] );
      ]
  in
  (* A committed manifest-set baseline: certification must not regress
     for any image present in both sets.  New images are fine (they
     extend the baseline); a disappeared image is a regression, and so
     is a baseline the gate cannot read — a wrong schema, no image
     array or an unreadable entry would otherwise pass vacuously. *)
  let manifest_set_schema = "hftsim-manifest-set/1" in
  let regressed title old m =
    let check what o n =
      if n < o then
        [ Printf.sprintf "%s: %s regressed %d -> %d" title what o n ]
      else []
    in
    let check_ratio what o n =
      if n < o -. 1e-9 then
        [ Printf.sprintf "%s: %s regressed %.4f -> %.4f" title what o n ]
      else []
    in
    check "certified blocks" (M.certified_blocks old) (M.certified_blocks m)
    @ check "certified superblocks"
        (M.certified_superblocks old)
        (M.certified_superblocks m)
    @ check_ratio "static coverage" (M.static_coverage old)
        (M.static_coverage m)
  in
  let baseline_regressions ~path runs =
    let bad fmt =
      Printf.ksprintf (fun s -> [ Printf.sprintf "baseline %s: %s" path s ]) fmt
    in
    let entry e =
      match
        ( Option.bind (J.member "title" e) J.to_string_opt,
          Option.map M.of_json (J.member "manifest" e) )
      with
      | None, _ -> bad "an image entry has no string title"
      | Some title, None -> bad "%s: no manifest" title
      | Some title, Some (Error err) -> bad "%s: %s" title err
      | Some title, Some (Ok old) -> (
        match List.find_opt (fun (t, _, _) -> t = title) runs with
        | None ->
          [ Printf.sprintf "%s: present in baseline, not analyzed" title ]
        | Some (_, _, m) -> regressed title old m)
    in
    match J.parse (In_channel.with_open_bin path In_channel.input_all) with
    | Error e -> bad "parse error: %s" e
    | Ok j ->
      let schema =
        match Option.bind (J.member "schema" j) J.to_string_opt with
        | Some s when s = manifest_set_schema -> []
        | Some s -> bad "schema %S, expected %S" s manifest_set_schema
        | None -> bad "no schema"
      in
      schema
      @
      match Option.bind (J.member "images" j) J.to_list_opt with
      | None -> bad "no images array"
      | Some images -> List.concat_map entry images
  in
  let manifest_set_json runs =
    J.Obj
      [
        ("schema", J.Str manifest_set_schema);
        ( "images",
          J.Arr
            (List.map
               (fun (title, _, m) ->
                 J.Obj [ ("title", J.Str title); ("manifest", M.to_json m) ])
               runs) );
      ]
  in
  let action workload all image rewrite_el rewritten strict json sarif
      manifest manifest_out manifest_baseline =
    writes @@ fun () ->
    let ignored_by_all =
      List.filter_map Fun.id
        [
          Option.map (fun _ -> "--image") image;
          (if rewritten then Some "--rewritten" else None);
          Option.map (fun _ -> "--rewrite") rewrite_el;
        ]
    in
    let has_markers (p : Hft_machine.Asm.program) =
      Array.exists
        (function
          | Hft_machine.Isa.Trapc c ->
            c = Hft_machine.Rewrite.epoch_marker_code
          | _ -> false)
        p.Hft_machine.Asm.code
    in
    match (ignored_by_all, image) with
    | flag :: _, _ when all ->
      `Error
        ( true,
          flag
          ^ " cannot be combined with --all, which lints every workload as \
             assembled and rewritten at the default epoch length" )
    | _, Some (path, program) when rewrite_el <> None && has_markers program ->
      `Error
        ( true,
          Printf.sprintf
            "--rewrite: %s already carries epoch markers (trapc %d), so it \
             cannot be rewritten again; lint it with --rewritten"
            path Hft_machine.Rewrite.epoch_marker_code )
    | _ ->
    let quiet = json = Some "-" || sarif = Some "-" in
    let runs =
      if all then
        List.concat_map
          (fun (name, make) ->
            let w = make () in
            let data_init = List.map fst w.Hft_guest.Workload.config in
            let el = Params.default.Params.epoch_length in
            let plain =
              lint_one ~quiet ~title:(name ^ " (as assembled)")
                ~rewritten:false ~rewrite_el:None ~data_init
                w.Hft_guest.Workload.program
            in
            let rewritten =
              lint_one ~quiet
                ~title:(Printf.sprintf "%s (rewritten, EL=%d)" name el)
                ~rewritten:false ~rewrite_el:(Some el) ~data_init
                w.Hft_guest.Workload.program
            in
            [ plain; rewritten ])
          workloads
      else
        match image with
        | Some (path, program) ->
          [
            lint_one ~quiet ~title:path ~rewritten ~rewrite_el ~data_init:[]
              program;
          ]
        | None ->
          [
            lint_one ~quiet ~title:workload.Hft_guest.Workload.name ~rewritten
              ~rewrite_el
              ~data_init:(List.map fst workload.Hft_guest.Workload.config)
              workload.Hft_guest.Workload.program;
          ]
    in
    if manifest && not quiet then
      List.iter
        (fun (title, _, m) ->
          Format.printf "%s: %a@." title Hft_analysis.Manifest.pp_summary m)
        runs;
    let emit path doc =
      write_json path doc;
      if path <> "-" && not quiet then Format.printf "wrote %s@." path
    in
    Option.iter (fun path -> emit path (sarif_json runs)) sarif;
    Option.iter (fun path -> emit path (lint_json runs)) json;
    Option.iter
      (fun path ->
        emit path
          (match runs with
          | [ (_, _, m) ] -> M.to_json m
          | _ -> manifest_set_json runs))
      manifest_out;
    let regressions =
      match manifest_baseline with
      | None -> []
      | Some path -> baseline_regressions ~path runs
    in
    if (not quiet) && regressions <> [] then
      List.iter (fun r -> Format.eprintf "regression: %s@." r) regressions;
    let findings = List.concat_map (fun (_, fs, _) -> fs) runs in
    let errors = List.length (Hft_analysis.Finding.errors findings) in
    let warnings = List.length (Hft_analysis.Finding.warnings findings) in
    if (not quiet) && List.length runs > 1 then
      Format.printf "@.%d image(s): %s@." (List.length runs)
        (Hft_analysis.Finding.summary findings);
    if errors > 0 then
      `Error (false, Printf.sprintf "%d lint error(s)" errors)
    else if regressions <> [] then
      `Error
        ( false,
          Printf.sprintf "%d certification regression(s) vs baseline"
            (List.length regressions) )
    else if strict && warnings > 0 then
      `Error (false, Printf.sprintf "%d lint warning(s) with --strict" warnings)
    else `Ok ()
  in
  let term =
    Term.(
      ret
        (const action $ workload_arg $ all_arg $ image_arg $ rewrite_el
       $ rewritten_arg $ strict_arg $ json_arg $ sarif_arg $ manifest_arg
       $ manifest_out_arg $ manifest_baseline_arg))
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Statically analyze a guest image against the paper's assumptions: \
          privilege/virtualizability (section 3.1), determinism of replica \
          inputs, and epoch-counting safety (section 2.1).  Also certifies \
          the image into a compilation manifest (hftsim-manifest/4): \
          per-block Deterministic/Priv0 certificates over VSA-refined \
          control flow and superblocks \
          ($(b,--manifest)/$(b,--manifest-out)/$(b,--manifest-baseline)).  \
          Exits non-zero if any error-severity finding is reported or \
          certification regressed against the baseline.")
    term

(* ---------- check ---------- *)

let check_cmd =
  let scenario_arg =
    Arg.(
      value & opt string "handoff"
      & info [ "scenario" ] ~docv:"NAME"
          ~doc:"Bounded scenario to explore (see $(b,--list)).")
  in
  let all_arg =
    Arg.(
      value & flag
      & info [ "all" ] ~doc:"Explore every bounded scenario in sequence.")
  in
  let list_arg =
    Arg.(
      value & flag
      & info [ "list" ] ~doc:"List the bounded scenarios and exit.")
  in
  let depth_arg =
    Arg.(
      value
      & opt (some positive_int) None
      & info [ "depth" ] ~docv:"N"
          ~doc:
            "Bound each schedule to N scheduler choices; deeper runs are \
             truncated (and reported, since truncation forfeits the \
             exhaustiveness claim).")
  in
  let max_states_arg =
    Arg.(
      value
      & opt (some positive_int) None
      & info [ "max-states" ] ~docv:"N"
          ~doc:"Stop after visiting N frontier states.")
  in
  let json_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"PATH"
          ~doc:
            "Write the exploration report as machine-readable JSON (schema \
             hftsim-check/1) to PATH; $(b,-) writes it to stdout.")
  in
  let replay_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "replay" ] ~docv:"FILE"
          ~doc:
            "Do not explore; re-execute the serialized counterexample \
             schedule in FILE and report whether it still violates.")
  in
  let save_replay_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "save-replay" ] ~docv:"FILE"
          ~doc:
            "Serialize the first counterexample found to FILE \
             (hftsim-check-replay/1, replayable with $(b,--replay)).")
  in
  let compare_naive_arg =
    Arg.(
      value & flag
      & info [ "compare-naive" ]
          ~doc:
            "After the reduced exploration, rerun without DPOR or \
             fingerprints (state-capped) and report the reduction factor.")
  in
  let no_retransmit_arg =
    Arg.(
      value & flag
      & info [ "no-retransmit" ]
          ~doc:
            "Check the deliberately broken protocol variant that never \
             retransmits unacknowledged messages.")
  in
  let no_ack_wait_arg =
    Arg.(
      value & flag
      & info [ "no-ack-wait" ]
          ~doc:
            "Check the broken variant where the primary delivers epoch \
             outputs without waiting for the backup acknowledgement.")
  in
  let max_violations_arg =
    Arg.(
      value & opt positive_int 1
      & info [ "max-violations" ] ~docv:"N"
          ~doc:"Keep exploring until N counterexamples are found.")
  in
  let no_shrink_arg =
    Arg.(
      value & flag
      & info [ "no-shrink" ]
          ~doc:"Report counterexamples verbatim, without minimization.")
  in
  let print_report (r : Hft_check.Checker.result)
      (naive : Hft_check.Checker.stats option) =
    let open Hft_check.Checker in
    let st = r.r_stats in
    Format.printf "scenario %s: %s@."
      r.r_scenario.Hft_harness.Scenarios.sc_name
      r.r_scenario.Hft_harness.Scenarios.sc_descr;
    Format.printf
      "  variant: retransmit=%b ack_wait=%b@."
      r.r_variant.Hft_harness.Scenarios.retransmit
      r.r_variant.Hft_harness.Scenarios.ack_wait;
    Format.printf
      "  %d runs, %d states, %d transitions (%d executed), max depth %d@."
      st.runs st.states st.transitions st.executed st.max_depth;
    Format.printf "  work: %d snapshots, %d fingerprints@." st.snapshots
      st.fingerprints;
    Format.printf
      "  pruned: %d revisited, %d slept, %d all-asleep; %d truncated run(s)@."
      st.pruned_visited st.sleep_skipped st.sleep_pruned st.truncated_runs;
    (match naive with
    | Some n ->
      let factor =
        if st.states > 0 then float_of_int n.states /. float_of_int st.states
        else 0.
      in
      Format.printf "  naive: %d states in %d runs; reduction factor %.1fx@."
        n.states n.runs factor
    | None -> ());
    if r.r_complete then
      Format.printf "  bounded state space explored to fixpoint@."
    else
      Format.printf
        "  exploration incomplete (capped, truncated or stopped early)@.";
    List.iter
      (fun v ->
        Format.printf "  VIOLATION%s: %s@."
          (if v.v_shrunk then " (shrunk)" else "")
          v.v_reason;
        Format.printf "    roots: [%s]  choices: [%s]@."
          (String.concat " " (List.map string_of_int v.v_roots))
          (String.concat " " (List.map string_of_int v.v_choices)))
      r.r_violations
  in
  let action scenario all list_scenarios depth max_states json replay
      save_replay compare_naive no_retransmit no_ack_wait
      max_violations no_shrink trace_out backend =
    writes @@ fun () ->
    if replay = None && trace_out <> [] then
      `Error
        ( true,
          "an exploration records no single run, so --trace-out cannot \
           apply without --replay" )
    else if list_scenarios then begin
      List.iter
        (fun sc ->
          Format.printf "%-20s %s@." sc.Hft_harness.Scenarios.sc_name
            sc.Hft_harness.Scenarios.sc_descr)
        Hft_harness.Scenarios.all;
      `Ok ()
    end
    else
      match replay with
      | Some path -> (
        match Hft_check.Schedule.load path with
        | Error m -> `Error (false, m)
        | Ok sched -> (
          Format.printf "replaying %s: scenario %s, roots [%s], %d choice(s)@."
            path sched.Hft_check.Schedule.scenario
            (String.concat " "
               (List.map string_of_int sched.Hft_check.Schedule.roots))
            (List.length sched.Hft_check.Schedule.choices);
          let obs =
            if trace_out <> [] then Obs.Recorder.create ()
            else Obs.Recorder.null
          in
          let finish r =
            emit_artifacts ~trace_out obs;
            r
          in
          match Hft_check.Checker.replay ~obs sched with
          | Error m -> `Error (false, m)
          | Ok (Some v) ->
            Format.printf "reproduced: %s@." v;
            finish (`Ok ())
          | Ok None ->
            finish
              (`Error (false, "schedule no longer produces a violation"))))
      | None -> (
        let scenarios =
          if all then Ok Hft_harness.Scenarios.all
          else
            match Hft_harness.Scenarios.find scenario with
            | Some sc -> Ok [ sc ]
            | None ->
              Error
                (Printf.sprintf "unknown scenario %S (try --list)" scenario)
        in
        match scenarios with
        | Error m -> `Error (false, m)
        | Ok scenarios ->
          let scenarios =
            List.map
              (fun sc ->
                {
                  sc with
                  Hft_harness.Scenarios.sc_params =
                    Params.with_exec_backend
                      sc.Hft_harness.Scenarios.sc_params backend;
                })
              scenarios
          in
          let variant =
            {
              Hft_harness.Scenarios.retransmit = not no_retransmit;
              ack_wait = not no_ack_wait;
            }
          in
          let options =
            {
              Hft_check.Checker.default_options with
              depth;
              max_states;
              max_violations;
              shrink = not no_shrink;
            }
          in
          let quiet = json = Some "-" in
          let reports =
            List.map
              (fun sc ->
                let r = Hft_check.Checker.explore ~options sc ~variant in
                let naive =
                  if compare_naive then
                    let naive_options =
                      {
                        options with
                        Hft_check.Checker.dpor = false;
                        fingerprints = false;
                        max_states =
                          Some (Option.value max_states ~default:50_000);
                      }
                    in
                    let nr =
                      Hft_check.Checker.explore ~options:naive_options sc
                        ~variant
                    in
                    Some nr.Hft_check.Checker.r_stats
                  else None
                in
                (r, naive))
              scenarios
          in
          if not quiet then List.iter (fun (r, n) -> print_report r n) reports;
          Option.iter
            (fun path ->
              write_json path
                (match reports with
                | [ (r, naive) ] -> Hft_check.Checker.to_json ?naive r
                | _ ->
                  Obs.Json.Arr
                    (List.map
                       (fun (r, naive) -> Hft_check.Checker.to_json ?naive r)
                       reports));
              if path <> "-" then Format.printf "wrote %s@." path)
            json;
          let first_violation =
            List.find_map
              (fun (r, _) ->
                match r.Hft_check.Checker.r_violations with
                | v :: _ -> Some (r, v)
                | [] -> None)
              reports
          in
          (match (save_replay, first_violation) with
          | Some path, Some (r, v) ->
            write_file path
              (Hft_check.Schedule.to_string
                 (Hft_check.Checker.schedule_of_violation r v));
            Format.printf "counterexample written to %s@." path
          | Some path, None ->
            Format.printf "no counterexample to write to %s@." path
          | None, _ -> ());
          let total_violations =
            List.fold_left
              (fun n (r, _) ->
                n + List.length r.Hft_check.Checker.r_violations)
              0 reports
          in
          if total_violations > 0 then
            `Error
              (false, Printf.sprintf "%d violation(s) found" total_violations)
          else `Ok ())
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Exhaustively model-check the replica-coordination protocol on a \
          bounded scenario: every root fault assignment (crash epoch, \
          single message losses) crossed with every interleaving of \
          co-enabled events, pruned by sleep-set partial-order reduction \
          and canonical state fingerprints.  Invariants (P1-P7 \
          consequences) are checked between every two events; violations \
          are shrunk and serialized as replayable schedules.")
    Term.(
      ret
        (const action $ scenario_arg $ all_arg $ list_arg $ depth_arg
       $ max_states_arg $ json_arg $ replay_arg $ save_replay_arg
       $ compare_naive_arg $ no_retransmit_arg
       $ no_ack_wait_arg $ max_violations_arg $ no_shrink_arg
       $ trace_out_arg $ backend_arg))

(* ---------- bench ---------- *)

let bench_cmd =
  let json_path =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"PATH"
          ~doc:"Also write the results as machine-readable JSON to PATH.")
  in
  let quick =
    Arg.(
      value & flag
      & info [ "quick" ]
          ~doc:
            "Reduced measurement budget for CI smoke runs (noisier numbers, \
             runs in a couple of seconds).")
  in
  let min_speedup =
    Arg.(
      value
      & opt (some float) None
      & info [ "min-speedup" ] ~docv:"R"
          ~doc:
            "Fail (exit non-zero) unless incremental hashing beats full \
             re-hashing by at least this factor at EL=1024.")
  in
  let max_overhead =
    Arg.(
      value
      & opt (some float) None
      & info [ "max-hash-overhead" ] ~docv:"R"
          ~doc:
            "Fail (exit non-zero) if lockstep hashing costs more than R times \
             the no-hashing epoch rate at EL=1024 — a loose guard against \
             accidentally reintroducing full re-hashing.")
  in
  let min_threaded =
    Arg.(
      value
      & opt (some float) None
      & info [ "min-threaded-speedup" ] ~docv:"R"
          ~doc:
            "Fail (exit non-zero) unless direct-threaded execution beats \
             the interpreter by at least this factor (the committed full \
             bench holds 2x; CI's quick smoke gates 1.5x, since quick \
             budgets are noisier).")
  in
  let max_metrics_overhead =
    Arg.(
      value
      & opt (some float) None
      & info [ "max-metrics-overhead" ] ~docv:"R"
          ~doc:
            "Fail (exit non-zero) if driving epoch boundaries through the \
             windowed metrics registry costs more than R times the plain \
             epoch rate (CI gates 1.05x — aggregation-first metrics must \
             stay under 5%%).")
  in
  let max_validator_overhead =
    Arg.(
      value
      & opt (some float) None
      & info [ "max-validator-overhead" ] ~docv:"R"
          ~doc:
            "Fail (exit non-zero) if the plain interpreter runs more than R \
             times as fast as the interpreter with the runtime certificate \
             validator armed, the two measured in alternating windows.")
  in
  let action json_path quick min_speedup max_overhead min_threaded
      max_metrics_overhead max_validator_overhead =
    writes @@ fun () ->
    (* written so that NaN, which fails every comparison, is bad *)
    let bad_ratio = function Some r -> not (r > 0.) | None -> false in
    if
      List.exists bad_ratio
        [
          min_speedup;
          max_overhead;
          min_threaded;
          max_metrics_overhead;
          max_validator_overhead;
        ]
    then
      `Error
        ( true,
          "--min-speedup, --max-hash-overhead, --min-threaded-speedup, \
           --max-metrics-overhead and --max-validator-overhead must be > 0" )
    else
    let b = Hft_harness.Bench_core.run ~quick () in
    Hft_harness.Bench_core.report b;
    (match json_path with
    | Some path ->
      write_json path (Hft_harness.Bench_core.to_json b);
      Format.printf "wrote %s@." path
    | None -> ());
    let p =
      match Hft_harness.Bench_core.point b 1024 with
      | Some p -> p
      | None -> assert false (* 1024 is always measured *)
    in
    let fail fmt = Format.kasprintf (fun m -> `Error (false, m)) fmt in
    if not b.Hft_harness.Bench_core.digest_match then
      fail
        "threaded and interpreter state digests diverged — the translation \
         is architecturally wrong and every threaded number is invalid"
    else if not b.Hft_harness.Bench_core.loop_digest_match then
      fail
        "threaded and interpreter state digests diverged on the loop \
         workload — the translation is architecturally wrong"
    else if not b.Hft_harness.Bench_core.profile_totals_match then
      fail
        "interpreter and threaded per-block retirement counts diverged — \
         the profiler's exactness contract is broken and every hftsim \
         profile attribution is suspect"
    else
      (* each gate is written so that a NaN measurement fails it *)
      match
        ( min_speedup,
          max_overhead,
          min_threaded,
          max_metrics_overhead,
          max_validator_overhead )
      with
      | Some r, _, _, _, _ when not (p.Hft_harness.Bench_core.speedup >= r) ->
        fail
          "incremental hashing speedup %.2fx at EL=1024 is below the %.2fx \
           guard"
          p.Hft_harness.Bench_core.speedup r
      | _, Some r, _, _, _
        when not (p.Hft_harness.Bench_core.hash_overhead <= r) ->
        fail
          "lockstep hashing overhead %.2fx at EL=1024 exceeds the %.2fx guard"
          p.Hft_harness.Bench_core.hash_overhead r
      | _, _, Some r, _, _
        when not (b.Hft_harness.Bench_core.threaded_speedup >= r) ->
        fail "threaded speedup %.2fx is below the %.2fx guard"
          b.Hft_harness.Bench_core.threaded_speedup r
      | _, _, _, Some r, _
        when not (b.Hft_harness.Bench_core.metrics_overhead <= r) ->
        fail "windowed-metrics overhead %.2fx exceeds the %.2fx guard"
          b.Hft_harness.Bench_core.metrics_overhead r
      | _, _, _, _, Some r
        when not (b.Hft_harness.Bench_core.validator_overhead <= r) ->
        fail "validator overhead %.2fx exceeds the %.2fx guard"
          b.Hft_harness.Bench_core.validator_overhead r
      | _ -> `Ok ()
  in
  Cmd.v
    (Cmd.info "bench"
       ~doc:
         "Measure host-side simulator performance: interpreter \
          instructions/sec, epoch boundaries/sec with \
          incremental/full/no lockstep hashing, and snapshot bytes \
          copied.  Unlike the other subcommands, this reports host \
          time, not simulated time.")
    Term.(
      ret
        (const action $ json_path $ quick $ min_speedup $ max_overhead
       $ min_threaded $ max_metrics_overhead $ max_validator_overhead))

(* ---------- disasm ---------- *)

let disasm_cmd =
  let rewrite_el =
    Arg.(
      value
      & opt (some positive_int) None
      & info [ "rewrite" ] ~docv:"EL"
          ~doc:
            "Show the image after object-code editing with this epoch \
             length (section 2.1).")
  in
  let save_path =
    Arg.(
      value
      & opt (some string) None
      & info [ "save" ] ~docv:"FILE"
          ~doc:"Also write the program image to FILE (HFT1 format).")
  in
  let translated_flag =
    Arg.(
      value & flag
      & info [ "translated" ]
          ~doc:
            "Also print the direct-threaded translation listing: every \
             certified superblock's entry prechecks and translated \
             instructions, plus the reason any certified superblock was \
             left to the interpreter.")
  in
  let action workload rewrite_el translated save_path =
    writes @@ fun () ->
    let program = workload.Hft_guest.Workload.program in
    let program, rewritten =
      match rewrite_el with
      | Some el -> (Hft_machine.Rewrite.rewrite_program ~every:el program, true)
      | None -> (program, false)
    in
    Format.printf "%a" Hft_machine.Asm.pp_program program;
    Format.printf "; %d instructions, image hash 0x%x@."
      (Array.length program.Hft_machine.Asm.code)
      (Hft_machine.Encode.program_hash program.Hft_machine.Asm.code);
    if translated then begin
      (* compile against a throwaway CPU exactly as the hypervisor
         would (bare view: no deprivileging of the entry prechecks) *)
      let cpu =
        Hft_machine.Cpu.create ~code:program.Hft_machine.Asm.code ()
      in
      let manifest = Hft_analysis.Manifest.of_program ~rewritten program in
      match
        Hft_analysis.Manifest.install_translation manifest
          ~deprivileged:false cpu
      with
      | Error m -> Format.printf "; not translated: %s@." m
      | Ok _ -> (
        match Hft_machine.Cpu.translation cpu with
        | Some tx -> Format.printf "%a" Hft_machine.Translate.pp_listing tx
        | None -> ())
    end;
    match save_path with
    | Some path ->
      write_file path (Hft_machine.Image.to_string program);
      Format.printf "; image written to %s@." path;
      `Ok ()
    | None -> `Ok ()
  in
  Cmd.v
    (Cmd.info "disasm"
       ~doc:"Print a workload's program listing (optionally rewritten).")
    Term.(
      ret
        (const action $ workload_arg $ rewrite_el $ translated_flag
       $ save_path))

(* ---------- profile ---------- *)

let profile_cmd =
  let image_arg =
    Arg.(
      value
      & opt (some image_file) None
      & info [ "image" ] ~docv:"FILE"
          ~doc:"Profile a saved image file instead of a built-in workload.")
  in
  let flame_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "flame" ] ~docv:"PATH"
          ~doc:
            "Write the collapsed-stack flamegraph text (one \
             $(i,region;symbol count) line per block, the input format \
             of flamegraph.pl, inferno and speedscope) to PATH; $(b,-) \
             writes it to stdout.")
  in
  let min_coverage_arg =
    Arg.(
      value & opt float 0.95
      & info [ "min-coverage" ] ~docv:"FRACTION"
          ~doc:
            "Exit non-zero unless at least this fraction of retired \
             instructions is attributed to symbolized manifest blocks.")
  in
  let limit_arg =
    Arg.(
      value
      & opt positive_int 50_000_000
      & info [ "limit" ] ~docv:"N"
          ~doc:"Instruction fuel per backend run.")
  in
  let action workload image flame min_coverage limit =
    writes @@ fun () ->
    (* written so that NaN, which fails every comparison, is bad *)
    if not (min_coverage >= 0. && min_coverage <= 1.) then
      `Error (true, "--min-coverage must lie in [0, 1]")
    else
    let workload =
      match image with
      | Some (path, program) ->
        workload_of_program ~name:(Filename.basename path) program
      | None -> workload
    in
    let run backend =
      let params = Params.with_exec_backend Params.default backend in
      driven_bare ~params ~limit workload
    in
    (* the interpreter, then the direct-threaded backend over the
       identical run — the per-block counts must agree exactly *)
    let ci, halted_i = run Params.Interp in
    let ct, halted_t = run Params.Threaded in
    if not (halted_i && halted_t) then
      Format.printf
        "warning: guest did not halt within %d instructions; profiling the \
         partial run (backend agreement not checked)@."
        limit;
    let params = Params.default in
    let m = Hypervisor.manifest_for ~params workload in
    let symbol = symbolizer workload in
    let counts cpu =
      match Hft_machine.Cpu.profile cpu with Some p -> p | None -> [||]
    in
    let report =
      Obs.Profile.attribute ~blocks:(profile_blocks m ~symbol) ~symbol
        (counts ci)
    in
    (* the two backends disagree per address (the threaded backend
       credits whole blocks at their leaders) but must agree exactly
       per block and in total *)
    let block_sums cpu =
      let p = counts cpu in
      List.map
        (fun (b : Hft_analysis.Manifest.block) ->
          let s = ref 0 in
          for a = b.Hft_analysis.Manifest.leader
              to b.Hft_analysis.Manifest.leader + b.Hft_analysis.Manifest.len - 1
          do
            if a < Array.length p then s := !s + p.(a)
          done;
          !s)
        m.Hft_analysis.Manifest.blocks
    in
    let ti = Hft_machine.Cpu.profile_total ci in
    let tt = Hft_machine.Cpu.profile_total ct in
    let agree = ti = tt && block_sums ci = block_sums ct in
    Hft_harness.Report.heat report;
    Format.printf "backends       : interp retired %d, threaded retired %d -- %s@."
      ti tt
      (if agree then "identical per block (exactness contract holds)"
       else "DIVERGED");
    (match flame with
    | None -> ()
    | Some path ->
      write_file path (Obs.Profile.flamegraph report);
      if path <> "-" then Format.printf "wrote %s@." path);
    if halted_i && halted_t && not agree then
      `Error (false, "the two backends disagree on retirement counts")
    else if not (Obs.Profile.coverage report >= min_coverage) then
      `Error
        ( false,
          Printf.sprintf "attribution coverage %.1f%% below the %.1f%% floor"
            (100.0 *. Obs.Profile.coverage report)
            (100.0 *. min_coverage) )
    else `Ok ()
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Run a workload (or a saved image) under both CPU backends with the \
          exact per-block retirement profiler armed, print the symbolized \
          hot-spot heat table, and optionally write collapsed-stack \
          flamegraph text.  Exits non-zero if the backends disagree on \
          per-block retirement counts or attribution coverage falls below \
          $(b,--min-coverage).")
    Term.(
      ret
        (const action $ workload_arg $ image_arg $ flame_arg $ min_coverage_arg
       $ limit_arg))

let () =
  let doc =
    "hypervisor-based fault-tolerance: primary/backup virtual-machine \
     replication (Bressoud & Schneider, SOSP 1995)"
  in
  let info = Cmd.info "hftsim" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            run_cmd;
            validate_cmd;
            chaos_cmd;
            model_cmd;
            reproduce_cmd;
            lint_cmd;
            check_cmd;
            disasm_cmd;
            profile_cmd;
            bench_cmd;
          ]))
