let std = Format.std_formatter

let fnum v = Printf.sprintf "%.2f" v

let render_row out widths cells =
  List.iteri
    (fun i cell ->
      let pad = List.nth widths i - String.length cell in
      Format.fprintf out "%s%s  " cell (String.make (max 0 pad) ' '))
    cells;
  Format.fprintf out "@."

let table ?(out = std) ~title ~header rows =
  List.iter
    (fun row ->
      if List.length row <> List.length header then
        invalid_arg "Report.table: row arity mismatch")
    rows;
  let widths =
    List.mapi
      (fun i h ->
        List.fold_left
          (fun acc row -> max acc (String.length (List.nth row i)))
          (String.length h) rows)
      header
  in
  Format.fprintf out "@.== %s ==@." title;
  render_row out widths header;
  render_row out widths
    (List.map (fun w -> String.make w '-') widths);
  List.iter (render_row out widths) rows

let check ?(out = std) ~label ok =
  Format.fprintf out "%-60s %s@." label (if ok then "PASS" else "FAIL")

let findings ?(out = std) ~title fs =
  Format.fprintf out "== lint: %s ==@." title;
  List.iter (fun f -> Format.fprintf out "%a@." Hft_analysis.Finding.pp f) fs;
  Format.fprintf out "%s@." (Hft_analysis.Finding.summary fs)

let channel_hardening ?(out = std) stats =
  let sum f = List.fold_left (fun acc s -> acc + f s) 0 stats in
  Format.fprintf out
    "channel faults : %d retransmits, %d duplicates dropped, %d corruptions \
     detected@."
    (sum (fun s -> s.Hft_core.Stats.retransmits))
    (sum (fun s -> s.Hft_core.Stats.duplicates_dropped))
    (sum (fun s -> s.Hft_core.Stats.corruptions_detected))

let span_metrics ?(out = std) hists =
  let rows =
    List.filter_map
      (fun (cat, h) ->
        if Hft_obs.Hist.count h = 0 then None
        else
          Some
            [
              cat;
              string_of_int (Hft_obs.Hist.count h);
              fnum (Hft_obs.Hist.p50_us h);
              fnum (Hft_obs.Hist.p95_us h);
              fnum (Hft_obs.Hist.p99_us h);
              fnum (Hft_obs.Hist.max_us h);
            ])
      hists
  in
  if rows <> [] then
    table ~out ~title:"span metrics (us)"
      ~header:[ "category"; "count"; "p50"; "p95"; "p99"; "max" ]
      rows

let failover_postmortem ?(out = std) entries =
  List.iter
    (fun (f : Hft_obs.Span.failover) ->
      let open Hft_obs.Span in
      let plus t = Hft_sim.Time.to_ms (Hft_sim.Time.diff t f.crash_time) in
      Format.fprintf out "@.== failover post-mortem: %s crashed ==@." f.crashed;
      Format.fprintf out "  crash             at %a@." Hft_sim.Time.pp
        f.crash_time;
      (match f.detector_time with
      | Some t ->
        Format.fprintf out "  detector fired    at %a  (+%.3f ms)@."
          Hft_sim.Time.pp t (plus t)
      | None -> Format.fprintf out "  detector fired    (not observed)@.");
      (match (f.promoted, f.promoted_time) with
      | Some who, Some t ->
        Format.fprintf out
          "  %-18sat %a  (+%.3f ms; %d uncertain synthesized)@."
          (who ^ " promoted") Hft_sim.Time.pp t (plus t) f.synthesized
      | _ -> Format.fprintf out "  promotion         (not observed)@.");
      match f.first_io_time with
      | Some t ->
        Format.fprintf out "  first new-primary I/O at %a  (+%.3f ms blackout)@."
          Hft_sim.Time.pp t (plus t)
      | None -> Format.fprintf out "  first new-primary I/O (none submitted)@.")
    (Hft_obs.Span.failovers entries)

let recovery ?(out = std) stats =
  let sum f = List.fold_left (fun acc s -> acc + f s) 0 stats in
  let faults = sum (fun s -> s.Hft_core.Stats.hv_faults_injected) in
  if faults > 0 then
    Format.fprintf out
      "hv recovery    : %d faults, %d microreboots, %d ios + %d msgs \
       reconciled, %d escalations@."
      faults
      (sum (fun s -> s.Hft_core.Stats.microreboots))
      (sum (fun s -> s.Hft_core.Stats.reconciled_ios))
      (sum (fun s -> s.Hft_core.Stats.reconciled_msgs))
      (sum (fun s -> s.Hft_core.Stats.recovery_escalations))

let recovery_postmortem ?(out = std) entries =
  List.iter
    (fun (r : Hft_obs.Span.recovery) ->
      let open Hft_obs.Span in
      let plus t = Hft_sim.Time.to_ms (Hft_sim.Time.diff t r.fault_time) in
      Format.fprintf out "@.== recovery post-mortem: %s %s fault ==@." r.node
        r.fault_kind;
      Format.fprintf out "  fault injected    at %a@." Hft_sim.Time.pp
        r.fault_time;
      (match (r.detected_by, r.detect_time) with
      | Some by, Some t ->
        Format.fprintf out "  detected by %-6s at %a  (+%.3f ms)@." by
          Hft_sim.Time.pp t (plus t)
      | _ -> Format.fprintf out "  detection         (not observed)@.");
      (match r.reboot_time with
      | Some t ->
        Format.fprintf out
          "  microreboot done  at %a  (+%.3f ms; %d ios, %d msgs reconciled)@."
          Hft_sim.Time.pp t (plus t) r.r_reconciled_ios r.r_reconciled_msgs
      | None ->
        if r.escalated then
          Format.fprintf out "  escalated to fail-stop (no microreboot)@."
        else Format.fprintf out "  microreboot       (not observed)@.");
      match r.first_epoch_time with
      | Some t ->
        Format.fprintf out "  first epoch after at %a  (+%.3f ms window)@."
          Hft_sim.Time.pp t (plus t)
      | None ->
        if not r.escalated then
          Format.fprintf out "  first epoch after (not observed)@.")
    (Hft_obs.Span.recoveries entries)

let host_hashing ?(out = std) stats =
  let sum f = List.fold_left (fun acc s -> acc + f s) 0 stats in
  let hashed = sum (fun s -> s.Hft_core.Stats.pages_hashed) in
  let skipped = sum (fun s -> s.Hft_core.Stats.pages_skipped) in
  let snap = sum (fun s -> s.Hft_core.Stats.snapshot_delta_bytes) in
  let total = hashed + skipped in
  let pct =
    if total = 0 then 0.0
    else 100.0 *. float_of_int skipped /. float_of_int total
  in
  Format.fprintf out
    "state hashing  : %d pages hashed, %d reused from cache (%.1f%%), %d \
     snapshot bytes copied@."
    hashed skipped pct snap

let translation ?(out = std) stats =
  let sum f = List.fold_left (fun acc s -> acc + f s) 0 stats in
  let threaded = sum (fun s -> s.Hft_core.Stats.threaded_instrs) in
  if threaded > 0 then begin
    let total = sum (fun s -> s.Hft_core.Stats.instructions) in
    let pct =
      if total = 0 then 0.0
      else 100.0 *. float_of_int threaded /. float_of_int total
    in
    Format.fprintf out
      "translation    : %d of %d instructions direct-threaded (%.1f%%), %d \
       entries over %d blocks@."
      threaded total pct
      (sum (fun s -> s.Hft_core.Stats.threaded_entries))
      (sum (fun s -> s.Hft_core.Stats.blocks_translated));
    Format.fprintf out
      "  fallbacks    : %d budget, %d priv, %d link, %d indirect, %d bail, \
       %d stop@."
      (sum (fun s -> s.Hft_core.Stats.fallback_budget))
      (sum (fun s -> s.Hft_core.Stats.fallback_priv))
      (sum (fun s -> s.Hft_core.Stats.fallback_link))
      (sum (fun s -> s.Hft_core.Stats.fallback_indirect))
      (sum (fun s -> s.Hft_core.Stats.fallback_bail))
      (sum (fun s -> s.Hft_core.Stats.fallback_stop))
  end

let heat ?(out = std) r =
  table ~out ~title:"guest hot spots (exact retirement counts)"
    ~header:[ "addr"; "symbol"; "region"; "len"; "retired"; "share"; "cum" ]
    (Hft_obs.Profile.heat_table r);
  Format.fprintf out
    "%d of %d retired instructions attributed to blocks (%.1f%%)@."
    r.Hft_obs.Profile.attributed r.Hft_obs.Profile.total
    (100.0 *. Hft_obs.Profile.coverage r)

let certification ?(out = std) stats =
  let sum f = List.fold_left (fun acc s -> acc + f s) 0 stats in
  let covered = sum (fun s -> s.Hft_core.Stats.certified_instructions) in
  let checked = sum (fun s -> s.Hft_core.Stats.validated_instructions) in
  if checked > 0 then
    Format.fprintf out
      "certification  : %d of %d validated instructions inside certified \
       superblocks (%.1f%%)@."
      covered checked
      (100.0 *. float_of_int covered /. float_of_int checked)
