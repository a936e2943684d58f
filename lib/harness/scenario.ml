open Hft_core

let bare_time ?(params = Params.default) workload =
  let b = Bare.create ~params ~workload () in
  Bare.init_disk_blocks b;
  let o = Bare.run b in
  o.Bare.time

(* The image a run will actually execute: under code rewriting,
   System.create rewrites with the configured epoch length. *)
let executed_program ~params (w : Hft_guest.Workload.t) =
  if params.Params.epoch_mechanism = Params.Code_rewriting then
    Hft_machine.Rewrite.rewrite_program ~every:params.Params.epoch_length
      w.Hft_guest.Workload.program
  else w.Hft_guest.Workload.program

let lint ~params (w : Hft_guest.Workload.t) =
  Hft_analysis.Analysis.check
    ~rewritten:(params.Params.epoch_mechanism = Params.Code_rewriting)
    ~data_init:(List.map fst w.Hft_guest.Workload.config)
    (executed_program ~params w)

let replicated ?obs ~params workload =
  let name = workload.Hft_guest.Workload.name in
  let fs = lint ~params workload in
  if Hft_analysis.Finding.has_errors fs then begin
    Report.findings ~out:Format.err_formatter ~title:name fs;
    failwith
      (Printf.sprintf
         "Scenario.replicated: image %S failed the static analyzer (%s); see \
          hftsim lint"
         name
         (Hft_analysis.Finding.summary fs))
  end;
  let o = System.run (System.create ~params ?obs ~workload ()) in
  (match o.System.lockstep_mismatches with
  | [] -> ()
  | first :: _ as l ->
    failwith
      (Printf.sprintf
         "Scenario.replicated: image %S diverged: the replicas' state hashes \
          differ at %d of %d compared epoch(s), first at epoch %d"
         name (List.length l) o.System.epochs_compared first));
  o

(* Simulation-scale versions of the paper's three benchmarks. *)

let cpu_workload ?(iterations = 30_000) () =
  Hft_guest.Workload.dhrystone ~iterations

let write_workload ?(ops = 48) () = Hft_guest.Workload.disk_write ~ops ()

let read_workload ?(ops = 48) () = Hft_guest.Workload.disk_read ~ops ()
