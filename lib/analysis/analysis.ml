open Hft_machine

let cfg_findings ~syms (cfg : Cfg.t) =
  List.map
    (fun (addr, tgt) ->
      Finding.v ~checker:"cfg" ~severity:Finding.Error ~addr
        ~where:(Symtab.resolve syms addr)
        (Format.asprintf
           "control transfer to 0x%x, outside the %d-instruction program: \
            executing it faults the machine"
           tgt
           (Array.length cfg.Cfg.code)))
    cfg.Cfg.bad_targets

type solved = {
  cfg : Cfg.t;
  vsa : Vsa.t;
  consts : Absint.Consts.state option array;
  privs : int option array;
  init : int option array;
  rewritten : bool;
  fixpoint_iterations : int;
}

let solve ?(rewritten = false) ?code_refs code =
  let stats = Finding.new_stats () in
  let coarse = Cfg.build ?code_refs code in
  (* Value-set analysis first: enumerating indirect-jump targets the
     flow-insensitive candidate sets could not resolve shrinks the CFG
     every other solve and checker then runs on (fewer spurious edges,
     fewer unresolved-Jr epoch errors). *)
  let vsa = Vsa.solve ~stats coarse in
  let cfg = Vsa.refine coarse vsa in
  let consts = Absint.Consts.solve ~stats cfg in
  let privs = Privilege.solve ~stats cfg consts in
  let init = Determinism.init_solve ~stats ~rewritten cfg in
  {
    cfg;
    vsa;
    consts;
    privs;
    init;
    rewritten;
    fixpoint_iterations = stats.Finding.fixpoint_iterations;
  }

let findings ?random_tlb ?data_init ?mmio_base ~syms s =
  let cfg = s.cfg in
  cfg_findings ~syms cfg
  @ Privilege.check ~syms cfg s.consts s.privs
  @ Determinism.check ~syms ?random_tlb ?data_init ?mmio_base cfg s.consts
      s.init
  @ Epoch.check ~syms ~rewritten:s.rewritten cfg
  (* [sort_uniq]: a location reachable from several roots (trap vector
     plus fall-through) or a sink consuming the same register twice
     can produce byte-identical findings; report each once. *)
  |> List.sort_uniq Finding.compare

let check ?rewritten ?random_tlb ?data_init ?mmio_base (p : Asm.program) =
  findings ?random_tlb ?data_init ?mmio_base ~syms:(Symtab.of_program p)
    (solve ?rewritten ~code_refs:p.Asm.code_refs p.Asm.code)
