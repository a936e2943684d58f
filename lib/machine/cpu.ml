type config = {
  mem_words : int;
  mmio_base : int;
  page_shift : int;
  tlb_entries : int;
  tlb_policy : Tlb.policy;
}

let default_config =
  {
    mem_words = 1 lsl 16;
    mmio_base = 0xF0000;
    page_shift = 10;
    tlb_entries = 16;
    tlb_policy = Tlb.Round_robin;
  }

type stop =
  | Fuel
  | Recovery
  | Stop_halt
  | Stop_wfi
  | Env of Isa.instr
  | Priv of Isa.instr
  | Mmio_read of { paddr : int; reg : Isa.reg }
  | Mmio_write of { paddr : int; value : Word.t }
  | Tlb_miss of { vaddr : int; write : bool }
  | Protection of { vaddr : int; write : bool }
  | Syscall of int
  | Fault of string
  | Cert_violation of { addr : int; msg : string }

type run_result = { executed : int; stop : stop }

type origin = ..

(* Runtime certificate validator (the dynamic oracle for the static
   analyzer's compilation manifest).  All per-address tables are
   indexed by code address; region tables by certified-superblock id.
   Every hypervisor and bare machine installs it at boot; the hot loop
   pays one [match] on the hoisted option, absent only on a CPU built
   without a manifest. *)
type validator = {
  v_origin : origin option;  (* what built the tables, for [rearm_validator] *)
  v_priv_ok : int array;  (* allowed real-privilege bitmask *)
  v_det : bool array;     (* inside a [Deterministic]-certified block *)
  v_uses : int array;     (* registers read (bitmask, r0 excluded) *)
  v_def : int array;      (* registers written (bitmask, r0 excluded) *)
  v_region : int array;   (* certified superblock id, -1 outside *)
  v_rhead : int array;    (* region id -> head address *)
  v_rbound : int array;   (* region id -> instruction bound, max_int if none *)
  v_loop_of : int array;  (* innermost bounded-loop id, -1 outside *)
  v_lhead : int array;    (* loop id -> header leader address *)
  v_lbound : int array;   (* loop id -> certified max header visits *)
  v_random_tlb : bool;
  (* per-block hoisting of the pre-dispatch checks: [v_run_end.(a)] is
     the exclusive end of a's basic block (a+1 when block structure is
     unknown), [v_run_ubd.(a)] the registers read before being written
     on the straight-line run [a, end), and [v_run_hazard.(a)] whether
     that run's strict suffix contains an instruction needing its own
     per-address check (Probe, or Tlbw under random replacement) *)
  v_run_end : int array;
  v_run_ubd : int array;
  v_run_def : int array;  (* registers written anywhere on the run [a, end) *)
  v_run_hazard : bool array;
  (* observed maxima, the dynamic side of the WCET-slack join: highest
     in-region instruction count per superblock and highest header
     visit count per bounded loop actually seen.  Same undercounting
     stance as the checks themselves — threaded excursions reset the
     running counts, so the recorded maxima never exceed what the
     interpreter demonstrably executed. *)
  v_rmax : int array;
  v_lmax : int array;
  mutable v_skip_from : int;    (* current validated window, [from, until) *)
  mutable v_skip_until : int;
  mutable v_open_at : int;
      (* the run's executed count when the current window's post side
         was deferred to its close, -1 when it is credited per
         instruction *)
  mutable v_written : int;      (* registers written since boot/trap/restore *)
  mutable v_cur_region : int;
  mutable v_rcount : int;
  mutable v_cur_loop : int;     (* loop the pc has stayed inside, -1 none *)
  mutable v_lcount : int;       (* header visits since entering it *)
  mutable v_covered : int;      (* completed instrs inside certified regions *)
  mutable v_checked : int;      (* completed instrs while validating *)
}

type t = {
  cfg : config;
  code : Isa.instr array;
  memory : Memory.t;
  tlb_state : Tlb.t;
  regs : int array;
  crs : int array;
  mutable pc_ : int;
  mutable retired : int;
  mutable snap_base : Memory.t option;
      (* shadow image the delta-snapshot path copies dirty pages into;
         [None] until the first snapshot *)
  mutable snap_bytes : int; (* cumulative bytes copied by snapshots *)
  mutable validator : validator option;
  mutable trans : Translate.t option;
  mutable prof : int array option;
      (* per-address retirement counters (hot-spot profiling): the
         interpreter bumps the completed instruction's slot, the
         threaded backend credits block entries and debits refunds so
         both backends agree exactly *)
  mutable plan : Translate.plan_region list option;
      (* last installed translation plan, kept so toggling the
         profiler can recompile the translation with matching hooks *)
  mutable trans_origin : origin option;
  mutable code_hash : int option;  (* [Encode.program_hash code], once *)
  mutable spare_validator : validator option;
  mutable spare_trans :
    (Translate.t * Translate.plan_region list * origin) option;
      (* the recycled predecessor's armed state, already reset, until
         [rearm_validator] / [rearm_translation] claim or drop it *)
}

(* The per-run half of a validator: everything [install_validator]
   would start a fresh CPU with. *)
let reset_validator v =
  Array.fill v.v_rmax 0 (Array.length v.v_rmax) 0;
  Array.fill v.v_lmax 0 (Array.length v.v_lmax) 0;
  v.v_skip_from <- 0;
  v.v_skip_until <- 0;
  v.v_open_at <- -1;
  v.v_written <- 1;
  v.v_cur_region <- -1;
  v.v_rcount <- 0;
  v.v_cur_loop <- -1;
  v.v_lcount <- 0;
  v.v_covered <- 0;
  v.v_checked <- 0

(* A recycled CPU adopts the old one's state objects, each reset to
   exactly what a fresh CPU allocates: its memory and snapshot base
   (reset marks every page snapshot-dirty, so the next [snapshot]
   refreshes the whole base and counts the same bytes as the first
   full copy would), its register files, and its TLB when the
   replacement policy is round-robin (a random policy brings its own
   stream, so the TLB is new).  Over the same code image it also keeps
   the image hash and, as spares, the validator and the translation:
   the translation's closures alias the registers, memory and TLB, so
   it is kept only when all three were adopted and it was compiled
   without profiling hooks. *)
let create ?(config = default_config) ?recycle ~code () =
  let memory, snap_base, tlb_state, regs, crs =
    match recycle with
    | None ->
      ( Memory.create ~page_shift:config.page_shift ~words:config.mem_words (),
        None,
        Tlb.create ~entries:config.tlb_entries config.tlb_policy,
        Array.make Isa.num_regs 0,
        Array.make Isa.num_crs 0 )
    | Some old ->
      let m = old.memory in
      if
        Memory.size m <> config.mem_words
        || Memory.page_shift m <> config.page_shift
      then invalid_arg "Cpu.create: recycled memory geometry mismatch";
      Memory.reset m;
      let tlb =
        match (old.cfg.tlb_policy, config.tlb_policy) with
        | Tlb.Round_robin, Tlb.Round_robin
          when Tlb.size old.tlb_state = config.tlb_entries ->
          Tlb.flush old.tlb_state;
          old.tlb_state
        | _ -> Tlb.create ~entries:config.tlb_entries config.tlb_policy
      in
      Array.fill old.regs 0 (Array.length old.regs) 0;
      Array.fill old.crs 0 (Array.length old.crs) 0;
      (m, old.snap_base, tlb, old.regs, old.crs)
  in
  let t =
    {
      cfg = config;
      code;
      memory;
      tlb_state;
      regs;
      crs;
      pc_ = 0;
      retired = 0;
      snap_base;
      snap_bytes = 0;
      validator = None;
      trans = None;
      prof = None;
      plan = None;
      trans_origin = None;
      code_hash = None;
      spare_validator = None;
      spare_trans = None;
    }
  in
  (match recycle with
  | Some old when old.code == code -> (
    t.code_hash <- old.code_hash;
    (match old.validator with
    | Some v ->
      reset_validator v;
      t.spare_validator <- Some v
    | None -> ());
    match (old.trans, old.plan, old.trans_origin) with
    | Some tx, Some plan, Some o
      when tlb_state == old.tlb_state && old.prof = None
           && old.cfg.mmio_base = config.mmio_base ->
      Translate.reset tx;
      t.spare_trans <- Some (tx, plan, o)
    | _ -> ())
  | _ -> ());
  t

let code_hash t =
  match t.code_hash with
  | Some h -> h
  | None ->
    let h = Encode.program_hash t.code in
    t.code_hash <- Some h;
    h

let install_validator ?origin ?blk_end ?loop_of ?(lhead = [||]) ?(lbound = [||]) t
    ~priv_ok ~det ~uses ~def ~region ~rhead ~rbound ~random_tlb =
  let n = Array.length t.code in
  if
    Array.length priv_ok <> n || Array.length det <> n
    || Array.length uses <> n || Array.length def <> n
    || Array.length region <> n
  then invalid_arg "Cpu.install_validator: table length mismatch";
  let loop_of =
    match loop_of with
    | Some l ->
      if Array.length l <> n then
        invalid_arg "Cpu.install_validator: loop_of length mismatch";
      l
    | None -> Array.make (max n 1) (-1)
  in
  if Array.length lhead <> Array.length lbound then
    invalid_arg "Cpu.install_validator: loop table length mismatch";
  let run_end =
    match blk_end with
    | Some e ->
      if Array.length e <> n then
        invalid_arg "Cpu.install_validator: blk_end length mismatch";
      e
    | None ->
      (* no block structure: every window is a singleton, which makes
         the hoisted path behave exactly like per-instruction checks *)
      Array.init n (fun a -> a + 1)
  in
  (* straight-line suffix summaries, computed backwards inside each
     block: uses-before-def feeding the one-shot window check, the defs
     a deferred window credits at once, and a hazard flag forcing
     per-address checks when the suffix contains a Probe (or a Tlbw
     under random replacement) *)
  let run_ubd = Array.make (max n 1) 0 in
  let run_def = Array.make (max n 1) 0 in
  let run_hazard = Array.make (max n 1) false in
  let hazardous a =
    match t.code.(a) with
    | Isa.Probe _ -> true
    | Isa.Tlbw _ -> random_tlb
    | _ -> false
  in
  for a = n - 1 downto 0 do
    if a + 1 < run_end.(a) then begin
      run_ubd.(a) <- uses.(a) lor (run_ubd.(a + 1) land lnot def.(a));
      run_def.(a) <- def.(a) lor run_def.(a + 1);
      run_hazard.(a) <- run_hazard.(a + 1) || hazardous (a + 1)
    end
    else begin
      run_ubd.(a) <- uses.(a);
      run_def.(a) <- def.(a);
      run_hazard.(a) <- false
    end
  done;
  t.spare_validator <- None;
  t.validator <-
    Some
      {
        v_origin = origin;
        v_priv_ok = priv_ok;
        v_det = det;
        v_uses = uses;
        v_def = def;
        v_region = region;
        v_rhead = rhead;
        v_rbound = rbound;
        v_loop_of = loop_of;
        v_lhead = lhead;
        v_lbound = lbound;
        v_random_tlb = random_tlb;
        v_run_end = run_end;
        v_run_ubd = run_ubd;
        v_run_def = run_def;
        v_run_hazard = run_hazard;
        v_rmax = Array.make (max (Array.length rhead) 1) 0;
        v_lmax = Array.make (max (Array.length lhead) 1) 0;
        v_skip_from = 0;
        v_skip_until = 0;
        v_open_at = -1;
        v_written = 1;
        v_cur_region = -1;
        v_rcount = 0;
        v_cur_loop = -1;
        v_lcount = 0;
        v_covered = 0;
        v_checked = 0;
      }

let rearm_validator t same =
  let spare = t.spare_validator in
  t.spare_validator <- None;
  match spare with
  | Some ({ v_origin = Some o; _ } as v) when same o ->
    t.validator <- Some v;
    true
  | _ -> false

let validator_active t = t.validator <> None

let validator_coverage t =
  match t.validator with
  | None -> None
  | Some v -> Some (v.v_covered, v.v_checked)

let observed_bounds t =
  match t.validator with
  | None -> None
  | Some v ->
    let n_regions = Array.length v.v_rhead in
    let n_loops = Array.length v.v_lhead in
    Some
      ( Array.sub v.v_rmax 0 n_regions,
        Array.sub v.v_lmax 0 n_loops )

(* The architectural events that legitimately reset the validator's
   path-sensitive state: trap delivery enters a root whose context the
   static analysis models as fully initialized, and a snapshot restore
   installs a register file that is itself replicated state. *)
let validator_amnesty t =
  match t.validator with
  | None -> ()
  | Some v ->
    v.v_written <- -1;
    v.v_cur_region <- -1;
    v.v_cur_loop <- -1

let compile_translation t plan =
  t.plan <- Some plan;
  t.trans <-
    Some
      (Translate.compile ~code:t.code ~regs:t.regs ~mem:t.memory
         ~tlb:t.tlb_state ~mmio_base:t.cfg.mmio_base
         ~page_shift:t.cfg.page_shift ?profile:t.prof plan)

let install_translation ?origin t plan =
  t.spare_trans <- None;
  t.trans_origin <- origin;
  compile_translation t plan

let rearm_translation t same =
  let spare = t.spare_trans in
  t.spare_trans <- None;
  match spare with
  | Some (tx, plan, o) when t.prof = None && same o ->
    t.trans <- Some tx;
    t.plan <- Some plan;
    t.trans_origin <- Some o;
    true
  | _ -> false

let translation t = t.trans

(* Toggling the profiler recompiles any installed translation so the
   closure chains carry (or drop) the retirement hooks: the check in
   the block prologue is specialized away at compile time, keeping the
   unprofiled hot path untouched. *)
let install_profile t =
  t.prof <- Some (Array.make (max (Array.length t.code) 1) 0);
  match t.plan with
  | Some plan when t.trans <> None -> compile_translation t plan
  | _ -> ()

let clear_profile t =
  t.prof <- None;
  match t.plan with
  | Some plan when t.trans <> None -> compile_translation t plan
  | _ -> ()

let profile t = t.prof
let profile_active t = t.prof <> None

let profile_total t =
  match t.prof with
  | None -> 0
  | Some p -> Array.fold_left ( + ) 0 p

let config t = t.cfg
let code t = t.code
let mem t = t.memory
let tlb t = t.tlb_state

let pc t = t.pc_
let set_pc t v = t.pc_ <- v
let advance_pc t = t.pc_ <- t.pc_ + 1

let reg t r = t.regs.(r)

let set_reg t r v =
  if r <> 0 then begin
    t.regs.(r) <- Word.mask v;
    match t.validator with
    | None -> ()
    | Some vd -> vd.v_written <- vd.v_written lor (1 lsl r)
  end

let cr t c = t.crs.(Isa.cr_index c)
let set_cr t c v = t.crs.(Isa.cr_index c) <- Word.mask v

let status t = t.crs.(Isa.cr_index Isa.Cr_status)
let priv t = Isa.status_priv (status t)
let set_priv t p = set_cr t Isa.Cr_status (Isa.status_with_priv (status t) p)

let rc_index = Isa.cr_index Isa.Cr_rc
let status_index = Isa.cr_index Isa.Cr_status

let set_recovery t n =
  if n <= 0 then invalid_arg "Cpu.set_recovery: count must be positive";
  t.crs.(rc_index) <- Word.of_signed (n - 1);
  set_cr t Isa.Cr_status (Isa.status_with_rc_enable (status t) true)

let disable_recovery t =
  set_cr t Isa.Cr_status (Isa.status_with_rc_enable (status t) false)

let rc_enabled t = Isa.status_rc_enable (status t)

let recovery_remaining t =
  if not (rc_enabled t) then 0
  else
    let v = Word.signed t.crs.(rc_index) in
    if v < 0 then 0 else v + 1

let tick_recovery t =
  if not (rc_enabled t) then false
  else begin
    let v = Word.signed t.crs.(rc_index) - 1 in
    t.crs.(rc_index) <- Word.of_signed v;
    v < 0
  end

let interrupts_enabled t = Isa.status_int_enable (status t)

let deliver_trap_impl t ~cause ~badvaddr ~epc =
  validator_amnesty t;
  let s = status t in
  set_cr t Isa.Cr_istatus s;
  set_cr t Isa.Cr_epc epc;
  set_cr t Isa.Cr_cause cause;
  set_cr t Isa.Cr_badvaddr badvaddr;
  let s = Isa.status_with_priv s 0 in
  let s = Isa.status_with_int_enable s false in
  let s = Isa.status_with_mmu_enable s false in
  set_cr t Isa.Cr_status s;
  t.pc_ <- cr t Isa.Cr_ivec

exception Stop_exec of stop

(* MMU-on address translation for the hot loop: raises the [Tlb_miss]
   or [Protection] stop instead of allocating a [result]. *)
let[@inline] translate_exn t ~write ~priv vaddr =
  let shift = t.cfg.page_shift in
  match Tlb.lookup t.tlb_state ~vpage:(vaddr lsr shift) with
  | None -> raise (Stop_exec (Tlb_miss { vaddr; write }))
  | Some e ->
    if (priv = 3 && not e.Tlb.user_ok) || (write && not e.Tlb.writable) then
      raise (Stop_exec (Protection { vaddr; write }))
    else (e.Tlb.ppage lsl shift) lor (vaddr land ((1 lsl shift) - 1))

let translate t ~write vaddr =
  let s = status t in
  if not (Isa.status_mmu_enable s) then Ok vaddr
  else
    match translate_exn t ~write ~priv:(Isa.status_priv s) vaddr with
    | paddr -> Ok paddr
    | exception Stop_exec st -> Error st

let[@inline] alu op a b =
  match (op : Isa.alu_op) with
  | Add -> Word.add a b
  | Sub -> Word.sub a b
  | Mul -> Word.mul a b
  | Divu -> Word.divu a b
  | Remu -> Word.remu a b
  | And -> Word.logand a b
  | Or -> Word.logor a b
  | Xor -> Word.logxor a b
  | Sll -> Word.shift_left a b
  | Srl -> Word.shift_right_logical a b
  | Sra -> Word.shift_right_arith a b
  | Slt -> if Word.lt_signed a b then 1 else 0
  | Sltu -> if Word.lt_unsigned a b then 1 else 0

let[@inline] cond_holds c a b =
  match (c : Isa.cond) with
  | Eq -> a = b
  | Ne -> a <> b
  | Lt -> Word.lt_signed a b
  | Ge -> not (Word.lt_signed a b)
  | Ltu -> Word.lt_unsigned a b
  | Geu -> not (Word.lt_unsigned a b)

(* Fault messages are built off the hot path: these never run on the
   instructions-per-second-critical loop iterations. *)
let[@inline never] fault_bad_pc pc =
  Stop_exec (Fault (Printf.sprintf "pc 0x%x outside code" pc))

let[@inline never] fault_load paddr =
  Stop_exec (Fault (Printf.sprintf "load from bad address 0x%x" paddr))

let[@inline never] fault_store paddr =
  Stop_exec (Fault (Printf.sprintf "store to bad address 0x%x" paddr))

let[@inline never] cert_viol addr msg = Stop_exec (Cert_violation { addr; msg })

(* Pre-dispatch certificate checks: run at the privilege level the
   instruction is about to execute at, before any state mutates (safe
   to re-run on a TLB-miss retry of the same instruction). *)
let[@inline never] validate_pre v pc (instr : Isa.instr) spriv =
  if v.v_priv_ok.(pc) land (1 lsl spriv) = 0 then
    raise
      (cert_viol pc
         (Printf.sprintf
            "Priv0-certified block executes at real privilege level %d" spriv));
  if v.v_det.(pc) then begin
    let missing = v.v_uses.(pc) land lnot v.v_written in
    if missing <> 0 then
      raise
        (cert_viol pc
           (Printf.sprintf
              "Deterministic-certified block reads register mask 0x%x before \
               any write reaches it"
              missing));
    match instr with
    | Isa.Probe _ ->
      raise
        (cert_viol pc
           "Probe (environment-state read) inside a Deterministic-certified \
            block")
    | Isa.Tlbw _ when v.v_random_tlb ->
      raise
        (cert_viol pc
           "TLB insertion under random replacement inside a \
            Deterministic-certified block")
    | _ -> ()
  end

(* Post-completion bookkeeping for [n] consecutive completions starting
   at [pc0] inside one basic block: definition tracking, coverage, the
   per-superblock instruction bound and the loop-bound header count.
   The per-instruction path credits [n = 1]; a deferred window credits
   its whole completed prefix when it closes.  Crediting a run at once
   equals crediting it instruction by instruction because of two facts
   [Manifest.arm_validator] guarantees: region and loop ids are uniform
   per block (so the region and loop transitions happen at [pc0] or not
   at all), and region heads and loop headers are block leaders (so
   inside the run only [pc0] can be one).  Arms that stop the processor
   raise before the shared completion point and are charged by their
   executor instead — undercounting the region, never overcounting. *)
let[@inline never] credit v pc0 n =
  v.v_checked <- v.v_checked + n;
  let d =
    if pc0 + n = v.v_run_end.(pc0) then v.v_run_def.(pc0)
    else begin
      let d = ref 0 in
      for a = pc0 to pc0 + n - 1 do
        d := !d lor v.v_def.(a)
      done;
      !d
    end
  in
  if d <> 0 then v.v_written <- v.v_written lor d;
  let r = v.v_region.(pc0) in
  if r < 0 then v.v_cur_region <- -1
  else begin
    if r <> v.v_cur_region || pc0 = v.v_rhead.(r) then begin
      v.v_cur_region <- r;
      v.v_rcount <- 0
    end;
    v.v_rcount <- v.v_rcount + n;
    v.v_covered <- v.v_covered + n;
    if v.v_rcount > v.v_rmax.(r) then v.v_rmax.(r) <- v.v_rcount;
    if v.v_rcount > v.v_rbound.(r) then
      raise
        (cert_viol pc0
           (Printf.sprintf
              "Epoch_bounded certificate exceeded: %d instructions inside a \
               superblock bounded at %d"
              v.v_rcount v.v_rbound.(r)))
  end;
  (* loop-bound certificates: count header visits for as long as the
     pc stays inside one bounded loop.  Leaving the loop (or moving to
     a different innermost loop) resets the count, so re-entries and
     outer-loop iterations each get a fresh allowance — undercounting
     like the region check, never overcounting. *)
  let l = v.v_loop_of.(pc0) in
  if l < 0 then v.v_cur_loop <- -1
  else begin
    if l <> v.v_cur_loop then begin
      v.v_cur_loop <- l;
      v.v_lcount <- 0
    end;
    if pc0 = v.v_lhead.(l) then begin
      v.v_lcount <- v.v_lcount + 1;
      if v.v_lcount > v.v_lmax.(l) then v.v_lmax.(l) <- v.v_lcount;
      if v.v_lcount > v.v_lbound.(l) then
        raise
          (cert_viol pc0
             (Printf.sprintf
                "loop-bound certificate exceeded: %d iterations of a loop \
                 bounded at %d"
                v.v_lcount v.v_lbound.(l)))
    end
  end

(* Close a deferred window at the run's current executed count: credit
   the instructions completed since it opened, all consecutive from its
   head because a window never extends past its basic block. *)
let close_window v executed =
  if v.v_open_at >= 0 then begin
    let n = executed - v.v_open_at in
    v.v_open_at <- -1;
    if n > 0 then credit v v.v_skip_from n
  end

(* Per-block hoisting of the certificate checks: close the previous
   window, validate the current address exactly as before, then try to
   certify the rest of its basic block in one shot.  The block's
   certificates are uniform (privilege mask, determinism flag), the
   written-register set only ever grows between status changes, and
   blocks are single-entry, so once the suffix's uses-before-def mask
   is covered and the suffix holds no per-address hazard, every later
   address in the block would pass [validate_pre] too — the loop then
   skips the call while the pc stays strictly inside the window.

   The window's post side is deferred to its close too when no
   completion inside it can raise: the region count after the
   transition at [pc] plus the window length stays within the region
   bound, and one more header visit (only [pc] can be the header) stays
   within the loop bound.  Otherwise the loop credits each completion
   on its own.  A window is closed when the pc leaves it or comes back
   to its head, and by status changes, threaded entries, a [Wfi] and
   the end of [run]; a [Jr] ends it, so a computed jump into the middle
   of its own block closes it too.  Every close therefore credits at
   most the window's length, so closing a deferred window never
   raises. *)
let[@inline never] validate_pre_block v pc (instr : Isa.instr) spriv executed =
  close_window v executed;
  validate_pre v pc instr spriv;
  let e = v.v_run_end.(pc) in
  if
    e > pc + 1
    && (not v.v_run_hazard.(pc))
    && ((not v.v_det.(pc)) || v.v_run_ubd.(pc) land lnot v.v_written = 0)
  then begin
    v.v_skip_from <- pc;
    v.v_skip_until <- e;
    let r = v.v_region.(pc) and l = v.v_loop_of.(pc) in
    let rcount =
      if r < 0 || r <> v.v_cur_region || pc = v.v_rhead.(r) then 0
      else v.v_rcount
    in
    let lcount = if l <> v.v_cur_loop then 0 else v.v_lcount in
    if
      (r < 0 || rcount + (e - pc) <= v.v_rbound.(r))
      && (l < 0 || pc <> v.v_lhead.(l) || lcount < v.v_lbound.(l))
    then v.v_open_at <- executed
  end
  else begin
    v.v_skip_from <- 0;
    v.v_skip_until <- 0
  end

let convert_stop : Translate.stop -> stop = function
  | Translate.X_mmio_read { paddr; reg } -> Mmio_read { paddr; reg }
  | Translate.X_mmio_write { paddr; value } -> Mmio_write { paddr; value }
  | Translate.X_tlb_miss { vaddr; write } -> Tlb_miss { vaddr; write }
  | Translate.X_protection { vaddr; write } -> Protection { vaddr; write }
  | Translate.X_fault_load paddr ->
    Fault (Printf.sprintf "load from bad address 0x%x" paddr)
  | Translate.X_fault_store paddr ->
    Fault (Printf.sprintf "store to bad address 0x%x" paddr)

(* The hot loop avoids per-instruction work that only rarely matters:

   - the status-register flags (privilege, MMU enable, recovery-counter
     enable) are hoisted into locals and refreshed only when the
     privileged arm — the sole in-loop writer of [Cr_status] — runs;
   - the recovery counter is not decremented per instruction; instead
     the instruction count at which it will expire is computed once and
     compared against, and the in-register value is written back
     ([sync_rc]) on every exit and before any instruction that could
     observe or modify it;
   - loads and stores skip the translation function entirely while the
     MMU is off (translation is the identity there);
   - the validator checks and credits a basic block once where it can
     ([validate_pre_block]). *)
let run t ~fuel =
  if fuel <= 0 then invalid_arg "Cpu.run: fuel must be positive";
  let code = t.code in
  let code_len = Array.length code in
  let regs = t.regs in
  let crs = t.crs in
  let memory = t.memory in
  let mmio_base = t.cfg.mmio_base in
  let executed = ref 0 in
  let spriv = ref 0 and smmu = ref false and src = ref false in
  let rc_base = ref 0 in
  let expire_at = ref max_int in
  let vd = t.validator in
  let tr = t.trans in
  let prof = t.prof in
  let refresh_status () =
    let s = crs.(status_index) in
    spriv := Isa.status_priv s;
    smmu := Isa.status_mmu_enable s;
    src := Isa.status_rc_enable s;
    rc_base := !executed;
    expire_at :=
      if !src then
        let v = Word.signed crs.(rc_index) in
        !executed + (if v < 0 then 1 else v + 1)
      else max_int;
    (* a status change invalidates the validator's skip window: the
       per-block certificate was checked at the old privilege level *)
    match vd with
    | None -> ()
    | Some v ->
      close_window v !executed;
      v.v_skip_from <- 0;
      v.v_skip_until <- 0
  in
  let sync_rc () =
    if !src then begin
      let ticks = !executed - !rc_base in
      if ticks > 0 then
        crs.(rc_index) <- Word.of_signed (Word.signed crs.(rc_index) - ticks);
      rc_base := !executed
    end
  in
  refresh_status ();
  let stop_reason = ref Fuel in
  (* Enter a translated superblock: charge the whole head block (and
     every block chained after it) against a budget that can never
     overshoot the fuel or the recovery counter, run the closure
     chain, then fold the results back into the interpreter's
     accounting.  Returns false — caller falls back to interpreting —
     when the entry prechecks refuse or no instruction completed. *)
  let enter_threaded tx (e : Translate.entry) epc =
    let budget = (if fuel < !expire_at then fuel else !expire_at) - !executed in
    if budget < e.Translate.e_cost then begin
      Translate.note_entry_refused_budget tx;
      false
    end
    else if e.Translate.e_priv_mask land (1 lsl !spriv) = 0 then begin
      Translate.note_entry_refused_priv tx;
      false
    end
    else begin
      (match vd with None -> () | Some v -> close_window v !executed);
      let st = tx.Translate.state in
      st.Translate.x_pc <- epc;
      st.Translate.x_remaining <- budget;
      st.Translate.x_smmu <- !smmu;
      st.Translate.x_spriv <- !spriv;
      st.Translate.x_stop <- None;
      st.Translate.x_exit <- Translate.exit_budget;
      e.Translate.e_run ();
      (* blocks only ever decrement the budget (exits refund the
         unexecuted tail), so the completed count falls out of it *)
      let d = budget - st.Translate.x_remaining in
      executed := !executed + d;
      t.pc_ <- st.Translate.x_pc;
      tx.Translate.entries_taken <- tx.Translate.entries_taken + 1;
      tx.Translate.threaded_instrs <- tx.Translate.threaded_instrs + d;
      Translate.note_exit tx;
      (match vd with
      | None -> ()
      | Some v ->
        (* threaded instructions count as validated and covered: the
           entry precheck plus the static certificates stand in for
           the per-instruction checks.  The written set takes the
           region's static def mask (an overapproximation that loses
           dynamic precision, never soundness), and the region bound
           restarts — consistent with the undercounting stance above. *)
        v.v_checked <- v.v_checked + d;
        v.v_covered <- v.v_covered + d;
        v.v_written <- v.v_written lor e.Translate.e_def;
        v.v_cur_region <- -1;
        v.v_cur_loop <- -1;
        v.v_skip_from <- 0;
        v.v_skip_until <- 0);
      (* the recovery check precedes any pending memory stop, exactly
         as the interpreter checks expiry after the last completed
         instruction before attempting the next one *)
      if !executed = !expire_at then begin
        stop_reason := Recovery;
        raise (Stop_exec Recovery)
      end;
      (match st.Translate.x_stop with
      | Some s -> raise (Stop_exec (convert_stop s))
      | None -> ());
      d > 0
    end
  in
  (try
     while !executed < fuel do
       let pc = t.pc_ in
       if pc < 0 || pc >= code_len then raise (fault_bad_pc pc);
       let threaded =
         match tr with
         | None -> false
         | Some tx -> (
           match tx.Translate.entries.(pc) with
           | None -> false
           | Some e -> enter_threaded tx e pc)
       in
       if not threaded then begin
       let instr = Array.unsafe_get code pc in
       (match vd with
       | None -> ()
       | Some v ->
         if pc > v.v_skip_from && pc < v.v_skip_until then ()
         else validate_pre_block v pc instr !spriv !executed);
       (match instr with
       | Isa.Nop -> t.pc_ <- pc + 1
       | Isa.Ldi (rd, v) ->
         if rd <> 0 then regs.(rd) <- Word.mask v;
         t.pc_ <- pc + 1
       | Isa.Alu (op, rd, r1, r2) ->
         if rd <> 0 then regs.(rd) <- Word.mask (alu op regs.(r1) regs.(r2));
         t.pc_ <- pc + 1
       | Isa.Alui (op, rd, rs, imm) ->
         if rd <> 0 then
           regs.(rd) <- Word.mask (alu op regs.(rs) (Word.of_signed imm));
         t.pc_ <- pc + 1
       | Isa.Ld (rd, rs, off) ->
         let vaddr = Word.add regs.(rs) (Word.of_signed off) in
         let paddr =
           if !smmu then translate_exn t ~write:false ~priv:!spriv vaddr
           else vaddr
         in
         if paddr >= mmio_base then
           raise (Stop_exec (Mmio_read { paddr; reg = rd }))
         else if not (Memory.in_range memory paddr) then
           raise (fault_load paddr)
         else begin
           if rd <> 0 then regs.(rd) <- Memory.read_fast memory paddr;
           t.pc_ <- pc + 1
         end
       | Isa.St (rv, rb, off) ->
         let vaddr = Word.add regs.(rb) (Word.of_signed off) in
         let paddr =
           if !smmu then translate_exn t ~write:true ~priv:!spriv vaddr
           else vaddr
         in
         if paddr >= mmio_base then
           raise (Stop_exec (Mmio_write { paddr; value = regs.(rv) }))
         else if not (Memory.in_range memory paddr) then
           raise (fault_store paddr)
         else begin
           Memory.write_fast memory paddr regs.(rv);
           t.pc_ <- pc + 1
         end
       | Isa.Br (c, r1, r2, tgt) ->
         if cond_holds c regs.(r1) regs.(r2) then t.pc_ <- tgt
         else t.pc_ <- pc + 1
       | Isa.Jmp tgt -> t.pc_ <- tgt
       | Isa.Jal (rd, tgt) ->
         (* branch-and-link privilege quirk (section 3.1): the return
            address carries the privilege level in its two low bits *)
         if rd <> 0 then regs.(rd) <- Word.mask (((pc + 1) lsl 2) lor !spriv);
         t.pc_ <- tgt
       | Isa.Jr rs ->
         t.pc_ <- regs.(rs) lsr 2;
         (* a computed target may lie inside the current block, which
            [Cfg] does not see as a leader: end the window here so the
            next pc closes it, whatever that pc is *)
         (match vd with None -> () | Some v -> v.v_skip_until <- 0)
       | Isa.Probe rd ->
         if rd <> 0 then regs.(rd) <- !spriv;
         t.pc_ <- pc + 1
       | Isa.Halt -> raise (Stop_exec Stop_halt)
       | Isa.Wfi ->
         (* Completes (counts against the recovery counter), then
            relinquishes the processor — without post-validation, so a
            deferred window is credited only up to it. *)
         (match vd with None -> () | Some v -> close_window v !executed);
         t.pc_ <- pc + 1;
         incr executed;
         (match prof with None -> () | Some p -> p.(pc) <- p.(pc) + 1);
         if !executed = !expire_at then stop_reason := Recovery
         else stop_reason := Stop_wfi;
         raise (Stop_exec !stop_reason)
       | Isa.(Rdtod _ | Rdtmr _ | Wrtmr _ | Out _) as i ->
         raise (Stop_exec (Env i))
       | Isa.Trapc code -> raise (Stop_exec (Syscall code))
       | Isa.(Mfcr _ | Mtcr _ | Tlbw _ | Rfi) as i ->
         if !spriv <> 0 then raise (Stop_exec (Priv i))
         else begin
           (* the counter must be architecturally accurate before any
              control-register read or write *)
           sync_rc ();
           (match i with
           | Isa.Mfcr (rd, c) ->
             if rd <> 0 then regs.(rd) <- Word.mask (cr t c);
             t.pc_ <- pc + 1
           | Isa.Mtcr (c, rs) ->
             set_cr t c regs.(rs);
             t.pc_ <- pc + 1
           | Isa.Tlbw (r1, r2) ->
             let vpage = regs.(r1) in
             Tlb.insert t.tlb_state (Tlb.decode_entry_word ~vpage regs.(r2));
             t.pc_ <- pc + 1
           | Isa.Rfi ->
             set_cr t Isa.Cr_status (cr t Isa.Cr_istatus);
             t.pc_ <- cr t Isa.Cr_epc
           | _ -> assert false);
           (* closes any deferred window before this instruction, which
              the completion point below then credits on its own *)
           refresh_status ()
         end);
       (* every arm that does not complete the instruction raises, so
          falling through here means one more completed instruction *)
       incr executed;
       (match prof with None -> () | Some p -> p.(pc) <- p.(pc) + 1);
       (match vd with
       | Some v when v.v_open_at < 0 -> credit v pc 1
       | _ -> ());
       if !executed = !expire_at then begin
         stop_reason := Recovery;
         raise (Stop_exec Recovery)
       end
       end
     done
   with Stop_exec st ->
     stop_reason :=
       (* An MMIO load reached from a Deterministic-certified block is
          itself a certificate violation: the static pass claimed the
          address stays below the MMIO window.  [pc_] still points at
          the faulting load.  Only with the MMU off — the static bound
          is on the virtual address, and a mapped page may
          legitimately target the MMIO window. *)
       (match (vd, st) with
       | Some v, Mmio_read _
         when (not !smmu) && t.pc_ >= 0 && t.pc_ < code_len && v.v_det.(t.pc_)
         ->
         Cert_violation
           {
             addr = t.pc_;
             msg =
               "MMIO load inside a Deterministic-certified block: the \
                static address bound was wrong";
           }
       | _ -> st));
  (match vd with None -> () | Some v -> close_window v !executed);
  sync_rc ();
  t.retired <- t.retired + !executed;
  { executed = !executed; stop = !stop_reason }

let deliver_trap ?(badvaddr = 0) t ~cause ~epc =
  deliver_trap_impl t ~cause ~badvaddr ~epc

let instructions_retired t = t.retired

let fnv_prime = 0x100000001b3
let fnv_mask = (1 lsl 62) - 1

let state_hash ?(include_tlb = false) ?(full = false) t =
  let h = ref 0x3bf29ce484222325 in
  let mix v = h := (!h lxor (v land fnv_mask)) * fnv_prime land fnv_mask in
  mix t.pc_;
  Array.iter mix t.regs;
  Array.iter mix t.crs;
  (* [digest] and [full_digest] are equal by construction, so the two
     schemes produce the same state hash — replicas need not agree on
     which one they use *)
  mix (if full then Memory.full_digest t.memory else Memory.digest t.memory);
  if include_tlb then h := Tlb.hash_into t.tlb_state !h;
  !h

type snapshot = {
  s_regs : int array;
  s_crs : int array;
  s_pc : int;
  s_mem : Memory.t;
  s_code_len : int;
}

let snapshot t =
  let base =
    match t.snap_base with
    | None ->
      (* first snapshot: the only full-memory copy this CPU ever pays *)
      let m = Memory.copy t.memory in
      t.snap_base <- Some m;
      t.snap_bytes <- t.snap_bytes + (4 * Memory.size m);
      Memory.clear_dirty t.memory;
      m
    | Some base ->
      List.iter
        (fun p ->
          Memory.copy_page ~src:t.memory ~dst:base p;
          t.snap_bytes <- t.snap_bytes + (4 * Memory.page_words t.memory p))
        (Memory.dirty_pages t.memory);
      Memory.clear_dirty t.memory;
      base
  in
  {
    s_regs = Array.copy t.regs;
    s_crs = Array.copy t.crs;
    s_pc = t.pc_;
    s_mem = base;
    s_code_len = Array.length t.code;
  }

let snapshot_bytes_copied t = t.snap_bytes

let restore t snap =
  if snap.s_code_len <> Array.length t.code then
    invalid_arg "Cpu.restore: code image mismatch";
  validator_amnesty t;
  Array.blit snap.s_regs 0 t.regs 0 (Array.length t.regs);
  Array.blit snap.s_crs 0 t.crs 0 (Array.length t.crs);
  t.pc_ <- snap.s_pc;
  Memory.blit_from t.memory ~src:snap.s_mem;
  Tlb.flush t.tlb_state

let pp_stop fmt = function
  | Fuel -> Format.fprintf fmt "fuel"
  | Recovery -> Format.fprintf fmt "recovery"
  | Stop_halt -> Format.fprintf fmt "halt"
  | Stop_wfi -> Format.fprintf fmt "wfi"
  | Env i -> Format.fprintf fmt "env(%a)" Isa.pp i
  | Priv i -> Format.fprintf fmt "priv(%a)" Isa.pp i
  | Mmio_read { paddr; reg } ->
    Format.fprintf fmt "mmio-read(0x%x -> r%d)" paddr reg
  | Mmio_write { paddr; value } ->
    Format.fprintf fmt "mmio-write(0x%x <- %a)" paddr Word.pp value
  | Tlb_miss { vaddr; write } ->
    Format.fprintf fmt "tlb-miss(0x%x, %s)" vaddr (if write then "w" else "r")
  | Protection { vaddr; write } ->
    Format.fprintf fmt "protection(0x%x, %s)" vaddr (if write then "w" else "r")
  | Syscall code -> Format.fprintf fmt "syscall(%d)" code
  | Fault msg -> Format.fprintf fmt "fault(%s)" msg
  | Cert_violation { addr; msg } ->
    Format.fprintf fmt "cert-violation(@%d: %s)" addr msg
