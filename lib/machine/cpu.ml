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

type coverage = { mutable covered : int; mutable checked : int }

(* ---------- the decoded image ----------

   Each code image is decoded once into one [Op.t] per address, which
   both [run] and the translation execute.  One per code image, shared
   by every CPU over it: both replicas, and the recycled trial and
   checker machines.  Images are looked up by
   identity, which is sound because an image is never mutated once a
   CPU runs it. *)
type image = {
  i_ops : Op.t array;
  mutable i_hash : int option;  (* [Encode.program_hash], once *)
}

module Images = Ephemeron.K1.Make (struct
  type t = Isa.instr array

  let equal = ( == )
  let hash = Hashtbl.hash
end)

let images : image Images.t = Images.create 8

let image_of code =
  match Images.find_opt images code with
  | Some im -> im
  | None ->
    let im = { i_ops = Array.map Op.decode code; i_hash = None } in
    Images.replace images code im;
    im

(* ---------- the validator's tables ----------

   One immutable record per code address holds everything the
   validator reads there: the address's own certificates, its basic
   block's straight-line run from the address to the block's end, and
   whether it lies in a certified superblock.  Built once per manifest and
   deprivileging and shared by every CPU armed from them, so it is
   packed: flags in one word, and each pair of 16-register masks in
   one word, the registers read in the low half and those written in
   the high half. *)
type vrec = {
  r_flags : int;
      (* the allowed real-privilege bitmask in bits 0-3, then the
         [f_*] bits below *)
  r_regs : int;  (* registers the instruction reads, and writes (r0 excluded) *)
  r_run_regs : int;
      (* registers the run [a, end) reads before writing them, and
         every register it writes *)
  r_end : int;  (* exclusive end of the basic block *)
  r_straight : int;
      (* end of the run's prefix of ordinary instructions: how far a
         tight window may execute from here *)
}

let f_det = 0x10  (* inside a [Deterministic]-certified block *)

let f_window = 0x20
(* a window may open here: the run [a, end) is longer than one
   instruction and its strict suffix holds no hazard *)

let f_cert = 0x40  (* inside a certified superblock *)

(* the hazards, which need their own check inside a Deterministic
   block: a Probe, and a Tlbw under random replacement *)
let f_probe = 0x100
let f_tlbw = 0x200

let[@inline] has r f = r.r_flags land f <> 0
let[@inline] reads m = m land 0xFFFF
let[@inline] writes m = m lsr 16

type vtables = vrec array

(* Runtime certificate validator (the dynamic oracle for the static
   analyzer's compilation manifest): shared tables plus this CPU's run
   state.  Every hypervisor and bare machine installs it at boot; the
   hot loop pays one [match] on the hoisted option, absent only on a
   CPU built without a manifest. *)
type validator = {
  v_origin : origin option;  (* what built the tables, for [rearm_validator] *)
  v_tab : vtables;
  mutable v_skip_from : int;    (* current validated window, [from, until) *)
  mutable v_skip_until : int;
  mutable v_open_at : int;
      (* the run's executed count when the current window opened, its
         credit deferred to its close; -1 while none is open *)
  mutable v_written : int;      (* registers written since boot/trap/restore *)
  mutable v_covered : int;      (* completed instrs in certified superblocks *)
  mutable v_checked : int;      (* completed instrs while validating *)
  mutable v_windows : int;      (* windows opened *)
  mutable v_window_instrs : int;  (* instructions retired by tight windows *)
  v_cov : coverage;  (* [validator_coverage]'s view of the two *)
}

(* [run]'s per-burst state that its out-of-line helpers share: the
   status flags hoisted out of [Cr_status], the executed count the
   recovery counter was last synchronised at, the count at which it
   expires ([max_int] while disabled), and the tight window running.
   One per CPU, so a burst allocates none of it. *)
type scratch = {
  mutable s_priv : int;
  mutable s_mmu : bool;
  mutable s_rc : bool;
  mutable s_rc_base : int;
  mutable s_expire : int;
  mutable s_window : int;
      (* the head of the tight window running, -1 outside one *)
}

type t = {
  cfg : config;
  code : Isa.instr array;
  image : image;
  memory : Memory.t;
  tlb_state : Tlb.t;
  regs : int array;
  crs : int array;
  mutable pc_ : int;
  mutable retired : int;
  mutable snap_bytes : int;
      (* cumulative bytes counted by snapshots; 0 until the first *)
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
  mutable spare_validator : validator option;
  mutable spare_trans :
    (Translate.t * Translate.plan_region list * origin) option;
      (* the recycled predecessor's armed state, already reset, until
         [rearm_validator] / [rearm_translation] claim or drop it *)
  sc : scratch;
}

(* The per-run half of a validator: everything [install_validator]
   would start a fresh CPU with. *)
let reset_validator v =
  v.v_skip_from <- 0;
  v.v_skip_until <- 0;
  v.v_open_at <- -1;
  v.v_written <- 1;
  v.v_covered <- 0;
  v.v_checked <- 0;
  v.v_windows <- 0;
  v.v_window_instrs <- 0

(* A recycled CPU adopts the old one's state objects, each reset to
   exactly what a fresh CPU allocates: its memory, its register files,
   and its TLB when the replacement policy is round-robin (a random
   policy brings its own stream, so the TLB is new).  Over the same
   code image it also keeps, as spares, the validator and the
   translation: the translation's closures alias the registers, memory
   and TLB, so it is kept only when all three were adopted and it was
   compiled without profiling hooks. *)
let create ?(config = default_config) ?recycle ~code () =
  (* a CPU whose memory has another geometry has nothing to lend *)
  let recycle =
    match recycle with
    | Some old
      when Memory.size old.memory = config.mem_words
           && Memory.page_shift old.memory = config.page_shift ->
      recycle
    | _ -> None
  in
  let memory, tlb_state, regs, crs =
    match recycle with
    | None ->
      ( Memory.create ~page_shift:config.page_shift ~words:config.mem_words (),
        Tlb.create ~entries:config.tlb_entries config.tlb_policy,
        Array.make Isa.num_regs 0,
        Array.make Isa.num_crs 0 )
    | Some old ->
      let m = old.memory in
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
      (m, tlb, old.regs, old.crs)
  in
  let image =
    match recycle with
    | Some old when old.code == code -> old.image
    | _ -> image_of code
  in
  let t =
    {
      cfg = config;
      code;
      image;
      memory;
      tlb_state;
      regs;
      crs;
      pc_ = 0;
      retired = 0;
      snap_bytes = 0;
      validator = None;
      trans = None;
      prof = None;
      plan = None;
      trans_origin = None;
      spare_validator = None;
      spare_trans = None;
      sc =
        { s_priv = 0; s_mmu = false; s_rc = false; s_rc_base = 0;
          s_expire = max_int; s_window = -1 };
    }
  in
  (match recycle with
  | Some old when old.code == code -> (
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
  match t.image.i_hash with
  | Some h -> h
  | None ->
    let h = Encode.program_hash t.code in
    t.image.i_hash <- Some h;
    h

let validator_tables ?blk_end ~code ~priv_ok ~det ~uses ~def ~certified
    ~random_tlb () =
  let n = Array.length code in
  if
    Array.length priv_ok <> n || Array.length det <> n
    || Array.length uses <> n || Array.length def <> n
    || Array.length certified <> n
  then invalid_arg "Cpu.validator_tables: table length mismatch";
  let run_end =
    match blk_end with
    | Some e ->
      if Array.length e <> n then
        invalid_arg "Cpu.validator_tables: blk_end length mismatch";
      e
    | None ->
      (* no block structure: every window is a singleton, which makes
         the hoisted path behave exactly like per-instruction checks *)
      Array.init n (fun a -> a + 1)
  in
  let check_mask m =
    if m land lnot 0xFFFF <> 0 then
      invalid_arg "Cpu.validator_tables: register mask beyond 16 registers"
  in
  Array.iter check_mask uses;
  Array.iter check_mask def;
  let hazard a =
    match code.(a) with
    | Isa.Probe _ -> f_probe
    | Isa.Tlbw _ when random_tlb -> f_tlbw
    | _ -> 0
  in
  let ordinary a = Isa.classify code.(a) = Isa.Ordinary in
  (* straight-line suffix summaries, built backwards inside each block:
     uses-before-def feeding the one-shot window check, the defs a
     window credits at once, whether the strict suffix holds
     a hazard forcing per-address checks, and where the prefix of
     ordinary instructions a tight window may execute ends *)
  let ubd = Array.make n 0 and run_def = Array.make n 0 in
  let run_hazard = Array.make n false and straight = Array.make n 0 in
  for a = n - 1 downto 0 do
    let e = run_end.(a) in
    if a + 1 < e then begin
      ubd.(a) <- uses.(a) lor (ubd.(a + 1) land lnot def.(a));
      run_def.(a) <- def.(a) lor run_def.(a + 1);
      run_hazard.(a) <- run_hazard.(a + 1) || hazard (a + 1) <> 0;
      straight.(a) <- (if ordinary a then min e straight.(a + 1) else a)
    end
    else begin
      ubd.(a) <- uses.(a);
      run_def.(a) <- def.(a);
      straight.(a) <- (if ordinary a then a + 1 else a)
    end
  done;
  let record a =
    let e = run_end.(a) in
    let flag b f = if b then f else 0 in
    {
      r_flags =
        priv_ok.(a) land 0xF
        lor flag det.(a) f_det
        lor flag (e > a + 1 && not run_hazard.(a)) f_window
        lor flag certified.(a) f_cert
        lor hazard a;
      r_regs = uses.(a) lor (def.(a) lsl 16);
      r_run_regs = ubd.(a) lor (run_def.(a) lsl 16);
      r_end = e;
      r_straight = straight.(a);
    }
  in
  Array.init n record

let install_validator ?origin t tables =
  if Array.length tables <> Array.length t.code then
    invalid_arg "Cpu.install_validator: tables are for another image";
  t.spare_validator <- None;
  t.validator <-
    Some
      {
        v_origin = origin;
        v_tab = tables;
        v_skip_from = 0;
        v_skip_until = 0;
        v_open_at = -1;
        v_written = 1;
        v_covered = 0;
        v_checked = 0;
        v_windows = 0;
        v_window_instrs = 0;
        v_cov = { covered = 0; checked = 0 };
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

(* never written: only a validator's own view is *)
let no_coverage = { covered = 0; checked = 0 }

(* The counters stay plain fields of the validator, which the hot loop
   bumps; the view is refreshed on demand, so reading it allocates
   nothing. *)
let validator_coverage t =
  match t.validator with
  | None -> no_coverage
  | Some v ->
    v.v_cov.covered <- v.v_covered;
    v.v_cov.checked <- v.v_checked;
    v.v_cov

let windows_opened t =
  match t.validator with None -> 0 | Some v -> v.v_windows

let window_instrs t =
  match t.validator with None -> 0 | Some v -> v.v_window_instrs

(* The architectural events that legitimately reset the validator's
   path-sensitive state: trap delivery enters a root whose context the
   static analysis models as fully initialized, and a snapshot restore
   installs a register file that is itself replicated state. *)
let validator_amnesty t =
  match t.validator with
  | None -> ()
  | Some v -> v.v_written <- -1

let compile_translation t plan =
  t.plan <- Some plan;
  t.trans <-
    Some
      (Translate.compile ~code:t.code ~ops:t.image.i_ops ~regs:t.regs
         ~mem:t.memory ~tlb:t.tlb_state ~mmio_base:t.cfg.mmio_base
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

(* A stop leaves the pc at the instruction that raised it.  A tight
   window keeps its pc in a register, so the raising paths store it. *)
let[@inline never] raise_at t pc e =
  t.pc_ <- pc;
  raise e

(* MMU-on address translation for the hot loop: raises the [Tlb_miss]
   or [Protection] stop instead of allocating a [result]. *)
let[@inline] translate_at t pc ~write ~priv vaddr =
  let shift = t.cfg.page_shift in
  match Tlb.lookup t.tlb_state ~vpage:(vaddr lsr shift) with
  | None -> raise_at t pc (Stop_exec (Tlb_miss { vaddr; write }))
  | Some e ->
    if (priv = 3 && not e.Tlb.user_ok) || (write && not e.Tlb.writable) then
      raise_at t pc (Stop_exec (Protection { vaddr; write }))
    else (e.Tlb.ppage lsl shift) lor (vaddr land ((1 lsl shift) - 1))

let translate t ~write vaddr =
  let s = status t in
  if not (Isa.status_mmu_enable s) then Ok vaddr
  else
    match translate_at t t.pc_ ~write ~priv:(Isa.status_priv s) vaddr with
    | paddr -> Ok paddr
    | exception Stop_exec st -> Error st

(* Fault messages are built off the hot path: these never run on the
   instructions-per-second-critical loop iterations. *)
let[@inline never] fault_bad_pc pc =
  Stop_exec (Fault (Printf.sprintf "pc 0x%x outside code" pc))

let[@inline never] fault_load paddr =
  Stop_exec (Fault (Printf.sprintf "load from bad address 0x%x" paddr))

let[@inline never] fault_store paddr =
  Stop_exec (Fault (Printf.sprintf "store to bad address 0x%x" paddr))

let[@inline never] cert_viol addr msg = Stop_exec (Cert_violation { addr; msg })

(* The load and store paths: translation while the MMU is on, then the
   MMIO window, then the memory bound. *)
let[@inline] load t s memory mmio_base pc vaddr rd =
  let paddr =
    if s.s_mmu then translate_at t pc ~write:false ~priv:s.s_priv vaddr
    else vaddr
  in
  if paddr >= mmio_base then
    raise_at t pc (Stop_exec (Mmio_read { paddr; reg = rd }))
  else if not (Memory.in_range memory paddr) then
    raise_at t pc (fault_load paddr)
  else Memory.read_fast memory paddr

let[@inline] store t s memory mmio_base pc vaddr value =
  let paddr =
    if s.s_mmu then translate_at t pc ~write:true ~priv:s.s_priv vaddr
    else vaddr
  in
  if paddr >= mmio_base then
    raise_at t pc (Stop_exec (Mmio_write { paddr; value }))
  else if not (Memory.in_range memory paddr) then
    raise_at t pc (fault_store paddr)
  else Memory.write_fast memory paddr value

(* The semantics of every decoded ordinary instruction, written once
   and inlined into both of [run]'s loops: execute the operation at
   [pc] and return the next pc.  Results are words already, so they
   are stored unmasked.  [Sys] operations never get here. *)
let[@inline always] step t s regs memory mmio_base pc (op : Op.t) =
  match op with
  | Nop -> pc + 1
  | Ldi (rd, k) ->
    regs.(rd) <- k;
    pc + 1
  | Add (rd, a, b) ->
    regs.(rd) <- Word.add regs.(a) regs.(b);
    pc + 1
  | Sub (rd, a, b) ->
    regs.(rd) <- Word.sub regs.(a) regs.(b);
    pc + 1
  | Mul (rd, a, b) ->
    regs.(rd) <- Word.mul regs.(a) regs.(b);
    pc + 1
  | Divu (rd, a, b) ->
    regs.(rd) <- Word.divu regs.(a) regs.(b);
    pc + 1
  | Remu (rd, a, b) ->
    regs.(rd) <- Word.remu regs.(a) regs.(b);
    pc + 1
  | And (rd, a, b) ->
    regs.(rd) <- regs.(a) land regs.(b);
    pc + 1
  | Or (rd, a, b) ->
    regs.(rd) <- regs.(a) lor regs.(b);
    pc + 1
  | Xor (rd, a, b) ->
    regs.(rd) <- regs.(a) lxor regs.(b);
    pc + 1
  | Sll (rd, a, b) ->
    regs.(rd) <- Word.shift_left regs.(a) regs.(b);
    pc + 1
  | Srl (rd, a, b) ->
    regs.(rd) <- Word.shift_right_logical regs.(a) regs.(b);
    pc + 1
  | Sra (rd, a, b) ->
    regs.(rd) <- Word.shift_right_arith regs.(a) regs.(b);
    pc + 1
  | Slt (rd, a, b) ->
    regs.(rd) <- Bool.to_int (Word.lt_signed regs.(a) regs.(b));
    pc + 1
  | Sltu (rd, a, b) ->
    regs.(rd) <- Bool.to_int (regs.(a) < regs.(b));
    pc + 1
  | Addi (rd, a, k) ->
    regs.(rd) <- Word.add regs.(a) k;
    pc + 1
  | Subi (rd, a, k) ->
    regs.(rd) <- Word.sub regs.(a) k;
    pc + 1
  | Muli (rd, a, k) ->
    regs.(rd) <- Word.mul regs.(a) k;
    pc + 1
  | Divui (rd, a, k) ->
    regs.(rd) <- Word.divu regs.(a) k;
    pc + 1
  | Remui (rd, a, k) ->
    regs.(rd) <- Word.remu regs.(a) k;
    pc + 1
  | Andi (rd, a, k) ->
    regs.(rd) <- regs.(a) land k;
    pc + 1
  | Ori (rd, a, k) ->
    regs.(rd) <- regs.(a) lor k;
    pc + 1
  | Xori (rd, a, k) ->
    regs.(rd) <- regs.(a) lxor k;
    pc + 1
  | Slli (rd, a, k) ->
    regs.(rd) <- Word.shift_left regs.(a) k;
    pc + 1
  | Srli (rd, a, k) ->
    regs.(rd) <- Word.shift_right_logical regs.(a) k;
    pc + 1
  | Srai (rd, a, k) ->
    regs.(rd) <- Word.shift_right_arith regs.(a) k;
    pc + 1
  | Slti (rd, a, k) ->
    regs.(rd) <- Bool.to_int (Word.lt_signed regs.(a) k);
    pc + 1
  | Sltui (rd, a, k) ->
    regs.(rd) <- Bool.to_int (regs.(a) < k);
    pc + 1
  | Ld (rd, rs, off) ->
    regs.(rd) <- load t s memory mmio_base pc (Word.add regs.(rs) off) rd;
    pc + 1
  | Ld0 (rs, off) ->
    ignore (load t s memory mmio_base pc (Word.add regs.(rs) off) 0 : int);
    pc + 1
  | St (rv, rb, off) ->
    store t s memory mmio_base pc (Word.add regs.(rb) off) regs.(rv);
    pc + 1
  | Beq (a, b, tgt) -> if regs.(a) = regs.(b) then tgt else pc + 1
  | Bne (a, b, tgt) -> if regs.(a) <> regs.(b) then tgt else pc + 1
  | Blt (a, b, tgt) -> if Word.lt_signed regs.(a) regs.(b) then tgt else pc + 1
  | Bge (a, b, tgt) -> if Word.lt_signed regs.(a) regs.(b) then pc + 1 else tgt
  | Bltu (a, b, tgt) -> if regs.(a) < regs.(b) then tgt else pc + 1
  | Bgeu (a, b, tgt) -> if regs.(a) < regs.(b) then pc + 1 else tgt
  | Jmp tgt -> tgt
  | Jal (rd, tgt) ->
    (* branch-and-link privilege quirk (section 3.1): the return
       address carries the privilege level in its two low bits *)
    regs.(rd) <- Word.mask (((pc + 1) lsl 2) lor s.s_priv);
    tgt
  | Jr rs ->
    (* a computed target may lie inside the current block, which [Cfg]
       does not see as a leader: end the window here so the next pc
       closes it, whatever that pc is *)
    (match t.validator with None -> () | Some v -> v.v_skip_until <- 0);
    regs.(rs) lsr 2
  | Probe rd ->
    regs.(rd) <- s.s_priv;
    pc + 1
  | Sys _ -> assert false

(* ---------- the validator's checks ----------

   The pre-dispatch certificate checks run at the privilege level the
   instruction is about to execute at, before any state mutates (safe
   to re-run on a TLB-miss retry of the same instruction).  The fast
   test is one expression over the address's record; a failure raises
   out of line, the first broken certificate in a fixed order. *)
let[@inline never] validate_fail r pc spriv written =
  if r.r_flags land (1 lsl spriv) = 0 then
    raise
      (cert_viol pc
         (Printf.sprintf
            "Priv0-certified block executes at real privilege level %d" spriv));
  let missing = reads r.r_regs land lnot written in
  if missing <> 0 then
    raise
      (cert_viol pc
         (Printf.sprintf
            "Deterministic-certified block reads register mask 0x%x before \
             any write reaches it"
            missing));
  if has r f_probe then
    raise
      (cert_viol pc
         "Probe (environment-state read) inside a Deterministic-certified \
          block")
  else
    raise
      (cert_viol pc
         "TLB insertion under random replacement inside a \
          Deterministic-certified block")

let[@inline] validate v r pc spriv =
  if
    r.r_flags land (1 lsl spriv) = 0
    || has r f_det
       && (reads r.r_regs land lnot v.v_written <> 0
          || has r (f_probe lor f_tlbw))
  then validate_fail r pc spriv v.v_written

(* the registers a window closed early wrote *)
let[@inline never] prefix_def recs pc0 n =
  let d = ref 0 in
  for a = pc0 to pc0 + n - 1 do
    d := !d lor writes recs.(a).r_regs
  done;
  !d

(* Post-completion bookkeeping for [n] consecutive completions starting
   at [pc0] inside one basic block: definition tracking and coverage.
   The per-instruction path credits [n = 1]; a window credits its whole
   completed prefix when it closes.  Crediting a run at once equals
   crediting it instruction by instruction because the certified flag
   is uniform per block, as [Manifest.arm_validator] guarantees.  Arms
   that stop the processor raise before the shared completion point and
   are charged by their executor instead — undercounting the coverage,
   never overcounting. *)
let[@inline] credit v pc0 n =
  let recs = v.v_tab in
  let r = recs.(pc0) in
  v.v_checked <- v.v_checked + n;
  v.v_written <-
    v.v_written
    lor
      (if pc0 + n = r.r_end then writes r.r_run_regs
       else prefix_def recs pc0 n);
  if has r f_cert then v.v_covered <- v.v_covered + n

let[@inline never] credit_one v pc = credit v pc 1

(* Close the open window at the run's current executed count: credit
   the instructions completed since it opened, all consecutive from its
   head because a window never extends past its basic block. *)
let[@inline] close_window v executed =
  if v.v_open_at >= 0 then begin
    let n = executed - v.v_open_at in
    v.v_open_at <- -1;
    if n > 0 then credit v v.v_skip_from n
  end

let[@inline never] close_window_slow v executed = close_window v executed

(* Per-block hoisting of the certificate checks: close the previous
   window, validate the current address exactly as before, then try to
   certify the rest of its basic block in one shot.  The block's
   certificates are uniform (privilege mask, determinism flag), the
   written-register set only ever grows between status changes, and
   blocks are single-entry, so once the suffix's uses-before-def mask
   is covered and the suffix holds no per-address hazard, every later
   address in the block would pass [validate] too — the loop then skips
   it while the pc stays strictly inside the window.

   The window's post side, which cannot raise, is deferred to its
   close.  A window is closed when the pc leaves it or comes back to
   its head, and by status changes, threaded entries, a [Wfi] and the
   end of [run]; a [Jr] ends it, so a computed jump into the middle of
   its own block closes it too.  Every close therefore credits at most
   the window's length.

   Returns where a tight run of the window may end: the end of its
   ordinary prefix when a window opened, else [pc]. *)
let[@inline] enter_block v pc spriv executed =
  close_window v executed;
  let r = Array.unsafe_get v.v_tab pc in
  validate v r pc spriv;
  if
    has r f_window
    && ((not (has r f_det)) || reads r.r_run_regs land lnot v.v_written = 0)
  then begin
    v.v_skip_from <- pc;
    v.v_skip_until <- r.r_end;
    v.v_open_at <- executed;
    v.v_windows <- v.v_windows + 1;
    r.r_straight
  end
  else begin
    v.v_skip_from <- 0;
    v.v_skip_until <- 0;
    pc
  end

(* Re-read the status flags into [t.sc] after [Cr_status] may have
   changed, and restart the recovery counter's accounting at
   [executed]. *)
let refresh_status t executed =
  let s = t.sc in
  let st = t.crs.(status_index) in
  s.s_priv <- Isa.status_priv st;
  s.s_mmu <- Isa.status_mmu_enable st;
  s.s_rc <- Isa.status_rc_enable st;
  s.s_rc_base <- executed;
  s.s_expire <-
    (if s.s_rc then
       let v = Word.signed t.crs.(rc_index) in
       executed + (if v < 0 then 1 else v + 1)
     else max_int);
  (* a status change invalidates the validator's skip window: the
     per-block certificate was checked at the old privilege level *)
  match t.validator with
  | None -> ()
  | Some v ->
    close_window v executed;
    v.v_skip_from <- 0;
    v.v_skip_until <- 0

(* Write the recovery counter back: charge it the instructions
   completed since [s_rc_base]. *)
let sync_rc t executed =
  let s = t.sc in
  if s.s_rc then begin
    let ticks = executed - s.s_rc_base in
    if ticks > 0 then
      t.crs.(rc_index) <- Word.of_signed (Word.signed t.crs.(rc_index) - ticks);
    s.s_rc_base <- executed
  end

(* Everything but [Wfi] that decodes to [Sys]: a stop, or, at privilege
   level 0, a privileged instruction that completes in the loop. *)
let[@inline never] exec_sys t (i : Isa.instr) pc executed =
  match i with
  | Halt -> raise (Stop_exec Stop_halt)
  | Rdtod _ | Rdtmr _ | Wrtmr _ | Out _ -> raise (Stop_exec (Env i))
  | Trapc code -> raise (Stop_exec (Syscall code))
  | (Mfcr _ | Mtcr _ | Tlbw _ | Rfi) when t.sc.s_priv <> 0 ->
    raise (Stop_exec (Priv i))
  (* The counter must be architecturally accurate before any
     control-register read or write.  Refreshing the status closes any
     open window before this instruction, which the completion
     point then credits on its own. *)
  | Mfcr (rd, c) ->
    sync_rc t executed;
    if rd <> 0 then t.regs.(rd) <- Word.mask (cr t c);
    t.pc_ <- pc + 1;
    refresh_status t executed
  | Mtcr (c, rs) ->
    sync_rc t executed;
    set_cr t c t.regs.(rs);
    t.pc_ <- pc + 1;
    refresh_status t executed
  | Tlbw (r1, r2) ->
    sync_rc t executed;
    let vpage = t.regs.(r1) in
    Tlb.insert t.tlb_state (Tlb.decode_entry_word ~vpage t.regs.(r2));
    t.pc_ <- pc + 1;
    refresh_status t executed
  | Rfi ->
    sync_rc t executed;
    set_cr t Isa.Cr_status (cr t Isa.Cr_istatus);
    t.pc_ <- cr t Isa.Cr_epc;
    refresh_status t executed
  | _ -> assert false

(* Enter a translated superblock at [executed] completed instructions:
   charge the whole head block (and every block chained after it)
   against a budget that can never overshoot the fuel or the recovery
   counter, run the closure chain, then fold the results back into the
   interpreter's accounting.  Returns how many instructions completed,
   or -1 when the entry prechecks refuse; the caller adds the count and
   then hands back the load or store the chain stopped at, if any. *)
let enter_threaded t tx (e : Translate.entry) epc ~fuel executed =
  let s = t.sc in
  let budget = (if fuel < s.s_expire then fuel else s.s_expire) - executed in
  if budget < e.Translate.e_cost then begin
    Translate.note_entry_refused_budget tx;
    -1
  end
  else if e.Translate.e_priv_mask land (1 lsl s.s_priv) = 0 then begin
    Translate.note_entry_refused_priv tx;
    -1
  end
  else begin
    (match t.validator with None -> () | Some v -> close_window v executed);
    let st = tx.Translate.state in
    st.Translate.x_pc <- epc;
    st.Translate.x_remaining <- budget;
    st.Translate.x_smmu <- s.s_mmu;
    st.Translate.x_spriv <- s.s_priv;
    st.Translate.x_exit <- Translate.exit_budget;
    e.Translate.e_run ();
    (* blocks only ever decrement the budget (exits refund the
       unexecuted tail), so the completed count falls out of it *)
    let d = budget - st.Translate.x_remaining in
    t.pc_ <- st.Translate.x_pc;
    tx.Translate.entries_taken <- tx.Translate.entries_taken + 1;
    tx.Translate.threaded_instrs <- tx.Translate.threaded_instrs + d;
    Translate.note_exit tx;
    (match t.validator with
    | None -> ()
    | Some v ->
      (* threaded instructions count as validated and covered: the
         entry precheck plus the static certificates stand in for the
         per-instruction checks.  The written set takes the region's
         static def mask (an overapproximation that loses dynamic
         precision, never soundness). *)
      v.v_checked <- v.v_checked + d;
      v.v_covered <- v.v_covered + d;
      v.v_written <- v.v_written lor e.Translate.e_def;
      v.v_skip_from <- 0;
      v.v_skip_until <- 0);
    d
  end

(* A translated load or store runs only its fast path; any other access
   (an MMIO address, an address past memory, a TLB miss, a protection
   fault) exits at it with the instruction refunded.  The interpreter's
   own [step] then runs that one instruction and raises the stop, so it
   never returns here. *)
let[@inline never] hand_back t =
  let pc = t.pc_ in
  ignore
    (step t t.sc t.regs t.memory t.cfg.mmio_base pc
       (Array.unsafe_get t.image.i_ops pc)
      : int);
  assert false

(* A tight window: the decoded operations of [pc0, limit) back to back,
   with no test of the window, the credit, the profile or the recovery
   counter between them.  [limit] stops short of the end of the
   window's ordinary prefix, the fuel and the recovery expiry; a
   control transfer ends the run early.  Returns how many instructions
   completed.  A stop raised inside leaves the pc at the stopping
   instruction, so [run] counts the instructions before it by their
   distance from [pc0]. *)
let run_window t pc0 limit =
  let ops = t.image.i_ops and regs = t.regs and memory = t.memory in
  let mmio_base = t.cfg.mmio_base and s = t.sc in
  let pc = ref pc0 in
  let next =
    ref (step t s regs memory mmio_base pc0 (Array.unsafe_get ops pc0))
  in
  while !next = !pc + 1 && !next < limit do
    pc := !next;
    next := step t s regs memory mmio_base !pc (Array.unsafe_get ops !pc)
  done;
  t.pc_ <- !next;
  !pc + 1 - pc0

(* The instructions of a tight window are counted, and profiled one
   address each. *)
let[@inline] retire_window vd prof pc0 n =
  (match vd with
  | None -> ()
  | Some v -> v.v_window_instrs <- v.v_window_instrs + n);
  match prof with
  | None -> ()
  | Some p ->
    for a = pc0 to pc0 + n - 1 do
      p.(a) <- p.(a) + 1
    done

(* The interpreter keeps per-instruction work off the common path:

   - each code image is decoded once ([image_of]), so an instruction
     costs one dispatch on its operation;
   - a window (a clean basic block whose credit waits for its close,
     [enter_block]) runs its straight-line prefix as one tight
     loop ([run_window]); the window is opened and the previous one
     closed inline, over the address's one validator record, and the
     profile is bumped once per window;
   - the status-register flags (privilege, MMU enable, recovery-counter
     enable) are hoisted into [t.sc] and refreshed only when a
     privileged instruction — the sole in-loop writer of [Cr_status] —
     runs;
   - the recovery counter is not decremented per instruction; instead
     the instruction count at which it will expire is computed once and
     compared against, and the in-register value is written back
     ([sync_rc]) on every exit and before any instruction that could
     observe or modify it;
   - loads and stores skip the translation function entirely while the
     MMU is off (translation is the identity there).

   Everything else — an instruction outside any window, or not
   ordinary — takes the per-instruction path, and certificate failures
   raise out of line.
   A burst allocates nothing but its result (and the exception that
   carries a stop): the helpers are top-level functions over [t.sc]
   that take the executed count as an argument, so no closure captures
   [pc] or [executed] and both stay in registers. *)
let run t ~fuel =
  if fuel <= 0 then invalid_arg "Cpu.run: fuel must be positive";
  let ops = t.image.i_ops in
  let code_len = Array.length ops in
  let regs = t.regs in
  let memory = t.memory in
  let mmio_base = t.cfg.mmio_base in
  let s = t.sc in
  let executed = ref 0 in
  let vd = t.validator in
  let tr = t.trans in
  let prof = t.prof in
  refresh_status t 0;
  s.s_window <- -1;
  let stop_reason = ref Fuel in
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
           | Some e ->
             let d = enter_threaded t tx e pc ~fuel !executed in
             if d < 0 then false
             else begin
               executed := !executed + d;
               (* the recovery check precedes any pending memory stop,
                  exactly as the interpreter checks expiry after the
                  last completed instruction before attempting the
                  next one *)
               if !executed = s.s_expire then begin
                 stop_reason := Recovery;
                 raise (Stop_exec Recovery)
               end;
               if tx.Translate.state.Translate.x_exit = Translate.exit_stop
               then hand_back t;
               d > 0
             end)
       in
       if not threaded then begin
         let straight_end =
           match vd with
           | None -> pc
           | Some v ->
             if pc > v.v_skip_from && pc < v.v_skip_until then pc
             else enter_block v pc s.s_priv !executed
         in
         if straight_end > pc then begin
           let budget =
             (if fuel < s.s_expire then fuel else s.s_expire) - !executed
           in
           let limit =
             if straight_end - pc < budget then straight_end else pc + budget
           in
           s.s_window <- pc;
           let n = run_window t pc limit in
           s.s_window <- -1;
           executed := !executed + n;
           retire_window vd prof pc n
         end
         else begin
           (match Array.unsafe_get ops pc with
           | Sys Isa.Wfi ->
             (* Completes (counts against the recovery counter), then
                relinquishes the processor — without post-validation,
                so an open window is credited only up to it. *)
             (match vd with
             | None -> ()
             | Some v -> close_window_slow v !executed);
             t.pc_ <- pc + 1;
             incr executed;
             (match prof with None -> () | Some p -> p.(pc) <- p.(pc) + 1);
             if !executed = s.s_expire then stop_reason := Recovery
             else stop_reason := Stop_wfi;
             raise (Stop_exec !stop_reason)
           | Sys i -> exec_sys t i pc !executed
           | op -> t.pc_ <- step t s regs memory mmio_base pc op);
           (* every arm that does not complete the instruction raises,
              so falling through here means one more completed
              instruction *)
           incr executed;
           (match prof with None -> () | Some p -> p.(pc) <- p.(pc) + 1);
           match vd with
           | Some v when v.v_open_at < 0 -> credit_one v pc
           | _ -> ()
         end;
         if !executed = s.s_expire then begin
           stop_reason := Recovery;
           raise (Stop_exec Recovery)
         end
       end
     done
   with Stop_exec st ->
     if s.s_window >= 0 then begin
       (* raised inside a tight window, whose instructions before the
          stopping one completed *)
       let n = t.pc_ - s.s_window in
       executed := !executed + n;
       retire_window vd prof s.s_window n;
       s.s_window <- -1
     end;
     stop_reason :=
       (* An MMIO load reached from a Deterministic-certified block is
          itself a certificate violation: the static pass claimed the
          address stays below the MMIO window.  [pc_] still points at
          the faulting load.  Only with the MMU off — the static bound
          is on the virtual address, and a mapped page may
          legitimately target the MMIO window. *)
       (match (vd, st) with
       | Some v, Mmio_read _
         when (not s.s_mmu) && t.pc_ >= 0 && t.pc_ < code_len
              && has v.v_tab.(t.pc_) f_det ->
         Cert_violation
           {
             addr = t.pc_;
             msg =
               "MMIO load inside a Deterministic-certified block: the \
                static address bound was wrong";
           }
       | _ -> st));
  (match vd with None -> () | Some v -> close_window_slow v !executed);
  sync_rc t !executed;
  t.retired <- t.retired + !executed;
  { executed = !executed; stop = !stop_reason }

let deliver_trap ?(badvaddr = 0) t ~cause ~epc =
  deliver_trap_impl t ~cause ~badvaddr ~epc

let instructions_retired t = t.retired

let state_hash ?(include_tlb = false) ?(full = false) t =
  let h = ref (Hft_sim.Fnv.int 0x3bf29ce484222325 t.pc_) in
  for i = 0 to Array.length t.regs - 1 do
    h := Hft_sim.Fnv.int !h t.regs.(i)
  done;
  for i = 0 to Array.length t.crs - 1 do
    h := Hft_sim.Fnv.int !h t.crs.(i)
  done;
  (* [digest] and [full_digest] are equal by construction, so the two
     schemes produce the same state hash — replicas need not agree on
     which one they use *)
  let h =
    Hft_sim.Fnv.int !h
      (if full then Memory.full_digest t.memory else Memory.digest t.memory)
  in
  if include_tlb then Tlb.hash_into t.tlb_state h else h

type snapshot = {
  s_regs : int array;
  s_crs : int array;
  s_pc : int;
  s_mem : Memory.saved;
  s_code_len : int;
}

(* [snap_bytes] counts what a delta copy would move: the whole memory
   for the first snapshot, then the pages written since the previous
   one.  The save itself shares every chunk not written since the
   memory's previous save. *)
let snapshot t =
  let m = t.memory in
  if t.snap_bytes = 0 then t.snap_bytes <- 4 * Memory.size m
  else
    List.iter
      (fun p -> t.snap_bytes <- t.snap_bytes + (4 * Memory.page_words m p))
      (Memory.dirty_pages m);
  Memory.clear_dirty m;
  {
    s_regs = Array.copy t.regs;
    s_crs = Array.copy t.crs;
    s_pc = t.pc_;
    s_mem = Memory.save m;
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
  Memory.adopt t.memory snap.s_mem;
  Tlb.flush t.tlb_state

(* ---------- save and restore (the model checker's) ----------

   Unlike [snapshot], which copies the architectural state a peer
   needs, a save covers everything a run can change: registers, pc,
   retirement count, memory, TLB, and the validator's, translation's
   and profiler's counters.  The integers go into one array that a
   released save can lend (see {!save}).  Restoring writes into the
   same arrays, which the translation's closures alias. *)

type saved = {
  sv_ints : int array;
      (* registers, control registers, pc, retired, snapshot bytes,
         then the validator's scalars and the translation's counters *)
  sv_mem : Memory.saved;
  sv_tlb : Tlb.saved;
  sv_prof : int array option;
}

(* [save_ints] and [restore_ints] lay out the same fields at the same
   offsets; an absent validator or translation saves zeros. *)
let o_pc = Isa.num_regs + Isa.num_crs
let o_validator = o_pc + 3
let o_trans = o_validator + 8
let n_ints = o_trans + 8

let save_ints t a =
  Memory.blit_words t.regs 0 a 0 Isa.num_regs;
  Memory.blit_words t.crs 0 a Isa.num_regs Isa.num_crs;
  a.(o_pc) <- t.pc_;
  a.(o_pc + 1) <- t.retired;
  a.(o_pc + 2) <- t.snap_bytes;
  (match t.validator with
  | Some v ->
    let o = o_validator in
    a.(o) <- v.v_skip_from;
    a.(o + 1) <- v.v_skip_until;
    a.(o + 2) <- v.v_open_at;
    a.(o + 3) <- v.v_written;
    a.(o + 4) <- v.v_covered;
    a.(o + 5) <- v.v_checked;
    a.(o + 6) <- v.v_windows;
    a.(o + 7) <- v.v_window_instrs
  | None -> Array.fill a o_validator 8 0);
  match t.trans with
  | Some tx ->
    let o = o_trans in
    a.(o) <- tx.Translate.entries_taken;
    a.(o + 1) <- tx.Translate.threaded_instrs;
    a.(o + 2) <- tx.Translate.fb_budget;
    a.(o + 3) <- tx.Translate.fb_priv;
    a.(o + 4) <- tx.Translate.fb_link;
    a.(o + 5) <- tx.Translate.fb_indirect;
    a.(o + 6) <- tx.Translate.fb_bail;
    a.(o + 7) <- tx.Translate.fb_stop
  | None -> Array.fill a o_trans 8 0

let restore_ints t a =
  Memory.blit_words a 0 t.regs 0 Isa.num_regs;
  Memory.blit_words a Isa.num_regs t.crs 0 Isa.num_crs;
  t.pc_ <- a.(o_pc);
  t.retired <- a.(o_pc + 1);
  t.snap_bytes <- a.(o_pc + 2);
  (match t.validator with
  | Some v ->
    let o = o_validator in
    v.v_skip_from <- a.(o);
    v.v_skip_until <- a.(o + 1);
    v.v_open_at <- a.(o + 2);
    v.v_written <- a.(o + 3);
    v.v_covered <- a.(o + 4);
    v.v_checked <- a.(o + 5);
    v.v_windows <- a.(o + 6);
    v.v_window_instrs <- a.(o + 7)
  | None -> ());
  match t.trans with
  | Some tx ->
    let o = o_trans in
    tx.Translate.entries_taken <- a.(o);
    tx.Translate.threaded_instrs <- a.(o + 1);
    tx.Translate.fb_budget <- a.(o + 2);
    tx.Translate.fb_priv <- a.(o + 3);
    tx.Translate.fb_link <- a.(o + 4);
    tx.Translate.fb_indirect <- a.(o + 5);
    tx.Translate.fb_bail <- a.(o + 6);
    tx.Translate.fb_stop <- a.(o + 7)
  | None -> ()

let save ?like ?into t =
  let ints = match into with Some a -> a | None -> Array.make n_ints 0 in
  save_ints t ints;
  {
    sv_ints = ints;
    sv_mem = Memory.save t.memory;
    sv_tlb = Tlb.save ?like:(Option.map (fun l -> l.sv_tlb) like) t.tlb_state;
    sv_prof = Option.map Array.copy t.prof;
  }

let ints s = s.sv_ints

let restore_saved t s =
  restore_ints t s.sv_ints;
  Memory.restore t.memory s.sv_mem;
  Tlb.restore t.tlb_state s.sv_tlb;
  match (t.prof, s.sv_prof) with
  | Some p, Some sp -> Array.blit sp 0 p 0 (Array.length p)
  | _ -> ()

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
