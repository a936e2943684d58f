type plan_block = { pb_leader : int; pb_len : int }

type plan_region = {
  pr_head : int;
  pr_blocks : plan_block list;
  pr_priv_mask : int;
}

let exit_budget = 0
let exit_link = 1
let exit_indirect = 2
let exit_bail = 3
let exit_stop = 4

type st = {
  x_regs : int array;
  mutable x_pc : int;
  mutable x_remaining : int;
  mutable x_smmu : bool;
  mutable x_spriv : int;
  mutable x_exit : int;
  x_prof : int array;
      (* per-address retirement counters, length 0 when profiling is
         off.  Blocks credit their full length at the leader on entry;
         the cold exit paths debit the refund, so the net charge is
         exactly the completed instructions on every path. *)
  mutable x_prof_leader : int;  (* leader currently holding the credit *)
}

type entry = {
  e_cost : int;
  e_priv_mask : int;
  e_def : int;  (* region-wide written-register over-approximation *)
  e_run : unit -> unit;
}

type t = {
  entries : entry option array;
  state : st;
  translated_regions : int;
  translated_blocks : int;
  translated_instrs : int;
  code : Isa.instr array;
  listing : plan_region list;
  untranslated : (int * string) list;
  mutable entries_taken : int;
  mutable threaded_instrs : int;
  mutable fb_budget : int;
  mutable fb_priv : int;
  mutable fb_link : int;
  mutable fb_indirect : int;
  mutable fb_bail : int;
  mutable fb_stop : int;
}

(* A mid-block exit refunds the instructions that did not complete:
   the block charged its full length on entry, and [refund] covers the
   exiting instruction and everything after it.  [at] is that
   instruction's address — the interpreter resumes exactly there.
   The completed-instruction count needs no bookkeeping of its own:
   the dispatch loop derives it as entry budget minus [x_remaining]. *)
let[@inline never] exit_at st refund at x =
  st.x_remaining <- st.x_remaining + refund;
  if Array.length st.x_prof <> 0 then
    st.x_prof.(st.x_prof_leader) <- st.x_prof.(st.x_prof_leader) - refund;
  st.x_pc <- at;
  st.x_exit <- x

let nothing () = ()

(* the unchecked register accesses [compile_op]'s closures make *)
let[@inline] get (regs : int array) r = Array.unsafe_get regs r
let[@inline] set (regs : int array) r v = Array.unsafe_set regs r v

(* Highest register index the operation names.  [compile_op] bails on
   any operation naming a register outside the actual file, and that
   compile-time check is what licenses the unchecked register accesses
   inside its closures: the interpreter bounds-checks every access,
   the threaded path proves the bound once instead. *)
let max_reg (op : Op.t) =
  match op with
  | Nop | Jmp _ | Sys _ -> 0
  | Ldi (d, _) | Ld0 (d, _) | Jal (d, _) | Jr d | Probe d -> d
  | Add (d, a, b) | Sub (d, a, b) | Mul (d, a, b) | Divu (d, a, b)
  | Remu (d, a, b) | And (d, a, b) | Or (d, a, b) | Xor (d, a, b)
  | Sll (d, a, b) | Srl (d, a, b) | Sra (d, a, b) | Slt (d, a, b)
  | Sltu (d, a, b) ->
    max d (max a b)
  | Addi (d, a, _) | Subi (d, a, _) | Muli (d, a, _) | Divui (d, a, _)
  | Remui (d, a, _) | Andi (d, a, _) | Ori (d, a, _) | Xori (d, a, _)
  | Slli (d, a, _) | Srli (d, a, _) | Srai (d, a, _) | Slti (d, a, _)
  | Sltui (d, a, _) | Ld (d, a, _) | St (d, a, _) | Beq (d, a, _)
  | Bne (d, a, _) | Blt (d, a, _) | Bge (d, a, _) | Bltu (d, a, _)
  | Bgeu (d, a, _) ->
    max d a

(* The register an operation writes, as a mask ([Op.decode] already
   turned every write to r0 into none). *)
let def_of (op : Op.t) =
  match op with
  | Ldi (d, _) | Add (d, _, _) | Sub (d, _, _) | Mul (d, _, _)
  | Divu (d, _, _) | Remu (d, _, _) | And (d, _, _) | Or (d, _, _)
  | Xor (d, _, _) | Sll (d, _, _) | Srl (d, _, _) | Sra (d, _, _)
  | Slt (d, _, _) | Sltu (d, _, _) | Addi (d, _, _) | Subi (d, _, _)
  | Muli (d, _, _) | Divui (d, _, _) | Remui (d, _, _) | Andi (d, _, _)
  | Ori (d, _, _) | Xori (d, _, _) | Slli (d, _, _) | Srli (d, _, _)
  | Srai (d, _, _) | Slti (d, _, _) | Sltui (d, _, _) | Ld (d, _, _)
  | Jal (d, _) | Probe d ->
    1 lsl d
  | Sys (Rdtod d | Rdtmr d | Mfcr (d, _)) when d <> 0 -> 1 lsl d
  | _ -> 0

(* The fast path of a load or store: the physical address when the
   access is plain memory the guest may touch, else -1.  [limit] is
   the lower of the MMIO window's base and the memory size; both are
   compile-time constants, and masked addresses are non-negative, so
   one compare stands in for the interpreter's two. *)
let[@inline] fast_paddr st tlb shift limit ~write vaddr =
  if not st.x_smmu then if vaddr < limit then vaddr else -1
  else
    match Tlb.lookup tlb ~vpage:(vaddr lsr shift) with
    | Some e
      when (st.x_spriv <> 3 || e.Tlb.user_ok) && ((not write) || e.Tlb.writable)
      ->
      let paddr = (e.Tlb.ppage lsl shift) lor (vaddr land ((1 lsl shift) - 1)) in
      if paddr < limit then paddr else -1
    | _ -> -1

(* One body operation, continuation style: a BUILDER that bakes its
   success continuation in at compile time, so executing one
   instruction costs exactly one closure call — this is what makes the
   chain direct-threaded rather than call-threaded.  Register
   operations cannot fail (the budget was charged at block entry); a
   load or store that leaves its fast path exits to the interpreter,
   which raises its stop, and everything else bails. *)
let compile_op st ~mem ~tlb ~shift ~limit ~at ~refund (op : Op.t) :
    (unit -> unit) -> unit -> unit =
  let regs = st.x_regs in
  if max_reg op >= Array.length regs then
    (* out-of-range register: let the interpreter fault on it *)
    fun _ () -> exit_at st refund at exit_bail
  else
    match op with
    | Nop -> Fun.id
    | Ldi (d, v) ->
      fun k () ->
        set regs d v;
        k ()
    | Add (d, a, b) ->
      fun k () ->
        set regs d (Word.add (get regs a) (get regs b));
        k ()
    | Sub (d, a, b) ->
      fun k () ->
        set regs d (Word.sub (get regs a) (get regs b));
        k ()
    | Mul (d, a, b) ->
      fun k () ->
        set regs d (Word.mul (get regs a) (get regs b));
        k ()
    | Divu (d, a, b) ->
      fun k () ->
        set regs d (Word.divu (get regs a) (get regs b));
        k ()
    | Remu (d, a, b) ->
      fun k () ->
        set regs d (Word.remu (get regs a) (get regs b));
        k ()
    | And (d, a, b) ->
      fun k () ->
        set regs d (Word.logand (get regs a) (get regs b));
        k ()
    | Or (d, a, b) ->
      fun k () ->
        set regs d (Word.logor (get regs a) (get regs b));
        k ()
    | Xor (d, a, b) ->
      fun k () ->
        set regs d (Word.logxor (get regs a) (get regs b));
        k ()
    | Sll (d, a, b) ->
      fun k () ->
        set regs d (Word.shift_left (get regs a) (get regs b));
        k ()
    | Srl (d, a, b) ->
      fun k () ->
        set regs d (Word.shift_right_logical (get regs a) (get regs b));
        k ()
    | Sra (d, a, b) ->
      fun k () ->
        set regs d (Word.shift_right_arith (get regs a) (get regs b));
        k ()
    | Slt (d, a, b) ->
      fun k () ->
        set regs d (if Word.lt_signed (get regs a) (get regs b) then 1 else 0);
        k ()
    | Sltu (d, a, b) ->
      fun k () ->
        set regs d (if Word.lt_unsigned (get regs a) (get regs b) then 1 else 0);
        k ()
    | Addi (d, a, v) ->
      fun k () ->
        set regs d (Word.add (get regs a) v);
        k ()
    | Subi (d, a, v) ->
      fun k () ->
        set regs d (Word.sub (get regs a) v);
        k ()
    | Muli (d, a, v) ->
      fun k () ->
        set regs d (Word.mul (get regs a) v);
        k ()
    | Divui (d, a, v) ->
      fun k () ->
        set regs d (Word.divu (get regs a) v);
        k ()
    | Remui (d, a, v) ->
      fun k () ->
        set regs d (Word.remu (get regs a) v);
        k ()
    | Andi (d, a, v) ->
      fun k () ->
        set regs d (Word.logand (get regs a) v);
        k ()
    | Ori (d, a, v) ->
      fun k () ->
        set regs d (Word.logor (get regs a) v);
        k ()
    | Xori (d, a, v) ->
      fun k () ->
        set regs d (Word.logxor (get regs a) v);
        k ()
    | Slli (d, a, v) ->
      fun k () ->
        set regs d (Word.shift_left (get regs a) v);
        k ()
    | Srli (d, a, v) ->
      fun k () ->
        set regs d (Word.shift_right_logical (get regs a) v);
        k ()
    | Srai (d, a, v) ->
      fun k () ->
        set regs d (Word.shift_right_arith (get regs a) v);
        k ()
    | Slti (d, a, v) ->
      fun k () ->
        set regs d (if Word.lt_signed (get regs a) v then 1 else 0);
        k ()
    | Sltui (d, a, v) ->
      fun k () ->
        set regs d (if Word.lt_unsigned (get regs a) v then 1 else 0);
        k ()
    | Probe d ->
      fun k () ->
        set regs d st.x_spriv;
        k ()
    | Ld (d, b, off) ->
      fun k () ->
        let p =
          fast_paddr st tlb shift limit ~write:false (Word.add (get regs b) off)
        in
        if p >= 0 then begin
          set regs d (Memory.read_fast mem p);
          k ()
        end
        else exit_at st refund at exit_stop
    | Ld0 (b, off) ->
      fun k () ->
        if
          fast_paddr st tlb shift limit ~write:false (Word.add (get regs b) off)
          >= 0
        then k ()
        else exit_at st refund at exit_stop
    | St (v, b, off) ->
      fun k () ->
        let p =
          fast_paddr st tlb shift limit ~write:true (Word.add (get regs b) off)
        in
        if p >= 0 then begin
          Memory.write_fast mem p (get regs v);
          k ()
        end
        else exit_at st refund at exit_stop
    (* control mid-block is a plan bug; bailing keeps it correct *)
    | Beq _ | Bne _ | Blt _ | Bge _ | Bltu _ | Bgeu _ | Jmp _ | Jal _ | Jr _
    | Sys _ ->
      fun _ () -> exit_at st refund at exit_bail

(* Intra-region control transfer: branch targets that are member
   leaders chain directly (the target block re-checks the budget);
   anything else exits to the dispatch loop. *)
let goto st targets target =
  match Hashtbl.find_opt targets target with
  | Some r -> fun () -> !r ()
  | None ->
    fun () ->
      st.x_pc <- target;
      st.x_exit <- exit_link

(* A block's control terminator, or [None] when the block falls
   through into [next]. *)
let terminator st targets ~last ~next (op : Op.t) =
  let regs = st.x_regs in
  let goto = goto st targets in
  match op with
  | Beq (a, b, tgt) ->
    let taken = goto tgt and fall = goto next in
    Some (fun () -> if regs.(a) = regs.(b) then taken () else fall ())
  | Bne (a, b, tgt) ->
    let taken = goto tgt and fall = goto next in
    Some (fun () -> if regs.(a) <> regs.(b) then taken () else fall ())
  | Blt (a, b, tgt) ->
    let taken = goto tgt and fall = goto next in
    Some
      (fun () ->
        if Word.lt_signed regs.(a) regs.(b) then taken () else fall ())
  | Bge (a, b, tgt) ->
    let taken = goto tgt and fall = goto next in
    Some
      (fun () ->
        if not (Word.lt_signed regs.(a) regs.(b)) then taken () else fall ())
  | Bltu (a, b, tgt) ->
    let taken = goto tgt and fall = goto next in
    Some
      (fun () ->
        if Word.lt_unsigned regs.(a) regs.(b) then taken () else fall ())
  | Bgeu (a, b, tgt) ->
    let taken = goto tgt and fall = goto next in
    Some
      (fun () ->
        if not (Word.lt_unsigned regs.(a) regs.(b)) then taken ()
        else fall ())
  | Jmp tgt -> Some (goto tgt)
  | Jal (d, tgt) ->
    let g = goto tgt in
    (* branch-and-link privilege quirk: the static part of the link
       value is precomputed, the privilege bits are live *)
    let link = Word.mask ((last + 1) lsl 2) in
    Some
      (fun () ->
        regs.(d) <- link lor st.x_spriv;
        g ())
  | Jr rs ->
    Some
      (fun () ->
        st.x_pc <- regs.(rs) lsr 2;
        st.x_exit <- exit_indirect)
  | _ -> None

let compile_block st ~ops ~mem ~tlb ~shift ~limit targets ~leader ~len =
  let last = leader + len - 1 in
  let next = leader + len in
  let term, body_len =
    match terminator st targets ~last ~next ops.(last) with
    | Some term -> (term, len - 1)
    | None -> (goto st targets next, len)
  in
  let body = ref term in
  for idx = body_len - 1 downto 0 do
    body :=
      compile_op st ~mem ~tlb ~shift ~limit ~at:(leader + idx)
        ~refund:(len - idx) ops.(leader + idx) !body
  done;
  let body = !body in
  let defm = ref 0 in
  for a = leader to last do
    defm := !defm lor def_of ops.(a)
  done;
  (* the block prologue is the only per-block overhead on the hot
     path: one budget compare and one decrement.  Written-register and
     completed-count accounting live at the dispatch entry instead.
     Under profiling a specialised prologue credits the whole block at
     the leader (the cold exits debit refunds), keeping the hot path
     free of the check when profiling is off. *)
  let blk =
    if Array.length st.x_prof <> 0 then begin
      let p = st.x_prof in
      fun () ->
        if st.x_remaining < len then begin
          st.x_pc <- leader;
          st.x_exit <- exit_budget
        end
        else begin
          st.x_remaining <- st.x_remaining - len;
          p.(leader) <- p.(leader) + len;
          st.x_prof_leader <- leader;
          body ()
        end
    end
    else
      fun () ->
        if st.x_remaining < len then begin
          st.x_pc <- leader;
          st.x_exit <- exit_budget
        end
        else begin
          st.x_remaining <- st.x_remaining - len;
          body ()
        end
  in
  (blk, !defm)

let compile_region st ~ops ~mem ~tlb ~shift ~limit (r : plan_region) =
  let n = Array.length ops in
  if
    not
      (List.for_all
         (fun b -> b.pb_leader >= 0 && b.pb_len > 0 && b.pb_leader + b.pb_len <= n)
         r.pr_blocks)
  then Error "member block outside the code image"
  else if not (List.exists (fun b -> b.pb_leader = r.pr_head) r.pr_blocks)
  then Error "head block missing from the member list"
  else
    match ops.(r.pr_head) with
    | Op.Sys i ->
      Error
        (Format.asprintf "head begins with non-ordinary instruction %a" Isa.pp
           i)
    | _ ->
      (* two passes: allocate a slot per member leader, then compile
         each block and back-patch, so intra-region branches chain
         through the slot without a dispatch round-trip *)
      let targets = Hashtbl.create (List.length r.pr_blocks * 2) in
      List.iter
        (fun b -> Hashtbl.replace targets b.pb_leader (ref nothing))
        r.pr_blocks;
      let region_def =
        List.fold_left
          (fun acc b ->
            let blk, defm =
              compile_block st ~ops ~mem ~tlb ~shift ~limit targets
                ~leader:b.pb_leader ~len:b.pb_len
            in
            (match Hashtbl.find_opt targets b.pb_leader with
            | Some slot -> slot := blk
            | None -> ());
            acc lor defm)
          0 r.pr_blocks
      in
      (* every member leader whose first instruction is ordinary is
         a dispatch entry point, not just the head: a budget exit
         parks the pc on a member leader, and the next run must be
         able to re-enter there instead of interpreting the rest of
         the region.  The certificate precheck is region-wide, so it
         holds at any member. *)
      Ok
        (List.filter_map
           (fun b ->
             match ops.(b.pb_leader) with
             | Op.Sys _ -> None
             | _ ->
               Some
                 ( b.pb_leader,
                   {
                     e_cost = b.pb_len;
                     e_priv_mask = r.pr_priv_mask;
                     e_def = region_def;
                     e_run = !(Hashtbl.find targets b.pb_leader);
                   } ))
           r.pr_blocks)

let compile ~code ~ops ~regs ~mem ~tlb ~mmio_base ~page_shift ?profile plan =
  let n = Array.length ops in
  let st =
    {
      x_regs = regs;
      x_pc = 0;
      x_remaining = 0;
      x_smmu = false;
      x_spriv = 0;
      x_exit = exit_budget;
      x_prof = (match profile with Some p -> p | None -> [||]);
      x_prof_leader = 0;
    }
  in
  (* memory never resizes, so the fast path's bound is a constant *)
  let limit = min mmio_base (Memory.size mem) in
  let entries = Array.make (max n 1) None in
  let listing = ref [] and untranslated = ref [] in
  List.iter
    (fun (r : plan_region) ->
      match
        if r.pr_head < 0 || r.pr_head >= n then
          Error "head outside the code image"
        else
          compile_region st ~ops ~mem ~tlb ~shift:page_shift ~limit r
      with
      | Error reason -> untranslated := (r.pr_head, reason) :: !untranslated
      | Ok entry_points ->
        List.iter (fun (leader, e) -> entries.(leader) <- Some e) entry_points;
        listing := r :: !listing)
    plan;
  let listing = List.rev !listing in
  let sum f = List.fold_left (fun a r -> a + f r) 0 listing in
  {
    entries;
    state = st;
    translated_regions = List.length listing;
    translated_blocks = sum (fun r -> List.length r.pr_blocks);
    translated_instrs =
      sum (fun r -> List.fold_left (fun a b -> a + b.pb_len) 0 r.pr_blocks);
    code;
    listing;
    untranslated = List.rev !untranslated;
    entries_taken = 0;
    threaded_instrs = 0;
    fb_budget = 0;
    fb_priv = 0;
    fb_link = 0;
    fb_indirect = 0;
    fb_bail = 0;
    fb_stop = 0;
  }

let reset t =
  let st = t.state in
  st.x_pc <- 0;
  st.x_remaining <- 0;
  st.x_smmu <- false;
  st.x_spriv <- 0;
  st.x_exit <- exit_budget;
  st.x_prof_leader <- 0;
  t.entries_taken <- 0;
  t.threaded_instrs <- 0;
  t.fb_budget <- 0;
  t.fb_priv <- 0;
  t.fb_link <- 0;
  t.fb_indirect <- 0;
  t.fb_bail <- 0;
  t.fb_stop <- 0

let note_entry_refused_budget t = t.fb_budget <- t.fb_budget + 1
let note_entry_refused_priv t = t.fb_priv <- t.fb_priv + 1

let note_exit t =
  let x = t.state.x_exit in
  if x = exit_budget then t.fb_budget <- t.fb_budget + 1
  else if x = exit_link then t.fb_link <- t.fb_link + 1
  else if x = exit_indirect then t.fb_indirect <- t.fb_indirect + 1
  else if x = exit_bail then t.fb_bail <- t.fb_bail + 1
  else t.fb_stop <- t.fb_stop + 1

let pp_priv_mask fmt m =
  if m = -1 then Format.fprintf fmt "any"
  else Format.fprintf fmt "0x%x" (m land 0xF)

let pp_listing fmt t =
  Format.fprintf fmt
    "translation: %d superblocks, %d blocks, %d instructions@."
    t.translated_regions t.translated_blocks t.translated_instrs;
  List.iter
    (fun r ->
      let head_len =
        (List.find (fun b -> b.pb_leader = r.pr_head) r.pr_blocks).pb_len
      in
      Format.fprintf fmt
        "@.superblock @@%d: entry cost %d, entry priv mask %a@." r.pr_head
        head_len pp_priv_mask r.pr_priv_mask;
      List.iter
        (fun b ->
          let last = b.pb_leader + b.pb_len - 1 in
          Format.fprintf fmt "  block %d..%d:@." b.pb_leader last;
          for a = b.pb_leader to last do
            Format.fprintf fmt "    %4d  %a@." a Isa.pp t.code.(a)
          done;
          match t.code.(last) with
          | Isa.Br _ | Jmp _ | Jal _ | Jr _ -> ()
          | _ -> Format.fprintf fmt "    fall-through -> %d@." (last + 1))
        r.pr_blocks)
    t.listing;
  if t.untranslated <> [] then begin
    Format.fprintf fmt "@.untranslated (interpreter fallback):@.";
    List.iter
      (fun (head, reason) ->
        Format.fprintf fmt "  @@%d: %s@." head reason)
      t.untranslated
  end
