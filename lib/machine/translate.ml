type plan_block = { pb_leader : int; pb_len : int }

type plan_region = {
  pr_head : int;
  pr_blocks : plan_block list;
  pr_priv_mask : int;
}

type stop =
  | X_mmio_read of { paddr : int; reg : Isa.reg }
  | X_mmio_write of { paddr : int; value : Word.t }
  | X_tlb_miss of { vaddr : int; write : bool }
  | X_protection of { vaddr : int; write : bool }
  | X_fault_load of int
  | X_fault_store of int

let exit_budget = 0
let exit_link = 1
let exit_indirect = 2
let exit_bail = 3
let exit_stop = 4

type st = {
  x_regs : int array;
  x_mem : Memory.t;
  x_tlb : Tlb.t;
  x_mmio_base : int;
  x_page_shift : int;
  mutable x_pc : int;
  mutable x_remaining : int;
  mutable x_smmu : bool;
  mutable x_spriv : int;
  mutable x_stop : stop option;
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

type block_listing = { l_leader : int; l_len : int; l_ops : string list }

type region_listing = {
  l_head : int;
  l_cost : int;
  l_priv_mask : int;
  l_blocks : block_listing list;
}

type t = {
  entries : entry option array;
  state : st;
  translated_regions : int;
  translated_blocks : int;
  translated_instrs : int;
  fused : int;
  listing : region_listing list;
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

let instr_name i = Format.asprintf "%a" Isa.pp i

(* A mid-block exit refunds the instructions that did not complete:
   the block charged its full length on entry, and [refund] covers the
   failing instruction and everything after it.  [at] is the failing
   instruction's address — the interpreter resumes exactly there.
   The completed-instruction count needs no bookkeeping of its own:
   the dispatch loop derives it as entry budget minus [x_remaining]. *)
let[@inline never] stop_at st refund at s =
  st.x_remaining <- st.x_remaining + refund;
  if Array.length st.x_prof <> 0 then
    st.x_prof.(st.x_prof_leader) <- st.x_prof.(st.x_prof_leader) - refund;
  st.x_pc <- at;
  st.x_stop <- Some s;
  st.x_exit <- exit_stop

let[@inline never] bail_at st refund at =
  st.x_remaining <- st.x_remaining + refund;
  if Array.length st.x_prof <> 0 then
    st.x_prof.(st.x_prof_leader) <- st.x_prof.(st.x_prof_leader) - refund;
  st.x_pc <- at;
  st.x_exit <- exit_bail

(* Staged per-instruction ops, continuation style: every op is a
   BUILDER that bakes its success continuation in at compile time, so
   executing one instruction costs exactly one closure call — this is
   what makes the chain direct-threaded rather than call-threaded.
   [Simple] ops cannot fail (the budget was charged at block entry),
   so adjacent runs fuse into one superinstruction by composing
   builders.  [Mem] ops may stop; their failure paths drop the
   continuation.  [Bail] ops drop it always. *)
type sop =
  | Simple of ((unit -> unit) -> unit -> unit) * string
  | Mem of ((unit -> unit) -> unit -> unit) * string
  | Bail of (unit -> unit) * string

let nothing () = ()
let skip k = k

(* Highest register index the instruction touches.  [classify] refuses
   (bails) any instruction naming a register outside the actual file,
   and that compile-time check is what licenses the unchecked register
   accesses inside the builders below: the interpreter bounds-checks
   every access, the threaded path proves the bound once instead. *)
let max_reg (i : Isa.instr) =
  match i with
  | Isa.Nop | Isa.Halt | Isa.Wfi | Isa.Rfi | Isa.Trapc _ | Isa.Jmp _ -> 0
  | Isa.Ldi (rd, _) -> rd
  | Isa.Alu (_, rd, r1, r2) -> max rd (max r1 r2)
  | Isa.Alui (_, rd, rs, _) -> max rd rs
  | Isa.Ld (rd, rs, _) -> max rd rs
  | Isa.St (rv, rb, _) -> max rv rb
  | Isa.Br (_, r1, r2, _) -> max r1 r2
  | Isa.Jal (rd, _) -> rd
  | Isa.Jr rs -> rs
  | Isa.Probe rd | Isa.Rdtod rd | Isa.Rdtmr rd -> rd
  | Isa.Wrtmr rs | Isa.Out rs -> rs
  | Isa.Mfcr (rd, _) -> rd
  | Isa.Mtcr (_, rs) -> rs
  | Isa.Tlbw (r1, r2) -> max r1 r2

let classify st ~at ~refund (i : Isa.instr) : sop =
  let regs = st.x_regs in
  let nm = instr_name i in
  if max_reg i >= Array.length regs then
    (* out-of-range register: let the interpreter fault on it *)
    Bail ((fun () -> bail_at st refund at), nm)
  else
  match i with
  | Isa.Nop -> Simple (skip, nm)
  | Isa.Ldi (rd, v) ->
    if rd = 0 then Simple (skip, nm)
    else
      let v = Word.mask v in
      Simple ((fun k () -> Array.unsafe_set regs rd v; k ()), nm)
  | Isa.Alu (op, rd, r1, r2) ->
    if rd = 0 then Simple (skip, nm)
    else
      (* specialised per operator: [Word] results are already masked *)
      let build : (unit -> unit) -> unit -> unit =
        match op with
        | Isa.Add ->
          fun k () ->
            Array.unsafe_set regs rd
              (Word.add (Array.unsafe_get regs r1) (Array.unsafe_get regs r2));
            k ()
        | Isa.Sub ->
          fun k () ->
            Array.unsafe_set regs rd
              (Word.sub (Array.unsafe_get regs r1) (Array.unsafe_get regs r2));
            k ()
        | Isa.Mul ->
          fun k () ->
            Array.unsafe_set regs rd
              (Word.mul (Array.unsafe_get regs r1) (Array.unsafe_get regs r2));
            k ()
        | Isa.Divu ->
          fun k () ->
            Array.unsafe_set regs rd
              (Word.divu (Array.unsafe_get regs r1) (Array.unsafe_get regs r2));
            k ()
        | Isa.Remu ->
          fun k () ->
            Array.unsafe_set regs rd
              (Word.remu (Array.unsafe_get regs r1) (Array.unsafe_get regs r2));
            k ()
        | Isa.And ->
          fun k () ->
            Array.unsafe_set regs rd
              (Word.logand (Array.unsafe_get regs r1)
                 (Array.unsafe_get regs r2));
            k ()
        | Isa.Or ->
          fun k () ->
            Array.unsafe_set regs rd
              (Word.logor (Array.unsafe_get regs r1)
                 (Array.unsafe_get regs r2));
            k ()
        | Isa.Xor ->
          fun k () ->
            Array.unsafe_set regs rd
              (Word.logxor (Array.unsafe_get regs r1)
                 (Array.unsafe_get regs r2));
            k ()
        | Isa.Sll ->
          fun k () ->
            Array.unsafe_set regs rd
              (Word.shift_left (Array.unsafe_get regs r1)
                 (Array.unsafe_get regs r2));
            k ()
        | Isa.Srl ->
          fun k () ->
            Array.unsafe_set regs rd
              (Word.shift_right_logical (Array.unsafe_get regs r1)
                 (Array.unsafe_get regs r2));
            k ()
        | Isa.Sra ->
          fun k () ->
            Array.unsafe_set regs rd
              (Word.shift_right_arith (Array.unsafe_get regs r1)
                 (Array.unsafe_get regs r2));
            k ()
        | Isa.Slt ->
          fun k () ->
            Array.unsafe_set regs rd
              (if
                 Word.lt_signed (Array.unsafe_get regs r1)
                   (Array.unsafe_get regs r2)
               then 1
               else 0);
            k ()
        | Isa.Sltu ->
          fun k () ->
            Array.unsafe_set regs rd
              (if
                 Word.lt_unsigned (Array.unsafe_get regs r1)
                   (Array.unsafe_get regs r2)
               then 1
               else 0);
            k ()
      in
      Simple (build, nm)
  | Isa.Alui (op, rd, rs, imm) ->
    if rd = 0 then Simple (skip, nm)
    else
      let iv = Word.of_signed imm in
      let build : (unit -> unit) -> unit -> unit =
        match op with
        | Isa.Add ->
          fun k () ->
            Array.unsafe_set regs rd (Word.add (Array.unsafe_get regs rs) iv);
            k ()
        | Isa.Sub ->
          fun k () ->
            Array.unsafe_set regs rd (Word.sub (Array.unsafe_get regs rs) iv);
            k ()
        | Isa.Mul ->
          fun k () ->
            Array.unsafe_set regs rd (Word.mul (Array.unsafe_get regs rs) iv);
            k ()
        | Isa.Divu ->
          fun k () ->
            Array.unsafe_set regs rd (Word.divu (Array.unsafe_get regs rs) iv);
            k ()
        | Isa.Remu ->
          fun k () ->
            Array.unsafe_set regs rd (Word.remu (Array.unsafe_get regs rs) iv);
            k ()
        | Isa.And ->
          fun k () ->
            Array.unsafe_set regs rd
              (Word.logand (Array.unsafe_get regs rs) iv);
            k ()
        | Isa.Or ->
          fun k () ->
            Array.unsafe_set regs rd (Word.logor (Array.unsafe_get regs rs) iv);
            k ()
        | Isa.Xor ->
          fun k () ->
            Array.unsafe_set regs rd
              (Word.logxor (Array.unsafe_get regs rs) iv);
            k ()
        | Isa.Sll ->
          fun k () ->
            Array.unsafe_set regs rd
              (Word.shift_left (Array.unsafe_get regs rs) iv);
            k ()
        | Isa.Srl ->
          fun k () ->
            Array.unsafe_set regs rd
              (Word.shift_right_logical (Array.unsafe_get regs rs) iv);
            k ()
        | Isa.Sra ->
          fun k () ->
            Array.unsafe_set regs rd
              (Word.shift_right_arith (Array.unsafe_get regs rs) iv);
            k ()
        | Isa.Slt ->
          fun k () ->
            Array.unsafe_set regs rd
              (if Word.lt_signed (Array.unsafe_get regs rs) iv then 1 else 0);
            k ()
        | Isa.Sltu ->
          fun k () ->
            Array.unsafe_set regs rd
              (if Word.lt_unsigned (Array.unsafe_get regs rs) iv then 1 else 0);
            k ()
      in
      Simple (build, nm)
  | Isa.Probe rd ->
    if rd = 0 then Simple (skip, nm)
    else Simple ((fun k () -> Array.unsafe_set regs rd st.x_spriv; k ()), nm)
  | Isa.Ld (rd, rs, off) ->
    let ov = Word.of_signed off in
    let mem = st.x_mem in
    let mmio = st.x_mmio_base in
    (* memory never resizes, so the bound is a compile-time constant;
       masked addresses are non-negative, so one compare replaces the
       checked [Memory.read] *)
    let msize = Memory.size mem in
    let build k () =
      let vaddr = Word.add (Array.unsafe_get regs rs) ov in
      if not st.x_smmu then begin
        (* MMU off: translation is the identity *)
        if vaddr >= mmio then
          stop_at st refund at (X_mmio_read { paddr = vaddr; reg = rd })
        else if vaddr >= msize then
          stop_at st refund at (X_fault_load vaddr)
        else begin
          if rd <> 0 then
            Array.unsafe_set regs rd (Memory.read_fast mem vaddr);
          k ()
        end
      end
      else begin
        let vpage = vaddr lsr st.x_page_shift in
        match Tlb.lookup st.x_tlb ~vpage with
        | None -> stop_at st refund at (X_tlb_miss { vaddr; write = false })
        | Some e ->
          if st.x_spriv = 3 && not e.Tlb.user_ok then
            stop_at st refund at (X_protection { vaddr; write = false })
          else
            let paddr =
              (e.Tlb.ppage lsl st.x_page_shift)
              lor (vaddr land ((1 lsl st.x_page_shift) - 1))
            in
            if paddr >= mmio then
              stop_at st refund at (X_mmio_read { paddr; reg = rd })
            else if paddr >= msize then
              stop_at st refund at (X_fault_load paddr)
            else begin
              if rd <> 0 then
                Array.unsafe_set regs rd (Memory.read_fast mem paddr);
              k ()
            end
      end
    in
    Mem (build, nm)
  | Isa.St (rv, rb, off) ->
    let ov = Word.of_signed off in
    let mem = st.x_mem in
    let mmio = st.x_mmio_base in
    let msize = Memory.size mem in
    let build k () =
      let vaddr = Word.add (Array.unsafe_get regs rb) ov in
      if not st.x_smmu then begin
        if vaddr >= mmio then
          stop_at st refund at
            (X_mmio_write { paddr = vaddr; value = Array.unsafe_get regs rv })
        else if vaddr >= msize then
          stop_at st refund at (X_fault_store vaddr)
        else begin
          Memory.write_fast mem vaddr (Array.unsafe_get regs rv);
          k ()
        end
      end
      else begin
        let vpage = vaddr lsr st.x_page_shift in
        match Tlb.lookup st.x_tlb ~vpage with
        | None -> stop_at st refund at (X_tlb_miss { vaddr; write = true })
        | Some e ->
          if (st.x_spriv = 3 && not e.Tlb.user_ok) || not e.Tlb.writable then
            stop_at st refund at (X_protection { vaddr; write = true })
          else
            let paddr =
              (e.Tlb.ppage lsl st.x_page_shift)
              lor (vaddr land ((1 lsl st.x_page_shift) - 1))
            in
            if paddr >= mmio then
              stop_at st refund at
                (X_mmio_write { paddr; value = Array.unsafe_get regs rv })
            else if paddr >= msize then
              stop_at st refund at (X_fault_store paddr)
            else begin
              Memory.write_fast mem paddr (Array.unsafe_get regs rv);
              k ()
            end
      end
    in
    Mem (build, nm)
  | Isa.Br _ | Isa.Jmp _ | Isa.Jal _ | Isa.Jr _
  (* control mid-block is a plan bug; bailing keeps it correct *)
  | Isa.Halt | Isa.Wfi
  | Isa.Rdtod _ | Isa.Rdtmr _ | Isa.Wrtmr _ | Isa.Out _
  | Isa.Trapc _
  | Isa.Mfcr _ | Isa.Mtcr _ | Isa.Tlbw _ | Isa.Rfi ->
    Bail ((fun () -> bail_at st refund at), nm)

(* Superinstruction formation: a whole run of simple ops collapses
   into one compile-time builder composition — zero dispatch between
   the member effects at runtime.  The counter records each merged
   pair, so a run of n simples counts n-1 fusions. *)
let rec fuse counter = function
  | Simple (b1, n1) :: Simple (b2, n2) :: rest ->
    incr counter;
    fuse counter (Simple ((fun k -> b1 (b2 k)), n1 ^ " + " ^ n2) :: rest)
  | op :: rest -> op :: fuse counter rest
  | [] -> []

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

let br_closure (regs : int array) c r1 r2 taken fall =
  match (c : Isa.cond) with
  | Isa.Eq -> fun () -> if regs.(r1) = regs.(r2) then taken () else fall ()
  | Isa.Ne -> fun () -> if regs.(r1) <> regs.(r2) then taken () else fall ()
  | Isa.Lt ->
    fun () -> if Word.lt_signed regs.(r1) regs.(r2) then taken () else fall ()
  | Isa.Ge ->
    fun () ->
      if not (Word.lt_signed regs.(r1) regs.(r2)) then taken () else fall ()
  | Isa.Ltu ->
    fun () ->
      if Word.lt_unsigned regs.(r1) regs.(r2) then taken () else fall ()
  | Isa.Geu ->
    fun () ->
      if not (Word.lt_unsigned regs.(r1) regs.(r2)) then taken () else fall ()

let def_of (i : Isa.instr) =
  match i with
  | Isa.Ldi (rd, _)
  | Isa.Alu (_, rd, _, _)
  | Isa.Alui (_, rd, _, _)
  | Isa.Ld (rd, _, _)
  | Isa.Jal (rd, _)
  | Isa.Probe rd
  | Isa.Rdtod rd | Isa.Rdtmr rd
  | Isa.Mfcr (rd, _) ->
    if rd = 0 then 0 else 1 lsl rd
  | _ -> 0

let compile_block st code targets counter ~leader ~len =
  let last = leader + len - 1 in
  let term_instr = code.(last) in
  let is_control =
    match term_instr with
    | Isa.Br _ | Isa.Jmp _ | Isa.Jal _ | Isa.Jr _ -> true
    | _ -> false
  in
  let body_len = if is_control then len - 1 else len in
  let term, term_name, term_fusable =
    if is_control then begin
      let nm = instr_name term_instr in
      match term_instr with
      | Isa.Br (c, r1, r2, tgt) ->
        let taken = goto st targets tgt in
        let fall = goto st targets (leader + len) in
        (br_closure st.x_regs c r1 r2 taken fall, nm, true)
      | Isa.Jmp tgt -> (goto st targets tgt, nm, true)
      | Isa.Jal (rd, tgt) ->
        let g = goto st targets tgt in
        if rd = 0 then (g, nm, true)
        else
          (* branch-and-link privilege quirk: the static part of the
             link value is precomputed, the privilege bits are live *)
          let link = Word.mask ((last + 1) lsl 2) in
          let regs = st.x_regs in
          ( (fun () ->
              regs.(rd) <- link lor st.x_spriv;
              g ()),
            nm, true )
      | Isa.Jr rs ->
        let regs = st.x_regs in
        ( (fun () ->
            st.x_pc <- regs.(rs) lsr 2;
            st.x_exit <- exit_indirect),
          nm, false )
      | _ -> assert false
    end
    else
      ( goto st targets (leader + len),
        Printf.sprintf "fall-through -> %d" (leader + len),
        false )
  in
  let ops =
    List.init body_len (fun idx ->
        classify st ~at:(leader + idx) ~refund:(len - idx) code.(leader + idx))
  in
  let ops = fuse counter ops in
  (* the trailing op fuses into a direct-jump terminator — the
     compare-and-branch (or load-and-branch) superinstruction; a
     [Mem]'s failure paths already ignore the continuation, so it
     composes as safely as a simple op *)
  let ops, term, term_name =
    if term_fusable then
      match List.rev ops with
      | (Simple (b, nm) | Mem (b, nm)) :: rev_rest ->
        incr counter;
        (List.rev rev_rest, b term, nm ^ " + " ^ term_name)
      | _ -> (ops, term, term_name)
    else (ops, term, term_name)
  in
  let body =
    List.fold_left
      (fun k op ->
        match op with
        | Simple (build, _) | Mem (build, _) -> build k
        | Bail (b, _) -> b)
      term (List.rev ops)
  in
  let defm = ref 0 in
  for a = leader to last do
    defm := !defm lor def_of code.(a)
  done;
  let defm = !defm in
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
  let names =
    List.map (function Simple (_, n) | Mem (_, n) | Bail (_, n) -> n) ops
    @ [ term_name ]
  in
  (blk, defm, { l_leader = leader; l_len = len; l_ops = names })

let compile_region st code counter (r : plan_region) =
  let n = Array.length code in
  if
    not
      (List.for_all
         (fun b -> b.pb_leader >= 0 && b.pb_len > 0 && b.pb_leader + b.pb_len <= n)
         r.pr_blocks)
  then Error "member block outside the code image"
  else
    match List.find_opt (fun b -> b.pb_leader = r.pr_head) r.pr_blocks with
    | None -> Error "head block missing from the member list"
    | Some head_blk ->
      if
        match Isa.classify code.(r.pr_head) with
        | Isa.Ordinary -> false
        | _ -> true
      then
        Error
          (Printf.sprintf "head begins with non-ordinary instruction %s"
             (instr_name code.(r.pr_head)))
      else begin
        (* two passes: allocate a slot per member leader, then compile
           each block and back-patch, so intra-region branches chain
           through the slot without a dispatch round-trip *)
        let targets = Hashtbl.create (List.length r.pr_blocks * 2) in
        List.iter
          (fun b -> Hashtbl.replace targets b.pb_leader (ref nothing))
          r.pr_blocks;
        let region_def = ref 0 in
        let blocks =
          List.map
            (fun b ->
              let blk, defm, l =
                compile_block st code targets counter ~leader:b.pb_leader
                  ~len:b.pb_len
              in
              region_def := !region_def lor defm;
              (match Hashtbl.find_opt targets b.pb_leader with
              | Some slot -> slot := blk
              | None -> ());
              l)
            r.pr_blocks
        in
        (* every member leader whose first instruction is ordinary is
           a dispatch entry point, not just the head: a budget exit
           parks the pc on a member leader, and the next run must be
           able to re-enter there instead of interpreting the rest of
           the region.  The certificate precheck is region-wide, so it
           holds at any member. *)
        let entry_points =
          List.filter_map
            (fun b ->
              match Isa.classify code.(b.pb_leader) with
              | Isa.Ordinary ->
                Some
                  ( b.pb_leader,
                    {
                      e_cost = b.pb_len;
                      e_priv_mask = r.pr_priv_mask;
                      e_def = !region_def;
                      e_run = !(Hashtbl.find targets b.pb_leader);
                    } )
              | _ -> None)
            r.pr_blocks
        in
        Ok
          ( entry_points,
            {
              l_head = r.pr_head;
              l_cost = head_blk.pb_len;
              l_priv_mask = r.pr_priv_mask;
              l_blocks = blocks;
            } )
      end

let compile ~code ~regs ~mem ~tlb ~mmio_base ~page_shift ?profile plan =
  let n = Array.length code in
  let st =
    {
      x_regs = regs;
      x_mem = mem;
      x_tlb = tlb;
      x_mmio_base = mmio_base;
      x_page_shift = page_shift;
      x_pc = 0;
      x_remaining = 0;
      x_smmu = false;
      x_spriv = 0;
      x_stop = None;
      x_exit = exit_budget;
      x_prof = (match profile with Some p -> p | None -> [||]);
      x_prof_leader = 0;
    }
  in
  let entries = Array.make (max n 1) None in
  let counter = ref 0 in
  let regions = ref 0 and blocks = ref 0 and instrs = ref 0 in
  let listing = ref [] and untranslated = ref [] in
  List.iter
    (fun (r : plan_region) ->
      if r.pr_head < 0 || r.pr_head >= n then
        untranslated := (r.pr_head, "head outside the code image") :: !untranslated
      else
        match compile_region st code counter r with
        | Error reason -> untranslated := (r.pr_head, reason) :: !untranslated
        | Ok (entry_points, rl) ->
          List.iter (fun (leader, e) -> entries.(leader) <- Some e) entry_points;
          incr regions;
          blocks := !blocks + List.length r.pr_blocks;
          instrs :=
            !instrs + List.fold_left (fun a b -> a + b.pb_len) 0 r.pr_blocks;
          listing := rl :: !listing)
    plan;
  {
    entries;
    state = st;
    translated_regions = !regions;
    translated_blocks = !blocks;
    translated_instrs = !instrs;
    fused = !counter;
    listing = List.rev !listing;
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
  st.x_stop <- None;
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
    "translation: %d superblocks, %d blocks, %d instructions, %d fused \
     superinstructions@."
    t.translated_regions t.translated_blocks t.translated_instrs t.fused;
  List.iter
    (fun r ->
      Format.fprintf fmt
        "@.superblock @@%d: entry cost %d, entry priv mask %a@." r.l_head
        r.l_cost pp_priv_mask r.l_priv_mask;
      List.iter
        (fun b ->
          Format.fprintf fmt "  block %d..%d:@." b.l_leader
            (b.l_leader + b.l_len - 1);
          List.iter (fun op -> Format.fprintf fmt "    %s@." op) b.l_ops)
        r.l_blocks)
    t.listing;
  if t.untranslated <> [] then begin
    Format.fprintf fmt "@.untranslated (interpreter fallback):@.";
    List.iter
      (fun (head, reason) ->
        Format.fprintf fmt "  @@%d: %s@." head reason)
      t.untranslated
  end
