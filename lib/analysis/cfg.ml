open Hft_machine

type t = {
  code : Isa.instr array;
  succs : int list array;
  preds : int list array;
  roots : int list;
  reachable : bool array;
  jr_unresolved : int list;
  bad_targets : (int * int) list;
}

module Iset = Set.Make (Int)

(* Flow-insensitive per-register candidate targets for indirect jumps.
   [Jr rs] computes [rs >> 2]: a Jal link lands at site+1, an
   immediate [v] lands at [v >> 2]. *)
let jr_candidates code =
  let cand = Array.make Isa.num_regs Iset.empty in
  let unknown = Array.make Isa.num_regs false in
  let n = Array.length code in
  Array.iteri
    (fun i instr ->
      match (instr : Isa.instr) with
      | Isa.Jal (rd, _) when rd <> 0 ->
        if i + 1 < n then cand.(rd) <- Iset.add (i + 1) cand.(rd)
      | Isa.Ldi (rd, v) when rd <> 0 ->
        let tgt = v lsr 2 in
        if tgt < n then cand.(rd) <- Iset.add tgt cand.(rd)
      | Isa.(
          ( Alu (_, rd, _, _)
          | Alui (_, rd, _, _)
          | Ld (rd, _, _)
          | Mfcr (rd, _)
          | Probe rd | Rdtod rd | Rdtmr rd ))
        when rd <> 0 ->
        unknown.(rd) <- true
      | _ -> ())
    code;
  (cand, unknown)

(* Reachability from [roots] and predecessor lists, both derived from
   the successor edges. *)
let derive ~roots succs =
  let n = Array.length succs in
  let reachable = Array.make n false in
  let rec visit a =
    if not reachable.(a) then begin
      reachable.(a) <- true;
      List.iter visit succs.(a)
    end
  in
  List.iter visit roots;
  let preds = Array.make n [] in
  Array.iteri
    (fun i ss -> List.iter (fun s -> preds.(s) <- i :: preds.(s)) ss)
    succs;
  (reachable, preds)

let build ?(code_refs = []) ?(extra_roots = []) code =
  let n = Array.length code in
  let in_range a = a >= 0 && a < n in
  let cand, unknown = jr_candidates code in
  (* Addresses installed somewhere as code pointers (trap vectors):
     the immediates of the assembler's relocatable instructions. *)
  let vector_roots =
    List.filter_map
      (fun addr ->
        if not (in_range addr) then None
        else
          match code.(addr) with
          | Isa.Ldi (_, v) when in_range v -> Some v
          | _ -> None)
      code_refs
  in
  (* The relocation list does not survive rewriting ([Rewrite]
     consumes it), so also recover vector roots from the data flow
     that installs them: any immediate loaded into a register some
     [Mtcr Cr_ivec] consumes. *)
  let ivec_roots =
    let ivec_regs = Array.make Isa.num_regs false in
    Array.iter
      (function
        | Isa.Mtcr (Isa.Cr_ivec, rs) when rs <> 0 -> ivec_regs.(rs) <- true
        | _ -> ())
      code;
    let acc = ref [] in
    Array.iter
      (function
        | Isa.Ldi (rd, v) when rd <> 0 && ivec_regs.(rd) && in_range v ->
          acc := v :: !acc
        | _ -> ())
      code;
    !acc
  in
  let vector_roots = vector_roots @ ivec_roots in
  let all_cands =
    Array.fold_left (fun acc s -> Iset.union acc s) Iset.empty cand
    |> Iset.union (Iset.of_list vector_roots)
    |> Iset.filter in_range
  in
  let succs = Array.make n [] in
  let jr_unresolved = ref [] in
  let bad_targets = ref [] in
  let fallthrough i = if i + 1 < n then [ i + 1 ] else [] in
  let direct i tgt =
    if in_range tgt then [ tgt ]
    else begin
      bad_targets := (i, tgt) :: !bad_targets;
      []
    end
  in
  Array.iteri
    (fun i instr ->
      succs.(i) <-
        (match (instr : Isa.instr) with
        | Isa.Br (_, _, _, tgt) ->
          List.sort_uniq Int.compare (fallthrough i @ direct i tgt)
        | Isa.Jmp tgt | Isa.Jal (_, tgt) -> direct i tgt
        | Isa.Jr rs ->
          if rs = 0 then direct i 0
          else if unknown.(rs) then begin
            jr_unresolved := i :: !jr_unresolved;
            Iset.elements (Iset.union cand.(rs) all_cands)
          end
          else Iset.elements (Iset.filter in_range cand.(rs))
        | Isa.Halt | Isa.Rfi -> []
        | _ -> fallthrough i))
    code;
  let roots =
    List.sort_uniq Int.compare
      (List.filter in_range ((if n > 0 then [ 0 ] else []) @ vector_roots @ extra_roots))
  in
  let reachable, preds = derive ~roots succs in
  {
    code;
    succs;
    preds;
    roots;
    reachable;
    jr_unresolved = List.rev !jr_unresolved;
    bad_targets = List.rev !bad_targets;
  }

let of_program (p : Asm.program) = build ~code_refs:p.Asm.code_refs p.Asm.code

let resolve t resolved =
  if resolved = [] then t
  else begin
    let succs = Array.copy t.succs in
    List.iter
      (fun (site, tgts) -> succs.(site) <- List.sort_uniq Int.compare tgts)
      resolved;
    let jr_unresolved =
      List.filter (fun s -> not (List.mem_assoc s resolved)) t.jr_unresolved
    in
    let reachable, preds = derive ~roots:t.roots succs in
    { t with succs; preds; reachable; jr_unresolved }
  end

let is_terminator (i : Isa.instr) =
  match i with
  | Isa.Br _ | Isa.Jmp _ | Isa.Jal _ | Isa.Jr _ | Isa.Halt | Isa.Rfi -> true
  | _ -> false

let blocks t =
  let n = Array.length t.code in
  if n = 0 then []
  else begin
    let leader = Array.make n false in
    List.iter (fun r -> leader.(r) <- true) t.roots;
    Array.iteri
      (fun i instr ->
        if t.reachable.(i) then begin
          if is_terminator instr then begin
            List.iter (fun s -> leader.(s) <- true) t.succs.(i);
            if i + 1 < n && t.reachable.(i + 1) then leader.(i + 1) <- true
          end
        end)
      t.code;
    let acc = ref [] in
    let start = ref (-1) in
    for i = 0 to n - 1 do
      if t.reachable.(i) then begin
        if leader.(i) || !start < 0 then begin
          if !start >= 0 then acc := (!start, i - !start) :: !acc;
          start := i
        end;
        if is_terminator t.code.(i) then begin
          acc := (!start, i - !start + 1) :: !acc;
          start := -1
        end
      end
      else begin
        if !start >= 0 then acc := (!start, i - !start) :: !acc;
        start := -1
      end
    done;
    if !start >= 0 then acc := (!start, n - !start) :: !acc;
    List.rev !acc
  end

(* Tarjan's SCC, iterative.  A node is on a cycle iff its SCC has more
   than one member, or it has a self edge. *)
let on_cycle t =
  let n = Array.length t.code in
  let index = Array.make n (-1) in
  let lowlink = Array.make n 0 in
  let on_stack = Array.make n false in
  let stack = ref [] in
  let counter = ref 0 in
  let result = Array.make n false in
  let rec strongconnect v =
    index.(v) <- !counter;
    lowlink.(v) <- !counter;
    incr counter;
    stack := v :: !stack;
    on_stack.(v) <- true;
    List.iter
      (fun w ->
        if t.reachable.(w) then
          if index.(w) < 0 then begin
            strongconnect w;
            lowlink.(v) <- min lowlink.(v) lowlink.(w)
          end
          else if on_stack.(w) then lowlink.(v) <- min lowlink.(v) index.(w))
      t.succs.(v);
    if lowlink.(v) = index.(v) then begin
      (* pop the component rooted at v *)
      let comp = ref [] in
      let continue_ = ref true in
      while !continue_ do
        match !stack with
        | [] -> continue_ := false
        | w :: rest ->
          stack := rest;
          on_stack.(w) <- false;
          comp := w :: !comp;
          if w = v then continue_ := false
      done;
      match !comp with
      | [ w ] -> if List.mem w t.succs.(w) then result.(w) <- true
      | comp -> List.iter (fun w -> result.(w) <- true) comp
    end
  in
  for v = 0 to n - 1 do
    if t.reachable.(v) && index.(v) < 0 then strongconnect v
  done;
  result
