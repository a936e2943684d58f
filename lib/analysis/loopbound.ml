open Hft_machine

type loop = {
  id : int;
  header : int;
  latches : int list;
  blocks : int list;
  bound : int option;
  witness : int list;
}

type t = { loops : loop array; loop_of : int array }

let word_max = 0xFFFF_FFFF
let signed_top = 1 lsl 31

(* ------------------------------------------------------------------ *)
(* Value ranges read off the VSA lattice.                             *)

let range_of (v : Vsa.value) =
  match v with
  | Vsa.Bot -> None
  | Vsa.Fin s ->
    if Vsa.Iset.is_empty s then None
    else Some (Vsa.Iset.min_elt s, Vsa.Iset.max_elt s)
  | Vsa.Itv (lo, hi) -> Some (lo, hi)
  | Vsa.Top -> Some (0, word_max)

let join_range a b =
  match (a, b) with
  | None, r | r, None -> r
  | Some (l, h), Some (l', h') -> Some (min l l', max h h')

(* ------------------------------------------------------------------ *)
(* Natural-loop bodies.                                               *)

module Iset = Set.Make (Int)

(* Body of the loop with header [h] and latches [us]: [h] plus every
   block reaching a latch backwards without passing [h]. *)
let body (dom : Domtree.t) h us =
  let seen = ref (Iset.singleton h) in
  let stack = ref [] in
  let push b =
    if not (Iset.mem b !seen) then begin
      seen := Iset.add b !seen;
      stack := b :: !stack
    end
  in
  List.iter push us;
  let rec drain () =
    match !stack with
    | [] -> ()
    | b :: rest ->
      stack := rest;
      List.iter push dom.Domtree.bpreds.(b);
      drain ()
  in
  drain ();
  !seen

(* The interior below the header must be acyclic so the induction
   variable steps exactly once per header-to-latch traversal; nested
   or irreducible interiors refuse a bound instead. *)
let interior_acyclic (dom : Domtree.t) h blocks =
  let color = Hashtbl.create 16 in
  (* 0 absent = white, 1 = on stack, 2 = done *)
  let exception Cyclic in
  let rec visit b =
    match Hashtbl.find_opt color b with
    | Some 1 -> raise Cyclic
    | Some _ -> ()
    | None ->
      Hashtbl.replace color b 1;
      List.iter
        (fun s -> if s <> h && Iset.mem s blocks then visit s)
        dom.Domtree.bsuccs.(b);
      Hashtbl.replace color b 2
  in
  try
    Iset.iter (fun b -> if b <> h then visit b) blocks;
    true
  with Cyclic -> false

(* A header->latch block path, the witness shipped with unbounded
   loops so a reviewer can retrace why no bound was derived. *)
let witness_path (dom : Domtree.t) h latch blocks =
  let seen = Hashtbl.create 16 in
  let rec dfs path b =
    if b = latch then Some (List.rev (b :: path))
    else if Hashtbl.mem seen b then None
    else begin
      Hashtbl.replace seen b ();
      let rec try_succs = function
        | [] -> None
        | s :: rest -> (
          match
            if Iset.mem s blocks && s <> h then dfs (b :: path) s else None
          with
          | Some p -> Some p
          | None -> try_succs rest)
      in
      try_succs dom.Domtree.bsuccs.(b)
    end
  in
  if latch = h then [ h ]
  else match dfs [] h with Some p -> p | None -> [ h; latch ]

(* ------------------------------------------------------------------ *)
(* Trip-count inference.                                              *)

(* Continue condition normalised to [iv REL limit]. *)
type rel = Rltu | Rleu | Rgtu | Rgeu | Req | Rne

let negate_cond (c : Isa.cond) =
  match c with
  | Isa.Eq -> Isa.Ne
  | Isa.Ne -> Isa.Eq
  | Isa.Lt -> Isa.Ge
  | Isa.Ge -> Isa.Lt
  | Isa.Ltu -> Isa.Geu
  | Isa.Geu -> Isa.Ltu

(* Map a continue condition to a rel on the induction variable;
   [`S] rels are signed and demand the non-negative half-space. *)
let rel_of_cond (c : Isa.cond) ~iv_first =
  match (c, iv_first) with
  | Isa.Ltu, true -> Some (Rltu, `U)
  | Isa.Ltu, false -> Some (Rgtu, `U)
  | Isa.Geu, true -> Some (Rgeu, `U)
  | Isa.Geu, false -> Some (Rleu, `U)
  | Isa.Lt, true -> Some (Rltu, `S)
  | Isa.Lt, false -> Some (Rgtu, `S)
  | Isa.Ge, true -> Some (Rgeu, `S)
  | Isa.Ge, false -> Some (Rleu, `S)
  | Isa.Eq, _ -> Some (Req, `U)
  | Isa.Ne, _ -> Some (Rne, `U)

let ceil_div a b = (a + b - 1) / b

(* Worst-case header visits for step [s] (non-zero, signed), init
   range [(imin, imax)], limit range [(lmin, lmax)].  Every case
   guards against 32-bit wrap; [None] when wrap (or a shape we cannot
   argue about) is possible. *)
let visits rel sign s (imin, imax) (lmin, lmax) =
  let signed_ok =
    match sign with
    | `U -> true
    | `S -> imax < signed_top && lmax < signed_top
  in
  if not signed_ok then None
  else if s > 0 then begin
    (* increasing towards an upper limit *)
    let ceiling = match sign with `U -> word_max | `S -> signed_top - 1 in
    let no_wrap = imax + s <= ceiling && lmax + s <= ceiling in
    match rel with
    | Rltu when no_wrap ->
      Some (max 1 (if lmax > imin then ceil_div (lmax - imin) s else 0))
    | Rleu when no_wrap ->
      Some (max 1 (if lmax >= imin then ((lmax - imin) / s) + 1 else 0))
    | Rne
      when no_wrap && imin = imax && lmin = lmax && imin < lmin
           && (lmin - imin) mod s = 0 ->
      Some (max 1 ((lmin - imin) / s))
    | _ -> None
  end
  else begin
    (* decreasing towards a lower limit *)
    let d = -s in
    match rel with
    | Rgeu when imin >= d && lmin >= d ->
      Some (max 1 (if imax >= lmin then ((imax - lmin) / d) + 1 else 0))
    | Rgtu when lmin = word_max -> Some 1
    | Rgtu when imin >= d && lmin + 1 >= d ->
      Some (max 1 (if imax > lmin then ((imax - lmin - 1) / d) + 1 else 0))
    | Rne
      when imin = imax && lmin = lmax && imin > lmin && imin >= d
           && (imin - lmin) mod d = 0 ->
      Some (max 1 ((imin - lmin) / d))
    | _ -> None
  end

(* The affine step of the unique in-loop definition of [r], when that
   definition is [Alui (Add|Sub, r, r, imm)] in a block dominating the
   latch; [None] otherwise (multiple defs, wrong shape, off the
   header-to-latch spine). *)
let affine_step (cfg : Cfg.t) (dom : Domtree.t) blocks latch r =
  if r = 0 then None
  else begin
    let defs = ref [] in
    Iset.iter
      (fun b ->
        let l = dom.Domtree.leaders.(b) in
        for a = l to l + dom.Domtree.lens.(b) - 1 do
          match Determinism.def cfg.Cfg.code.(a) with
          | Some rd when rd = r -> defs := (b, a) :: !defs
          | _ -> ()
        done)
      blocks;
    match !defs with
    | [ (db, da) ] when Domtree.dominates dom db latch -> (
      match cfg.Cfg.code.(da) with
      | Isa.Alui (Isa.Add, rd, rs, imm) when rd = r && rs = r ->
        (* the assembler sign-extends immediates *)
        let v = Word.signed (Word.of_signed imm) in
        if v = 0 then None else Some v
      | Isa.Alui (Isa.Sub, rd, rs, imm) when rd = r && rs = r ->
        let v = -Word.signed (Word.of_signed imm) in
        if v = 0 then None else Some v
      | _ -> None)
    | _ -> None
  end

let invariant (cfg : Cfg.t) (dom : Domtree.t) blocks r =
  r = 0
  || Iset.for_all
       (fun b ->
         let l = dom.Domtree.leaders.(b) in
         let ok = ref true in
         for a = l to l + dom.Domtree.lens.(b) - 1 do
           match Determinism.def cfg.Cfg.code.(a) with
           | Some rd when rd = r -> ok := false
           | _ -> ()
         done;
         !ok)
       blocks

(* Entry-value range of [r]: join of the VSA out-states on the
   preheader edges (plus unconstrained boot state when the header is
   itself a CFG root, entered with arbitrary registers). *)
let init_range (cfg : Cfg.t) (dom : Domtree.t) (vsa : Vsa.t) blocks h r =
  let outside =
    List.filter (fun p -> not (Iset.mem p blocks)) dom.Domtree.bpreds.(h)
  in
  let from_preds =
    List.fold_left
      (fun acc p ->
        let a = dom.Domtree.leaders.(p) + dom.Domtree.lens.(p) - 1 in
        join_range acc
          (range_of (Vsa.out_value_at vsa ~code:cfg.Cfg.code ~addr:a ~reg:r)))
      None outside
  in
  if List.mem h dom.Domtree.broots then
    join_range from_preds (Some (0, word_max))
  else from_preds

let infer_bound (cfg : Cfg.t) (dom : Domtree.t) (vsa : Vsa.t) h latches blocks
    =
  match latches with
  | [ latch ] when interior_acyclic dom h blocks -> (
    let br_addr = dom.Domtree.leaders.(latch) + dom.Domtree.lens.(latch) - 1 in
    match cfg.Cfg.code.(br_addr) with
    | Isa.Br (c, r1, r2, tgt) -> (
      let n = Array.length cfg.Cfg.code in
      let blk a = if a >= 0 && a < n then dom.Domtree.block_of.(a) else -1 in
      let taken = blk tgt and fall = blk (br_addr + 1) in
      let in_loop b = b >= 0 && Iset.mem b blocks in
      (* the branch must steer between re-entering the header and
         leaving the loop, else it does not control termination *)
      let continue_cond =
        if taken = h && not (in_loop fall) then Some c
        else if fall = h && not (in_loop taken) then Some (negate_cond c)
        else None
      in
      match continue_cond with
      | None -> None
      | Some cc -> (
        let consider iv limit ~iv_first =
          match affine_step cfg dom blocks latch iv with
          | None -> None
          | Some s ->
            if not (invariant cfg dom blocks limit) then None
            else begin
              match
                ( init_range cfg dom vsa blocks h iv,
                  range_of (Vsa.value_at vsa ~addr:br_addr ~reg:limit) )
              with
              | Some ir, Some lr -> (
                match rel_of_cond cc ~iv_first with
                | Some (rel, sign) -> visits rel sign s ir lr
                | None -> None)
              | _ -> None
            end
        in
        match consider r1 r2 ~iv_first:true with
        | Some n -> Some n
        | None -> consider r2 r1 ~iv_first:false))
    | _ -> None)
  | _ -> None

(* ------------------------------------------------------------------ *)

let analyze (cfg : Cfg.t) (dom : Domtree.t) (vsa : Vsa.t) =
  let by_header = Hashtbl.create 8 in
  List.iter
    (fun (u, h) ->
      let us = try Hashtbl.find by_header h with Not_found -> [] in
      Hashtbl.replace by_header h (u :: us))
    (Domtree.back_edges dom);
  let headers =
    List.sort compare (Hashtbl.fold (fun h _ acc -> h :: acc) by_header [])
  in
  let loops =
    List.mapi
      (fun i h ->
        let latches = List.sort compare (Hashtbl.find by_header h) in
        let blocks = body dom h latches in
        let bound = infer_bound cfg dom vsa h latches blocks in
        let witness =
          match bound with
          | Some _ -> []
          | None -> witness_path dom h (List.hd latches) blocks
        in
        {
          id = i;
          header = h;
          latches;
          blocks = Iset.elements blocks;
          bound;
          witness;
        })
      headers
  in
  let loops = Array.of_list loops in
  let loop_of = Array.make dom.Domtree.nblocks (-1) in
  let by_size =
    List.sort
      (fun a b -> compare (List.length a.blocks) (List.length b.blocks))
      (Array.to_list loops)
  in
  (* smallest-first with first-claim-wins gives each block its
     innermost containing loop *)
  List.iter
    (fun l ->
      List.iter
        (fun b -> if loop_of.(b) < 0 then loop_of.(b) <- l.id)
        l.blocks)
    by_size;
  { loops; loop_of }
