open Hft_machine

type func_cost = Fwcet of int | Frecursive | Funbounded

type t = {
  loop_iter : int option array;
  loop_total : int option array;
  region_wcet : int option array;
  functions : (int * func_cost) list;
}

(* Refuse absurd products (deeply nested ladder-widened bounds) rather
   than overflow; no real certificate is anywhere near this. *)
let cost_cap = 1 lsl 40

module Iset = Set.Make (Int)

(* Nodes of a collapsed graph: a plain block or a folded loop. *)
type node = B of int | L of int

exception Cyclic
exception Nobound

(* Longest node-cost-weighted path from [start]; [None] on a residual
   cycle or an unboundable node. *)
let longest ~succs ~cost start =
  let memo = Hashtbl.create 32 in
  let onstack = Hashtbl.create 32 in
  let rec go n =
    match Hashtbl.find_opt memo n with
    | Some v -> v
    | None ->
      if Hashtbl.mem onstack n then raise Cyclic;
      Hashtbl.replace onstack n ();
      let c = match cost n with Some c -> c | None -> raise Nobound in
      let best = List.fold_left (fun acc s -> max acc (go s)) 0 (succs n) in
      Hashtbl.remove onstack n;
      let v = c + best in
      if v > cost_cap then raise Nobound;
      Hashtbl.replace memo n v;
      v
  in
  try Some (go start) with Cyclic | Nobound -> None

let dedup nodes = List.sort_uniq compare nodes

let analyze (cfg : Cfg.t) (dom : Domtree.t) (sb : Superblock.t)
    (lb : Loopbound.t) =
  let nloops = Array.length lb.Loopbound.loops in
  let lblocks =
    Array.map (fun l -> Iset.of_list l.Loopbound.blocks) lb.Loopbound.loops
  in
  (* parent loop: the smallest strictly larger loop containing it *)
  let parent = Array.make nloops (-1) in
  Array.iteri
    (fun i bi ->
      let best = ref (-1) in
      Array.iteri
        (fun j bj ->
          if
            i <> j
            && Iset.cardinal bj > Iset.cardinal bi
            && Iset.subset bi bj
            && (!best < 0 || Iset.cardinal bj < Iset.cardinal lblocks.(!best))
          then best := j)
        lblocks;
      parent.(i) <- !best)
    lblocks;
  (* representative of block [b] inside a collapsed context described
     by [fits]: the outermost containing loop accepted by [fits] *)
  let rep ~fits b =
    let rec climb best l =
      if l < 0 then best else if fits l then climb (Some l) parent.(l)
      else best
    in
    match climb None lb.Loopbound.loop_of.(b) with
    | Some l -> L l
    | None -> B b
  in
  let loop_iter = Array.make nloops None in
  let loop_total = Array.make nloops None in
  (* exits of a folded loop: block successors leaving its body *)
  let loop_exits l =
    Iset.fold
      (fun b acc ->
        List.fold_left
          (fun acc s ->
            if Iset.mem s lblocks.(l) then acc else s :: acc)
          acc dom.Domtree.bsuccs.(b))
      lblocks.(l) []
    |> dedup
  in
  (* innermost-first: ascending body size *)
  let order =
    List.sort
      (fun i j -> compare (Iset.cardinal lblocks.(i)) (Iset.cardinal lblocks.(j)))
      (List.init nloops Fun.id)
  in
  List.iter
    (fun i ->
      let body = lblocks.(i) in
      let h = lb.Loopbound.loops.(i).Loopbound.header in
      (* collapse only loops strictly inside [i] *)
      let fits l = l <> i && Iset.subset lblocks.(l) body in
      let in_body b = Iset.mem b body in
      let step targets =
        List.filter_map
          (fun s ->
            if (not (in_body s)) || s = h then None
            else Some (rep ~fits s))
          targets
        |> dedup
      in
      let succs = function
        | B b -> step dom.Domtree.bsuccs.(b)
        | L c -> step (loop_exits c)
      in
      let cost = function
        | B b -> Some dom.Domtree.lens.(b)
        | L c -> loop_total.(c)
      in
      loop_iter.(i) <- longest ~succs ~cost (B h);
      loop_total.(i) <-
        (match (lb.Loopbound.loops.(i).Loopbound.bound, loop_iter.(i)) with
        | Some n, Some c when n * c <= cost_cap -> Some (n * c)
        | _ -> None))
    order;
  (* per-superblock worst case from the head, edges back into the
     head's representative dropped (per-entry restart semantics) *)
  let region_wcet =
    Array.map
      (fun (r : Superblock.region) ->
        let members = Iset.of_list r.Superblock.blocks in
        let fits l = Iset.subset lblocks.(l) members in
        let start = rep ~fits r.Superblock.head in
        let step targets =
          List.filter_map
            (fun s ->
              if not (Iset.mem s members) then None
              else begin
                let n = rep ~fits s in
                if n = start then None else Some n
              end)
            targets
          |> dedup
        in
        let succs = function
          | B b -> step dom.Domtree.bsuccs.(b)
          | L c -> step (loop_exits c)
        in
        let cost = function
          | B b -> Some dom.Domtree.lens.(b)
          | L c -> loop_total.(c)
        in
        longest ~succs ~cost start)
      sb.Superblock.regions
  in
  (* ---- interprocedural summaries over the Jal call graph ---- *)
  let n = Array.length cfg.Cfg.code in
  let entry_blocks =
    let acc = ref Iset.empty in
    Array.iteri
      (fun a instr ->
        match instr with
        | Isa.Jal (_, tgt) when cfg.Cfg.reachable.(a) && tgt >= 0 && tgt < n
          -> (
          let b = dom.Domtree.block_of.(tgt) in
          if b >= 0 && dom.Domtree.leaders.(b) = tgt then acc := Iset.add b !acc)
        | _ -> ())
      cfg.Cfg.code;
    !acc
  in
  let reachable_block b = dom.Domtree.rpo.(b) < max_int in
  let span f =
    let acc = ref Iset.empty in
    for b = 0 to dom.Domtree.nblocks - 1 do
      if reachable_block b && Domtree.dominates dom f b then
        acc := Iset.add b !acc
    done;
    !acc
  in
  let spans = Hashtbl.create 8 in
  Iset.iter (fun f -> Hashtbl.replace spans f (span f)) entry_blocks;
  (* call edges: a Jal inside f's span targeting another entry *)
  let calls f =
    Iset.fold
      (fun b acc ->
        let l = dom.Domtree.leaders.(b) in
        let last = l + dom.Domtree.lens.(b) - 1 in
        match cfg.Cfg.code.(last) with
        | Isa.Jal (_, tgt) when tgt >= 0 && tgt < n ->
          let g = dom.Domtree.block_of.(tgt) in
          if g >= 0 && Iset.mem g entry_blocks && g <> f then (last, g) :: acc
          else acc
        | _ -> acc)
      (Hashtbl.find spans f) []
  in
  let call_edges = Hashtbl.create 8 in
  Iset.iter (fun f -> Hashtbl.replace call_edges f (calls f)) entry_blocks;
  (* an entry is recursive when it reaches itself in the call graph
     (including a self-call, which [calls] filters out above) *)
  let self_call f =
    Iset.exists
      (fun b ->
        let l = dom.Domtree.leaders.(b) in
        match cfg.Cfg.code.(l + dom.Domtree.lens.(b) - 1) with
        | Isa.Jal (_, tgt) -> tgt >= 0 && tgt < n && dom.Domtree.block_of.(tgt) = f
        | _ -> false)
      (Hashtbl.find spans f)
  in
  let reaches_self f =
    let seen = Hashtbl.create 8 in
    let rec go g =
      List.exists
        (fun (_, h) ->
          h = f
          ||
          if Hashtbl.mem seen h then false
          else begin
            Hashtbl.replace seen h ();
            go h
          end)
        (Hashtbl.find call_edges g)
    in
    self_call f || go f
  in
  let recursive = Hashtbl.create 8 in
  Iset.iter
    (fun f -> if reaches_self f then Hashtbl.replace recursive f ())
    entry_blocks;
  let summaries = Hashtbl.create 8 in
  let rec summary f =
    match Hashtbl.find_opt summaries f with
    | Some s -> s
    | None ->
      let s =
        if Hashtbl.mem recursive f then Frecursive
        else begin
          let fspan = Hashtbl.find spans f in
          let fits l = Iset.subset lblocks.(l) fspan in
          (* per-call-site callee summaries; a recursive or unbounded
             callee sinks the caller *)
          let callee = Hashtbl.create 8 in
          let sunk =
            List.exists
              (fun (site, g) ->
                match summary g with
                | Fwcet c ->
                  Hashtbl.replace callee site c;
                  false
                | Frecursive | Funbounded -> true)
              (Hashtbl.find call_edges f)
          in
          if sunk then Funbounded
          else begin
            (* other entries inside the span belong to their own
               summaries; calls reach them through [callee] costs *)
            let step targets =
              dedup
                (List.filter_map
                   (fun s ->
                     if
                       Iset.mem s fspan
                       && ((not (Iset.mem s entry_blocks)) || s = f)
                     then Some (rep ~fits s)
                     else None)
                   targets)
            in
            let succs = function
              | B b -> (
                let l = dom.Domtree.leaders.(b) in
                let last = l + dom.Domtree.lens.(b) - 1 in
                match cfg.Cfg.code.(last) with
                | Isa.Jal (_, _) when Hashtbl.mem callee last ->
                  (* resume after the call rather than descending into
                     the callee's blocks *)
                  let ret = last + 1 in
                  if ret < n then begin
                    let rb = dom.Domtree.block_of.(ret) in
                    if rb >= 0 && Iset.mem rb fspan then step [ rb ] else []
                  end
                  else []
                | _ -> step dom.Domtree.bsuccs.(b))
              | L c -> step (loop_exits c)
            in
            let cost = function
              | B b -> (
                let base = dom.Domtree.lens.(b) in
                let l = dom.Domtree.leaders.(b) in
                let last = l + dom.Domtree.lens.(b) - 1 in
                match Hashtbl.find_opt callee last with
                | Some c -> Some (base + c)
                | None -> Some base)
              | L c -> loop_total.(c)
            in
            match longest ~succs ~cost (rep ~fits f) with
            | Some c -> Fwcet c
            | None -> Funbounded
          end
        end
      in
      Hashtbl.replace summaries f s;
      s
  in
  let functions =
    Iset.fold
      (fun f acc -> (dom.Domtree.leaders.(f), summary f) :: acc)
      entry_blocks []
    |> List.sort compare
  in
  { loop_iter; loop_total; region_wcet; functions }
