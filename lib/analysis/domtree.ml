(* Dominator tree at basic-block granularity (Cooper–Harvey–Kennedy
   iterative algorithm).  Every CFG edge
   targets a block leader by construction of {!Cfg.blocks}, so the
   block graph is recovered from the last instruction of each block. *)

type t = {
  leaders : int array;
  lens : int array;
  block_of : int array;
  bsuccs : int list array;
  bpreds : int list array;
  idom : int array;
  nblocks : int;
}

let virtual_root t = t.nblocks

let build (cfg : Cfg.t) =
  let blist = Cfg.blocks cfg in
  let nb = List.length blist in
  let leaders = Array.make nb 0 in
  let lens = Array.make nb 0 in
  List.iteri
    (fun i (l, len) ->
      leaders.(i) <- l;
      lens.(i) <- len)
    blist;
  let n = Array.length cfg.Cfg.code in
  let block_of = Array.make n (-1) in
  Array.iteri
    (fun b l ->
      for a = l to l + lens.(b) - 1 do
        block_of.(a) <- b
      done)
    leaders;
  let bsuccs = Array.make nb [] in
  let bpreds = Array.make nb [] in
  Array.iteri
    (fun b l ->
      let last = l + lens.(b) - 1 in
      let ss =
        List.filter_map
          (fun s -> if block_of.(s) >= 0 then Some block_of.(s) else None)
          cfg.Cfg.succs.(last)
        |> List.sort_uniq Int.compare
      in
      bsuccs.(b) <- ss;
      List.iter (fun s -> bpreds.(s) <- b :: bpreds.(s)) ss)
    leaders;
  let broots =
    List.filter_map
      (fun r -> if r >= 0 && r < n && block_of.(r) >= 0 then Some block_of.(r) else None)
      cfg.Cfg.roots
    |> List.sort_uniq Int.compare
  in
  (* Reverse postorder over the block graph from the roots.  The
     virtual super-root (id [nb]) joins all roots so the dominator
     intersection of two different roots terminates there. *)
  let rpo = Array.make (nb + 1) max_int in
  let visited = Array.make nb false in
  let post = ref [] in
  let rec visit b =
    if not visited.(b) then begin
      visited.(b) <- true;
      List.iter visit bsuccs.(b);
      post := b :: !post
    end
  in
  List.iter visit broots;
  rpo.(nb) <- -1;
  List.iteri (fun i b -> rpo.(b) <- i) !post;
  let order = !post in
  let idom = Array.make (nb + 1) (-1) in
  idom.(nb) <- nb;
  List.iter (fun r -> idom.(r) <- nb) broots;
  let is_root = Array.make nb false in
  List.iter (fun r -> is_root.(r) <- true) broots;
  let rec intersect b1 b2 =
    if b1 = b2 then b1
    else if rpo.(b1) > rpo.(b2) then intersect idom.(b1) b2
    else intersect b1 idom.(b2)
  in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun b ->
        if not is_root.(b) then begin
          let new_idom =
            List.fold_left
              (fun acc p ->
                if idom.(p) < 0 then acc
                else match acc with None -> Some p | Some a -> Some (intersect a p))
              None bpreds.(b)
          in
          match new_idom with
          | None -> ()
          | Some d ->
            if idom.(b) <> d then begin
              idom.(b) <- d;
              changed := true
            end
        end)
      order
  done;
  { leaders; lens; block_of; bsuccs; bpreds; idom; nblocks = nb }

(* [dominates t a b]: does block [a] dominate block [b]?  Walks [b]'s
   idom chain; the virtual root terminates every chain. *)
let dominates t a b =
  let vr = virtual_root t in
  let rec up b = if b = a then true else if b = vr || b < 0 then false else up t.idom.(b) in
  up b
