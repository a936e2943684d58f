(* Superblock discovery: partition the clean blocks into single-entry
   multi-block regions with no unresolved control flow.

   Seed regions are the connected components of the dominator forest
   restricted to clean blocks: each component is rooted where a block's
   dominator is the virtual root, a dirty block, or outside the clean
   set.  A dominator subtree is single-entry at its root, but a
   component that lost interior nodes to the dirty set need not be —
   an edge out of a dirty subtree can land mid-region — so an eviction
   fixpoint removes any non-head block with an in-edge from outside
   its region.  Evicted and dirty-free leftover blocks become
   singleton regions, which are trivially single-entry because every
   CFG edge targets a block leader.  Dirty blocks get no region. *)

type region = { id : int; head : int; blocks : int list }

type t = {
  regions : region array;
  region_of : int array;  (** block id -> region id, [-1] for dirty blocks *)
}

let discover (cfg : Cfg.t) (dom : Domtree.t) =
  let nb = dom.Domtree.nblocks in
  let vr = Domtree.virtual_root dom in
  let dirty = Array.make nb false in
  let mark_addr a =
    if a >= 0 && a < Array.length dom.Domtree.block_of then begin
      let b = dom.Domtree.block_of.(a) in
      if b >= 0 then dirty.(b) <- true
    end
  in
  List.iter mark_addr cfg.Cfg.jr_unresolved;
  List.iter (fun (site, _) -> mark_addr site) cfg.Cfg.bad_targets;
  (* Region head of each clean block: follow the dominator chain while
     it stays clean; memoized by path compression through [head]. *)
  let head = Array.make nb (-1) in
  let rec head_of b =
    if dirty.(b) then -1
    else if head.(b) >= 0 then head.(b)
    else begin
      let d = dom.Domtree.idom.(b) in
      let h =
        if d < 0 || d = vr || dirty.(d) then b
        else
          let hd = head_of d in
          if hd < 0 then b else hd
      in
      head.(b) <- h;
      h
    end
  in
  for b = 0 to nb - 1 do
    ignore (head_of b)
  done;
  (* Eviction fixpoint: a non-head block with an in-edge from outside
     its region breaks single entry; it becomes its own region. *)
  let changed = ref true in
  while !changed do
    changed := false;
    for b = 0 to nb - 1 do
      if (not dirty.(b)) && head.(b) <> b then
        if
          List.exists
            (fun p -> dirty.(p) || head.(p) <> head.(b))
            dom.Domtree.bpreds.(b)
        then begin
          head.(b) <- b;
          changed := true
        end
    done
  done;
  let region_of = Array.make nb (-1) in
  let members = Hashtbl.create 16 in
  for b = nb - 1 downto 0 do
    if not dirty.(b) then begin
      let h = head.(b) in
      Hashtbl.replace members h
        (b :: (try Hashtbl.find members h with Not_found -> []))
    end
  done;
  let heads =
    Hashtbl.fold (fun h _ acc -> h :: acc) members [] |> List.sort Int.compare
  in
  let regions =
    List.mapi
      (fun id h -> { id; head = h; blocks = Hashtbl.find members h })
      heads
  in
  List.iter
    (fun r -> List.iter (fun b -> region_of.(b) <- r.id) r.blocks)
    regions;
  { regions = Array.of_list regions; region_of }
