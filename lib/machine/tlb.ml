type policy = Round_robin | Random of Hft_sim.Rng.t

type entry = { vpage : int; ppage : int; user_ok : bool; writable : bool }

type t = {
  policy : policy;
  slots : entry option array;
  mutable next_victim : int;
  mutable last_hit : entry option;
      (* one-entry MRU cache over [lookup]; sound because [insert]
         keeps vpages unique among slots and invalidates it *)
}

let create ?(entries = 16) policy =
  if entries <= 0 then invalid_arg "Tlb.create: entries must be positive";
  { policy; slots = Array.make entries None; next_victim = 0; last_hit = None }

let size t = Array.length t.slots

let lookup t ~vpage =
  match t.last_hit with
  | Some e when e.vpage = vpage -> t.last_hit
  | _ ->
    let n = Array.length t.slots in
    let rec scan i =
      if i >= n then None
      else
        match t.slots.(i) with
        | Some e when e.vpage = vpage ->
          t.last_hit <- t.slots.(i);
          t.slots.(i)
        | _ -> scan (i + 1)
    in
    scan 0

let find_slot t vpage =
  (* Prefer the slot already holding this vpage, then an invalid slot,
     then a victim chosen by the policy. *)
  let n = Array.length t.slots in
  let existing = ref None and free = ref None in
  for i = n - 1 downto 0 do
    match t.slots.(i) with
    | Some e when e.vpage = vpage -> existing := Some i
    | None -> free := Some i
    | Some _ -> ()
  done;
  match (!existing, !free) with
  | Some i, _ -> i
  | None, Some i -> i
  | None, None -> (
    match t.policy with
    | Round_robin ->
      let i = t.next_victim in
      t.next_victim <- (i + 1) mod n;
      i
    | Random rng -> Hft_sim.Rng.int rng n)

let insert t entry =
  let i = find_slot t entry.vpage in
  t.slots.(i) <- Some entry;
  t.last_hit <- None

let flush t =
  Array.fill t.slots 0 (Array.length t.slots) None;
  t.next_victim <- 0;
  t.last_hit <- None

let entries t =
  Array.to_list t.slots |> List.filter_map (fun e -> e)

let hash_into t seed =
  let h = ref seed in
  let mix v = h := Hft_sim.Fnv.int !h v in
  Array.iter
    (function
      | None -> mix 0x5ca1ab1e
      | Some e ->
        mix e.vpage;
        mix e.ppage;
        mix (Bool.to_int e.user_ok);
        mix (Bool.to_int e.writable))
    t.slots;
  !h

let entry_word ~ppage ~user_ok ~writable =
  Word.mask
    (ppage land 0xFFFFF
    lor (if user_ok then 1 lsl 20 else 0)
    lor if writable then 1 lsl 21 else 0)

let decode_entry_word ~vpage w =
  {
    vpage;
    ppage = w land 0xFFFFF;
    user_ok = w land (1 lsl 20) <> 0;
    writable = w land (1 lsl 21) <> 0;
  }

type saved = {
  sv_slots : entry option array;
  sv_next_victim : int;
  sv_last_hit : entry option;
  sv_rng : Hft_sim.Rng.saved option;
}

let policy_rng t =
  match t.policy with Round_robin -> None | Random rng -> Some rng

(* [like] itself when nothing changed since it was taken (entries are
   immutable, so an unchanged slot holds the same one) *)
let save ?like t =
  let rng = Option.map Hft_sim.Rng.save (policy_rng t) in
  match like with
  | Some l
    when l.sv_next_victim = t.next_victim
         && l.sv_last_hit == t.last_hit
         && l.sv_rng = rng
         && Array.for_all2 ( == ) l.sv_slots t.slots ->
    l
  | _ ->
    {
      sv_slots = Array.copy t.slots;
      sv_next_victim = t.next_victim;
      sv_last_hit = t.last_hit;
      sv_rng = rng;
    }

let restore t s =
  Array.blit s.sv_slots 0 t.slots 0 (Array.length t.slots);
  t.next_victim <- s.sv_next_victim;
  t.last_hit <- s.sv_last_hit;
  match (policy_rng t, s.sv_rng) with
  | Some rng, Some r -> Hft_sim.Rng.restore rng r
  | _ -> ()
