open Hft_machine
module Iset = Set.Make (Int)

(* A value is a small finite set of 32-bit words, an unsigned
   interval, or unknown.  Finite sets cap at [max_fin] elements and
   hull to an interval; after [widen_after] growing joins at the same
   loop header, interval bounds climb a finite threshold ladder
   ([widen_value]), which bounds every ascending chain. *)

let max_fin = 8
let widen_after = 8
let word_max = Word.mask (-1)

type value = Bot | Fin of Iset.t | Itv of int * int | Top

type t = {
  states : value array option array;  (** per-address in-states *)
  resolved : (int * int list) list;
      (** formerly-unresolved [Jr] sites with their enumerated targets *)
}

let fin1 x = Fin (Iset.singleton (Word.mask x))

let hull s = Itv (Iset.min_elt s, Iset.max_elt s)

let norm = function
  | Fin s when Iset.is_empty s -> Bot
  | Fin s when Iset.cardinal s > max_fin -> hull s
  | Itv (lo, hi) when lo = hi -> Fin (Iset.singleton lo)
  | v -> v

let join_value a b =
  match (a, b) with
  | Bot, v | v, Bot -> v
  | Top, _ | _, Top -> Top
  | Fin x, Fin y -> norm (Fin (Iset.union x y))
  | _ ->
    let bounds = function
      | Itv (lo, hi) -> (lo, hi)
      | Fin s -> (Iset.min_elt s, Iset.max_elt s)
      | _ -> assert false
    in
    let l1, h1 = bounds a and l2, h2 = bounds b in
    Itv (min l1 l2, max h1 h2)

let equal_value a b =
  match (a, b) with
  | Bot, Bot | Top, Top -> true
  | Fin x, Fin y -> Iset.equal x y
  | Itv (a1, a2), Itv (b1, b2) -> a1 = b1 && a2 = b2
  | _ -> false

(* Widen [j] relative to [old]: any interval bound that grew jumps to
   the next rung of a finite threshold ladder instead of snapping to
   the word extreme, so chains of growing joins still terminate (the
   ladder is finite) but a loop whose branch clamps the value settles
   on the first rung above its real range rather than losing it
   entirely.  Applied only at retreating-edge targets — see [solve]. *)
let widen_thresholds = [ 16; 256; 4096; 65536; 1 lsl 20 ]

let widen_up hi =
  match List.find_opt (fun t -> t >= hi) widen_thresholds with
  | Some t -> t
  | None -> word_max

let widen_down lo =
  match List.find_opt (fun t -> t <= lo) (List.rev widen_thresholds) with
  | Some t -> t
  | None -> 0

let widen_value old j =
  match (old, j) with
  | Itv (lo, hi), Itv (lo', hi') ->
    Itv
      ( (if lo' < lo then widen_down lo' else lo'),
        if hi' > hi then widen_up hi' else hi' )
  | (Fin _ | Bot | Top), _ -> j
  | Itv _, _ -> j

let eval op a b =
  match (a, b) with
  | Bot, _ | _, Bot -> Bot
  | Fin x, Fin y when Iset.cardinal x * Iset.cardinal y <= 64 ->
    let acc = ref Iset.empty in
    Iset.iter
      (fun vx ->
        Iset.iter
          (fun vy -> acc := Iset.add (Absint.Consts.word_alu op vx vy) !acc)
          y)
      x;
    norm (Fin !acc)
  | _ -> (
    (* Interval arithmetic only where monotone and overflow-free:
       address computation in practice is Add/Sub with constants. *)
    let bounds = function
      | Fin s -> Some (Iset.min_elt s, Iset.max_elt s)
      | Itv (lo, hi) -> Some (lo, hi)
      | _ -> None
    in
    match (op, bounds a, bounds b) with
    | Isa.Add, Some (l1, h1), Some (l2, h2) when h1 + h2 <= word_max ->
      Itv (l1 + l2, h1 + h2)
    | Isa.Sub, Some (l1, h1), Some (l2, h2) when l1 - h2 >= 0 ->
      Itv (l1 - h2, h1 - l2)
    | (Isa.Slt | Isa.Sltu), _, _ -> Itv (0, 1)
    | Isa.Srl, Some (l1, h1), Some (l2, h2) when l2 = h2 && l2 < 32 ->
      Itv (l1 lsr l2, h1 lsr l2)
    | Isa.And, _, Some (l2, h2) when l2 = h2 -> Itv (0, h2)
    | _ -> Top)

type state = value array

let get (s : state) r = if r = 0 then fin1 0 else s.(r)

let range_of = function
  | Bot -> None
  | Fin s when Iset.is_empty s -> None
  | Fin s -> Some (Iset.min_elt s, Iset.max_elt s)
  | Itv (lo, hi) -> Some (lo, hi)
  | Top -> Some (0, word_max)

let meet_range v (lo, hi) =
  if lo > hi then Bot
  else
    match v with
    | Bot -> Bot
    | Top -> norm (Itv (lo, hi))
    | Fin s -> norm (Fin (Iset.filter (fun x -> x >= lo && x <= hi) s))
    | Itv (l, h) ->
      let l' = max l lo and h' = min h hi in
      if l' > h' then Bot else norm (Itv (l', h'))

let set (s : state) r v =
  if r = 0 then s
  else begin
    let s' = Array.copy s in
    s'.(r) <- v;
    s'
  end

let transfer addr (i : Isa.instr) s =
  let n_hint = addr + 1 in
  match i with
  | Isa.Ldi (rd, v) -> set s rd (fin1 v)
  | Isa.Alu (op, rd, r1, r2) -> set s rd (eval op (get s r1) (get s r2))
  | Isa.Alui (op, rd, rs, imm) ->
    set s rd (eval op (get s rs) (fin1 (Word.of_signed imm)))
  | Isa.Jal (rd, _) ->
    (* deposits ((site+1) lsl 2) lor real_priv, real_priv in 0..3 *)
    let base = Word.mask (n_hint lsl 2) in
    set s rd (Itv (base, base lor 3))
  | Isa.Probe rd -> set s rd (Itv (0, 3))
  | Isa.Ld (rd, _, _) | Isa.Mfcr (rd, _) | Isa.Rdtod rd | Isa.Rdtmr rd ->
    set s rd Top
  | Isa.Nop | Isa.St _ | Isa.Br _ | Isa.Jmp _ | Isa.Jr _ | Isa.Halt | Isa.Wfi
  | Isa.Wrtmr _ | Isa.Out _ | Isa.Trapc _ | Isa.Mtcr _ | Isa.Tlbw _ | Isa.Rfi
    ->
    s

(* Branch-edge refinement: on the taken edge of [Br (c, r1, r2, _)]
   the condition holds, on the fall-through its negation does.
   Meeting the operands with the implied unsigned ranges is what lets
   a counted loop's induction variable converge to a finite interval —
   without it every back-edge join grows and widening is the only (and
   lossy) brake.  Signed comparisons refine only when both operands
   provably stay below 2^31, where signed and unsigned order agree. *)
let refine_ltu s r1 r2 holds =
  match (range_of (get s r1), range_of (get s r2)) with
  | Some (l1, h1), Some (l2, h2) ->
    if holds then begin
      (* r1 < r2: r1 <= max r2 - 1, r2 >= min r1 + 1 *)
      let s =
        if h2 = 0 then set s r1 Bot
        else set s r1 (meet_range (get s r1) (0, h2 - 1))
      in
      if l1 = word_max then set s r2 Bot
      else set s r2 (meet_range (get s r2) (l1 + 1, word_max))
    end
    else begin
      (* r1 >= r2 *)
      let s = set s r1 (meet_range (get s r1) (l2, word_max)) in
      set s r2 (meet_range (get s r2) (0, h1))
    end
  | _ -> s

let refine_eq s r1 r2 =
  match (range_of (get s r1), range_of (get s r2)) with
  | Some (l1, h1), Some (l2, h2) ->
    let s = set s r1 (meet_range (get s r1) (l2, h2)) in
    set s r2 (meet_range (get s r2) (l1, h1))
  | _ -> s

let signed_safe s r1 r2 =
  match (range_of (get s r1), range_of (get s r2)) with
  | Some (_, h1), Some (_, h2) -> h1 < 1 lsl 31 && h2 < 1 lsl 31
  | _ -> false

let refine_branch s (c : Isa.cond) r1 r2 taken =
  match c with
  | Isa.Ltu -> refine_ltu s r1 r2 taken
  | Isa.Geu -> refine_ltu s r1 r2 (not taken)
  | Isa.Lt when signed_safe s r1 r2 -> refine_ltu s r1 r2 taken
  | Isa.Ge when signed_safe s r1 r2 -> refine_ltu s r1 r2 (not taken)
  | Isa.Eq when taken -> refine_eq s r1 r2
  | Isa.Ne when not taken -> refine_eq s r1 r2
  | _ -> s

let equal_state a b = Array.for_all2 equal_value a b
let join_state a b = Array.map2 join_value a b
let widen_state old j = Array.map2 widen_value old j

module Solver = Absint.Make (struct
  type nonrec state = state

  let equal = equal_state
  let join = join_state
  let transfer = transfer
end)

(* Runs on the shared {!Absint.Make} engine.  Widening gives ground
   only at retreating-edge targets — the loop headers where ascending
   chains actually arise — and only after [widen_after] growing joins
   there, so straight-line joins keep full precision; see
   {!Absint.retreating_targets}.  Each edge of a two-way branch
   carries its refined out-state. *)
let solve ?stats (cfg : Cfg.t) =
  let n = Array.length cfg.Cfg.code in
  let joins = Array.make n 0 in
  let widen_site = Absint.retreating_targets cfg in
  let widen a old j =
    joins.(a) <- joins.(a) + 1;
    if widen_site.(a) && joins.(a) > widen_after then widen_state old j else j
  in
  let edge a (i : Isa.instr) out succ =
    match i with
    | Isa.Br (c, r1, r2, tgt) when tgt <> a + 1 ->
      refine_branch out c r1 r2 (succ = tgt)
    | _ -> out
  in
  let top () = Array.make Isa.num_regs Top in
  let states =
    Solver.solve ?stats ~widen ~edge cfg
      ~entries:(List.map (fun r -> (r, top ())) cfg.Cfg.roots)
  in
  (* Enumerate targets for the unresolved indirect jumps.  [Jr]
     computes [rs >> 2]; a target outside the code faults at run time
     rather than transferring control, so out-of-range candidates
     contribute no edge (matching {!Cfg.build}). *)
  let in_range t = t >= 0 && t < n in
  let resolved =
    List.filter_map
      (fun site ->
        match cfg.Cfg.code.(site) with
        | Isa.Jr rs -> (
          match states.(site) with
          | None -> None
          | Some s -> (
            match get s rs with
            | Fin vals ->
              Some
                ( site,
                  Iset.elements (Iset.map (fun v -> v lsr 2) vals)
                  |> List.filter in_range )
            | Itv (lo, hi) when hi lsr 2 - (lo lsr 2) <= max_fin ->
              let t0 = lo lsr 2 and t1 = hi lsr 2 in
              let rec enum t acc =
                if t > t1 then List.rev acc
                else enum (t + 1) (if in_range t then t :: acc else acc)
              in
              Some (site, enum t0 [])
            | _ -> None))
        | _ -> None)
      cfg.Cfg.jr_unresolved
  in
  { states; resolved }

let value_at t ~addr ~reg =
  if reg = 0 then fin1 0
  else
    match t.states.(addr) with None -> Top | Some s -> s.(reg)

(* Unsigned range of [v + off] when provably wrap-free, else None. *)
let addr_range v off =
  let bounds = function
    | Fin s when not (Iset.is_empty s) -> Some (Iset.min_elt s, Iset.max_elt s)
    | Itv (lo, hi) -> Some (lo, hi)
    | _ -> None
  in
  match bounds v with
  | Some (lo, hi) when lo + off >= 0 && hi + off <= word_max ->
    Some (lo + off, hi + off)
  | _ -> None

let refine cfg t = Cfg.resolve cfg t.resolved
