open Hft_machine

module type DOMAIN = sig
  type state

  val equal : state -> state -> bool
  val join : state -> state -> state
  val transfer : int -> Isa.instr -> state -> state
end

(* Worklist keyed by (reverse-postorder rank, address): popping the
   minimum processes nodes in roughly topological order, so loop
   bodies stabilize before their back edges re-queue the header. *)
module Work = Set.Make (struct
  type t = int * int

  let compare = Stdlib.compare
end)

let rpo_ranks (cfg : Cfg.t) =
  let n = Array.length cfg.Cfg.code in
  let rank = Array.make n max_int in
  let visited = Array.make n false in
  let post = ref [] in
  let rec visit a =
    if not visited.(a) then begin
      visited.(a) <- true;
      List.iter visit cfg.Cfg.succs.(a);
      post := a :: !post
    end
  in
  List.iter visit cfg.Cfg.roots;
  (* [post] accumulates head-first, so it is already reverse postorder. *)
  List.iteri (fun i a -> rank.(a) <- i) !post;
  rank

(* Every cycle of the CFG contains at least one retreating edge with
   respect to any depth-first order, so widening only at retreating-edge
   targets still cuts every ascending chain — while straight-line code
   and loop-exit joins keep their precise values. *)
let retreating_targets (cfg : Cfg.t) =
  let n = Array.length cfg.Cfg.code in
  let rank = rpo_ranks cfg in
  let target = Array.make n false in
  Array.iteri
    (fun a succs ->
      if rank.(a) < max_int then
        List.iter (fun s -> if rank.(s) <= rank.(a) then target.(s) <- true) succs)
    cfg.Cfg.succs;
  target

module Make (D : DOMAIN) = struct
  let solve ?stats ?(widen = fun _ _ j -> j) ?(edge = fun _ _ out _ -> out)
      (cfg : Cfg.t) ~entries =
    let n = Array.length cfg.Cfg.code in
    let states = Array.make n None in
    let rank = rpo_ranks cfg in
    let queued = Array.make n false in
    let heap = ref Work.empty in
    let push a =
      if not queued.(a) then begin
        queued.(a) <- true;
        heap := Work.add (rank.(a), a) !heap
      end
    in
    let update a s =
      match states.(a) with
      | None ->
        states.(a) <- Some s;
        push a
      | Some old ->
        let j = D.join old s in
        if not (D.equal j old) then begin
          states.(a) <- Some (widen a old j);
          push a
        end
    in
    (* a direct loop, not a per-node closure over [out] *)
    let rec propagate a instr out = function
      | [] -> ()
      | succ :: rest ->
        update succ (edge a instr out succ);
        propagate a instr out rest
    in
    List.iter (fun (a, s) -> if a >= 0 && a < n then update a s) entries;
    let rec drain () =
      match Work.min_elt_opt !heap with
      | None -> ()
      | Some ((_, a) as e) ->
        heap := Work.remove e !heap;
        queued.(a) <- false;
        (match states.(a) with
        | None -> ()
        | Some s ->
          (match stats with
          | None -> ()
          | Some st ->
            st.Finding.fixpoint_iterations <- st.Finding.fixpoint_iterations + 1);
          let instr = cfg.Cfg.code.(a) in
          propagate a instr (D.transfer a instr s) cfg.Cfg.succs.(a));
        drain ()
    in
    drain ();
    states
end

module Value = struct
  type t = Bot | Const of int | Taint | Top

  let join a b =
    match (a, b) with
    | Bot, v | v, Bot -> v
    | Const x, Const y when x = y -> Const x
    | Taint, Taint -> Taint
    | _ -> Top

  let equal a b =
    match (a, b) with
    | Bot, Bot | Taint, Taint | Top, Top -> true
    | Const x, Const y -> x = y
    | _ -> false

  let pp fmt = function
    | Bot -> Format.pp_print_string fmt "bot"
    | Const v -> Format.fprintf fmt "const %a" Word.pp v
    | Taint -> Format.pp_print_string fmt "priv-taint"
    | Top -> Format.pp_print_string fmt "top"
end

module Consts = struct
  type state = Value.t array

  let reg st r =
    if r = 0 then Value.Const 0
    else match st with None -> Value.Top | Some s -> s.(r)

  let get (s : state) r = if r = 0 then Value.Const 0 else s.(r)

  let set (s : state) r v =
    if r = 0 then s
    else begin
      let s' = Array.copy s in
      s'.(r) <- v;
      s'
    end

  let word_alu (op : Isa.alu_op) a b =
    match op with
    | Isa.Add -> Word.add a b
    | Isa.Sub -> Word.sub a b
    | Isa.Mul -> Word.mul a b
    | Isa.Divu -> Word.divu a b
    | Isa.Remu -> Word.remu a b
    | Isa.And -> Word.logand a b
    | Isa.Or -> Word.logor a b
    | Isa.Xor -> Word.logxor a b
    | Isa.Sll -> Word.shift_left a b
    | Isa.Srl -> Word.shift_right_logical a b
    | Isa.Sra -> Word.shift_right_arith a b
    | Isa.Slt -> if Word.lt_signed a b then 1 else 0
    | Isa.Sltu -> if Word.lt_unsigned a b then 1 else 0

  let eval op a b =
    match ((a : Value.t), (b : Value.t)) with
    | Value.Const x, Value.Const y -> Value.Const (word_alu op x y)
    | Value.Bot, _ | _, Value.Bot -> Value.Bot
    | Value.Taint, _ | _, Value.Taint -> Value.Taint
    | _ -> Value.Top

  module D = struct
    type nonrec state = state

    let equal a b = Array.for_all2 Value.equal a b
    let join a b = Array.map2 Value.join a b

    let transfer _addr (i : Isa.instr) s =
      match i with
      | Isa.Ldi (rd, v) -> set s rd (Value.Const (Word.mask v))
      | Isa.Alu (op, rd, r1, r2) -> set s rd (eval op (get s r1) (get s r2))
      | Isa.Alui (op, rd, rs, imm) ->
        set s rd (eval op (get s rs) (Value.Const (Word.of_signed imm)))
      | Isa.Ld (rd, _, _)
      | Isa.Mfcr (rd, _)
      | Isa.Rdtod rd
      | Isa.Rdtmr rd ->
        set s rd Value.Top
      | Isa.Jal (rd, _) | Isa.Probe rd -> set s rd Value.Taint
      | Isa.Nop | Isa.St _ | Isa.Br _ | Isa.Jmp _ | Isa.Jr _ | Isa.Halt
      | Isa.Wfi | Isa.Wrtmr _ | Isa.Out _ | Isa.Trapc _ | Isa.Mtcr _
      | Isa.Tlbw _ | Isa.Rfi ->
        s
  end

  module Solver = Make (D)

  let solve ?stats cfg =
    let top () = Array.make Isa.num_regs Value.Top in
    let entries = List.map (fun r -> (r, top ())) cfg.Cfg.roots in
    Solver.solve ?stats cfg ~entries
end
