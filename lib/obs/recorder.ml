open Hft_sim

type entry = { time : Time.t; source : string; ev : Event.t }

type t = {
  capacity : int;
  mutable buf : entry array;
      (* grows by doubling up to [capacity]; while [total] is below
         its length the entries sit in [0, total) *)
  mutable next : int;
  mutable total : int;
  dispatch : bool;
  tap : (entry -> unit) option;
}

let create ?(capacity = 262_144) ?(dispatch = false) ?tap () =
  if capacity <= 0 then
    invalid_arg "Recorder.create: capacity must be positive";
  { capacity; buf = [||]; next = 0; total = 0; dispatch; tap }

let null =
  {
    capacity = 0;
    buf = [||];
    next = 0;
    total = 0;
    dispatch = false;
    tap = None;
  }

let enabled t = t.capacity > 0
let dispatch_enabled t = t.dispatch

(* Fills the unused tail of a grown ring.  A static value, not the
   entry being stored: [Array.make] of a major-heap-sized array with a
   young initial value forces a minor collection. *)
let vacant = { time = Time.zero; source = ""; ev = Event.Note "" }

(* Only called before the ring first wraps, so [next = total] and the
   entries are the array's prefix. *)
let grow t =
  let len = Array.length t.buf in
  let buf = Array.make (min t.capacity (max 16 (2 * len))) vacant in
  Array.blit t.buf 0 buf 0 len;
  t.buf <- buf

let emit t ~time ~source ev =
  if t.capacity > 0 then begin
    let e = { time; source; ev } in
    (match t.tap with None -> () | Some f -> f e);
    if t.next = Array.length t.buf && t.next < t.capacity then grow t;
    t.buf.(t.next) <- e;
    t.next <- (if t.next + 1 = t.capacity then 0 else t.next + 1);
    t.total <- t.total + 1
  end

let length t = min t.total t.capacity
let dropped t = t.total - length t

(* The oldest retained entry sits at [next] once the ring has wrapped,
   at 0 before. *)
let entries t =
  let n = length t in
  let first = if t.total > t.capacity then t.next else 0 in
  let acc = ref [] in
  for i = n - 1 downto 0 do
    let slot = first + i in
    let slot = if slot >= t.capacity then slot - t.capacity else slot in
    acc := t.buf.(slot) :: !acc
  done;
  !acc

let total_recorded t = t.total

let clear t =
  t.buf <- [||];
  t.next <- 0;
  t.total <- 0

let pp fmt t =
  List.iter
    (fun e ->
      Format.fprintf fmt "%a %-16s %a@." Time.pp e.time e.source Event.pp e.ev)
    (entries t)
