open Hft_sim

type entry = { time : Time.t; source : string; ev : Event.t }

type t = {
  capacity : int;
  buf : entry option array;
  mutable next : int;
  mutable total : int;
  dispatch : bool;
  tap : (entry -> unit) option;
}

let create ?(capacity = 262_144) ?(dispatch = false) ?tap () =
  if capacity <= 0 then
    invalid_arg "Recorder.create: capacity must be positive";
  {
    capacity;
    buf = Array.make capacity None;
    next = 0;
    total = 0;
    dispatch;
    tap;
  }

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

let emit t ~time ~source ev =
  if t.capacity > 0 then begin
    let e = { time; source; ev } in
    (match t.tap with None -> () | Some f -> f e);
    t.buf.(t.next) <- Some e;
    t.next <- (t.next + 1) mod t.capacity;
    t.total <- t.total + 1
  end

let dropped t = if t.total > t.capacity then t.total - t.capacity else 0

let entries t =
  let acc = ref [] in
  for i = t.capacity - 1 downto 0 do
    let slot = (t.next + i) mod t.capacity in
    match t.buf.(slot) with
    | Some e -> acc := e :: !acc
    | None -> ()
  done;
  !acc

let length t = min t.total t.capacity
let total_recorded t = t.total

let clear t =
  Array.fill t.buf 0 t.capacity None;
  t.next <- 0;
  t.total <- 0

let pp fmt t =
  List.iter
    (fun e ->
      Format.fprintf fmt "%a %-16s %a@." Time.pp e.time e.source Event.pp e.ev)
    (entries t)
