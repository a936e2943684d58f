open Hft_sim

type entry = { time : Time.t; source : string; ev : Event.t }

(* The ring holds no OCaml value per entry.  Entry [slot] is [stride]
   ints of chunk [slot lsr chunk_bits]: the time in nanoseconds, a
   header, then three payload ints.  The header packs the event's tag
   (bits 0-4), its bools or its drop/release enum ([flag_shift], four
   bits) and the source's string id (from [src_shift] up).  An event
   carries at most three ints, or at most two and one string; the
   string's id then sits in the last payload int.  Strings are
   interned per recorder, so string storage is one copy per distinct
   string. *)
let stride = 5
let chunk_bits = 10
let chunk_mask = (1 lsl chunk_bits) - 1
let flag_shift = 5
let src_shift = 9

type t = {
  capacity : int;
  chunks : int array array;
      (* [||] until a slot in the chunk is first written *)
  mutable next : int;
  mutable total : int;
  dispatch : bool;
  tap : (entry -> unit) option;
  ids : (string, int) Hashtbl.t;
  mutable strs : string array;  (* id -> string; [nstrs] in use *)
  mutable nstrs : int;
}

let make ~capacity ~dispatch ~tap =
  {
    capacity;
    chunks = Array.make ((capacity + chunk_mask) lsr chunk_bits) [||];
    next = 0;
    total = 0;
    dispatch;
    tap;
    ids = Hashtbl.create 16;
    strs = [||];
    nstrs = 0;
  }

let create ?(capacity = 262_144) ?(dispatch = false) ?tap () =
  if capacity <= 0 then
    invalid_arg "Recorder.create: capacity must be positive";
  make ~capacity ~dispatch ~tap

let null = make ~capacity:0 ~dispatch:false ~tap:None
let enabled t = t.capacity > 0
let dispatch_enabled t = t.dispatch

let intern t s =
  match Hashtbl.find t.ids s with
  | id -> id
  | exception Not_found ->
    let id = t.nstrs in
    if id = Array.length t.strs then begin
      let strs = Array.make (max 16 (2 * id)) "" in
      Array.blit t.strs 0 strs 0 id;
      t.strs <- strs
    end;
    t.strs.(id) <- s;
    t.nstrs <- id + 1;
    Hashtbl.add t.ids s id;
    id

let chunk_for t slot =
  let ci = slot lsr chunk_bits in
  let c = t.chunks.(ci) in
  if Array.length c > 0 then c
  else begin
    let n = min (chunk_mask + 1) (t.capacity - (ci lsl chunk_bits)) in
    let c = Array.make (n * stride) 0 in
    t.chunks.(ci) <- c;
    c
  end

let put (c : int array) off time hdr p0 p1 p2 =
  Array.unsafe_set c off time;
  Array.unsafe_set c (off + 1) hdr;
  Array.unsafe_set c (off + 2) p0;
  Array.unsafe_set c (off + 3) p1;
  Array.unsafe_set c (off + 4) p2

let bit b i = if b then 1 lsl (flag_shift + i) else 0

let drop_code : Event.drop_reason -> int = function
  | Loss_plan -> 0
  | Fault_loss -> 1
  | Corrupt -> 2
  | Duplicate -> 3

let drop_of_code = function
  | 0 -> Event.Loss_plan
  | 1 -> Event.Fault_loss
  | 2 -> Event.Corrupt
  | 3 -> Event.Duplicate
  | n -> invalid_arg (Printf.sprintf "Recorder: bad drop code %d" n)

let store t ~time ~source (ev : Event.t) =
  let c = chunk_for t t.next in
  let off = (t.next land chunk_mask) * stride in
  let time = Time.to_ns time in
  let src = intern t source lsl src_shift in
  match ev with
  | Epoch_begin { epoch } -> put c off time (0 lor src) epoch 0 0
  | Epoch_end { epoch; interrupts } ->
    put c off time (1 lor src) epoch interrupts 0
  | Ack_wait_begin { upto; at_io } ->
    put c off time (2 lor bit at_io 0 lor src) upto 0 0
  | Ack_wait_end { upto; released } ->
    let detector = match released with By_ack -> false | By_detector -> true in
    put c off time (3 lor bit detector 0 lor src) upto 0 0
  | Msg_send { dseq; kind; bytes } ->
    put c off time (4 lor src) dseq bytes (intern t kind)
  | Msg_acked { dseq } -> put c off time (5 lor src) dseq 0 0
  | Rtx_round { round; count } -> put c off time (6 lor src) round count 0
  | Rtx_give_up { rounds } -> put c off time (7 lor src) rounds 0 0
  | Frame_dropped { wire_seq; reason } ->
    let hdr = 8 lor (drop_code reason lsl flag_shift) lor src in
    put c off time hdr wire_seq 0 0
  | Intr_buffered { id; kind; epoch } ->
    put c off time (9 lor src) id epoch (intern t kind)
  | Intr_delivered { id; kind } ->
    put c off time (10 lor src) id 0 (intern t kind)
  | Io_submit { op_id; block; write } ->
    put c off time (11 lor bit write 0 lor src) op_id block 0
  | Io_complete { op_id; port; block; write; uncertain } ->
    put c off time
      (12 lor bit write 0 lor bit uncertain 1 lor src)
      op_id port block
  | Io_suppressed { block; write } ->
    put c off time (13 lor bit write 0 lor src) block 0 0
  | Crash -> put c off time (14 lor src) 0 0 0
  | Halt { epoch } -> put c off time (15 lor src) epoch 0 0
  | Detector_fired { blocked } ->
    put c off time (16 lor src) 0 0 (intern t blocked)
  | Promoted { epoch; relayed; synthesized } ->
    put c off time (17 lor src) epoch relayed synthesized
  | Reintegration_offer { epoch; bytes } ->
    put c off time (18 lor src) epoch bytes 0
  | Snapshot_restored { epoch } -> put c off time (19 lor src) epoch 0 0
  | Reintegration_done { epoch } -> put c off time (20 lor src) epoch 0 0
  | Hv_fault { kind } -> put c off time (21 lor src) 0 0 (intern t kind)
  | Hv_detected { by } -> put c off time (22 lor src) 0 0 (intern t by)
  | Microreboot_done { epoch; reconciled_ios; reconciled_msgs } ->
    put c off time (23 lor src) epoch reconciled_ios reconciled_msgs
  | Recovery_escalated { reason } ->
    put c off time (24 lor src) 0 0 (intern t reason)
  | Ch_send { seq; bytes } -> put c off time (25 lor src) seq bytes 0
  | Ch_deliver { seq } -> put c off time (26 lor src) seq 0 0
  | Ch_drop { seq; bytes; reason } ->
    let hdr = 27 lor (drop_code reason lsl flag_shift) lor src in
    put c off time hdr seq bytes 0
  | Dispatch { label } -> put c off time (28 lor src) 0 0 (intern t label)
  | Note s -> put c off time (29 lor src) 0 0 (intern t s)

let load t slot =
  let c = t.chunks.(slot lsr chunk_bits) in
  let off = (slot land chunk_mask) * stride in
  let hdr = c.(off + 1) and p0 = c.(off + 2) and p1 = c.(off + 3) in
  let p2 = c.(off + 4) in
  let flags = (hdr lsr flag_shift) land 0xf in
  let flag i = flags land (1 lsl i) <> 0 in
  let ev : Event.t =
    match hdr land ((1 lsl flag_shift) - 1) with
    | 0 -> Epoch_begin { epoch = p0 }
    | 1 -> Epoch_end { epoch = p0; interrupts = p1 }
    | 2 -> Ack_wait_begin { upto = p0; at_io = flag 0 }
    | 3 ->
      Ack_wait_end
        { upto = p0; released = (if flag 0 then By_detector else By_ack) }
    | 4 -> Msg_send { dseq = p0; kind = t.strs.(p2); bytes = p1 }
    | 5 -> Msg_acked { dseq = p0 }
    | 6 -> Rtx_round { round = p0; count = p1 }
    | 7 -> Rtx_give_up { rounds = p0 }
    | 8 ->
      Frame_dropped { wire_seq = p0; reason = drop_of_code flags }
    | 9 -> Intr_buffered { id = p0; kind = t.strs.(p2); epoch = p1 }
    | 10 -> Intr_delivered { id = p0; kind = t.strs.(p2) }
    | 11 -> Io_submit { op_id = p0; block = p1; write = flag 0 }
    | 12 ->
      Io_complete
        {
          op_id = p0;
          port = p1;
          block = p2;
          write = flag 0;
          uncertain = flag 1;
        }
    | 13 -> Io_suppressed { block = p0; write = flag 0 }
    | 14 -> Crash
    | 15 -> Halt { epoch = p0 }
    | 16 -> Detector_fired { blocked = t.strs.(p2) }
    | 17 -> Promoted { epoch = p0; relayed = p1; synthesized = p2 }
    | 18 -> Reintegration_offer { epoch = p0; bytes = p1 }
    | 19 -> Snapshot_restored { epoch = p0 }
    | 20 -> Reintegration_done { epoch = p0 }
    | 21 -> Hv_fault { kind = t.strs.(p2) }
    | 22 -> Hv_detected { by = t.strs.(p2) }
    | 23 ->
      Microreboot_done
        { epoch = p0; reconciled_ios = p1; reconciled_msgs = p2 }
    | 24 -> Recovery_escalated { reason = t.strs.(p2) }
    | 25 -> Ch_send { seq = p0; bytes = p1 }
    | 26 -> Ch_deliver { seq = p0 }
    | 27 ->
      Ch_drop { seq = p0; bytes = p1; reason = drop_of_code flags }
    | 28 -> Dispatch { label = t.strs.(p2) }
    | 29 -> Note t.strs.(p2)
    | n -> invalid_arg (Printf.sprintf "Recorder: bad tag %d" n)
  in
  { time = Time.of_ns c.(off); source = t.strs.(hdr lsr src_shift); ev }

let emit t ~time ~source ev =
  if t.capacity > 0 then begin
    (match t.tap with None -> () | Some f -> f { time; source; ev });
    store t ~time ~source ev;
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
    acc := load t slot :: !acc
  done;
  !acc

let total_recorded t = t.total

let clear t =
  Array.fill t.chunks 0 (Array.length t.chunks) [||];
  t.next <- 0;
  t.total <- 0;
  Hashtbl.reset t.ids;
  t.strs <- [||];
  t.nstrs <- 0

let pp fmt t =
  List.iter
    (fun e ->
      Format.fprintf fmt "%a %-16s %a@." Time.pp e.time e.source Event.pp e.ev)
    (entries t)
