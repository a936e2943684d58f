open Hft_sim

type fault_model = {
  loss : float;
  duplicate : float;
  corrupt : float;
  delay_us : int;
}

let fair = { loss = 0.0; duplicate = 0.0; corrupt = 0.0; delay_us = 0 }

type 'msg faults = {
  model : fault_model;
  rng : Rng.t;
  corrupter : (int -> 'msg -> 'msg) option;
}

type 'msg t = {
  engine : Engine.t;
  lnk : Link.t;
  name_ : string;
  deliver_label : string;  (* [name_ ^ " deliver"], built once *)
  actor_ : string;
  obs : Hft_obs.Recorder.t;
  mutable receiver : ('msg -> unit) option;
  mutable crashed : bool;
  mutable loss_plan : int -> bool;
  mutable faults : 'msg faults option;
  mutable hasher : ('msg -> int) option;
  mutable busy_until_ : Time.t;
  mutable sent : int;
  mutable bytes : int;
  mutable delivered : int;
  mutable in_flight_ : int;
  mutable inflight_hash_ : int;
  mutable lost_ : int;
  mutable duplicated_ : int;
  mutable corrupted_ : int;
  mutable delayed_ : int;
}

let create ~engine ~link ~name ?(actor = "") ?(obs = Hft_obs.Recorder.null) ()
    =
  {
    engine;
    lnk = link;
    name_ = name;
    deliver_label = name ^ " deliver";
    actor_ = actor;
    obs;
    receiver = None;
    crashed = false;
    loss_plan = (fun _ -> false);
    faults = None;
    hasher = None;
    busy_until_ = Time.zero;
    sent = 0;
    bytes = 0;
    delivered = 0;
    in_flight_ = 0;
    inflight_hash_ = 0;
    lost_ = 0;
    duplicated_ = 0;
    corrupted_ = 0;
    delayed_ = 0;
  }

let name t = t.name_
let link t = t.lnk

let connect t f =
  (match t.receiver with
  | Some _ -> invalid_arg "Channel.connect: receiver already installed"
  | None -> ());
  t.receiver <- Some f

let set_fault_model t ~rng ?corrupter model =
  if
    model.loss < 0.0 || model.loss >= 1.0
    || model.duplicate < 0.0 || model.duplicate > 1.0
    || model.corrupt < 0.0 || model.corrupt > 1.0
    || model.delay_us < 0
  then invalid_arg "Channel.set_fault_model: rates out of range";
  t.faults <- Some { model; rng; corrupter }

let clear_fault_model t = t.faults <- None

let msg_hash t msg =
  match t.hasher with Some h -> h msg | None -> 0

let emit t ev =
  if Hft_obs.Recorder.enabled t.obs then
    Hft_obs.Recorder.emit t.obs ~time:(Engine.now t.engine) ~source:t.name_ ev

let deliver t ~seq arrival msg =
  t.in_flight_ <- t.in_flight_ + 1;
  t.inflight_hash_ <- t.inflight_hash_ lxor msg_hash t msg;
  ignore
    (Engine.at t.engine ~label:t.deliver_label ~actor:t.actor_ arrival
       (fun () ->
         t.in_flight_ <- t.in_flight_ - 1;
         t.inflight_hash_ <- t.inflight_hash_ lxor msg_hash t msg;
         t.delivered <- t.delivered + 1;
         emit t (Hft_obs.Event.Ch_deliver { seq });
         match t.receiver with
         | Some f -> f msg
         | None ->
           invalid_arg
             (Printf.sprintf "Channel %s: delivery with no receiver" t.name_)))

(* Draw the fault dice for one copy of a message: an extra network
   delay (queueing beyond serialization — this is what breaks FIFO
   order) and possible payload damage. *)
let faulty_copy t f msg =
  let jitter =
    if f.model.delay_us = 0 then Time.zero
    else begin
      let d = Rng.int f.rng (f.model.delay_us + 1) in
      if d > 0 then t.delayed_ <- t.delayed_ + 1;
      Time.of_us d
    end
  in
  let msg =
    if Rng.chance f.rng f.model.corrupt then begin
      t.corrupted_ <- t.corrupted_ + 1;
      match f.corrupter with
      | Some c -> c (Int64.to_int (Int64.logand (Rng.bits64 f.rng) 0xFFFFL)) msg
      | None -> msg
    end
    else msg
  in
  (jitter, msg)

let send t ~bytes msg =
  if not t.crashed then begin
    let seq = t.sent in
    t.sent <- t.sent + 1;
    t.bytes <- t.bytes + bytes;
    let start = Time.max (Engine.now t.engine) t.busy_until_ in
    let arrival = Time.add start (Link.transfer_time t.lnk ~bytes) in
    t.busy_until_ <- arrival;
    emit t (Hft_obs.Event.Ch_send { seq; bytes });
    if t.loss_plan seq then
      emit t
        (Hft_obs.Event.Ch_drop { seq; bytes; reason = Hft_obs.Event.Loss_plan })
    else begin
      match t.faults with
      | None -> deliver t ~seq arrival msg
      | Some f ->
        if Rng.chance f.rng f.model.loss then begin
          t.lost_ <- t.lost_ + 1;
          emit t
            (Hft_obs.Event.Ch_drop
               { seq; bytes; reason = Hft_obs.Event.Fault_loss })
        end
        else begin
          let jitter, msg' = faulty_copy t f msg in
          deliver t ~seq (Time.add arrival jitter) msg';
          if Rng.chance f.rng f.model.duplicate then begin
            t.duplicated_ <- t.duplicated_ + 1;
            let jitter2, msg'' = faulty_copy t f msg in
            deliver t ~seq (Time.add arrival jitter2) msg''
          end
        end
    end
  end

let crash_sender t = t.crashed <- true
let sender_crashed t = t.crashed
let revive_sender t = t.crashed <- false

let set_loss_plan t p = t.loss_plan <- p
let set_hasher t h = t.hasher <- Some h

let fingerprint t =
  let busy_left =
    let now = Engine.now t.engine in
    if Time.(t.busy_until_ <= now) then 0
    else Time.to_ns (Time.diff t.busy_until_ now)
  in
  let mix = Fnv.int in
  let h = Fnv.bool (mix (mix Fnv.basis t.sent) t.delivered) t.crashed in
  mix (mix (mix h t.in_flight_) t.inflight_hash_) busy_left

let in_flight t = t.in_flight_
let messages_sent t = t.sent
let bytes_sent t = t.bytes
let messages_delivered t = t.delivered
let busy_until t = t.busy_until_
let faults_lost t = t.lost_
let faults_duplicated t = t.duplicated_
let faults_corrupted t = t.corrupted_
let faults_delayed t = t.delayed_

(* The installed plan and fault model are saved by reference (a fault
   model's generator by its state): a restore brings back whichever
   was installed, positioned where it was. *)
type 'msg saved = {
  sv_crashed : bool;
  sv_loss_plan : int -> bool;
  sv_faults : ('msg faults * Rng.saved) option;
  sv_busy_until : Time.t;
  sv_counts : int array;
      (* sent, bytes, delivered, in flight, in-flight hash, lost,
         duplicated, corrupted, delayed *)
}

let counts t =
  [|
    t.sent; t.bytes; t.delivered; t.in_flight_; t.inflight_hash_; t.lost_;
    t.duplicated_; t.corrupted_; t.delayed_;
  |]

(* [like] itself when nothing changed since it was taken *)
let save ?like t =
  let faults = Option.map (fun f -> (f, Rng.save f.rng)) t.faults in
  match like with
  | Some l
    when l.sv_crashed = t.crashed
         && l.sv_loss_plan == t.loss_plan
         && Option.equal
              (fun (f, r) (f', r') -> f == f' && r = r')
              l.sv_faults faults
         && Time.equal l.sv_busy_until t.busy_until_
         && l.sv_counts = counts t ->
    l
  | _ ->
    {
      sv_crashed = t.crashed;
      sv_loss_plan = t.loss_plan;
      sv_faults = faults;
      sv_busy_until = t.busy_until_;
      sv_counts = counts t;
    }

let restore t s =
  t.crashed <- s.sv_crashed;
  t.loss_plan <- s.sv_loss_plan;
  t.faults <- Option.map fst s.sv_faults;
  Option.iter (fun (f, r) -> Rng.restore f.rng r) s.sv_faults;
  t.busy_until_ <- s.sv_busy_until;
  let c = s.sv_counts in
  t.sent <- c.(0);
  t.bytes <- c.(1);
  t.delivered <- c.(2);
  t.in_flight_ <- c.(3);
  t.inflight_hash_ <- c.(4);
  t.lost_ <- c.(5);
  t.duplicated_ <- c.(6);
  t.corrupted_ <- c.(7);
  t.delayed_ <- c.(8)
