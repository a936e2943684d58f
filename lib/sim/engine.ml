type event = {
  time : Time.t;
  seq : int;
  label : string;
  actor : string;
  fn : unit -> unit;
  mutable cancelled : bool;
}

type handle = event

type choice = { c_time : Time.t; c_seq : int; c_label : string; c_actor : string }

type t = {
  queue : event Heap.t;
  mutable clock : Time.t;
  mutable next_seq : int;
  mutable dispatched : int;
  mutable live : int;
  mutable dead : int;  (* cancelled events still in the queue *)
  mutable stopping : bool;
  mutable lookahead : Time.t;
  mutable running : string;
      (* actor of the handler being dispatched, [""] outside one *)
  mutable sched : (choice array -> int) option;
  mutable observer : (Time.t -> label:string -> actor:string -> unit) option;
}

exception Stopped

let compare_event a b =
  let c = Time.compare a.time b.time in
  if c <> 0 then c else Int.compare a.seq b.seq

let create () =
  {
    queue = Heap.create ~cmp:compare_event;
    clock = Time.zero;
    next_seq = 0;
    dispatched = 0;
    live = 0;
    dead = 0;
    stopping = false;
    lookahead = Time.zero;
    running = "";
    sched = None;
    observer = None;
  }

let now t = t.clock

let at t ?(label = "") ?(actor = "") time fn =
  if Time.(time < t.clock) then
    invalid_arg
      (Format.asprintf "Engine.at: %a is before now (%a)" Time.pp time Time.pp
         t.clock);
  (* the lookahead contract: one actor reaches another (or shared
     state) no sooner than [lookahead] after its handler runs *)
  if
    Time.(time < add t.clock t.lookahead)
    && (not (String.equal t.running ""))
    && not (String.equal actor t.running)
  then
    invalid_arg
      (Format.asprintf
         "Engine.at: %s schedules %S for %S at %a, inside the lookahead %a"
         t.running label actor Time.pp time Time.pp t.lookahead);
  let ev = { time; seq = t.next_seq; label; actor; fn; cancelled = false } in
  t.next_seq <- t.next_seq + 1;
  t.live <- t.live + 1;
  Heap.push t.queue ev;
  ev

let after t ?label ?actor d fn = at t ?label ?actor (Time.add t.clock d) fn

(* Cancelled events leave the queue lazily, when they reach its top.
   A re-armed timeout cancels one far-future event per message, so
   they are swept out once they outnumber the live ones: scans of the
   whole queue ({!horizon}, {!pending_fingerprint}) stay proportional
   to what is live. *)
let cancel t ev =
  if not ev.cancelled then begin
    ev.cancelled <- true;
    t.live <- t.live - 1;
    t.dead <- t.dead + 1;
    if t.dead > 16 && t.dead > t.live then begin
      Heap.filter_in_place (fun ev -> not ev.cancelled) t.queue;
      t.dead <- 0
    end
  end

let is_pending _t ev = not ev.cancelled

let rec skip_cancelled t =
  match Heap.peek t.queue with
  | Some ev when ev.cancelled ->
    ignore (Heap.pop_exn t.queue);
    t.dead <- t.dead - 1;
    skip_cancelled t
  | other -> other

let next_time t =
  match skip_cancelled t with
  | Some ev -> Some ev.time
  | None -> None

let set_lookahead t l = t.lookahead <- l
let lookahead t = t.lookahead

(* An event of [actor] or of shared state bounds the burst at its own
   time: it already exists, so it fires ahead of a stop scheduled now
   for the same instant.  Another actor's event at [time] can cause an
   event for [actor] no sooner than [time + lookahead]; a stop
   scheduled now for exactly that instant would fire ahead of it (seq
   order), so the bound stops one nanosecond short.  With no lookahead
   the bound is [time] itself, which is {!next_time}. *)
let horizon t ~actor =
  match t.sched with
  | Some _ -> next_time t
  | None ->
    let reach = max 0 (Time.to_ns t.lookahead - 1) in
    let h = ref max_int in
    Heap.iter
      (fun ev ->
        if not ev.cancelled then begin
          let b =
            if String.equal ev.actor actor || String.equal ev.actor "" then
              Time.to_ns ev.time
            else Time.to_ns ev.time + reach
          in
          if b < !h then h := b
        end)
      t.queue;
    if !h = max_int then None else Some (Time.of_ns !h)

let pending t = t.live

let set_scheduler t f = t.sched <- Some f
let clear_scheduler t = t.sched <- None

let set_observer t f = t.observer <- Some f

(* Order-insensitive digest of the pending event set: each live event
   contributes (time since now, actor, label) — but not its sequence
   number, which depends on the allocation order of earlier instants
   and would make otherwise-identical states hash apart.  Used by the
   model checker's state fingerprint. *)
let pending_fingerprint t =
  let fnv_prime = 0x100000001b3 in
  let mask = (1 lsl 62) - 1 in
  let acc = ref 0x12d6f1e9 in
  Heap.iter
    (fun ev ->
      if not ev.cancelled then
        let h =
          Hashtbl.hash
            (Time.to_ns (Time.diff ev.time t.clock), ev.actor, ev.label)
        in
        acc := !acc lxor ((h + 0x9e3779b9) * fnv_prime land mask))
    t.queue;
  !acc

let dispatch t ev =
  t.clock <- ev.time;
  ev.cancelled <- true;
  t.live <- t.live - 1;
  t.dispatched <- t.dispatched + 1;
  (match t.observer with
  | Some f when not (String.equal ev.label "") ->
    f t.clock ~label:ev.label ~actor:ev.actor
  | _ -> ());
  t.running <- ev.actor;
  ev.fn ();
  t.running <- ""

(* With a scheduler installed, every dispatch consults it: the set of
   co-enabled events (everything live at the earliest pending instant,
   in scheduling order) is surfaced as a choice and the scheduler picks
   which fires first.  Index 0 reproduces the default seq-order
   tie-break exactly. *)
let step_scheduled t f first =
  let batch = ref [] in
  let rec collect () =
    match skip_cancelled t with
    | Some ev when Time.equal ev.time first.time ->
      batch := Heap.pop_exn t.queue :: !batch;
      collect ()
    | _ -> ()
  in
  collect ();
  (* heap pops at one instant come out in seq order *)
  let evs = Array.of_list (List.rev !batch) in
  let choices =
    Array.map
      (fun e ->
        { c_time = e.time; c_seq = e.seq; c_label = e.label; c_actor = e.actor })
      evs
  in
  let idx = f choices in
  let idx = if idx < 0 || idx >= Array.length evs then 0 else idx in
  Array.iteri (fun i e -> if i <> idx then Heap.push t.queue e) evs;
  dispatch t evs.(idx)

let step t =
  match skip_cancelled t with
  | None -> false
  | Some first ->
    (match t.sched with
    | None -> dispatch t (Heap.pop_exn t.queue)
    | Some f -> step_scheduled t f first);
    true

let run ?(limit = 200_000_000) t =
  t.stopping <- false;
  t.running <- "";
  let fired = ref 0 in
  let rec loop () =
    if t.stopping then ()
    else if !fired >= limit then
      failwith "Engine.run: event limit exceeded (runaway simulation?)"
    else if step t then begin
      incr fired;
      loop ()
    end
  in
  loop ()

let run_until t deadline =
  t.stopping <- false;
  t.running <- "";
  let rec loop () =
    if t.stopping then ()
    else
      match skip_cancelled t with
      | Some ev when Time.(ev.time <= deadline) ->
        (match t.sched with
        | None -> dispatch t (Heap.pop_exn t.queue)
        | Some f -> step_scheduled t f ev);
        loop ()
      | _ -> ()
  in
  loop ();
  if Time.(t.clock < deadline) && not t.stopping then t.clock <- deadline

let stop t = t.stopping <- true

let events_dispatched t = t.dispatched
