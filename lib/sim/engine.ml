type event = {
  time : Time.t;
  seq : int;
  label : string;
  actor : string;
  fn : unit -> unit;
  mutable cancelled : bool;
  mutable tag : int;
      (* digest of (actor, label), 0 until {!pending_fingerprint} first
         needs it *)
}

type handle = event

type choice = { c_time : Time.t; c_seq : int; c_label : string; c_actor : string }

type t = {
  mutable queue : event array;
      (* binary min-heap on (time, seq) over [0, size); the slots past
         [size] hold [vacant] so popped handlers can be collected *)
  mutable size : int;
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
  mutable batch : event array;
      (* [step_scheduled]'s same-instant events; slots hold [vacant]
         outside a collection *)
  mutable batch_len : int;
      (* events popped into [batch] while the scheduler hook runs, 0
         outside it *)
  mutable observer : (Time.t -> label:string -> actor:string -> unit) option;
  mutable on_dispatch : string -> unit;
      (* told the actor of every dispatch *)
}

exception Runaway of int

let vacant =
  {
    time = Time.zero;
    seq = -1;
    label = "";
    actor = "";
    fn = ignore;
    cancelled = true;
    tag = 0;
  }

let create () =
  {
    queue = [||];
    size = 0;
    clock = Time.zero;
    next_seq = 0;
    dispatched = 0;
    live = 0;
    dead = 0;
    stopping = false;
    lookahead = Time.zero;
    running = "";
    sched = None;
    batch = [||];
    batch_len = 0;
    observer = None;
    on_dispatch = ignore;
  }

(* ---------- the event queue ----------

   (time, seq) is a total order (seq is unique), so the pop order is
   fully determined whatever the array layout.  Sifts move a hole
   rather than swapping: one write per level. *)

let[@inline] before a b =
  let ta = (a.time :> int) and tb = (b.time :> int) in
  ta < tb || (ta = tb && a.seq < b.seq)

let rec sift_up q i ev =
  if i = 0 then q.(0) <- ev
  else
    let p = (i - 1) lsr 1 in
    let pe = q.(p) in
    if before ev pe then begin
      q.(i) <- pe;
      sift_up q p ev
    end
    else q.(i) <- ev

let rec sift_down q n i ev =
  let l = (2 * i) + 1 in
  if l >= n then q.(i) <- ev
  else
    let r = l + 1 in
    let c = if r < n && before q.(r) q.(l) then r else l in
    let ce = q.(c) in
    if before ce ev then begin
      q.(i) <- ce;
      sift_down q n c ev
    end
    else q.(i) <- ev

let push t ev =
  let cap = Array.length t.queue in
  if t.size = cap then begin
    let q = Array.make (if cap = 0 then 16 else 2 * cap) vacant in
    Array.blit t.queue 0 q 0 t.size;
    t.queue <- q
  end;
  t.size <- t.size + 1;
  sift_up t.queue (t.size - 1) ev

(* Remove the top; the caller has checked [size > 0]. *)
let pop t =
  let q = t.queue in
  let top = q.(0) in
  let n = t.size - 1 in
  t.size <- n;
  let last = q.(n) in
  q.(n) <- vacant;
  if n > 0 then sift_down q n 0 last;
  top

(* Compact the live events to the front and re-heapify, in O(n). *)
let sweep t =
  let q = t.queue in
  let n = ref 0 in
  for i = 0 to t.size - 1 do
    let ev = q.(i) in
    if not ev.cancelled then begin
      q.(!n) <- ev;
      incr n
    end
  done;
  Array.fill q !n (t.size - !n) vacant;
  t.size <- !n;
  for i = (!n / 2) - 1 downto 0 do
    sift_down q !n i q.(i)
  done

(* Drop cancelled events from the top: afterwards the queue is empty
   or its top is live. *)
let rec skip_cancelled t =
  if t.size > 0 && t.queue.(0).cancelled then begin
    ignore (pop t);
    t.dead <- t.dead - 1;
    skip_cancelled t
  end

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
    && String.length t.running > 0
    && actor != t.running
    && not (String.equal actor t.running)
  then
    invalid_arg
      (Format.asprintf
         "Engine.at: %s schedules %S for %S at %a, inside the lookahead %a"
         t.running label actor Time.pp time Time.pp t.lookahead);
  let ev =
    { time; seq = t.next_seq; label; actor; fn; cancelled = false; tag = 0 }
  in
  t.next_seq <- t.next_seq + 1;
  t.live <- t.live + 1;
  push t ev;
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
      sweep t;
      t.dead <- 0
    end
  end

let is_pending _t ev = not ev.cancelled

let next_time t =
  skip_cancelled t;
  if t.size = 0 then None else Some t.queue.(0).time

let set_lookahead t l = t.lookahead <- l
let lookahead t = t.lookahead

(* An event of [actor] or of shared state bounds the burst at its own
   time: it already exists, so it fires ahead of a stop scheduled now
   for the same instant.  Another actor's event at [time] can cause an
   event for [actor] no sooner than [time + lookahead]; a stop
   scheduled now for exactly that instant would fire ahead of it (seq
   order), so the bound stops one nanosecond short.  With no lookahead
   the bound is [time] itself, which is {!next_time}.  Actor tags are
   usually the same physical string, so [==] settles most tests. *)
let horizon t ~actor =
  match t.sched with
  | Some _ -> next_time t
  | None ->
    let reach = max 0 (Time.to_ns t.lookahead - 1) in
    let q = t.queue in
    let h = ref max_int in
    for i = 0 to t.size - 1 do
      let ev = q.(i) in
      if not ev.cancelled then begin
        let a = ev.actor in
        let b =
          if a == actor || String.length a = 0 || String.equal a actor then
            (ev.time :> int)
          else (ev.time :> int) + reach
        in
        if b < !h then h := b
      end
    done;
    if !h = max_int then None else Some (Time.of_ns !h)

let pending t = t.live

let set_scheduler t f = t.sched <- Some f
let clear_scheduler t = t.sched <- None
let has_scheduler t = Option.is_some t.sched

let set_observer t f = t.observer <- Some f
let set_on_dispatch t f = t.on_dispatch <- f

(* An event's (actor, label) digest, hashed once per event: an event
   stays pending across many fingerprints, and a restore brings back
   the very same record.  Hashing at first use rather than in [at]
   keeps the cost off runs that never fingerprint. *)
let tag ev =
  if ev.tag <> 0 then ev.tag
  else begin
    let h = Fnv.string (Fnv.string Fnv.basis ev.actor) ev.label in
    ev.tag <- h;
    h
  end

(* Order-insensitive digest of the pending event set: each live event
   contributes (actor, label, time since now) — but not its sequence
   number, which depends on the allocation order of earlier instants
   and would make otherwise-identical states hash apart.  Used by the
   model checker's state fingerprint. *)
let pending_fingerprint t =
  let acc = ref 0 in
  for i = 0 to t.size - 1 do
    let ev = t.queue.(i) in
    if not ev.cancelled then
      acc := !acc lxor Fnv.int (tag ev) (Time.to_ns (Time.diff ev.time t.clock))
  done;
  !acc

let dispatch t ev =
  t.clock <- ev.time;
  ev.cancelled <- true;
  t.live <- t.live - 1;
  t.dispatched <- t.dispatched + 1;
  (match t.observer with
  | Some f when String.length ev.label > 0 ->
    f t.clock ~label:ev.label ~actor:ev.actor
  | _ -> ());
  t.on_dispatch ev.actor;
  t.running <- ev.actor;
  ev.fn ();
  t.running <- ""

let choice_of e =
  { c_time = e.time; c_seq = e.seq; c_label = e.label; c_actor = e.actor }

(* With a scheduler installed, every dispatch consults it: the set of
   co-enabled events (everything live at the earliest pending instant,
   in scheduling order) is surfaced as a choice and the scheduler picks
   which fires first.  Index 0 reproduces the default seq-order
   tie-break exactly.  The caller has skipped cancelled events.  The
   batch is collected in [t.batch], so a step allocates only the
   choices it hands the scheduler. *)
let step_scheduled t f =
  let first = t.queue.(0).time in
  (* pops at one instant come out in seq order *)
  let n = ref 0 in
  skip_cancelled t;
  while t.size > 0 && Time.equal t.queue.(0).time first do
    let cap = Array.length t.batch in
    if !n = cap then begin
      let b = Array.make (if cap = 0 then 8 else 2 * cap) vacant in
      Array.blit t.batch 0 b 0 cap;
      t.batch <- b
    end;
    t.batch.(!n) <- pop t;
    incr n;
    skip_cancelled t
  done;
  let n = !n and b = t.batch in
  let choices = Array.make n (choice_of b.(0)) in
  for i = 1 to n - 1 do
    choices.(i) <- choice_of b.(i)
  done;
  t.batch_len <- n;
  let idx = f choices in
  t.batch_len <- 0;
  let idx = if idx < 0 || idx >= n then 0 else idx in
  for i = 0 to n - 1 do
    if i <> idx then push t b.(i)
  done;
  let ev = b.(idx) in
  (* the handler may step the engine again, which reuses the buffer *)
  Array.fill b 0 n vacant;
  dispatch t ev

(* Dispatch the top; the caller has skipped cancelled events and
   checked the queue is not empty. *)
let step_top t =
  match t.sched with
  | None -> dispatch t (pop t)
  | Some f -> step_scheduled t f

let step t =
  skip_cancelled t;
  if t.size = 0 then false
  else begin
    step_top t;
    true
  end

let run ?(limit = 200_000_000) t =
  t.stopping <- false;
  t.running <- "";
  let rec loop () =
    if t.stopping then ()
    else if t.dispatched >= limit then raise (Runaway limit)
    else if step t then loop ()
  in
  loop ()

let run_until t deadline =
  t.stopping <- false;
  t.running <- "";
  let rec loop () =
    if not t.stopping then begin
      skip_cancelled t;
      if t.size > 0 && Time.(t.queue.(0).time <= deadline) then begin
        step_top t;
        loop ()
      end
    end
  in
  loop ();
  if Time.(t.clock < deadline) && not t.stopping then t.clock <- deadline

let stop t = t.stopping <- true

let events_dispatched t = t.dispatched

(* ---------- save and restore ----------

   An event is a closure plus a [cancelled] flag, so the engine's state
   is the set of live events (with the batch the scheduler hook is
   deciding over, while it runs) and its counters.  Restoring reuses
   the very same event records: their handlers are sound to run again
   because everything they capture is restored in place too, and their
   seqs are the ones a replay would issue. *)

type saved = {
  sv_events : event array;  (* live events, batch included *)
  sv_clock : Time.t;
  sv_next_seq : int;
  sv_dispatched : int;
  sv_stopping : bool;
}

let save t =
  let n = ref 0 in
  for i = 0 to t.size - 1 do
    if not t.queue.(i).cancelled then incr n
  done;
  let evs = Array.make (!n + t.batch_len) vacant in
  let k = ref 0 in
  for i = 0 to t.size - 1 do
    let ev = t.queue.(i) in
    if not ev.cancelled then begin
      evs.(!k) <- ev;
      incr k
    end
  done;
  Array.blit t.batch 0 evs !k t.batch_len;
  {
    sv_events = evs;
    sv_clock = t.clock;
    sv_next_seq = t.next_seq;
    sv_dispatched = t.dispatched;
    sv_stopping = t.stopping;
  }

(* The live set goes back into the heap (a saved batch rejoins it, so
   the next step collects it again), every one of its events is live
   again, and nothing cancelled is left queued. *)
let restore t s =
  let n = Array.length s.sv_events in
  if Array.length t.queue < n then t.queue <- Array.make n vacant;
  Array.blit s.sv_events 0 t.queue 0 n;
  Array.fill t.queue n (Array.length t.queue - n) vacant;
  Array.iter (fun ev -> ev.cancelled <- false) s.sv_events;
  for i = (n / 2) - 1 downto 0 do
    sift_down t.queue n i t.queue.(i)
  done;
  t.size <- n;
  Array.fill t.batch 0 (Array.length t.batch) vacant;
  t.batch_len <- 0;
  t.clock <- s.sv_clock;
  t.next_seq <- s.sv_next_seq;
  t.dispatched <- s.sv_dispatched;
  t.live <- n;
  t.dead <- 0;
  t.stopping <- s.sv_stopping;
  t.running <- ""
