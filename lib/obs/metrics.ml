open Hft_sim

(* Aggregation-first metrics: the registry consumes the same event
   stream the recorder ring stores, but folds it into fixed-size state
   — labeled counters behind per-actor scopes, and a bounded list of
   rolling time windows with streaming histograms — so a run of any
   length produces bounded-size output even after the ring has
   wrapped.  The hot paths (counter bumps, histogram adds, window
   accumulation) allocate nothing; allocation happens only at
   registration time and when a window closes. *)

type counter = {
  c_actor : string;
  c_name : string;
  mutable c_val : int;
}

(* One closed aggregation window over simulated time. *)
type window = {
  w_t0_ns : int;
  mutable w_len_ns : int;
  w_epoch : Hist.t;  (** epoch latencies that closed in the window *)
  w_ack : Hist.t;  (** ack-wait stalls that released in the window *)
  mutable w_epochs : int;
  mutable w_down_ns : int;
      (** simulated time within the window with no live primary *)
}

(* What the tap keeps per event source: the counter handles it has
   bumped, by the name literal it bumped them under, and its
   open-interval pairing state. *)
type source = {
  src : string;
  mutable handles : (string * counter) list;
  mutable epoch_open : int;  (** begin ns of the open epoch; -1 if none *)
  mutable ack_open : int;  (** likewise for an ack wait *)
}

type t = {
  mutable window_ns : int;
  max_windows : int;
  mutable closed : window list;  (** newest first *)
  mutable closed_count : int;
  mutable cur : window option;
  mutable cur_end_ns : int;
  counters : (string * string, counter) Hashtbl.t;
  mutable sources : source list;
  mutable primary : string;
  mutable down_since : int option;
}

type scope = { s_actor : string; s_reg : t }

let create ?(window_ns = 10_000_000) ?(max_windows = 64) () =
  if window_ns <= 0 then invalid_arg "Metrics.create: window_ns must be positive";
  if max_windows < 2 then invalid_arg "Metrics.create: max_windows must be >= 2";
  {
    window_ns;
    max_windows;
    closed = [];
    closed_count = 0;
    cur = None;
    cur_end_ns = 0;
    counters = Hashtbl.create 32;
    sources = [];
    primary = "primary";
    down_since = None;
  }

(* ---------- scopes and counters ---------- *)

let scope t actor = { s_actor = actor; s_reg = t }

let counter s name =
  let key = (s.s_actor, name) in
  match Hashtbl.find_opt s.s_reg.counters key with
  | Some c -> c
  | None ->
    let c = { c_actor = s.s_actor; c_name = name; c_val = 0 } in
    Hashtbl.replace s.s_reg.counters key c;
    c

let incr c = c.c_val <- c.c_val + 1
let add c n = c.c_val <- c.c_val + n
let value c = c.c_val

let counters t =
  Hashtbl.fold (fun _ c acc -> c :: acc) t.counters []
  |> List.sort (fun a b ->
         compare (a.c_actor, a.c_name) (b.c_actor, b.c_name))

(* ---------- rolling windows ---------- *)

let new_window t t0 =
  {
    w_t0_ns = t0;
    w_len_ns = t.window_ns;
    w_epoch = Hist.create ();
    w_ack = Hist.create ();
    w_epochs = 0;
    w_down_ns = 0;
  }

let merge_windows a b =
  (* [a] is the older window; the pair must be time-adjacent *)
  {
    w_t0_ns = a.w_t0_ns;
    w_len_ns = a.w_len_ns + b.w_len_ns;
    w_epoch = Hist.merge a.w_epoch b.w_epoch;
    w_ack = Hist.merge a.w_ack b.w_ack;
    w_epochs = a.w_epochs + b.w_epochs;
    w_down_ns = a.w_down_ns + b.w_down_ns;
  }

(* Halve the closed-window list by merging time-adjacent pairs, and
   double the base width for future windows: the output stays bounded
   by [max_windows] no matter how long the run gets. *)
let compress t =
  let rec pair = function
    | a :: b :: rest -> merge_windows b a :: pair rest
    | [ a ] -> [ a ]
    | [] -> []
  in
  (* closed is newest-first: pair from the newest end keeps pairs
     adjacent; the possibly-unpaired leftover is the oldest window *)
  t.closed <- pair t.closed;
  t.closed_count <- List.length t.closed;
  t.window_ns <- t.window_ns * 2

let close_current t =
  match t.cur with
  | None -> ()
  | Some w ->
    (* downtime that straddles the boundary: charge this window its
       share and move the open edge to the boundary *)
    (match t.down_since with
    | Some since ->
      let upto = w.w_t0_ns + w.w_len_ns in
      w.w_down_ns <- w.w_down_ns + (upto - max since w.w_t0_ns);
      t.down_since <- Some upto
    | None -> ());
    t.closed <- w :: t.closed;
    t.closed_count <- t.closed_count + 1;
    t.cur <- None;
    if t.closed_count >= t.max_windows then compress t

(* Ensure the current window covers [now]. *)
let rec roll t now =
  match t.cur with
  | Some w when now < w.w_t0_ns + w.w_len_ns -> w
  | Some _ ->
    close_current t;
    roll t now
  | None ->
    let t0 =
      match t.closed with
      | w :: _ -> w.w_t0_ns + w.w_len_ns
      | [] -> 0
    in
    (* a long quiet gap: skip empty windows rather than materializing
       them (an idle system is fully available, so nothing is lost) *)
    let t0 =
      if now - t0 >= t.window_ns * 2 && t.down_since = None then
        now - (now mod t.window_ns)
      else t0
    in
    let w = new_window t t0 in
    t.cur <- Some w;
    t.cur_end_ns <- t0 + t.window_ns;
    if now < w.w_t0_ns + w.w_len_ns then w else (close_current t; roll t now)

let windows t =
  let l = match t.cur with Some w -> w :: t.closed | None -> t.closed in
  List.rev l

(* ---------- the event tap ---------- *)

let mark_down t now =
  if t.down_since = None then t.down_since <- Some now

let mark_up t now =
  match t.down_since with
  | None -> ()
  | Some since ->
    let w = roll t now in
    w.w_down_ns <- w.w_down_ns + (now - max since w.w_t0_ns);
    t.down_since <- None

(* Sources are few and their names are usually the same physical
   strings, so a list scan on [==] finds one without hashing. *)
let rec find_source t src = function
  | s :: rest ->
    if s.src == src || String.equal s.src src then s
    else find_source t src rest
  | [] ->
    let s = { src; handles = []; epoch_open = -1; ack_open = -1 } in
    t.sources <- s :: t.sources;
    s

(* [s]'s handle for counter [name], resolved on first use.  Each name
   is a literal at one call site of [observe], so [==] finds it. *)
let rec handle t s name = function
  | (n, c) :: rest -> if n == name then c else handle t s name rest
  | [] ->
    let c = counter (scope t s.src) name in
    s.handles <- (name, c) :: s.handles;
    c

let bump t s name = incr (handle t s name s.handles)

let since t0 now = Time.of_ns (if now > t0 then now - t0 else 0)

let observe t (e : Recorder.entry) =
  let now = Time.to_ns e.Recorder.time in
  let w = roll t now in
  let s = find_source t e.Recorder.source t.sources in
  match e.Recorder.ev with
  | Event.Epoch_begin _ -> s.epoch_open <- now
  | Event.Epoch_end _ ->
    bump t s "epochs";
    if s.epoch_open >= 0 then begin
      Hist.add w.w_epoch (since s.epoch_open now);
      s.epoch_open <- -1;
      w.w_epochs <- w.w_epochs + 1
    end
  | Event.Ack_wait_begin _ -> s.ack_open <- now
  | Event.Ack_wait_end _ ->
    bump t s "ack_waits";
    if s.ack_open >= 0 then begin
      Hist.add w.w_ack (since s.ack_open now);
      s.ack_open <- -1
    end
  | Event.Msg_send _ -> bump t s "msgs_sent"
  | Event.Msg_acked _ -> bump t s "msgs_acked"
  | Event.Rtx_round _ -> bump t s "rtx_rounds"
  | Event.Rtx_give_up _ -> bump t s "rtx_give_ups"
  | Event.Frame_dropped _ -> bump t s "frames_dropped"
  | Event.Intr_buffered _ -> bump t s "intrs_buffered"
  | Event.Intr_delivered _ -> bump t s "intrs_delivered"
  | Event.Io_submit _ -> bump t s "io_submits"
  | Event.Io_complete _ -> bump t s "io_completes"
  | Event.Io_suppressed _ -> bump t s "io_suppressed"
  | Event.Crash ->
    bump t s "crashes";
    if e.Recorder.source = t.primary then mark_down t now
  | Event.Promoted _ ->
    bump t s "promotions";
    t.primary <- e.Recorder.source;
    mark_up t now
  | Event.Hv_fault _ ->
    bump t s "hv_faults";
    if e.Recorder.source = t.primary then mark_down t now
  | Event.Microreboot_done _ ->
    bump t s "microreboots";
    if e.Recorder.source = t.primary then mark_up t now
  | Event.Recovery_escalated _ -> bump t s "recovery_escalations"
  | Event.Ch_send _ | Event.Ch_deliver _ | Event.Ch_drop _
  | Event.Dispatch _ | Event.Note _ | Event.Halt _
  | Event.Detector_fired _ | Event.Reintegration_offer _
  | Event.Snapshot_restored _ | Event.Reintegration_done _
  | Event.Hv_detected _ ->
    ()

let tap = observe

(* ---------- derived summaries ---------- *)

let availability w =
  if w.w_len_ns <= 0 then 1.0
  else
    let f = 1.0 -. (float w.w_down_ns /. float w.w_len_ns) in
    if f < 0.0 then 0.0 else if f > 1.0 then 1.0 else f

let pp fmt t =
  Format.fprintf fmt "metrics: %d counter(s), %d window(s)@."
    (Hashtbl.length t.counters)
    (List.length (windows t));
  List.iter
    (fun c -> Format.fprintf fmt "  %s/%s = %d@." c.c_actor c.c_name c.c_val)
    (counters t);
  List.iter
    (fun w ->
      Format.fprintf fmt
        "  window [%.1f..%.1f] ms: %d epoch(s), p50 %.1f us, p99 %.1f us, \
         availability %.3f@."
        (float w.w_t0_ns /. 1e6)
        (float (w.w_t0_ns + w.w_len_ns) /. 1e6)
        w.w_epochs (Hist.p50_us w.w_epoch) (Hist.p99_us w.w_epoch)
        (availability w))
    (windows t)
