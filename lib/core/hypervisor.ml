open Hft_sim
open Hft_machine
open Hft_devices
module Channel = Hft_net.Channel
module Layout = Hft_guest.Layout
module Ev = Hft_obs.Event

type role = Primary | Backup | Promoted

type buffered_intr =
  | Bi_disk of Message.relayed_completion
  | Bi_timer

(* arrival-stamped buffer entry, for the delay(EL) measurement.
   [obs_id] pairs the buffered and delivered observability events; it
   is excluded from fingerprints, like the stamp itself. *)
type stamped = { bi : buffered_intr; since : Time.t; obs_id : int }

(* The protocol's tables are immutable maps, and its queues lists, held
   in mutable fields, so a save holds them by reference.  [env_vals] is
   keyed by (epoch, index). *)
module IM = Map.Make (Int)

module EM = Map.Make (struct
  type t = int * int

  let compare (e, i) (e', i') =
    match Int.compare e e' with 0 -> Int.compare i i' | c -> c
end)

(* The five tables the protocol fills as it runs: the interrupts
   buffered for delivery at an epoch's end, and the environment values,
   [Tme]s and [end]s forwarded by the peer.  One immutable value, so a
   save holds it by reference, and a fresh node and a reintegrated one
   both start from [no_tables]. *)
type tables = {
  buffered_current : stamped list; (* primary, reversed *)
  buffered_by_epoch : stamped list IM.t; (* backup, each reversed *)
  env_vals : Word.t EM.t;
  tmes : (Word.t * int) IM.t;
  ends : unit IM.t;
}

let no_tables =
  {
    buffered_current = [];
    buffered_by_epoch = IM.empty;
    env_vals = EM.empty;
    tmes = IM.empty;
    ends = IM.empty;
  }

(* What the actor is waiting for.  While blocked the VM makes no
   progress; message arrivals (or the failure detector) resume it. *)
type blocked =
  | Not_blocked
  | B_acks of { upto : int; resume : ack_resume }
  | B_tme
  | B_end
  | B_env
  | B_snapshot

and ack_resume = R_boundary | R_io of Disk_ctl.doorbell

(* A reliable message awaiting acknowledgement.  A node's reliable
   traffic flows to its one peer, so one stream of [dseq] numbers
   suffices. *)
type rtx_entry = {
  r_dseq : int;
  r_body : Message.body;
  r_snapshot_bytes : int option;
  r_bytes : int;
}

type snapshot = {
  s_cpu : Cpu.snapshot;
  s_vcrs : int array;
  s_ctl : Disk_ctl.t;
  s_outstanding : Disk_ctl.doorbell list;
  s_pending : stamped list;
  s_slots : int array; (* the state table; the peer reads [S.carried] *)
}

(* ---------- hypervisor-failure model (ReHype extension) ---------- *)

(* The paper assumes the hypervisor itself is correct and fail-stop;
   ReHype (Le & Tamir) shows hypervisor failures are a recoverable
   fault class.  Three kinds are modelled: a crash (the hypervisor
   panics and its panic handler triggers recovery), a hang (only an
   out-of-band hardware watchdog can notice the frozen heartbeat), and
   seeded corruption of hypervisor-internal structures. *)
type corrupt_target = C_epoch | C_acks | C_rtx

type hv_fault = Hv_crash | Hv_hang | Hv_corrupt of corrupt_target

type hv_health = Healthy | Faulted of hv_fault | Recovering

let hv_fault_kind = function
  | Hv_crash -> "crash"
  | Hv_hang -> "hang"
  | Hv_corrupt C_epoch -> "corrupt-epoch"
  | Hv_corrupt C_acks -> "corrupt-acks"
  | Hv_corrupt C_rtx -> "corrupt-rtx"

(* ---------- the state table ----------

   Every protocol scalar of a node lives in one int array, [t.s], at a
   slot declared below exactly once: counters as they are, flags as 0
   or 1, times in nanoseconds.  A declaration gives the slot's value at
   [create] and three properties, and every bookkeeping site walks the
   declarations instead of naming fields: {!fingerprint} mixes each
   fingerprinted slot, the checker's [save]/[restore] copy the array
   whole, the recovery block mirrors the protected ones, and a
   reintegration snapshot hands the carried ones to the revived peer.

   The microreboot's state partition.  Guest memory, CPU state and the
   device-facing structures survive a reboot in place (they live in
   preserved domain memory); timers and receive-side reassembly are
   volatile and reconciled afresh; and the protocol state a corruption
   can damage — the protected slots (epoch counters, ack bookkeeping)
   and the retransmission queue — is mirrored into the recovery block
   ([t.rb], and [t.rb_rtx], which shares the queue's list), committed
   at the end of every event-handling quantum and restored wholesale
   by the reboot.  The protected slots come first, so the block is the
   array's prefix [0, S.protected).  The carried slots are the
   per-epoch state a revived backup must share with the primary: the
   epoch counters and the virtual clocks. *)
type slot = {
  name : string;
  init : int;
  fingerprinted : bool;
  protected : bool;
  carried : bool;
}

module S = struct
  let decls = ref [] (* newest first *)

  let slot ?(init = 0) ?(fingerprinted = true) ?(protected = false)
      ?(carried = false) name =
    if protected && List.exists (fun d -> not d.protected) !decls then
      invalid_arg ("Hypervisor.S: protected slot after the range: " ^ name);
    decls := { name; init; fingerprinted; protected; carried } :: !decls;
    List.length !decls - 1

  (* protected *)
  let epoch = slot ~protected:true ~carried:true "epoch"
  let relay_epoch = slot ~protected:true ~carried:true "relay_epoch"
  let env_idx = slot ~protected:true ~carried:true "env_idx"
  let send_seq = slot ~protected:true "send_seq" (* wire, all messages *)
  let data_sent = slot ~protected:true "data_sent" (* what acks cover *)
  let acked = slot ~protected:true "acked"

  (* next expected [dseq] from the peer = count of reliable messages
     delivered in order *)
  let data_recvd = slot ~protected:true "data_recvd"

  (* not protected: a microreboot leaves these in place or resets them *)
  let alive = slot ~init:1 "alive"
  let peer_alive = slot ~init:1 "peer_alive"
  let debt = slot "debt"
  let rtx_backoff = slot "rtx_backoff" (* consecutive unanswered fires *)

  (* the time-of-day value sent in this boundary's [Tme]; the timer
     check must use exactly this value or the replicas could disagree
     about a timer expiry *)
  let boundary_tod = slot "boundary_tod"

  (* virtual-TOD us; -1 = unarmed *)
  let vtimer_deadline_us = slot ~init:(-1) ~carried:true "vtimer_deadline_us"
  let vtod_us = slot ~carried:true "vtod_us" (* backup: last synced TOD *)
  let vtod_offset_us = slot "vtod_offset_us" (* promoted: clock correction *)
  let halted = slot "halted"
  let reintegrate_requested = slot "reintegrate_requested"

  (* channel messages a down hypervisor failed to service; healed
     post-reboot by resync/retransmission *)
  let dropped_while_down = slot "dropped_while_down"

  (* Not fingerprinted, each for the reason above it. *)

  (* pairs an interrupt's buffered and delivered observability events *)
  let next_intr_id = slot ~fingerprinted:false "next_intr_id"

  (* Arrival stamps: the start of the current ack wait, the halt, and
     the injection of the current hypervisor fault.  They feed timing
     statistics, not behaviour, and would split states that cannot
     diverge. *)
  let ack_wait_start = slot ~fingerprinted:false "ack_wait_start"
  let halt_time = slot ~fingerprinted:false "halt_time"
  let fault_since = slot ~fingerprinted:false "fault_since"

  (* Bumped once per serviced event; a hung hypervisor freezes it,
     which is what the out-of-band watchdog observes.  A per-event tick
     would make every path length a distinct state; its only observable
     effect — frozen vs advancing — is captured by [health] plus the
     pending watchdog event. *)
  let heartbeat = slot ~fingerprinted:false "heartbeat"

  let table = Array.of_list (List.rev !decls)
  let count = Array.length table
  let initial = Array.map (fun d -> d.init) table
  let protected = List.length (List.filter (fun d -> d.protected) !decls)

  let indices p =
    List.filter (fun i -> p table.(i)) (List.init count Fun.id)
    |> Array.of_list

  let fingerprinted = indices (fun d -> d.fingerprinted)
  let carried = indices (fun d -> d.carried)
end

(* The wild writes a corruption fault makes, as (slot, offset) pairs.
   Every target is protected, so the microreboot heals it; [C_rtx]
   offsets no slot, it loses the retransmission queue instead. *)
let scramble_offsets = function
  | C_epoch -> [ (S.epoch, 7919); (S.relay_epoch, 104729); (S.env_idx, 13) ]
  | C_acks -> [ (S.acked, 5077); (S.data_recvd, 7577); (S.data_sent, 3169) ]
  | C_rtx -> []

type t = {
  name_ : string;
  engine : Engine.t;
  p : Params.t;
  vm : Cpu.t;
  clock : Clock.t;
  disk : Disk.t;
  console : Console.t;
  port : int;
  workload : Hft_guest.Workload.t;
  manifest : Hft_analysis.Manifest.t;
  ctl : Disk_ctl.t;
  st : Stats.t;
  obs : Hft_obs.Recorder.t;
  s : int array; (* the state table, indexed by [S] slots *)
  vcrs : int array;
  mutable role_ : role;
  mutable tx : Message.t Channel.t option;
      (* to the peer: everything this node sends, reliable or not *)
  mutable peer : t option;
  mutable blocked : blocked;
  mutable detector : Engine.handle option;
  (* messaging; every queue is a list, oldest first *)
  mutable rcv_hold : Message.body IM.t;
      (* reliable messages that arrived ahead of a gap, by [dseq], held
         until the gap fills (restores sender order over a fair-lossy
         link) *)
  mutable rtx_queue : rtx_entry list; (* sent but not yet acknowledged *)
  mutable rtx_timer : Engine.handle option;
  (* interrupt buffering and forwarded values *)
  mutable tb : tables;
  mutable pending_delivery : stamped list;
  mutable outstanding : Disk_ctl.doorbell list;
  (* reintegration: the snapshot the new primary left for this node *)
  mutable snapshot_box : snapshot option;
  (* hypervisor-failure recovery (ReHype extension) *)
  mutable health : hv_health;
  mutable missed : (string * (unit -> unit)) list;
      (* work continuations that fired while the hypervisor was down,
         latched (newest first) for FIFO replay after the reboot *)
  rb : int array; (* the recovery block: slots [0, S.protected) *)
  mutable rb_rtx : rtx_entry list; (* and the retransmission queue *)
  (* hooks *)
  mutable on_epoch_boundary : epoch:int -> hash:int -> unit;
  mutable on_promote : t -> unit;
  mutable on_peer_write : unit -> unit;
}

let flag t i = t.s.(i) <> 0
let set_flag t i b = t.s.(i) <- Bool.to_int b
let time t i = Time.of_ns t.s.(i)
let set_time t i x = t.s.(i) <- Time.to_ns x

(* [Array.blit] for the state table's short int ranges: typed int
   stores need no write barrier, where the runtime's blit takes one per
   word of an array in the major heap — and [persist] runs after every
   event *)
let copy (src : int array) src_pos dst dst_pos len =
  for i = 0 to len - 1 do
    dst.(dst_pos + i) <- src.(src_pos + i)
  done

let name t = t.name_
let role t = t.role_
let alive t = flag t S.alive
let halted t = flag t S.halted
let halt_time t = time t S.halt_time
let epoch t = t.s.(S.epoch)
let cpu t = t.vm
let stats t = t.st

let results t = Guest_results.read t.vm

(* Typed observability: a free sink unless a recorder was threaded in
   through [create].  The [enabled] guard keeps event payloads from
   being allocated on benchmark runs. *)
let emit t ev =
  if Hft_obs.Recorder.enabled t.obs then
    Hft_obs.Recorder.emit t.obs ~time:(Engine.now t.engine) ~source:t.name_ ev

(* Stamp a buffered interrupt with its arrival time and a fresh
   pairing id, and record the buffering event. *)
let stamp t bi ~epoch =
  let id = t.s.(S.next_intr_id) in
  t.s.(S.next_intr_id) <- id + 1;
  emit t
    (Ev.Intr_buffered
       {
         id;
         kind = (match bi with Bi_disk _ -> "disk" | Bi_timer -> "timer");
         epoch;
       });
  { bi; since = Engine.now t.engine; obs_id = id }

let vm_state_hash t =
  let h = ref (Cpu.state_hash ~include_tlb:false t.vm) in
  for i = 0 to Array.length t.vcrs - 1 do
    h := Fnv.int !h t.vcrs.(i)
  done;
  !h

(* The analysis knobs [params] selects: rewritten, random TLB, MMIO
   base. *)
let analysis_knobs params =
  ( params.Params.epoch_mechanism = Params.Code_rewriting,
    (match params.Params.cpu_config.Cpu.tlb_policy with
    | Tlb.Random _ -> true
    | Tlb.Round_robin -> false),
    params.Params.cpu_config.Cpu.mmio_base )

let manifest_for ~params (workload : Hft_guest.Workload.t) =
  let program = workload.Hft_guest.Workload.program in
  let rewritten, random_tlb, mmio_base = analysis_knobs params in
  Hft_analysis.Manifest.of_code_cached ~rewritten ~random_tlb ~mmio_base
    ~code_refs:program.Asm.code_refs program.Asm.code

(* Under the [Threaded] (or [Differential], which maps to [Threaded]
   on one replica) backend, additionally compile the manifest's
   certified superblocks into the CPU's direct-threaded translation
   cache.  A stale manifest is not fatal here — the CPU simply stays
   on the full-interpreter path, which is the semantic oracle. *)
let arm_translation ~params manifest ~deprivileged cpu =
  match params.Params.exec_backend with
  | Params.Interp -> ()
  | Params.Threaded | Params.Differential -> (
    match
      Hft_analysis.Manifest.install_translation manifest ~deprivileged cpu
    with
    | Ok _ -> ()
    | Error _ -> () (* stale manifest: full interpreter fallback *))

let create ~name ~role ~port ~engine ~params ~workload ~disk ~console ~clock
    ?(obs = Hft_obs.Recorder.null) ?recycle () =
  let vm =
    Cpu.create ~config:params.Params.cpu_config
      ?recycle:(Option.map (fun old -> old.vm) recycle)
      ~code:workload.Hft_guest.Workload.program.Asm.code ()
  in
  (* every run re-checks the static certificates against execution.
     [manifest_for] is a memo keyed on the image and the analysis
     knobs, so a recycled hypervisor of the same workload under the
     same knobs already holds its answer *)
  let manifest =
    match recycle with
    | Some old
      when old.workload == workload
           && analysis_knobs old.p = analysis_knobs params ->
      old.manifest
    | _ -> manifest_for ~params workload
  in
  Hft_analysis.Manifest.install manifest ~deprivileged:true vm;
  arm_translation ~params manifest ~deprivileged:true vm;
  {
    name_ = name;
    engine;
    p = params;
    vm;
    clock;
    disk;
    console;
    port;
    workload;
    manifest;
    ctl = Disk_ctl.create ();
    st = Stats.create ();
    obs;
    s = Array.copy S.initial;
    vcrs = Array.make Isa.num_crs 0;
    role_ = role;
    tx = None;
    peer = None;
    blocked = Not_blocked;
    detector = None;
    rcv_hold = IM.empty;
    rtx_queue = [];
    rtx_timer = None;
    tb = no_tables;
    pending_delivery = [];
    outstanding = [];
    snapshot_box = None;
    health = Healthy;
    missed = [];
    rb = Array.sub S.initial 0 S.protected;
    rb_rtx = [];
    on_epoch_boundary = (fun ~epoch:_ ~hash:_ -> ());
    on_promote = (fun _ -> ());
    on_peer_write = ignore;
  }

let connect t ~tx ~peer =
  t.tx <- Some tx;
  t.peer <- Some peer

let set_on_epoch_boundary t f = t.on_epoch_boundary <- f
let get_on_epoch_boundary t = t.on_epoch_boundary
let set_on_promote t f = t.on_promote <- f
let set_on_peer_write t f = t.on_peer_write <- f

(* ---------- virtual clocks ---------- *)

(* The primary (and a promoted backup) reads its own time-of-day
   device; a backup only ever sees forwarded values, so [vtod] is the
   last [Tme] synchronisation. *)
let read_vtod t =
  match t.role_ with
  | Primary -> Clock.read_us t.clock
  | Promoted -> Word.mask (Clock.read_us t.clock + t.s.(S.vtod_offset_us))
  | Backup -> t.s.(S.vtod_us)

(* ---------- messaging ---------- *)

let hsim t = Params.hsim t.p

let transmit t ch ?snapshot_bytes ~dseq body =
  let msg = Message.make ~seq:t.s.(S.send_seq) ~dseq body in
  t.s.(S.send_seq) <- t.s.(S.send_seq) + 1;
  Channel.send ch ~bytes:(Message.bytes ?snapshot_bytes msg) msg

(* Unreliable send: acknowledgements only.  Nothing acks an ack, so
   they are never queued for retransmission — a lost ack is repaired
   by the cumulative ack of the next delivery (or the duplicate the
   peer's retransmission provokes). *)
let send_up t body =
  match t.tx with None -> () | Some ch -> transmit t ch ~dseq:(-1) body

let send_ack t = send_up t (Message.Ack { upto = t.s.(S.data_recvd) })

(* ---------- failure detector ---------- *)

let cancel_detector t =
  match t.detector with
  | Some h ->
    Engine.cancel t.engine h;
    t.detector <- None
  | None -> ()

let rec arm_detector ?timeout t =
  cancel_detector t;
  let timeout =
    match timeout with Some d -> d | None -> t.p.Params.detector_timeout
  in
  if flag t S.peer_alive then
    t.detector <-
      Some
        (Engine.after t.engine ~label:"detector" ~actor:t.name_ timeout
           (fun () ->
             t.detector <- None;
             guarded t ~label:"detector" `Timer (fun () -> detector_fired t) ()))

(* ---------- retransmission (fair-lossy hardening) ---------- *)

and cancel_rtx t =
  match t.rtx_timer with
  | Some h ->
    Engine.cancel t.engine h;
    t.rtx_timer <- None
  | None -> ()

and clear_rtx t =
  cancel_rtx t;
  t.rtx_queue <- [];
  t.s.(S.rtx_backoff) <- 0

(* A fresh messaging epoch: cumulative acknowledgements only make sense
   if both ends of the reliable stream restart from zero. *)
and fresh_stream t =
  t.s.(S.send_seq) <- 0;
  t.s.(S.data_sent) <- 0;
  t.s.(S.acked) <- 0;
  t.s.(S.data_recvd) <- 0;
  clear_rtx t;
  t.rcv_hold <- IM.empty

(* Timeout before resending the oldest unacknowledged message: the
   exponential backoff plus a round trip for that message plus
   whatever is already serializing on the outgoing link — without the
   backlog term a busy link (a burst of relayed read completions can
   queue for milliseconds) would trigger spurious retransmissions. *)
and rtx_delay t =
  let e = List.hd t.rtx_queue in
  let backoff = 1 lsl min t.s.(S.rtx_backoff) 2 in
  let base = Time.scale t.p.Params.rtx_timeout backoff in
  let transfer = Hft_net.Link.transfer_time t.p.Params.link ~bytes:e.r_bytes in
  let backlog =
    match t.tx with
    | Some ch ->
      let b = Channel.busy_until ch in
      let now = Engine.now t.engine in
      if Time.(b > now) then Time.diff b now else Time.zero
    | None -> Time.zero
  in
  Time.add base (Time.add (Time.scale transfer 2) backlog)

and arm_rtx t =
  if
    t.p.Params.retransmit && flag t S.alive && t.rtx_timer = None
    && t.rtx_queue <> []
  then
    t.rtx_timer <-
      Some
        (Engine.after t.engine ~label:"rtx" ~actor:t.name_ (rtx_delay t)
           (fun () ->
             t.rtx_timer <- None;
             guarded t ~label:"rtx" `Timer (fun () -> rtx_fire t) ()))

(* Go-back-N: resend everything unacknowledged.  A halted node keeps
   retransmitting its tail (the peer still needs the final epoch's
   messages); only an ack covering the queue — or the give-up bound —
   lets the simulation drain. *)
and rtx_fire t =
  if flag t S.alive && t.rtx_queue <> [] then begin
    if not (flag t S.peer_alive) then clear_rtx t
    else if t.s.(S.rtx_backoff) >= t.p.Params.rtx_give_up then begin
      emit t (Ev.Rtx_give_up { rounds = t.s.(S.rtx_backoff) });
      clear_rtx t;
      if flag t S.halted then set_flag t S.peer_alive false
      else begin
        cancel_detector t;
        detector_fired t
      end
    end
    else begin
      t.s.(S.rtx_backoff) <- t.s.(S.rtx_backoff) + 1;
      let n = List.length t.rtx_queue in
      resend_all t;
      t.st.Stats.retransmits <- t.st.Stats.retransmits + n;
      emit t (Ev.Rtx_round { round = t.s.(S.rtx_backoff); count = n });
      arm_rtx t
    end
  end

and resend_all t =
  match t.tx with
  | None -> ()
  | Some ch ->
    List.iter
      (fun e ->
        transmit t ch ?snapshot_bytes:e.r_snapshot_bytes ~dseq:e.r_dseq
          e.r_body)
      t.rtx_queue

(* Reliable send: the message joins the outgoing acknowledged stream
   at position [data_sent] and stays queued until the peer's
   cumulative ack covers it. *)
and send_msg ?snapshot_bytes t body =
  match t.tx with
  | None -> ()
  | Some ch ->
    let dseq = t.s.(S.data_sent) in
    t.s.(S.data_sent) <- t.s.(S.data_sent) + 1;
    let bytes = Message.body_bytes ?snapshot_bytes body in
    emit t (Ev.Msg_send { dseq; kind = Message.body_kind body; bytes });
    t.rtx_queue <-
      t.rtx_queue
      @ [
          {
            r_dseq = dseq;
            r_body = body;
            r_snapshot_bytes = snapshot_bytes;
            r_bytes = bytes;
          };
        ];
    transmit t ch ?snapshot_bytes ~dseq body;
    arm_rtx t

(* ---------- virtual trap delivery ---------- *)

(* Mirror the virtual status register onto the real one: virtual
   privilege 0 runs at real privilege 1 (section 3.1), the MMU bit is
   the guest's, and the recovery counter counts whenever it is the
   epoch mechanism (under code rewriting it stays off — the markers in
   the instruction stream end epochs instead). *)
and apply_vstatus t =
  let v = t.vcrs.(Isa.cr_index Isa.Cr_status) in
  let vpriv = Isa.status_priv v in
  let rpriv = if vpriv = 0 then 1 else vpriv in
  let real = Cpu.cr t.vm Isa.Cr_status in
  let real = Isa.status_with_priv real rpriv in
  let real = Isa.status_with_mmu_enable real (Isa.status_mmu_enable v) in
  let real =
    Isa.status_with_rc_enable real
      (t.p.Params.epoch_mechanism = Params.Recovery_register)
  in
  Cpu.set_cr t.vm Isa.Cr_status real

and vint_enabled t = Isa.status_int_enable t.vcrs.(Isa.cr_index Isa.Cr_status)

and set_vcr t cr v = t.vcrs.(Isa.cr_index cr) <- Word.mask v

and vcr t cr = t.vcrs.(Isa.cr_index cr)

(* Virtual equivalent of hardware trap delivery (Cpu.deliver_trap),
   performed against the shadow control registers. *)
and deliver_virtual_trap t ~cause ~badvaddr ~epc =
  let s = vcr t Isa.Cr_status in
  set_vcr t Isa.Cr_istatus s;
  set_vcr t Isa.Cr_epc epc;
  set_vcr t Isa.Cr_cause cause;
  set_vcr t Isa.Cr_badvaddr badvaddr;
  let s = Isa.status_with_priv s 0 in
  let s = Isa.status_with_int_enable s false in
  let s = Isa.status_with_mmu_enable s false in
  set_vcr t Isa.Cr_status s;
  apply_vstatus t;
  (* virtual trap delivery enters a trap root without the real trap
     path, so reset the certificate validator's written set by hand *)
  Cpu.validator_amnesty t.vm;
  Cpu.set_pc t.vm (vcr t Isa.Cr_ivec)

(* Deliver one buffered interrupt into the VM. *)
and deliver_one_interrupt t { bi; since; obs_id } =
  Stats.add_time t.st `Intr_delay (Time.diff (Engine.now t.engine) since);
  emit t
    (Ev.Intr_delivered
       {
         id = obs_id;
         kind = (match bi with Bi_disk _ -> "disk" | Bi_timer -> "timer");
       });
  (match bi with
  | Bi_disk rc ->
    (match rc.Message.dma with
    | Some (addr, data) -> Memory.blit_in (Cpu.mem t.vm) ~addr data
    | None -> ());
    Disk_ctl.set_status t.ctl rc.Message.status;
    (match t.outstanding with
    | _ :: rest -> t.outstanding <- rest
    | [] ->
      t.st.Stats.spurious_completions <- t.st.Stats.spurious_completions + 1;
      emit t (Ev.Note "disk completion with no outstanding op"));
    set_vcr t Isa.Cr_scratch0 Layout.intr_kind_disk
  | Bi_timer -> set_vcr t Isa.Cr_scratch0 Layout.intr_kind_timer);
  t.st.Stats.interrupts_delivered <- t.st.Stats.interrupts_delivered + 1;
  deliver_virtual_trap t ~cause:Isa.Cause.interrupt ~badvaddr:0
    ~epc:(Cpu.pc t.vm)

and deliver_pending_if_possible t =
  match t.pending_delivery with
  | [] -> ()
  | bi :: rest ->
    if vint_enabled t then begin
      t.pending_delivery <- rest;
      deliver_one_interrupt t bi
    end

(* Re-arm the epoch mechanism for the next epoch.  Under code
   rewriting there is nothing to arm: markers in the instruction
   stream end epochs. *)
and arm_epoch t =
  match t.p.Params.epoch_mechanism with
  | Params.Recovery_register -> Cpu.set_recovery t.vm t.p.Params.epoch_length
  | Params.Code_rewriting -> ()

(* ---------- main execution loop ---------- *)

(* Deliver a pending interrupt if the guest takes one now, and run on. *)
and resume_vm t =
  deliver_pending_if_possible t;
  continue_vm t

(* [resume_vm] once [d] of hypervisor work has passed *)
and resume_vm_after t ~label d =
  ignore
    (Engine.after t.engine ~label ~actor:t.name_ d
       (guarded t ~label `Work (fun () -> if flag t S.alive then resume_vm t)))

and resume_after t d = resume_at t (Time.add (Engine.now t.engine) d)

and resume_at t at =
  ignore
    (Engine.at t.engine ~label:"resume" ~actor:t.name_ at
       (guarded t ~label:"resume" `Work (fun () -> continue_vm t)))

(* Run the guest on from now ([run_burst]), unless interrupt-level work
   is still to be paid for or a protocol wait holds it. *)
and continue_vm t =
  if flag t S.alive && not (flag t S.halted) then begin
    if t.s.(S.debt) > 0 then begin
      (* pay for work done at interrupt level during the last burst *)
      let d = time t S.debt in
      set_time t S.debt Time.zero;
      resume_after t d
    end
    else
      match t.blocked with
      | Not_blocked ->
        run_burst t
          ~horizon:(Engine.horizon t.engine ~actor:t.name_)
          ~ran:0 (Engine.now t.engine)
      | _ -> () (* a resume path will reschedule us *)
  end

(* Run the guest from [from] and schedule its [stop] event.  Without a
   scheduler hook, a stop on a plain controller-register write does not
   end the dispatch: the write is simulated at once and the next burst
   runs from [stop + hsim], sized against the same [horizon].  The
   write touches only this replica's controller shadow and CPU, a
   burst's effects are applied at dispatch anyway, and nothing can
   reach the replica before [horizon], so this is the modelled timeline
   of the stop/resume pair it replaces.  The chain hands back to the
   engine with exactly the event that pair would schedule: [stop] for
   any other stop (the doorbell included), [epoch] when the write
   expires the recovery counter, and [resume] once the next burst would
   start at or past [horizon] or the chain has run [Params.max_burst]
   instructions (so a guest spinning on register writes still
   dispatches events).  Under a hook every dispatch is a checker state,
   so there each write keeps its two events. *)
and run_burst t ~horizon ~ran from =
  let res = Cpu.run t.vm ~fuel:(Params.burst_fuel t.p ~now:from horizon) in
  count_burst t res;
  let stop_at =
    Time.add from (Time.scale t.p.Params.instr_time res.Cpu.executed)
  in
  match res.Cpu.stop with
  | Cpu.Mmio_write { paddr; value }
    when (not (Disk_ctl.is_doorbell ~paddr))
         && not (Engine.has_scheduler t.engine) ->
    let expired = plain_write t ~paddr ~value in
    let next = Time.add stop_at (hsim t) in
    let ran = ran + res.Cpu.executed in
    let room =
      match horizon with Some h -> Time.(next < h) | None -> true
    in
    if expired || ran >= Params.max_burst || not room then
      after_simulated t ~expired next
    else run_burst t ~horizon ~ran next
  | stop ->
    ignore
      (Engine.at t.engine ~label:"stop" ~actor:t.name_ stop_at
         (guarded t ~label:"stop" `Work (fun () -> handle_stop t stop)))

and count_burst t res =
  t.st.Stats.instructions <- t.st.Stats.instructions + res.Cpu.executed;
  (* the coverage counters are cumulative over the CPU's lifetime, so
     overwrite rather than accumulate; [create] installs a validator on
     every hypervisor's CPU *)
  let cov = Cpu.validator_coverage t.vm in
  t.st.Stats.certified_instructions <- cov.Cpu.covered;
  t.st.Stats.validated_instructions <- cov.Cpu.checked;
  match Cpu.translation t.vm with
  | Some tx ->
    t.st.Stats.blocks_translated <- tx.Translate.translated_blocks;
    t.st.Stats.threaded_instrs <- tx.Translate.threaded_instrs;
    t.st.Stats.threaded_entries <- tx.Translate.entries_taken;
    t.st.Stats.fallback_budget <- tx.Translate.fb_budget;
    t.st.Stats.fallback_priv <- tx.Translate.fb_priv;
    t.st.Stats.fallback_link <- tx.Translate.fb_link;
    t.st.Stats.fallback_indirect <- tx.Translate.fb_indirect;
    t.st.Stats.fallback_bail <- tx.Translate.fb_bail;
    t.st.Stats.fallback_stop <- tx.Translate.fb_stop
  | None -> ()

and handle_stop t stop =
  if flag t S.alive && not (flag t S.halted) then
    match stop with
    | Cpu.Fuel -> continue_vm t
    | Cpu.Recovery -> epoch_boundary t
    | Cpu.Stop_wfi -> (
      match t.p.Params.epoch_mechanism with
      | Params.Recovery_register ->
        (* The guest idles: account the rest of the epoch as idle time
           and take the boundary there, preserving the instruction
           stream (both replicas reach the Wfi at the same point). *)
        let rem = Cpu.recovery_remaining t.vm in
        if rem = 0 then epoch_boundary t
        else begin
          let d = Time.scale t.p.Params.instr_time rem in
          Stats.add_time t.st `Idle d;
          t.st.Stats.instructions <- t.st.Stats.instructions + rem;
          ignore
            (Engine.after t.engine ~label:"idle-epoch" ~actor:t.name_ d
               (guarded t ~label:"idle-epoch" `Work (fun () ->
                    epoch_boundary t)))
        end
      | Params.Code_rewriting ->
        (* no counted epoch to idle towards: the wait loop simply
           spins until its back-edge marker ends the epoch *)
        continue_vm t)
    | Cpu.Stop_halt ->
      set_flag t S.halted true;
      set_time t S.halt_time (Engine.now t.engine);
      cancel_detector t;
      emit t (Ev.Halt { epoch = t.s.(S.epoch) })
    | Cpu.Env i -> sim_env t i
    | Cpu.Priv i -> sim_priv t i
    | Cpu.Mmio_read { paddr; reg } -> sim_mmio_read t ~paddr ~reg
    | Cpu.Mmio_write { paddr; value } -> sim_mmio_write t ~paddr ~value
    | Cpu.Tlb_miss { vaddr; write = _ } -> handle_tlb_miss t ~vaddr
    | Cpu.Protection { vaddr; write = _ } ->
      reflect_trap t ~cause:Isa.Cause.protection ~badvaddr:vaddr
        ~epc:(Cpu.pc t.vm)
    | Cpu.Syscall code
      when code = Rewrite.epoch_marker_code
           && t.p.Params.epoch_mechanism = Params.Code_rewriting ->
      (* an epoch marker inserted by object-code editing: this IS the
         hypervisor invocation, not a guest trap; reload the software
         instruction counter for the next epoch *)
      Cpu.advance_pc t.vm;
      Cpu.set_reg t.vm Rewrite.counter_reg t.p.Params.epoch_length;
      epoch_boundary t
    | Cpu.Syscall _ ->
      reflect_trap t ~cause:Isa.Cause.syscall ~badvaddr:0
        ~epc:(Cpu.pc t.vm + 1)
    | Cpu.Fault msg -> failwith (t.name_ ^ ": guest fault: " ^ msg)
    | Cpu.Cert_violation { addr; msg } ->
      failwith
        (Printf.sprintf "%s: certificate violation at %d: %s" t.name_ addr msg)

(* Retire an instruction the hypervisor simulated: count it, advance
   past it (unless the simulation moved the pc itself) and tick the
   recovery counter; [true] when that expires the epoch. *)
and retire_simulated ?(advance = true) t =
  t.st.Stats.simulated <- t.st.Stats.simulated + 1;
  if advance then Cpu.advance_pc t.vm;
  Cpu.tick_recovery t.vm

(* What follows a simulated instruction, once its cost has passed at
   [at]: the epoch boundary if it expired the recovery counter, else
   the next burst. *)
and after_simulated t ~expired at =
  if expired then
    ignore
      (Engine.at t.engine ~label:"epoch" ~actor:t.name_ at
         (guarded t ~label:"epoch" `Work (fun () -> epoch_boundary t)))
  else resume_at t at

(* An instruction the hypervisor simulated has completed: retire it and
   go on after the simulation cost. *)
and complete_simulated ?advance ?(extra = Time.zero) t =
  let expired = retire_simulated ?advance t in
  after_simulated t ~expired
    (Time.add (Engine.now t.engine) (Time.add (hsim t) extra))

(* ---------- environment instructions ---------- *)

and sim_env t i =
  match t.role_ with
  | Primary | Promoted -> sim_env_primary t i
  | Backup -> sim_env_backup t i

and relay_env_value t v =
  if flag t S.peer_alive then begin
    send_msg t
      (Message.Env_val
         { epoch = t.s.(S.relay_epoch); idx = t.s.(S.env_idx); value = v });
    t.st.Stats.env_values <- t.st.Stats.env_values + 1
  end

and sim_env_primary t i =
  let send_cost =
    if flag t S.peer_alive then t.p.Params.hv_send_setup else Time.zero
  in
  match i with
  | Isa.Rdtod rd ->
    let v = read_vtod t in
    Cpu.set_reg t.vm rd v;
    relay_env_value t v;
    t.s.(S.env_idx) <- t.s.(S.env_idx) + 1;
    complete_simulated ~extra:send_cost t
  | Isa.Rdtmr rd ->
    let now = read_vtod t in
    let v =
      let dl = t.s.(S.vtimer_deadline_us) in
      if dl < 0 || dl <= now then 0 else dl - now
    in
    Cpu.set_reg t.vm rd (Word.mask v);
    relay_env_value t (Word.mask v);
    t.s.(S.env_idx) <- t.s.(S.env_idx) + 1;
    complete_simulated ~extra:send_cost t
  | Isa.Wrtmr rs ->
    let v = Cpu.reg t.vm rs in
    let deadline = if v = 0 then -1 else read_vtod t + v in
    t.s.(S.vtimer_deadline_us) <- deadline;
    relay_env_value t (Word.mask (if deadline < 0 then 0 else deadline));
    t.s.(S.env_idx) <- t.s.(S.env_idx) + 1;
    complete_simulated ~extra:send_cost t
  | Isa.Out rs ->
    Console.put t.console (Cpu.reg t.vm rs);
    complete_simulated t
  | _ -> failwith (t.name_ ^ ": unexpected environment instruction")

and sim_env_backup t i =
  match i with
  | Isa.Out rs ->
    (* environment output is suppressed at the backup (case (i) of
       section 2.2); the register state is already identical *)
    ignore rs;
    complete_simulated t
  | Isa.Rdtod _ | Isa.Rdtmr _ | Isa.Wrtmr _ -> (
    let key = (t.s.(S.epoch), t.s.(S.env_idx)) in
    match EM.find_opt key t.tb.env_vals with
    | Some v ->
      t.tb <- { t.tb with env_vals = EM.remove key t.tb.env_vals };
      apply_env_value t i v;
      t.s.(S.env_idx) <- t.s.(S.env_idx) + 1;
      complete_simulated t
    | None ->
      if flag t S.peer_alive then begin
        t.blocked <- B_env;
        arm_detector t
      end
      else begin
        (* the primary died before sending this value and therefore
           before revealing anything that depends on it: the backup is
           free to use its own environment (section 4.3 reasoning) *)
        let tod = Clock.read_us t.clock + t.s.(S.vtod_offset_us) in
        let v =
          match i with
          | Isa.Rdtod _ -> Word.mask tod
          | Isa.Rdtmr _ ->
            let now = Word.mask tod and dl = t.s.(S.vtimer_deadline_us) in
            if dl < 0 || dl <= now then 0 else Word.mask (dl - now)
          | Isa.Wrtmr rs ->
            let v = Cpu.reg t.vm rs in
            if v = 0 then 0 else Word.mask (tod + v)
          | _ -> 0
        in
        apply_env_value t i v;
        t.s.(S.env_idx) <- t.s.(S.env_idx) + 1;
        complete_simulated t
      end)
  | _ -> failwith (t.name_ ^ ": unexpected environment instruction")

and apply_env_value t i v =
  match i with
  | Isa.Rdtod rd | Isa.Rdtmr rd -> Cpu.set_reg t.vm rd v
  | Isa.Wrtmr _ -> t.s.(S.vtimer_deadline_us) <- (if v = 0 then -1 else v)
  | _ -> ()

(* ---------- privileged instructions ---------- *)

and sim_priv t i =
  match i with
  | Isa.Mfcr (rd, cr) ->
    Cpu.set_reg t.vm rd (vcr t cr);
    complete_simulated t
  | Isa.Mtcr (cr, rs) ->
    set_vcr t cr (Cpu.reg t.vm rs);
    if cr = Isa.Cr_status then begin
      apply_vstatus t;
      (* re-enabling interrupts releases anything held pending, just
         as the hardware would deliver on the enable edge *)
      Cpu.advance_pc t.vm;
      deliver_pending_if_possible t;
      complete_simulated ~advance:false t
    end
    else complete_simulated t
  | Isa.Tlbw (r1, r2) ->
    let vpage = Cpu.reg t.vm r1 in
    Tlb.insert (Cpu.tlb t.vm) (Tlb.decode_entry_word ~vpage (Cpu.reg t.vm r2));
    complete_simulated t
  | Isa.Rfi ->
    set_vcr t Isa.Cr_status (vcr t Isa.Cr_istatus);
    apply_vstatus t;
    Cpu.set_pc t.vm (vcr t Isa.Cr_epc);
    (* a pending buffered interrupt is delivered as soon as the guest
       returns with interrupts re-enabled *)
    deliver_pending_if_possible t;
    complete_simulated ~advance:false t
  | _ -> failwith (t.name_ ^ ": unexpected privileged instruction")

(* ---------- MMIO ---------- *)

and sim_mmio_read t ~paddr ~reg =
  Cpu.set_reg t.vm reg (Disk_ctl.read t.ctl ~paddr);
  complete_simulated t

and sim_mmio_write t ~paddr ~value =
  if Disk_ctl.is_doorbell ~paddr then
    handle_doorbell t (Disk_ctl.ring t.ctl ~value)
  else
    let expired = plain_write t ~paddr ~value in
    after_simulated t ~expired (Time.add (Engine.now t.engine) (hsim t))

(* A write to a plain controller register: latch it in the shadow and
   retire the instruction; [true] when that expires the epoch.  The
   [stop] handler and a burst running on through the write
   ([run_burst]) both take this path. *)
and plain_write t ~paddr ~value =
  Disk_ctl.write t.ctl ~paddr ~value;
  retire_simulated t

and handle_doorbell t (req : Disk_ctl.doorbell) =
  match t.role_ with
  | Backup ->
    (* case (i) of section 2.2: suppress, but remember the initiation
       so a failover can synthesize its uncertain completion (P7) *)
    t.outstanding <- t.outstanding @ [ req ];
    t.st.Stats.io_suppressed <- t.st.Stats.io_suppressed + 1;
    emit t
      (Ev.Io_suppressed
         { block = req.block; write = req.cmd = Layout.cmd_write });
    complete_simulated t
  | Primary | Promoted ->
    if
      t.p.Params.protocol = Params.Revised
      && t.p.Params.ack_wait
      && flag t S.peer_alive
      && t.s.(S.acked) < t.s.(S.data_sent)
    then begin
      (* revised protocol: an I/O operation may not be issued until
         everything sent has been acknowledged *)
      t.blocked <- B_acks { upto = t.s.(S.data_sent); resume = R_io req };
      set_time t S.ack_wait_start (Engine.now t.engine);
      emit t (Ev.Ack_wait_begin { upto = t.s.(S.data_sent); at_io = true });
      arm_detector t
    end
    else issue_io t req

and issue_io t (req : Disk_ctl.doorbell) =
  let op =
    if req.cmd = Layout.cmd_write then
      Disk.Write
        {
          block = req.block;
          data =
            Memory.blit_out (Cpu.mem t.vm) ~addr:req.dma
              ~len:(Disk.params t.disk).Disk.block_words;
        }
    else Disk.Read { block = req.block }
  in
  t.outstanding <- t.outstanding @ [ req ];
  t.st.Stats.io_submitted <- t.st.Stats.io_submitted + 1;
  let dma = req.dma in
  let op_id =
    Disk.submit t.disk ~port:t.port op ~on_complete:(fun c ->
        primary_completion t ~dma c)
  in
  emit t
    (Ev.Io_submit
       { op_id; block = req.block; write = req.cmd = Layout.cmd_write });
  complete_simulated t

(* A device interrupt arrives at the primary's hypervisor: buffer it
   for end-of-epoch delivery and relay a copy to the backup (P1). *)
and primary_completion t ~dma (c : Disk.completion) =
  if flag t S.alive then begin
    let rc =
      {
        Message.status =
          (match c.Disk.status with
          | Disk.Ok -> Layout.status_ok
          | Disk.Uncertain -> Layout.status_uncertain);
        dma =
          (match (c.Disk.op, c.Disk.data) with
          | Disk.Read _, Some data -> Some (dma, data)
          | _ -> None);
      }
    in
    let s = stamp t (Bi_disk rc) ~epoch:t.s.(S.relay_epoch) in
    t.tb <- { t.tb with buffered_current = s :: t.tb.buffered_current };
    t.st.Stats.interrupts_buffered <- t.st.Stats.interrupts_buffered + 1;
    set_time t S.debt (Time.add (time t S.debt) t.p.Params.hv_intr_receive);
    if flag t S.peer_alive then begin
      set_time t S.debt (Time.add (time t S.debt) t.p.Params.hv_send_setup);
      send_msg t
        (Message.Intr { epoch = t.s.(S.relay_epoch); completion = rc })
    end;
    (* the send counters just moved: commit them to the recovery block
       (this handler runs from the device interrupt, outside the
       guarded event quantum that normally does so) *)
    (match t.health with Healthy -> persist t | _ -> ())
  end

(* ---------- TLB ---------- *)

and handle_tlb_miss t ~vaddr =
  match t.p.Params.tlb_mode with
  | Params.Hypervisor_managed ->
    (* section 3.2: the hypervisor performs the page-table search and
       insert itself, so the guest never observes TLB state *)
    let vpage = vaddr lsr t.p.Params.cpu_config.Cpu.page_shift in
    let entry_word = Memory.read (Cpu.mem t.vm) (Layout.pt_base + vpage) in
    if entry_word = 0 then
      (* page "not in memory": only then does the guest see the miss *)
      reflect_trap t ~cause:Isa.Cause.tlb_miss ~badvaddr:vaddr
        ~epc:(Cpu.pc t.vm)
    else begin
      Tlb.insert (Cpu.tlb t.vm) (Tlb.decode_entry_word ~vpage entry_word);
      t.st.Stats.tlb_fills <- t.st.Stats.tlb_fills + 1;
      (* invisible to the guest: no pc change, no recovery tick *)
      resume_after t t.p.Params.hv_tlb_fill
    end
  | Params.Guest_managed ->
    reflect_trap t ~cause:Isa.Cause.tlb_miss ~badvaddr:vaddr ~epc:(Cpu.pc t.vm)

and reflect_trap t ~cause ~badvaddr ~epc =
  t.st.Stats.reflected_traps <- t.st.Stats.reflected_traps + 1;
  t.st.Stats.simulated <- t.st.Stats.simulated + 1;
  deliver_virtual_trap t ~cause ~badvaddr ~epc;
  resume_after t (hsim t)

(* ---------- epoch boundaries ---------- *)

and epoch_boundary t =
  let hash = vm_state_hash t in
  let hashed, skipped = Memory.take_hash_work (Cpu.mem t.vm) in
  t.st.Stats.pages_hashed <- t.st.Stats.pages_hashed + hashed;
  t.st.Stats.pages_skipped <- t.st.Stats.pages_skipped + skipped;
  t.on_epoch_boundary ~epoch:t.s.(S.epoch) ~hash;
  match t.role_ with
  | Primary | Promoted -> primary_boundary_phase1 t
  | Backup -> backup_boundary t

(* P2, first half: send [Tme], then (original protocol) await
   acknowledgements for everything sent. *)
and primary_boundary_phase1 t =
  let tod = read_vtod t in
  t.s.(S.boundary_tod) <- tod;
  let cost = Time.add t.p.Params.hv_epoch_local t.p.Params.hv_send_setup in
  Stats.add_time t.st `Boundary cost;
  ignore
    (Engine.after t.engine ~label:"boundary-send" ~actor:t.name_ cost
       (guarded t ~label:"boundary-send" `Work (fun () ->
         if flag t S.alive then begin
           (* the [Tme] message leaves once the controller set-up is
              paid for; only then can the ack wait begin *)
           if flag t S.peer_alive then
             send_msg t
               (Message.Tme
                  {
                    epoch = t.s.(S.epoch);
                    tod_us = tod;
                    timer_deadline_us = t.s.(S.vtimer_deadline_us);
                  });
           if
             t.p.Params.protocol = Params.Original
             && t.p.Params.ack_wait
             && flag t S.peer_alive
             && t.s.(S.acked) < t.s.(S.data_sent)
           then begin
             let upto = t.s.(S.data_sent) in
             t.blocked <- B_acks { upto; resume = R_boundary };
             set_time t S.ack_wait_start (Engine.now t.engine);
             emit t (Ev.Ack_wait_begin { upto; at_io = false });
             arm_detector t
           end
           else primary_boundary_phase2 t ~tod
         end)))

(* P2, second half: interrupts based on Tme, delivery, [end,E]. *)
and primary_boundary_phase2 t ~tod =
  check_virtual_timer t ~tod;
  let ended = t.s.(S.epoch) in
  let deliver_set = List.rev t.tb.buffered_current in
  t.tb <- { t.tb with buffered_current = [] };
  advance_epoch t deliver_set;
  t.s.(S.relay_epoch) <- t.s.(S.epoch);
  let cost =
    Time.add t.p.Params.hv_send_setup
      (Time.scale t.p.Params.hv_intr_deliver (List.length deliver_set))
  in
  Stats.add_time t.st `Boundary cost;
  ignore
    (Engine.after t.engine ~label:"epoch-end" ~actor:t.name_ cost
       (guarded t ~label:"epoch-end" `Work (fun () ->
         if flag t S.alive then begin
           if flag t S.peer_alive then
             send_msg t (Message.Epoch_end { epoch = ended });
           if flag t S.reintegrate_requested then start_reintegration t
           else resume_vm t
         end)))

(* End epoch E and begin E + 1, the steps every boundary shares: P2's
   at the primary, P5's at the backup and P6's at a promotion.
   [delivered] joins the interrupts awaiting delivery. *)
and advance_epoch t delivered =
  let e = t.s.(S.epoch) in
  emit t (Ev.Epoch_end { epoch = e; interrupts = List.length delivered });
  emit t (Ev.Epoch_begin { epoch = e + 1 });
  t.s.(S.epoch) <- e + 1;
  t.s.(S.env_idx) <- 0;
  t.st.Stats.epochs <- t.st.Stats.epochs + 1;
  t.pending_delivery <- t.pending_delivery @ delivered;
  arm_epoch t

and check_virtual_timer t ~tod =
  let dl = t.s.(S.vtimer_deadline_us) in
  if dl >= 0 && dl <= tod then begin
    t.s.(S.vtimer_deadline_us) <- -1;
    let s = stamp t Bi_timer ~epoch:t.s.(S.epoch) in
    t.tb <- { t.tb with buffered_current = s :: t.tb.buffered_current };
    t.st.Stats.interrupts_buffered <- t.st.Stats.interrupts_buffered + 1
  end

(* P5: wait for [Tme] and [end,E], then mirror the primary's epoch
   end.  P6/P7 take over if the primary has been declared dead. *)
and backup_boundary t =
  let e = t.s.(S.epoch) in
  match IM.find_opt e t.tb.tmes with
  | None ->
    if flag t S.peer_alive then begin
      t.blocked <- B_tme;
      arm_detector t
    end
    else promote t
  | Some (tod, deadline) ->
    if not (IM.mem e t.tb.ends) then begin
      if flag t S.peer_alive then begin
        t.blocked <- B_end;
        arm_detector t
      end
      else promote t
    end
    else begin
      (* Tme_b := Tme_p; epoch [e]'s entries are used up *)
      t.tb <-
        {
          t.tb with
          tmes = IM.remove e t.tb.tmes;
          ends = IM.remove e t.tb.ends;
        };
      t.s.(S.vtod_us) <- tod;
      t.s.(S.vtimer_deadline_us) <- deadline;
      check_virtual_timer_backup t ~tod;
      let deliver_set = take_buffered t e in
      advance_epoch t deliver_set;
      let cost =
        Time.add t.p.Params.hv_epoch_local
          (Time.scale t.p.Params.hv_intr_deliver (List.length deliver_set))
      in
      Stats.add_time t.st `Boundary cost;
      resume_vm_after t ~label:"boundary-resume" cost
    end

and check_virtual_timer_backup t ~tod =
  let dl = t.s.(S.vtimer_deadline_us) in
  if dl >= 0 && dl <= tod then begin
    t.s.(S.vtimer_deadline_us) <- -1;
    buffer t t.s.(S.epoch) Bi_timer;
    t.st.Stats.interrupts_buffered <- t.st.Stats.interrupts_buffered + 1
  end

(* Buffer an interrupt for delivery at epoch [e]'s end. *)
and buffer t e bi =
  let s = stamp t bi ~epoch:e in
  t.tb <-
    {
      t.tb with
      buffered_by_epoch =
        IM.update e
          (fun l -> Some (s :: Option.value l ~default:[]))
          t.tb.buffered_by_epoch;
    }

and take_buffered t e =
  let l =
    match IM.find_opt e t.tb.buffered_by_epoch with
    | Some l -> List.rev l
    | None -> []
  in
  t.tb <- { t.tb with buffered_by_epoch = IM.remove e t.tb.buffered_by_epoch };
  l

(* P6 and P7: the failover epoch.  Deliver what was relayed, then an
   uncertain completion for every I/O operation still outstanding, and
   take over as primary, with no peer left to replicate to. *)
and promote t =
  let e = t.s.(S.epoch) in
  let tod =
    match IM.find_opt e t.tb.tmes with
    | Some (tod, deadline) ->
      t.s.(S.vtod_us) <- tod;
      t.s.(S.vtimer_deadline_us) <- deadline;
      tod
    | None -> t.s.(S.vtod_us)
  in
  (* virtual time continues from the last synchronised value *)
  t.s.(S.vtod_offset_us) <- t.s.(S.vtod_us) - Clock.read_us t.clock;
  check_virtual_timer_backup t ~tod;
  let deliver_set = take_buffered t e in
  let relayed_disk =
    List.length
      (List.filter
         (fun { bi; _ } ->
           match bi with Bi_disk _ -> true | Bi_timer -> false)
         deliver_set)
  in
  let to_synthesize = max 0 (List.length t.outstanding - relayed_disk) in
  let synths =
    List.init to_synthesize (fun _ ->
        stamp t
          (Bi_disk { Message.status = Layout.status_uncertain; dma = None })
          ~epoch:e)
  in
  t.st.Stats.uncertain_synthesized <-
    t.st.Stats.uncertain_synthesized + to_synthesize;
  let relayed = List.length deliver_set in
  emit t (Ev.Promoted { epoch = e; relayed; synthesized = to_synthesize });
  t.role_ <- Promoted;
  set_flag t S.peer_alive false;
  advance_epoch t (deliver_set @ synths);
  t.s.(S.relay_epoch) <- t.s.(S.epoch);
  let cost =
    Time.add t.p.Params.hv_epoch_local
      (Time.scale t.p.Params.hv_intr_deliver (List.length t.pending_delivery))
  in
  Stats.add_time t.st `Boundary cost;
  t.on_promote t;
  resume_vm_after t ~label:"failover-resume" cost

(* ---------- failure detection ---------- *)

and detector_fired t =
  if flag t S.alive && not (flag t S.halted) then begin
    emit t
      (Ev.Detector_fired
         {
           blocked =
             (match t.blocked with
             | B_tme -> "tme"
             | B_end -> "end"
             | B_env -> "env"
             | B_acks _ -> "acks"
             | B_snapshot -> "snapshot"
             | Not_blocked -> "none");
         });
    set_flag t S.peer_alive false;
    clear_rtx t;
    match t.blocked with
    | B_tme | B_end ->
      t.blocked <- Not_blocked;
      backup_boundary t
    | B_env ->
      t.blocked <- Not_blocked;
      (* re-enter the environment simulation, which now self-sources *)
      continue_after_env_retry t
    | B_acks { upto; resume } ->
      (* the backup is gone: the primary continues unreplicated *)
      Stats.add_time t.st `Ack_wait
        (Time.diff (Engine.now t.engine) (time t S.ack_wait_start));
      emit t (Ev.Ack_wait_end { upto; released = Ev.By_detector });
      t.blocked <- Not_blocked;
      (match resume with
      | R_boundary -> primary_boundary_phase2 t ~tod:t.s.(S.boundary_tod)
      | R_io req -> issue_io t req)
    | B_snapshot ->
      t.blocked <- Not_blocked;
      set_flag t S.reintegrate_requested false;
      resume_vm t
    | Not_blocked -> ()
  end

and continue_after_env_retry t =
  (* the pc still points at the environment instruction *)
  let i = (Cpu.code t.vm).(Cpu.pc t.vm) in
  sim_env t i

(* ---------- message handling ---------- *)

(* Fair-lossy receive filter: discard corrupt frames (treated as
   loss), drop duplicates of already-delivered reliable messages, and
   hold messages that arrived ahead of a gap until the gap fills, so
   [handle_body] sees exactly the sender's order — the FIFO semantics
   the protocol proper (P1-P7) was designed against. *)
and on_message t msg =
  if flag t S.alive then
    match t.health with
    | Faulted (Hv_corrupt _) ->
      (* the receive interrupt enters the hypervisor, whose entry
         audit notices the scrambled recovery-block mirror; the frame
         itself is lost in the ensuing reboot *)
      t.s.(S.dropped_while_down) <- t.s.(S.dropped_while_down) + 1;
      begin_recovery t ~by:"integrity"
    | Faulted _ | Recovering ->
      (* a down hypervisor fields no receive interrupts: the frame
         dies at the adapter; resync and go-back-N heal the stream
         after the reboot *)
      t.s.(S.dropped_while_down) <- t.s.(S.dropped_while_down) + 1
    | Healthy ->
      t.s.(S.heartbeat) <- t.s.(S.heartbeat) + 1;
      handle_frame t msg;
      if flag t S.alive && hv_healthy t then
        persist t

and handle_frame t msg =
  begin
    if not (Message.valid msg) then begin
      t.st.Stats.corruptions_detected <- t.st.Stats.corruptions_detected + 1;
      emit t
        (Ev.Frame_dropped { wire_seq = msg.Message.seq; reason = Ev.Corrupt })
    end
    else if not (Message.reliable msg) then handle_body t msg.Message.body
    else begin
      let d = msg.Message.dseq in
      if d < t.s.(S.data_recvd) then begin
        (* already delivered: the ack covering it must have been lost *)
        t.st.Stats.duplicates_dropped <- t.st.Stats.duplicates_dropped + 1;
        emit t
          (Ev.Frame_dropped
             { wire_seq = msg.Message.seq; reason = Ev.Duplicate });
        send_ack t
      end
      else if d > t.s.(S.data_recvd) then begin
        if IM.mem d t.rcv_hold then begin
          t.st.Stats.duplicates_dropped <- t.st.Stats.duplicates_dropped + 1;
          emit t
            (Ev.Frame_dropped
               { wire_seq = msg.Message.seq; reason = Ev.Duplicate })
        end
        else t.rcv_hold <- IM.add d msg.Message.body t.rcv_hold;
        (* a gap separates this message from the delivered prefix; the
           cumulative ack doubles as a gap signal, prompting the sender
           to retransmit the missing middle without waiting out its
           timer *)
        send_ack t
      end
      else begin
        (* in order: deliver it and any contiguous held successors,
           then acknowledge the whole prefix at once *)
        let rec drain body =
          t.s.(S.data_recvd) <- t.s.(S.data_recvd) + 1;
          handle_body t body;
          if flag t S.alive then
            match IM.find_opt t.s.(S.data_recvd) t.rcv_hold with
            | Some b ->
              t.rcv_hold <- IM.remove t.s.(S.data_recvd) t.rcv_hold;
              drain b
            | None -> ()
        in
        drain msg.Message.body;
        if flag t S.alive then send_ack t
      end
    end
  end

and apply_ack t upto =
  if upto > t.s.(S.acked) then begin
    t.s.(S.acked) <- upto;
    let rec retire = function
      | e :: rest when e.r_dseq < upto ->
        emit t (Ev.Msg_acked { dseq = e.r_dseq });
        retire rest
      | q -> q
    in
    t.rtx_queue <- retire t.rtx_queue;
    (* progress restarts the retransmission clock *)
    t.s.(S.rtx_backoff) <- 0;
    cancel_rtx t;
    arm_rtx t
  end

and handle_body t body =
  match body with
  | Message.Ack { upto } ->
    apply_ack t upto;
    (match t.blocked with
    (* "all messages previously sent" (P2) includes messages sent
       while the wait was in progress — e.g. a disk-read completion
       relayed mid-boundary — so the release condition re-checks the
       live send count, not the count captured when blocking *)
    | B_acks { upto = _; resume } when t.s.(S.acked) >= t.s.(S.data_sent) ->
      Stats.add_time t.st `Ack_wait
        (Time.diff (Engine.now t.engine) (time t S.ack_wait_start));
      emit t (Ev.Ack_wait_end { upto = t.s.(S.acked); released = Ev.By_ack });
      cancel_detector t;
      t.blocked <- Not_blocked;
      (match resume with
      | R_boundary -> primary_boundary_phase2 t ~tod:t.s.(S.boundary_tod)
      | R_io req -> issue_io t req)
    | _ -> ())
  | Message.Resync { upto } ->
    (* the peer just completed a microreboot: [upto] is its receive
       cursor.  Treat it as a cumulative ack, resend everything past
       it at once (whatever was in flight died at the peer's adapter),
       and re-ack our own cursor so a sender stranded in an ack wait
       by the outage is released without waiting out a timeout. *)
    apply_ack t upto;
    let n = List.length t.rtx_queue in
    if n > 0 then begin
      resend_all t;
      t.st.Stats.retransmits <- t.st.Stats.retransmits + n;
      arm_rtx t
    end;
    send_ack t
  | body ->
    (match body with
    | Message.Intr { epoch; completion } ->
      buffer t epoch (Bi_disk completion);
      t.st.Stats.interrupts_buffered <- t.st.Stats.interrupts_buffered + 1
    | Message.Env_val { epoch; idx; value } ->
      t.tb <- { t.tb with env_vals = EM.add (epoch, idx) value t.tb.env_vals }
    | Message.Tme { epoch; tod_us; timer_deadline_us } ->
      t.tb <-
        {
          t.tb with
          tmes = IM.add epoch (tod_us, timer_deadline_us) t.tb.tmes;
        }
    | Message.Epoch_end { epoch } ->
      t.tb <- { t.tb with ends = IM.add epoch () t.tb.ends }
    | Message.Snapshot_offer { epoch; code_hash } ->
      receive_snapshot t ~epoch ~code_hash
    | Message.Snapshot_done { epoch = _ } -> (
      match t.blocked with
      | B_snapshot ->
        (* the handshake itself proves the offer (dseq 0 of the fresh
           messaging epoch) arrived, so retire it even when the wire
           ack was lost — otherwise its snapshot-sized retransmission
           timer keeps the whole queue pinned long past the failure
           detector's patience *)
        apply_ack t 1;
        cancel_detector t;
        t.blocked <- Not_blocked;
        set_flag t S.peer_alive true;
        set_flag t S.reintegrate_requested false;
        emit t (Ev.Reintegration_done { epoch = t.s.(S.epoch) });
        resume_vm t
      | _ -> ())
    | Message.Ack _ | Message.Resync _ -> assert false);
    (* A known echo, kept only because the benchmark pins the state
       count it produces: the revived ex-primary (port 0), now the
       backup, sends every reliable message it receives straight back
       to the new primary.  Delete it once the benchmark's
       reintegration-loss count is re-pinned from 2819 to 2733. *)
    (match (t.role_, body) with
    | Backup, (Message.Snapshot_offer _ | Message.Snapshot_done _) -> ()
    | Backup, _ when t.port = 0 -> send_msg t body
    | _ -> ());
    (* resume a blocked state machine if its wait is satisfied *)
    (match t.blocked with
    | B_tme | B_end ->
      cancel_detector t;
      t.blocked <- Not_blocked;
      backup_boundary t
    | B_env ->
      if EM.mem (t.s.(S.epoch), t.s.(S.env_idx)) t.tb.env_vals then begin
        cancel_detector t;
        t.blocked <- Not_blocked;
        continue_after_env_retry t
      end
    | _ -> ())

(* ---------- reintegration (extension) ---------- *)

and take_snapshot t =
  let ctl = Disk_ctl.save t.ctl in
  let bytes_before = Cpu.snapshot_bytes_copied t.vm in
  let s_cpu = Cpu.snapshot t.vm in
  t.st.Stats.snapshot_delta_bytes <-
    t.st.Stats.snapshot_delta_bytes
    + (Cpu.snapshot_bytes_copied t.vm - bytes_before);
  (* a primary reads its time of day from the clock, not the slot *)
  let s_slots = Array.copy t.s in
  s_slots.(S.vtod_us) <- read_vtod t;
  {
    s_cpu;
    s_vcrs = Array.copy t.vcrs;
    s_ctl = ctl;
    s_outstanding = t.outstanding;
    s_pending = t.pending_delivery;
    s_slots;
  }

and start_reintegration t =
  match t.peer with
  | None -> ()
  | Some peer ->
    (* the counters still reflect this node's previous career (as the
       backup, every ack it sent bumped send_seq) *)
    fresh_stream t;
    let snap = take_snapshot t in
    (* the one write to the peer's state: the peer reads the box only
       when the offer is delivered, strictly later *)
    peer.snapshot_box <- Some snap;
    t.on_peer_write ();
    let mem_bytes = 4 * Memory.size (Cpu.mem t.vm) in
    send_msg ~snapshot_bytes:mem_bytes t
      (Message.Snapshot_offer
         {
           epoch = t.s.(S.epoch);
           code_hash = Cpu.code_hash t.vm;
         });
    t.blocked <- B_snapshot;
    set_flag t S.peer_alive true (* provisional: allow the offer to flow *);
    (* the whole VM image travels over the link: the give-up timeout
       must cover its transfer time, not just the normal heartbeat *)
    let transfer =
      Hft_net.Link.transfer_time t.p.Params.link ~bytes:mem_bytes
    in
    arm_detector
      ~timeout:
        (Time.add (Time.scale transfer 2)
           (Time.scale t.p.Params.detector_timeout 2))
      t;
    emit t (Ev.Reintegration_offer { epoch = t.s.(S.epoch); bytes = mem_bytes })

and receive_snapshot t ~epoch ~code_hash =
  match t.snapshot_box with
  | None -> emit t (Ev.Note "snapshot offer with no snapshot data; ignored")
  | Some snap ->
    if code_hash <> Cpu.code_hash t.vm then
      failwith (t.name_ ^ ": reintegration with different code image");
    t.snapshot_box <- None;
    Cpu.restore t.vm snap.s_cpu;
    Array.blit snap.s_vcrs 0 t.vcrs 0 Array.(length t.vcrs);
    apply_vstatus t;
    Disk_ctl.copy_state_from t.ctl snap.s_ctl;
    t.outstanding <- snap.s_outstanding;
    Array.iter (fun i -> t.s.(i) <- snap.s_slots.(i)) S.carried;
    become_backup t;
    t.pending_delivery <- snap.s_pending;
    t.tb <- no_tables;
    (match t.p.Params.epoch_mechanism with
    | Params.Recovery_register -> Cpu.set_recovery t.vm t.p.Params.epoch_length
    | Params.Code_rewriting -> Cpu.disable_recovery t.vm);
    (* reliable: a lost [Snapshot_done] would strand the primary in
       B_snapshot until its detector gave the peer up for dead *)
    send_msg t (Message.Snapshot_done { epoch });
    emit t (Ev.Snapshot_restored { epoch });
    emit t (Ev.Epoch_begin { epoch });
    resume_vm_after t ~label:"reintegrated" Time.zero

(* the backup role, with a live peer and nothing awaited *)
and become_backup t =
  t.role_ <- Backup;
  set_flag t S.peer_alive true;
  t.blocked <- Not_blocked

(* ---------- hypervisor-failure recovery (ReHype extension) ---------- *)

and hv_healthy t = match t.health with Healthy -> true | _ -> false

(* Commit the protected protocol counters to the recovery block.
   Called at the end of every event-handling quantum, so the mirror is
   consistent at every event boundary — the only instants at which a
   fault can be injected. *)
and persist t =
  copy t.s 0 t.rb 0 S.protected;
  t.rb_rtx <- t.rtx_queue

(* Every hypervisor-owned event handler enters through this guard.
   Healthy: pat the heartbeat (the out-of-band watchdog's only view of
   us), run the handler, commit the recovery block.  Down: [`Work]
   continuations — the VM loop, epoch boundaries — are latched for
   FIFO replay after the reboot; [`Timer] events (failure detector,
   retransmission clock) simply die, because a hung hypervisor cannot
   service its own timers — the reboot re-arms them from scratch.  A
   corruption fault is caught here, before the handler would act on
   the scrambled state: the entry audit compares the live counters
   against the recovery-block mirror. *)
and guarded t ~label kind fn () =
  match t.health with
  | Healthy ->
    t.s.(S.heartbeat) <- t.s.(S.heartbeat) + 1;
    fn ();
    if flag t S.alive && hv_healthy t then persist t
  | Faulted (Hv_corrupt _) ->
    (match kind with
    | `Work -> t.missed <- (label, fn) :: t.missed
    | `Timer -> ());
    begin_recovery t ~by:"integrity"
  | Faulted _ | Recovering -> (
    match kind with
    | `Work -> t.missed <- (label, fn) :: t.missed
    | `Timer -> ())

and scramble t target =
  List.iter (fun (i, d) -> t.s.(i) <- t.s.(i) + d) (scramble_offsets target);
  if target = C_rtx then begin
    (* the in-flight bookkeeping is lost wholesale *)
    t.rtx_queue <- [];
    t.s.(S.rtx_backoff) <- 0
  end

(* Seed a hypervisor fault.  With [hv_recovery] off this is the
   paper's world: hypervisor failures are fail-stop and the peer's
   failover takes over.  With it on, detection depends on the kind:
   a crash reaches recovery through the panic handler, a hang is only
   visible to the out-of-band watchdog, and corruption surfaces at the
   next guarded entry's integrity audit. *)
and inject_hv_fault t fault =
  if flag t S.alive && not (flag t S.halted) then begin
    t.st.Stats.hv_faults_injected <- t.st.Stats.hv_faults_injected + 1;
    emit t (Ev.Hv_fault { kind = hv_fault_kind fault });
    if not t.p.Params.hv_recovery then do_crash t
    else
      match t.health with
      | Faulted _ | Recovering ->
        (* double fault: a second failure while detection or recovery
           is in progress exceeds what an in-place reboot can untangle *)
        t.st.Stats.recovery_escalations <-
          t.st.Stats.recovery_escalations + 1;
        emit t (Ev.Recovery_escalated { reason = "double fault" });
        do_crash t
      | Healthy -> (
        set_time t S.fault_since (Engine.now t.engine);
        t.health <- Faulted fault;
        (* a down hypervisor cannot field completion interrupts: the
           controller parks them until reconciliation (IO1 holds
           across the reboot) *)
        Disk.defer_port t.disk ~port:t.port;
        match fault with
        | Hv_crash ->
          (* the panic handler runs from the exception path, outside
             the wedged event loop *)
          ignore
            (Engine.after t.engine ~label:"hv-panic" ~actor:t.name_
               t.p.Params.hv_panic_latency (fun () ->
                 if flag t S.alive && t.health = Faulted Hv_crash then
                   begin_recovery t ~by:"panic"))
        | Hv_hang ->
          (* Only out-of-band hardware can notice a hang: the
             hypervisor cannot service its own detector, and indeed
             every hypervisor-owned timer above routes through
             [guarded], where a down hypervisor drops it.  The
             watchdog samples the heartbeat on its own absolute grid —
             the next multiple of its interval, exactly where a
             free-running watchdog's tick would land. *)
          let iv = Time.to_ns t.p.Params.watchdog_interval in
          let now = Time.to_ns (Engine.now t.engine) in
          let tick = Time.of_ns (((now / iv) + 1) * iv) in
          let seen = t.s.(S.heartbeat) in
          ignore
            (Engine.at t.engine ~label:"hv-watchdog" ~actor:t.name_ tick
               (fun () ->
                 if
                   flag t S.alive && t.s.(S.heartbeat) = seen
                   && not (hv_healthy t)
                 then
                   begin_recovery t ~by:"watchdog"))
        | Hv_corrupt target -> scramble t target)
  end

and begin_recovery t ~by =
  if flag t S.alive && not (flag t S.halted) then begin
    emit t (Ev.Hv_detected { by });
    if t.st.Stats.microreboots >= t.p.Params.hv_recovery_max then begin
      t.st.Stats.recovery_escalations <- t.st.Stats.recovery_escalations + 1;
      emit t (Ev.Recovery_escalated { reason = "recovery budget exhausted" });
      do_crash t
    end
    else begin
      t.health <- Recovering;
      t.st.Stats.recovery_cycles <- t.st.Stats.recovery_cycles + 1;
      (* the reboot completion is raw, not guarded: it IS the recovery *)
      ignore
        (Engine.after t.engine ~label:"hv-reboot" ~actor:t.name_
           t.p.Params.hv_reboot_time (fun () -> complete_microreboot t))
    end
  end

(* The in-place microreboot.  Guest memory, CPU state, the virtual
   device controllers and the suppressed-I/O record were preserved in
   place; this path restores the protected counters from the recovery
   block, rebuilds the volatile pieces, and reconciles everything that
   was in flight — parked disk completions, dropped channel frames,
   unacknowledged sends — before letting the epoch machinery resume. *)
and complete_microreboot t =
  if flag t S.alive && not (flag t S.halted) then begin
    (* 1. protected counters come back from the recovery block; this
       also heals whatever a corruption fault scrambled *)
    copy t.rb 0 t.s 0 S.protected;
    t.rtx_queue <- t.rb_rtx;
    (* 2. volatile state did not survive: stale timer handles are
       cancelled (safe on already-fired events), interrupt-level debt
       is void, and the receive-side reassembly window restarts — its
       contents count as reconciled, the peer resends them *)
    cancel_detector t;
    cancel_rtx t;
    t.s.(S.rtx_backoff) <- 0;
    set_time t S.debt Time.zero;
    let held = IM.cardinal t.rcv_hold in
    t.rcv_hold <- IM.empty;
    let msgs = held + t.s.(S.dropped_while_down) in
    t.s.(S.dropped_while_down) <- 0;
    t.st.Stats.reconciled_msgs <- t.st.Stats.reconciled_msgs + msgs;
    t.st.Stats.microreboots <- t.st.Stats.microreboots + 1;
    t.st.Stats.recovery_windows <-
      Time.diff (Engine.now t.engine) (time t S.fault_since)
      :: t.st.Stats.recovery_windows;
    t.health <- Healthy;
    persist t;
    (* 3. outstanding disk I/O: completions the controller parked
       while the port was masked are delivered now, in arrival order
       (each re-enters the buffering/relay path and commits the
       recovery block itself) *)
    let ios = Disk.release_port t.disk ~port:t.port in
    t.st.Stats.reconciled_ios <- t.st.Stats.reconciled_ios + ios;
    (* 4. in-flight channel traffic: tell the peer where our receive
       cursor stands — it treats that as a cumulative ack, resends
       everything past it, and re-acks, releasing any ack wait the
       outage stranded; our own retransmission clock restarts for the
       restored queue *)
    if flag t S.peer_alive then
      send_up t (Message.Resync { upto = t.s.(S.data_recvd) });
    arm_rtx t;
    if t.blocked <> Not_blocked && flag t S.peer_alive then arm_detector t;
    emit t
      (Ev.Microreboot_done
         {
           epoch = t.s.(S.epoch);
           reconciled_ios = ios;
           reconciled_msgs = msgs;
         });
    (* 5. replay the work the down hypervisor missed, oldest first.
       Each latched thunk was the single continuation pending when it
       fired, so FIFO replay reconstructs the exact sequence the
       healthy hypervisor would have run — no guest-visible
       divergence.  Never re-enter [continue_vm] directly here: the
       loop's own continuation is either in this list or still
       pending. *)
    let work = List.rev t.missed in
    t.missed <- [];
    List.iter
      (fun (_label, fn) ->
        if flag t S.alive && hv_healthy t then begin
          fn ();
          if flag t S.alive && hv_healthy t then persist t
        end)
      work
  end

(* Fail-stop, the paper's original failure semantics: the node goes
   silent for good and the peer's failure detector drives a failover.
   Also the escalation target when in-place recovery is exhausted or a
   double fault hits.  Parked completion interrupts die with the
   processor — a later revived incarnation must not see them. *)
and do_crash t =
  set_flag t S.alive false;
  t.health <- Healthy;
  t.missed <- [];
  t.s.(S.dropped_while_down) <- 0;
  cancel_detector t;
  clear_rtx t;
  ignore (Disk.drop_port t.disk ~port:t.port);
  Option.iter Channel.crash_sender t.tx;
  emit t Ev.Crash

let request_reintegration t =
  match t.role_ with
  | Backup -> invalid_arg "Hypervisor.request_reintegration: not a primary"
  | Primary | Promoted -> set_flag t S.reintegrate_requested true

let revive_as_backup t =
  set_flag t S.alive true;
  set_flag t S.halted false;
  become_backup t;
  set_time t S.debt Time.zero;
  fresh_stream t;
  t.health <- Healthy;
  t.s.(S.heartbeat) <- 0;
  t.missed <- [];
  t.s.(S.dropped_while_down) <- 0;
  ignore (Disk.drop_port t.disk ~port:t.port);
  persist t;
  Option.iter Channel.revive_sender t.tx

let crash = do_crash

let hv_health t = t.health

let start t =
  Guest_results.write_config t.vm t.workload.Hft_guest.Workload.config;
  emit t (Ev.Epoch_begin { epoch = 0 });
  (* the kernel boots at real privilege 1 = virtual privilege 0 *)
  apply_vstatus t;
  (match t.p.Params.epoch_mechanism with
  | Params.Recovery_register -> Cpu.set_recovery t.vm t.p.Params.epoch_length
  | Params.Code_rewriting ->
    Cpu.disable_recovery t.vm;
    Cpu.set_reg t.vm Hft_machine.Rewrite.counter_reg t.p.Params.epoch_length);
  ignore
    (Engine.after t.engine ~label:"start" ~actor:t.name_ Time.zero
       (guarded t ~label:"start" `Work (fun () -> continue_vm t)))

(* ---------- model-checker accessors ---------- *)

let outstanding_io t = List.length t.outstanding

let slots = Array.to_list S.table
let slot t i = t.s.(i)
let set_slot t i v = t.s.(i) <- v

(* every node's fingerprints since the program started *)
let computed = ref 0
let fingerprints_computed () = !computed

(* Canonical digest of the protocol state, mixed with [Fnv]: every
   fingerprinted slot and the recovery block, then the fields that are
   not slots.  Arrival stamps ([since] here, the slots [S] declares
   unfingerprinted) are deliberately excluded: they feed timing
   statistics, not behaviour, and including them would split states
   that cannot diverge.  Message bodies and relayed completions go
   through [Message]'s one body hasher. *)
let fingerprint t =
  incr computed;
  let mix = Fnv.int and flag = Fnv.bool in
  let stamped h { bi; _ } =
    match bi with
    | Bi_timer -> mix h 0
    | Bi_disk c -> Message.completion_digest (mix h 1) c
  in
  let io h (r : Disk_ctl.doorbell) = mix (mix (mix h r.cmd) r.block) r.dma in
  let body h dseq b = Message.body_checksum (mix h dseq) b in
  let rtx h e = body h e.r_dseq e.r_body in
  (* a map mixes its size, then every binding in key order; an empty
     one allocates no closure (a fingerprint is taken at every explored
     state, and most maps are empty) *)
  let map f h m =
    if IM.is_empty m then mix h 0
    else IM.fold (fun k v h -> f h k v) m (mix h (IM.cardinal m))
  in
  let h = ref (vm_state_hash t) in
  for k = 0 to Array.length S.fingerprinted - 1 do
    h := mix !h t.s.(S.fingerprinted.(k))
  done;
  for i = 0 to S.protected - 1 do
    h := mix !h t.rb.(i)
  done;
  let h = !h in
  let role = match t.role_ with Primary -> 0 | Backup -> 1 | Promoted -> 2 in
  let h = Disk_ctl.fingerprint (mix h role) t.ctl in
  let h =
    match t.blocked with
    | Not_blocked -> mix h 0
    | B_acks { upto; resume = R_boundary } -> mix (mix h 1) upto
    | B_acks { upto; resume = R_io r } -> io (mix (mix h 2) upto) r
    | B_tme -> mix h 3
    | B_end -> mix h 4
    | B_env -> mix h 5
    | B_snapshot -> mix h 6
  in
  let h = Fnv.list rtx h t.rtx_queue in
  let h = map body h t.rcv_hold in
  let tb = t.tb in
  let h = Fnv.list stamped h tb.buffered_current in
  let h = Fnv.list stamped h t.pending_delivery in
  let h =
    map (fun h e l -> Fnv.list stamped (mix h e) l) h tb.buffered_by_epoch
  in
  let h =
    EM.fold
      (fun (e, i) v h -> mix (mix (mix h e) i) v)
      tb.env_vals
      (mix h (EM.cardinal tb.env_vals))
  in
  let h = map (fun h e (v, dl) -> mix (mix (mix h e) v) dl) h tb.tmes in
  let h = map (fun h e () -> mix h e) h tb.ends in
  let h = Fnv.list io h t.outstanding in
  let h =
    mix h
      (match t.snapshot_box with None -> -1 | Some s -> s.s_slots.(S.epoch))
  in
  let h = flag (flag h (t.detector <> None)) (t.rtx_timer <> None) in
  (* the recovery block's list is summarised by its [dseq]s (the
     bodies are determined by the live queue at persist time) *)
  let health =
    match t.health with
    | Healthy -> 0
    | Recovering -> 1
    | Faulted Hv_crash -> 2
    | Faulted Hv_hang -> 3
    | Faulted (Hv_corrupt C_epoch) -> 4
    | Faulted (Hv_corrupt C_acks) -> 5
    | Faulted (Hv_corrupt C_rtx) -> 6
  in
  let h = Fnv.list (fun h (l, _) -> Fnv.string h l) (mix h health) t.missed in
  Fnv.list (fun h e -> mix h e.r_dseq) h t.rb_rtx

(* ---------- save and restore (the model checker's) ----------

   The state table, the recovery block and the virtual control
   registers go into one int array, and the statistics into a
   [Stats.t]; both are recycled from a released save, so a save in
   steady state allocates neither.  Every other field holds an
   immutable value — the tables are maps and the queues lists, beside
   options, variants, events and closures — and is saved by reference;
   only the disk controller's registers are copied, shared with
   [like]'s while unchanged.  Everything is restored in place. *)

type saved = {
  sv_of : t;
  sv_vm : Cpu.saved;
  sv_ints : int array;
  sv_st : Stats.t;
  sv_role : role;
  sv_blocked : blocked;
  sv_detector : Engine.handle option;
  sv_rtx_timer : Engine.handle option;
  sv_pending_delivery : stamped list;
  sv_snapshot_box : snapshot option;
  sv_health : hv_health;
  sv_missed : (string * (unit -> unit)) list;
  sv_rb_rtx : rtx_entry list;
  sv_ctl : Disk_ctl.t;
  sv_rcv_hold : Message.body IM.t;
  sv_rtx : rtx_entry list;
  sv_tb : tables;
  sv_outstanding : Disk_ctl.doorbell list;
}

(* [t.s], then [t.rb], then [t.vcrs] *)
let n_ints = S.count + S.protected + Isa.num_crs

(* what a save that will never be restored again lends the next one *)
type spare = { sp_ints : int array; sp_st : Stats.t; sp_cpu : int array }

let spare s =
  { sp_ints = s.sv_ints; sp_st = s.sv_st; sp_cpu = Cpu.ints s.sv_vm }

let save ?like ?into t =
  let ints, st =
    match into with
    | Some sp -> (sp.sp_ints, sp.sp_st)
    | None -> (Array.make n_ints 0, Stats.create ())
  in
  copy t.s 0 ints 0 S.count;
  copy t.rb 0 ints S.count S.protected;
  copy t.vcrs 0 ints (S.count + S.protected) Isa.num_crs;
  Stats.blit ~src:t.st ~dst:st;
  {
    sv_of = t;
    sv_vm =
      Cpu.save
        ?like:(Option.map (fun l -> l.sv_vm) like)
        ?into:(Option.map (fun sp -> sp.sp_cpu) into)
        t.vm;
    sv_ints = ints;
    sv_st = st;
    sv_role = t.role_;
    sv_blocked = t.blocked;
    sv_detector = t.detector;
    sv_rtx_timer = t.rtx_timer;
    sv_pending_delivery = t.pending_delivery;
    sv_snapshot_box = t.snapshot_box;
    sv_health = t.health;
    sv_missed = t.missed;
    sv_rb_rtx = t.rb_rtx;
    sv_ctl =
      (match like with
      | Some l when l.sv_ctl = t.ctl -> l.sv_ctl
      | _ -> Disk_ctl.save t.ctl);
    sv_rcv_hold = t.rcv_hold;
    sv_rtx = t.rtx_queue;
    sv_tb = t.tb;
    sv_outstanding = t.outstanding;
  }

let restore t s =
  if s.sv_of != t then
    invalid_arg "Hypervisor.restore: not a save of this node";
  Cpu.restore_saved t.vm s.sv_vm;
  copy s.sv_ints 0 t.s 0 S.count;
  copy s.sv_ints S.count t.rb 0 S.protected;
  copy s.sv_ints (S.count + S.protected) t.vcrs 0 Isa.num_crs;
  Stats.blit ~src:s.sv_st ~dst:t.st;
  Disk_ctl.copy_state_from t.ctl s.sv_ctl;
  t.rcv_hold <- s.sv_rcv_hold;
  t.rtx_queue <- s.sv_rtx;
  t.tb <- s.sv_tb;
  t.outstanding <- s.sv_outstanding;
  t.role_ <- s.sv_role;
  t.blocked <- s.sv_blocked;
  t.detector <- s.sv_detector;
  t.rtx_timer <- s.sv_rtx_timer;
  t.pending_delivery <- s.sv_pending_delivery;
  t.snapshot_box <- s.sv_snapshot_box;
  t.health <- s.sv_health;
  t.missed <- s.sv_missed;
  t.rb_rtx <- s.sv_rb_rtx
