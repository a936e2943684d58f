(* Explicit-state model checker for the replica-coordination protocol.

   The checker drives the deterministic simulation through *every*
   schedule of a bounded scenario: the scenario's root choices (which
   epoch the primary crashes at, which message each channel drops)
   crossed with every interleaving of co-enabled engine events.  The
   search is the stateless one of the VeriSoft tradition — a DFS over
   recorded choice prefixes, with no state stored beyond fingerprints
   — but a schedule is not re-executed from the root: the checker
   snapshots the system ({!System.snapshot}) at open branch points,
   holds at most [retained] of them spread along the path, and resumes
   each new run at the deepest one it still holds: a run re-executes
   only the stretch from there down to its branch point before its new
   suffix.

   Exploration is depth-first over the choice tree with two
   reductions:

   - {e Sleep sets} (Godefroid's dynamic partial-order reduction):
     two same-instant events on distinct replicas commute — every
     handler mutates only its own node's hypervisor state plus the
     sender side of that node's outgoing channels, and cross-node
     effects always arrive as *future* events because link transfer
     time is positive.  After exploring [a;b] from a node, [b] is put
     to sleep under the sibling subtree that starts with [b]'s
     independent peer, so the commuted twin [b;a] is skipped.

   - {e Fingerprint pruning}: a canonical digest of the whole system
     (VM state, protocol state, channels, disk, console, pending
     events by relative time) prunes states already explored.  Sleep
     sets make naive state caching unsound, so a state is recorded as
     visited only when it is entered with an *empty* sleep set — such
     an entry explores the full subtree modulo reductions that are
     themselves sound.  Under a depth bound, a revisit shallower than
     the recorded entry is re-explored (it has more remaining budget).
     A new node is fingerprinted only once its sleep set leaves it a
     choice: one with every choice asleep is abandoned either way.

   Invariants are machine-checked at every scheduler call (split
   brain, backup I/O emission, duplicate uncertain completions) and at
   the end of every complete run (the five campaign invariants, with
   the console check relaxed to replayed-overlap when the scenario
   crashes the primary, plus drained outstanding I/O).  A violation's
   choice prefix is shrunk greedily and serialized as a replayable
   {!Schedule.t}. *)

open Hft_core
module Engine = Hft_sim.Engine
module Fnv = Hft_sim.Fnv
module Scenarios = Hft_harness.Scenarios
module Campaign = Hft_harness.Campaign

type options = {
  depth : int option;  (** max scheduler choices per run; [None] = unbounded *)
  max_states : int option;  (** stop exploring after this many states *)
  dpor : bool;  (** sleep-set partial-order reduction *)
  fingerprints : bool;  (** visited-state pruning *)
  max_violations : int;  (** stop after this many counterexamples *)
  shrink : bool;  (** minimize counterexamples before reporting *)
}

let default_options =
  {
    depth = None;
    max_states = None;
    dpor = true;
    fingerprints = true;
    max_violations = 1;
    shrink = true;
  }

type violation = {
  v_roots : int list;
  v_choices : int list;
  v_reason : string;
  v_shrunk : bool;
}

type stats = {
  mutable runs : int;  (** schedules executed (incl. aborted replays) *)
  mutable states : int;  (** frontier scheduler nodes visited *)
  mutable transitions : int;  (** scheduler decisions, incl. replayed ones *)
  mutable executed : int;  (** scheduler decisions the simulator ran *)
  mutable snapshots : int;  (** system snapshots taken at open branch points *)
  mutable fingerprints : int;  (** system fingerprints computed *)
  mutable pruned_visited : int;  (** nodes cut by the fingerprint cache *)
  mutable sleep_skipped : int;  (** sibling transitions put to sleep *)
  mutable sleep_pruned : int;  (** nodes abandoned with every choice asleep *)
  mutable truncated_runs : int;  (** runs cut by the depth bound *)
  mutable max_depth : int;
}

let fresh_stats () =
  {
    runs = 0;
    states = 0;
    transitions = 0;
    executed = 0;
    snapshots = 0;
    fingerprints = 0;
    pruned_visited = 0;
    sleep_skipped = 0;
    sleep_pruned = 0;
    truncated_runs = 0;
    max_depth = 0;
  }

type result = {
  r_scenario : Scenarios.bounded;
  r_variant : Scenarios.variant;
  r_options : options;
  r_stats : stats;
  r_complete : bool;
      (** the whole bounded state space was explored to fixpoint *)
  r_violations : violation list;
}

(* ------------------------------------------------------------------ *)
(* Independence and sleep sets                                         *)

(* Two same-instant events commute iff they belong to distinct
   components: actor "" tags events that touch shared state (the
   dual-ported disk, reintegration) and is dependent with everything. *)
let indep (a : Engine.choice) (b : Engine.choice) =
  a.Engine.c_actor <> "" && b.Engine.c_actor <> ""
  && not (String.equal a.Engine.c_actor b.Engine.c_actor)

(* Sleep-set membership is by engine sequence number: an unchosen
   event keeps its seq while it stays queued, and replay determinism
   makes seqs stable across runs sharing the same choice prefix. *)
let in_sleep sleep (e : Engine.choice) =
  List.exists (fun s -> s.Engine.c_seq = e.Engine.c_seq) sleep

(* ------------------------------------------------------------------ *)
(* The choice tree                                                     *)

type kind = Root of int | Sched

type frame = {
  kind : kind;
  width : int;
  events : Engine.choice array;  (* [||] for root frames *)
  sleep : Engine.choice list;  (* sleep set on entry to this node *)
  f_fp : int option;  (* entry fingerprint, frontier scheduler nodes only *)
  f_depth : int;  (* scheduler depth at entry, -1 for root frames *)
  mutable explored : int list;  (* sibling indices already fully explored *)
  mutable chosen : int;
  mutable f_snap : resume option;
      (* the system at this node's scheduler call, held while the node
         is an open branch point *)
}

(* Everything a run resumed at a node needs: the system, the
   fingerprint it must show there again, and the per-run invariant
   bookkeeping of [check_step]. *)
and resume = {
  r_sys : System.snapshot;
  r_fp : int;
  r_baselines : int array;
  r_frozen : (int * int) option array;
}

let root_frame k width =
  {
    kind = Root k;
    width;
    events = [||];
    sleep = [];
    f_fp = None;
    f_depth = -1;
    explored = [];
    chosen = 0;
    f_snap = None;
  }

let n_dims = 5

(* The root dimensions have heterogeneous element types (the fifth is
   a hypervisor-fault choice, not an epoch/message index), so the
   generic view the tree driver and the shrinker need is just each
   dimension's width and the index of its no-fault option. *)
let dims (sc : Scenarios.bounded) =
  let d l =
    let rec none_idx i = function
      | [] -> -1
      | None :: _ -> i
      | _ :: tl -> none_idx (i + 1) tl
    in
    (List.length l, none_idx 0 l)
  in
  [|
    d sc.Scenarios.sc_crash_epochs;
    d sc.Scenarios.sc_backup_crash_epochs;
    d sc.Scenarios.sc_loss_pb;
    d sc.Scenarios.sc_loss_bp;
    d sc.Scenarios.sc_hv_faults;
  |]

let build sc ~variant ?obs ?recycle (roots : int array) =
  let pick l k =
    let a = Array.of_list l in
    a.(if roots.(k) >= 0 && roots.(k) < Array.length a then roots.(k) else 0)
  in
  Scenarios.instantiate sc ~variant
    ?crash_epoch:(pick sc.Scenarios.sc_crash_epochs 0)
    ?backup_crash_epoch:(pick sc.Scenarios.sc_backup_crash_epochs 1)
    ?loss_pb:(pick sc.Scenarios.sc_loss_pb 2)
    ?loss_bp:(pick sc.Scenarios.sc_loss_bp 3)
    ?hv_fault:(pick sc.Scenarios.sc_hv_faults 4)
    ?obs ?recycle ()

(* ------------------------------------------------------------------ *)
(* Invariants                                                          *)

let runaway limit = Printf.sprintf "runaway simulation (event limit %d)" limit

exception Violation_mid of string
exception Abort of [ `Pruned | `Sleep | `Truncated ]
exception Cap

let is_primary_role hv =
  match Hypervisor.role hv with
  | Hypervisor.Primary | Hypervisor.Promoted -> true
  | Hypervisor.Backup -> false

(* Checked between every two events.  [baselines] tracks each node's
   io_submitted counter across role changes, so a reintegrated
   ex-primary is only held to the no-I/O rule for ops submitted
   *after* it became a backup.  [frozen] holds, per node, the (epoch,
   io_submitted) pair recorded when the node was first observed with a
   down hypervisor: neither may move again until its microreboot ends
   — a hypervisor in the Faulted or Recovering state must do no
   protocol work. *)
let live_primary hv = Hypervisor.alive hv && is_primary_role hv

(* Node [i]'s share of [check_step]; allocates only the pair [frozen]
   records when the node is first seen down. *)
let check_node baselines frozen i hv =
  let st = Hypervisor.stats hv in
  if st.Stats.spurious_completions > 0 then
    raise
      (Violation_mid
         (Printf.sprintf
            "%s accepted a completion interrupt with no outstanding I/O \
             (P6/P7: more than one completion for an operation)"
            (Hypervisor.name hv)));
  if is_primary_role hv then baselines.(i) <- st.Stats.io_submitted
  else if Hypervisor.alive hv && st.Stats.io_submitted > baselines.(i) then
    raise
      (Violation_mid
         (Printf.sprintf "%s submitted device I/O while in the backup role"
            (Hypervisor.name hv)));
  match Hypervisor.hv_health hv with
  | Hypervisor.Healthy -> frozen.(i) <- None
  | _ -> (
    let epoch = Hypervisor.epoch hv and io = st.Stats.io_submitted in
    match frozen.(i) with
    | None -> frozen.(i) <- Some (epoch, io)
    | Some (epoch0, io0) ->
      if epoch0 <> epoch || io0 <> io then
        raise
          (Violation_mid
             (Printf.sprintf
                "%s did protocol work (epoch %d->%d, io %d->%d) while its \
                 hypervisor was down"
                (Hypervisor.name hv) epoch0 epoch io0 io)))

let check_step sys baselines frozen =
  let p = System.primary sys and b = System.backup sys in
  if live_primary p && live_primary b then
    raise (Violation_mid "two live replicas hold a primary role (split brain)");
  check_node baselines frozen 0 p;
  check_node baselines frozen 1 b

(* End-of-run checks on a completed schedule: the five campaign
   invariants (console relaxed to replayed-overlap when the scenario
   can crash the primary — the paper only promises at-least-once
   output across a failover) plus: whoever halted must have drained
   its outstanding I/O, i.e. every operation outstanding at failover
   got its (exactly one, by the step check) uncertain completion. *)
let end_checks sc ~reference sys o =
  let console =
    if Scenarios.has_crash sc then `Replay_extension else `Exact
  in
  let vs = Campaign.check_invariants ~console ~reference sys o in
  vs
  @ List.filter_map
      (fun hv ->
        let n = Hypervisor.outstanding_io hv in
        if Hypervisor.alive hv && Hypervisor.halted hv && n > 0 then
          Some
            (Printf.sprintf
               "%s halted with %d outstanding I/O operation(s) (P6: missing \
                uncertain completion)"
               (Hypervisor.name hv) n)
        else None)
      [ System.primary sys; System.backup sys ]

(* ------------------------------------------------------------------ *)
(* The current path                                                    *)

(* The frames of the schedule being explored, root dimensions first,
   then one per scheduler call; [held] lists, in ascending order, the
   indices of the [snaps] frames holding a snapshot, all of them of
   [sys], the system the runs execute on. *)
type path = {
  mutable frames : frame array;
  mutable len : int;
  held : int array;
  mutable snaps : int;
  mutable sys : System.t option;
}

(* Snapshots are held at no more than this many open branch points,
   which bounds their memory.  They are spread along the path rather
   than packed at its bottom: a backtrack past the deepest restores the
   nearest one above, and a run resumed there replays at most one gap
   before it reaches its new suffix. *)
let retained = 32

let push path f =
  if path.len = Array.length path.frames then begin
    let a = Array.make (max 64 (2 * path.len)) f in
    Array.blit path.frames 0 a 0 path.len;
    path.frames <- a
  end;
  path.frames.(path.len) <- f;
  path.len <- path.len + 1

(* Drop the snapshot of the [j]th held frame. *)
let release path j =
  let f = path.frames.(path.held.(j)) in
  (match (f.f_snap, path.sys) with
  | Some r, Some s -> System.release s r.r_sys
  | _ -> ());
  f.f_snap <- None;
  Array.blit path.held (j + 1) path.held j (path.snaps - j - 1);
  path.snaps <- path.snaps - 1

(* Hold a snapshot at frame [i], deeper than every one held.  At the
   budget, evict the held snapshot whose removal leaves the smallest
   gap between its neighbours — the root rebuild above the first, frame
   [i] below the last — and the deeper one of a tie: the held frames
   thin out evenly, so a backtrack to any depth finds one close above. *)
let hold path i r =
  if path.snaps >= retained then begin
    let h = path.held in
    let gap j =
      (if j + 1 < path.snaps then h.(j + 1) else i)
      - if j > 0 then h.(j - 1) else n_dims - 1
    in
    let best = ref 0 in
    for j = 1 to path.snaps - 1 do
      if gap j <= gap !best then best := j
    done;
    release path !best
  end;
  path.frames.(i).f_snap <- Some r;
  path.held.(path.snaps) <- i;
  path.snaps <- path.snaps + 1

(* what a slot past the path's end holds, so a discarded frame (and the
   events and sleep set it keeps) can be collected *)
let vacant = root_frame (-1) 0

let truncate path n =
  while path.snaps > 0 && path.held.(path.snaps - 1) >= n do
    release path (path.snaps - 1)
  done;
  Array.fill path.frames n (path.len - n) vacant;
  path.len <- n

(* The deepest frame holding a snapshot. *)
let resume_point path =
  if path.snaps = 0 then None
  else
    let i = path.held.(path.snaps - 1) in
    Option.map (fun r -> (i, r)) path.frames.(i).f_snap

(* ------------------------------------------------------------------ *)
(* DFS driver                                                          *)

let next_candidate f =
  let rec go i =
    if i >= f.width then None
    else
      match f.kind with
      | Root _ -> Some i
      | Sched -> if in_sleep f.sleep f.events.(i) then go (i + 1) else Some i
  in
  go (f.chosen + 1)

let is_open f = f.kind = Sched && next_candidate f <> None

(* A state enters the visited cache only when its subtree is fully
   explored (post-order): recording on arrival is circular — a
   zero-effect stutter transition reaches a state fingerprinting like
   its own in-progress ancestor, and pruning it would cut the very
   exploration the cache entry claims happened.  The empty-sleep guard
   keeps the cache sound under DPOR (a non-empty-sleep entry explores
   a reduced subtree); the recorded depth makes a later, shallower
   visit re-explore when a depth bound is in force. *)
let record_explored visited f =
  match f.f_fp with
  | Some h when f.sleep = [] -> (
    match Hashtbl.find_opt visited h with
    | Some d0 when d0 <= f.f_depth -> ()
    | _ -> Hashtbl.replace visited h f.f_depth)
  | _ -> ()

(* Advance the deepest frame with an unexplored sibling, discarding
   (and recording) everything below it.  Returns false when the tree
   is exhausted. *)
let backtrack ~visited path =
  let rec go i =
    if i < 0 then false
    else
      let f = path.frames.(i) in
      match next_candidate f with
      | Some c ->
        f.explored <- f.chosen :: f.explored;
        f.chosen <- c;
        truncate path (i + 1);
        true
      | None ->
        record_explored visited f;
        go (i - 1)
  in
  go (path.len - 1)

(* The roots and scheduler choices of the first [consumed] frames. *)
let slice path consumed =
  let chosen i = path.frames.(i).chosen in
  let n = min consumed path.len in
  ( List.init (min n n_dims) chosen,
    List.init (max 0 (n - n_dims)) (fun i -> chosen (n_dims + i)) )

(* ------------------------------------------------------------------ *)
(* Forced replay (used by --replay and the shrinker)                   *)

let run_forced sc ~variant ?reference ?obs ~roots ~choices () =
  let reference =
    match reference with
    | Some r -> r
    | None -> Scenarios.reference sc ~variant
  in
  let ra = Array.make n_dims 0 in
  List.iteri (fun i v -> if i < n_dims then ra.(i) <- v) roots;
  let sys = build sc ~variant ?obs ra in
  let engine = System.engine sys in
  let baselines = [| 0; 0 |] in
  let frozen = [| None; None |] in
  let ch = Array.of_list choices in
  let cursor = ref 0 in
  Engine.set_scheduler engine (fun batch ->
      check_step sys baselines frozen;
      let idx = !cursor in
      incr cursor;
      if idx < Array.length ch then
        let c = ch.(idx) in
        if c < 0 || c >= Array.length batch then 0 else c
      else 0);
  match System.run ~limit:sc.Scenarios.sc_limit sys with
  | o -> (
    match end_checks sc ~reference sys o with
    | [] -> None
    | vs -> Some (String.concat "; " vs))
  | exception Violation_mid msg -> Some msg
  | exception Engine.Runaway limit -> Some (runaway limit)
  | exception Failure msg -> Some ("run failed: " ^ msg)

(* ------------------------------------------------------------------ *)
(* Shrinking                                                           *)

(* Greedy minimization of a counterexample: reset each root choice to
   its no-fault option, zero scheduler picks (0 = default engine
   order) to a fixpoint, then drop the all-default tail.  Any
   violation counts as "still failing" — the point is a small
   reproducer, not the identical message. *)
let shrink_violation sc ~variant ~reference v =
  let fails roots choices =
    run_forced sc ~variant ~reference ~roots ~choices () <> None
  in
  if not (fails v.v_roots v.v_choices) then v
  else begin
    let d = dims sc in
    let roots = ref v.v_roots and choices = ref v.v_choices in
    Array.iteri
      (fun k (_, none_idx) ->
        if none_idx >= 0 && List.nth !roots k <> none_idx then begin
          let cand =
            List.mapi (fun j x -> if j = k then none_idx else x) !roots
          in
          if fails cand !choices then roots := cand
        end)
      d;
    let budget = ref 256 in
    let changed = ref true in
    while !changed && !budget > 0 do
      changed := false;
      List.iteri
        (fun i c ->
          if c <> 0 && !budget > 0 then begin
            decr budget;
            let cand =
              List.mapi (fun j x -> if j = i then 0 else x) !choices
            in
            if fails !roots cand then begin
              choices := cand;
              changed := true
            end
          end)
        !choices
    done;
    let rec trim = function 0 :: tl -> trim tl | l -> l in
    choices := List.rev (trim (List.rev !choices));
    { v with v_roots = !roots; v_choices = !choices; v_shrunk = true }
  end

(* ------------------------------------------------------------------ *)
(* Exploration                                                         *)

exception Restore_mismatch of { depth : int; recorded : int; restored : int }

type run_result =
  | R_ok
  | R_violation of string
  | R_aborted  (* pruned, slept or truncated: no verdict, no new leaf *)

(* The last exploration's system, which the next one's first build
   recycles ([System.create]).  Emptied when an exploration starts and
   refilled only by one that returns, like [Campaign.spare]. *)
let spare = ref None

let explore ?(options = default_options) sc ~variant =
  let opts = options in
  let st = fresh_stats () in
  let visited = Hashtbl.create 8192 in
  let reference = Scenarios.reference sc ~variant in
  let d = dims sc in
  let path =
    {
      frames = [||];
      len = 0;
      held = Array.make retained 0;
      snaps = 0;
      sys = !spare;
    }
  in
  spare := None;
  (* the current run: the root assignment's digest, [check_step]'s
     bookkeeping, the next scheduler call's frame index, and the frame
     the run resumed at *)
  let root_mix = ref Fnv.basis in
  let baselines = [| 0; 0 |] and frozen = [| None; None |] in
  let cursor = ref n_dims and resumed = ref (-1) in
  (* identical system states reached under different installed crash /
     loss plans must not merge: mix the root assignment into every
     fingerprint *)
  let fingerprint s =
    st.fingerprints <- st.fingerprints + 1;
    Fnv.int !root_mix (System.fingerprint s)
  in
  let hold_open s i fp =
    st.snapshots <- st.snapshots + 1;
    hold path i
      {
        r_sys = System.snapshot s;
        r_fp = fp;
        r_baselines = Array.copy baselines;
        r_frozen = Array.copy frozen;
      }
  in
  (* Replay the frames the path holds, extend it at the frontier with
     the first non-sleeping choice, and snapshot every open branch
     point on the way that has none. *)
  let scheduler s batch =
    st.transitions <- st.transitions + 1;
    st.executed <- st.executed + 1;
    check_step s baselines frozen;
    let idx = !cursor in
    incr cursor;
    if idx < path.len then begin
      let f = path.frames.(idx) in
      if idx = !resumed then begin
        (* a restore must land exactly where the run left *)
        let r = fingerprint s and want = (Option.get f.f_snap).r_fp in
        if r <> want then
          raise
            (Restore_mismatch
               { depth = idx - n_dims; recorded = want; restored = r })
      end
      else if f.f_snap = None && is_open f then
        hold_open s idx
          (match f.f_fp with Some h -> h | None -> fingerprint s);
      f.chosen
    end
    else begin
      (* the cap stops the search before it visits one state more *)
      (match opts.max_states with
      | Some m when st.states >= m -> raise Cap
      | _ -> ());
      let depth = idx - n_dims in
      if depth > st.max_depth then st.max_depth <- depth;
      (match opts.depth with
      | Some dmax when depth >= dmax ->
        st.truncated_runs <- st.truncated_runs + 1;
        raise (Abort `Truncated)
      | _ -> ());
      st.states <- st.states + 1;
      let sleep =
        if (not opts.dpor) || idx = n_dims then []
        else
          let pf = path.frames.(idx - 1) in
          match pf.kind with
          | Root _ -> []
          | Sched ->
            let chosen_ev = pf.events.(pf.chosen) in
            let prev = List.rev_map (fun i -> pf.events.(i)) pf.explored in
            List.filter (fun e -> indep e chosen_ev) (pf.sleep @ prev)
      in
      let w = Array.length batch in
      let slept = ref 0 and first = ref (-1) in
      for i = w - 1 downto 0 do
        if in_sleep sleep batch.(i) then incr slept else first := i
      done;
      st.sleep_skipped <- st.sleep_skipped + !slept;
      if !first < 0 then begin
        st.sleep_pruned <- st.sleep_pruned + 1;
        raise (Abort `Sleep)
      end;
      (* only now, so a node with every choice asleep is abandoned
         without a digest *)
      let fp = if opts.fingerprints then Some (fingerprint s) else None in
      (match fp with
      | Some h -> (
        match Hashtbl.find_opt visited h with
        | Some d0
          when (match opts.depth with None -> true | Some _ -> d0 <= depth) ->
          st.pruned_visited <- st.pruned_visited + 1;
          raise (Abort `Pruned)
        | _ -> ())
      | None -> ());
      let f =
        {
          kind = Sched;
          width = w;
          events = Array.copy batch;
          sleep;
          f_fp = fp;
          f_depth = depth;
          explored = [];
          chosen = !first;
          f_snap = None;
        }
      in
      push path f;
      if is_open f then
        hold_open s idx (match fp with Some h -> h | None -> fingerprint s);
      f.chosen
    end
  in
  (* Execute the schedule the path describes, from the deepest
     snapshot it holds or else from a fresh (recycled) build.  The
     decisions a resumed run skips still count as transitions. *)
  let execute () =
    for k = path.len to n_dims - 1 do
      push path (root_frame k (fst d.(k)))
    done;
    let s =
      match (resume_point path, path.sys) with
      | Some (k, r), Some s ->
        System.restore s r.r_sys;
        Array.blit r.r_baselines 0 baselines 0 2;
        Array.blit r.r_frozen 0 frozen 0 2;
        st.transitions <- st.transitions + (k - n_dims);
        cursor := k;
        resumed := k;
        s
      | _ ->
        let roots = Array.init n_dims (fun k -> path.frames.(k).chosen) in
        root_mix := Array.fold_left Fnv.int Fnv.basis roots;
        (* this run's system is finished before the next build
           recycles it: every rebuild reuses the same pair of guest
           memories *)
        let s = build sc ~variant ?recycle:path.sys roots in
        path.sys <- Some s;
        Engine.set_scheduler (System.engine s) (scheduler s);
        System.start s;
        Array.fill baselines 0 2 0;
        Array.fill frozen 0 2 None;
        cursor := n_dims;
        resumed := -1;
        s
    in
    st.runs <- st.runs + 1;
    let verdict =
      match System.drive ~limit:sc.Scenarios.sc_limit s with
      | o -> (
        match end_checks sc ~reference s o with
        | [] -> R_ok
        | vs -> R_violation (String.concat "; " vs))
      | exception Violation_mid msg -> R_violation msg
      | exception Abort _ -> R_aborted
      | exception Engine.Runaway limit -> R_violation (runaway limit)
      | exception Failure msg ->
        (* "no VM completed the workload", like an exhausted event
           budget, is a liveness violation *)
        R_violation ("run failed: " ^ msg)
    in
    (* a node whose last sibling this run took is no longer a branch
       point *)
    if !resumed >= 0 && not (is_open path.frames.(!resumed)) then
      for j = path.snaps - 1 downto 0 do
        if path.held.(j) = !resumed then release path j
      done;
    (verdict, !cursor)
  in
  let violations = ref [] in
  let capped = ref false and exhausted = ref false in
  (try
     let continue_ = ref true in
     while !continue_ do
       (match execute () with
       | R_violation reason, consumed ->
         let v_roots, v_choices = slice path consumed in
         violations :=
           { v_roots; v_choices; v_reason = reason; v_shrunk = false }
           :: !violations;
         if List.length !violations >= opts.max_violations then
           continue_ := false
       | (R_ok | R_aborted), _ -> ());
       if !continue_ then begin
         let more = backtrack ~visited path in
         if not more then begin
           exhausted := true;
           continue_ := false
         end
       end
     done
   with Cap -> capped := true);
  let violations =
    let vs = List.rev !violations in
    if opts.shrink then List.map (shrink_violation sc ~variant ~reference) vs
    else vs
  in
  spare := path.sys;
  {
    r_scenario = sc;
    r_variant = variant;
    r_options = opts;
    r_stats = st;
    r_complete =
      !exhausted && (not !capped) && st.truncated_runs = 0 && violations = [];
    r_violations = violations;
  }

(* ------------------------------------------------------------------ *)
(* Schedule glue and reports                                           *)

let schedule_of_violation (r : result) (v : violation) =
  {
    Schedule.scenario = r.r_scenario.Scenarios.sc_name;
    retransmit = r.r_variant.Scenarios.retransmit;
    ack_wait = r.r_variant.Scenarios.ack_wait;
    roots = v.v_roots;
    choices = v.v_choices;
    violation = Some v.v_reason;
  }

let dim_names =
  [| "crash_epochs"; "backup_crash_epochs"; "loss_pb"; "loss_bp"; "hv_faults" |]

(* A replay file's roots and choices must name the schedule exactly:
   [build] and [run_forced] map an out-of-range index to a default
   (the shrinker relies on that), which would replay a different
   schedule than the file records. *)
let check_indices sc (s : Schedule.t) =
  let d = dims sc in
  let rec roots k = function
    | [] -> choices 0 s.Schedule.choices
    | _ when k >= n_dims ->
      Error
        (Printf.sprintf "%d roots given, the scenario has %d dimensions"
           (List.length s.Schedule.roots) n_dims)
    | r :: _ when r < 0 || r >= fst d.(k) ->
      Error
        (Printf.sprintf "root %d (%s) is %d, outside its width %d" k
           dim_names.(k) r (fst d.(k)))
    | _ :: tl -> roots (k + 1) tl
  and choices i = function
    | [] -> Ok ()
    | c :: _ when c < 0 -> Error (Printf.sprintf "choice %d is negative" i)
    | _ :: tl -> choices (i + 1) tl
  in
  roots 0 s.Schedule.roots

(* Replay a serialized schedule.  Returns the violation it reproduces,
   if any. *)
let replay ?obs (s : Schedule.t) =
  match Scenarios.find s.Schedule.scenario with
  | None -> Error (Printf.sprintf "unknown scenario %S" s.Schedule.scenario)
  | Some sc ->
    let variant =
      {
        Scenarios.retransmit = s.Schedule.retransmit;
        ack_wait = s.Schedule.ack_wait;
      }
    in
    Result.map
      (fun () ->
        run_forced sc ~variant ?obs ~roots:s.Schedule.roots
          ~choices:s.Schedule.choices ())
      (check_indices sc s)

(* ------------------------------------------------------------------ *)
(* JSON report ("hftsim-check/1")                                       *)

module J = Hft_obs.Json

(* Holzmann's bound on the expected number of states a [b]-bit
   fingerprint search omits through collisions, n^2 / 2^(b+1), with
   b = 62. *)
let omission_bound n = float_of_int n *. float_of_int n /. 0x1p63

let stats_json st =
  J.Obj
    [
      ("runs", J.int st.runs);
      ("states", J.int st.states);
      ("omission_bound", J.significant 2 (omission_bound st.states));
      ("transitions", J.int st.transitions);
      ("executed", J.int st.executed);
      ("snapshots", J.int st.snapshots);
      ("fingerprints", J.int st.fingerprints);
      ("pruned_visited", J.int st.pruned_visited);
      ("sleep_skipped", J.int st.sleep_skipped);
      ("sleep_pruned", J.int st.sleep_pruned);
      ("truncated_runs", J.int st.truncated_runs);
      ("max_depth", J.int st.max_depth);
    ]

let to_json ?naive (r : result) =
  let int_opt = function None -> J.Null | Some i -> J.int i in
  let ints l = J.Arr (List.map J.int l) in
  let naive_fields =
    match naive with
    | Some n ->
      let factor =
        if r.r_stats.states > 0 then
          float_of_int n.states /. float_of_int r.r_stats.states
        else 0.
      in
      [ ("naive", stats_json n); ("reduction_factor", J.fixed 2 factor) ]
    | None -> []
  in
  J.Obj
    ([
       ("schema", J.Str "hftsim-check/1");
       ("scenario", J.Str r.r_scenario.Scenarios.sc_name);
       ("descr", J.Str r.r_scenario.Scenarios.sc_descr);
       ( "variant",
         J.Obj
           [
             ("retransmit", J.Bool r.r_variant.Scenarios.retransmit);
             ("ack_wait", J.Bool r.r_variant.Scenarios.ack_wait);
           ] );
       ( "options",
         J.Obj
           [
             ("depth", int_opt r.r_options.depth);
             ("max_states", int_opt r.r_options.max_states);
             ("dpor", J.Bool r.r_options.dpor);
             ("fingerprints", J.Bool r.r_options.fingerprints);
           ] );
       ("stats", stats_json r.r_stats);
       ("complete", J.Bool r.r_complete);
     ]
    @ naive_fields
    @ [
        ( "violations",
          J.Arr
            (List.map
               (fun v ->
                 J.Obj
                   [
                     ("reason", J.Str v.v_reason);
                     ("roots", ints v.v_roots);
                     ("choices", ints v.v_choices);
                     ("shrunk", J.Bool v.v_shrunk);
                   ])
               r.r_violations) );
      ])
