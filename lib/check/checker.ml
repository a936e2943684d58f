(* Explicit-state model checker for the replica-coordination protocol.

   The checker drives the deterministic simulation through *every*
   schedule of a bounded scenario: the scenario's root choices (which
   epoch the primary crashes at, which message each channel drops)
   crossed with every interleaving of co-enabled engine events.  It is
   a stateless-search checker in the VeriSoft tradition: the system
   itself carries no checkpointing, so each explored schedule is a
   fresh run replayed from its recorded choice prefix.

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

   Invariants are machine-checked at every scheduler call (split
   brain, backup I/O emission, duplicate uncertain completions) and at
   the end of every complete run (the five campaign invariants, with
   the console check relaxed to replayed-overlap when the scenario
   crashes the primary, plus drained outstanding I/O).  A violation's
   choice prefix is shrunk greedily and serialized as a replayable
   {!Schedule.t}. *)

open Hft_core
module Engine = Hft_sim.Engine
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
let check_step sys baselines frozen =
  let nodes = [| System.primary sys; System.backup sys |] in
  let live_primaries =
    Array.fold_left
      (fun n hv ->
        if Hypervisor.alive hv && is_primary_role hv then n + 1 else n)
      0 nodes
  in
  if live_primaries > 1 then
    raise (Violation_mid "two live replicas hold a primary role (split brain)");
  Array.iteri
    (fun i hv ->
      let st = Hypervisor.stats hv in
      if st.Stats.spurious_completions > 0 then
        raise
          (Violation_mid
             (Printf.sprintf
                "%s accepted a completion interrupt with no outstanding I/O \
                 (P6/P7: more than one completion for an operation)"
                (Hypervisor.name hv)));
      if is_primary_role hv then baselines.(i) <- st.Stats.io_submitted
      else if Hypervisor.alive hv && st.Stats.io_submitted > baselines.(i)
      then
        raise
          (Violation_mid
             (Printf.sprintf "%s submitted device I/O while in the backup role"
                (Hypervisor.name hv)));
      match Hypervisor.hv_health hv with
      | Hypervisor.Healthy -> frozen.(i) <- None
      | _ -> (
        let now = (Hypervisor.epoch hv, st.Stats.io_submitted) in
        match frozen.(i) with
        | None -> frozen.(i) <- Some now
        | Some was ->
          if was <> now then
            raise
              (Violation_mid
                 (Printf.sprintf
                    "%s did protocol work (epoch %d->%d, io %d->%d) while \
                     its hypervisor was down"
                    (Hypervisor.name hv) (fst was) (fst now) (snd was)
                    (snd now)))))
    nodes

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
(* One schedule                                                        *)

type run_result =
  | R_ok
  | R_violation of string
  | R_aborted  (* pruned, slept or truncated: no verdict, no new leaf *)

(* Execute the schedule the current stack describes, extending it at
   the frontier.  Frames deeper than the stack are created on the fly
   with the first non-sleeping choice; the run ends when the system
   halts, an invariant trips, or a reduction cuts the branch. *)
let execute sc ~variant ~reference ~opts ~st ~visited ~spare stack =
  let frames = Array.of_list !stack in
  let nf = Array.length frames in
  let fresh = ref [] in
  let d = dims sc in
  let roots = Array.make n_dims 0 in
  for k = 0 to n_dims - 1 do
    let f =
      if k < nf then frames.(k)
      else begin
        let f =
          {
            kind = Root k;
            width = fst d.(k);
            events = [||];
            sleep = [];
            f_fp = None;
            f_depth = -1;
            explored = [];
            chosen = 0;
          }
        in
        fresh := f :: !fresh;
        f
      end
    in
    roots.(k) <- f.chosen
  done;
  (* identical system states reached under different installed crash /
     loss plans must not merge: mix the root assignment into every
     fingerprint *)
  let root_mix = Hashtbl.hash (Array.to_list roots) in
  (* this run's system is finished before the next [execute] builds
     from it: every schedule after the first reuses the same pair of
     guest memories *)
  let sys = build sc ~variant ?recycle:!spare roots in
  spare := Some sys;
  let engine = System.engine sys in
  let baselines = [| 0; 0 |] in
  let frozen = [| None; None |] in
  let cursor = ref n_dims in
  Engine.set_scheduler engine (fun batch ->
      st.transitions <- st.transitions + 1;
      check_step sys baselines frozen;
      let idx = !cursor in
      incr cursor;
      if idx < nf then frames.(idx).chosen
      else begin
        let depth = idx - n_dims in
        if depth > st.max_depth then st.max_depth <- depth;
        (match opts.depth with
        | Some dmax when depth >= dmax ->
          st.truncated_runs <- st.truncated_runs + 1;
          raise (Abort `Truncated)
        | _ -> ());
        st.states <- st.states + 1;
        (match opts.max_states with
        | Some m when st.states > m -> raise Cap
        | _ -> ());
        let fp =
          if opts.fingerprints then
            Some (Hashtbl.hash (root_mix, System.fingerprint sys))
          else None
        in
        (match fp with
        | Some h -> (
          match Hashtbl.find_opt visited h with
          | Some d0
            when (match opts.depth with None -> true | Some _ -> d0 <= depth)
            ->
            st.pruned_visited <- st.pruned_visited + 1;
            raise (Abort `Pruned)
          | _ -> ())
        | None -> ());
        let sleep =
          if (not opts.dpor) || idx = n_dims then []
          else
            let pf =
              if idx - 1 < nf then frames.(idx - 1) else List.hd !fresh
            in
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
          }
        in
        fresh := f :: !fresh;
        f.chosen
      end);
  st.runs <- st.runs + 1;
  let verdict =
    match System.run ~limit:sc.Scenarios.sc_limit sys with
    | o -> (
      match end_checks sc ~reference sys o with
      | [] -> R_ok
      | vs -> R_violation (String.concat "; " vs))
    | exception Violation_mid msg -> R_violation msg
    | exception Abort _ -> R_aborted
    | exception Failure msg ->
      (* includes "no VM completed the workload" and the event budget:
         a schedule on which nobody finishes is a liveness violation *)
      R_violation ("run failed: " ^ msg)
  in
  stack := !stack @ List.rev !fresh;
  (verdict, !cursor)

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
let backtrack ~visited stack =
  let rec go = function
    | [] -> false
    | f :: shallower -> (
      match next_candidate f with
      | Some i ->
        f.explored <- f.chosen :: f.explored;
        f.chosen <- i;
        stack := List.rev (f :: shallower);
        true
      | None ->
        record_explored visited f;
        go shallower)
  in
  go (List.rev !stack)

let slice stack consumed =
  let rec take n l =
    if n = 0 then []
    else match l with [] -> [] | f :: tl -> f.chosen :: take (n - 1) tl
  in
  let all = take consumed !stack in
  let rec split k l =
    if k = 0 then ([], l)
    else
      match l with
      | [] -> ([], [])
      | x :: tl ->
        let a, b = split (k - 1) tl in
        (x :: a, b)
  in
  split n_dims all

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

let explore ?(options = default_options) sc ~variant =
  let st = fresh_stats () in
  let visited = Hashtbl.create 8192 in
  let reference = Scenarios.reference sc ~variant in
  let stack = ref [] in
  let spare = ref None in
  let violations = ref [] in
  let capped = ref false and exhausted = ref false in
  (try
     let continue_ = ref true in
     while !continue_ do
       (match
          execute sc ~variant ~reference ~opts:options ~st ~visited ~spare
            stack
        with
       | R_violation reason, consumed ->
         let v_roots, v_choices = slice stack consumed in
         violations :=
           { v_roots; v_choices; v_reason = reason; v_shrunk = false }
           :: !violations;
         if List.length !violations >= options.max_violations then
           continue_ := false
       | (R_ok | R_aborted), _ -> ());
       if !continue_ then begin
         let more = backtrack ~visited stack in
         if not more then begin
           exhausted := true;
           continue_ := false
         end
       end
     done
   with Cap -> capped := true);
  let violations =
    let vs = List.rev !violations in
    if options.shrink then
      List.map (shrink_violation sc ~variant ~reference) vs
    else vs
  in
  {
    r_scenario = sc;
    r_variant = variant;
    r_options = options;
    r_stats = st;
    r_complete =
      !exhausted && (not !capped) && st.truncated_runs = 0
      && violations = [];
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

let stats_json st =
  J.Obj
    [
      ("runs", J.int st.runs);
      ("states", J.int st.states);
      ("transitions", J.int st.transitions);
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
