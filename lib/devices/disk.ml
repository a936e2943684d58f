open Hft_sim

type status = Ok | Uncertain

type op = Read of { block : int } | Write of { block : int; data : Hft_machine.Word.t array }

type completion = {
  op_id : int;
  port : int;
  op : op;
  status : status;
  performed : bool;
  data : Hft_machine.Word.t array option;
}

type params = {
  blocks : int;
  block_words : int;
  read_latency : Time.t;
  write_latency : Time.t;
  fault_rate : float;
  fault_performs : float;
}

let default_params =
  {
    blocks = 256;
    block_words = 2048;
    read_latency = Time.of_us 24_200;
    write_latency = Time.of_ms 26;
    fault_rate = 0.0;
    fault_performs = 0.5;
  }

type log_entry = {
  seq : int;
  time : Time.t;
  port : int;
  op_id : int;
  block : int;
  is_write : bool;
  status : status;
  performed : bool;
  content_hash : int;
}

let content_basis = 0x1ff29ce484222325

let hash_content (data : int array) =
  let h = ref content_basis in
  for i = 0 to Array.length data - 1 do
    h := Fnv.int !h data.(i)
  done;
  !h

(* [p_hash] is a write's [hash_content], taken once at submission for
   the log, the storage hash and the fingerprint; 0 for a read. *)
type pending = {
  p_port : int;
  p_op : op;
  p_id : int;
  p_hash : int;
  p_done : completion -> unit;
}

(* A completion whose interrupt is masked because the submitting
   port's hypervisor is down: the device performed (and logged) the
   operation, but delivery waits in the controller ring until the
   hypervisor's microreboot drains it.  [k_hash] is its [p_hash]. *)
type parked = {
  k_done : completion -> unit;
  k_completion : completion;
  k_hash : int;
}

module IM = Map.Make (Int)

(* A written block: its words and their [hash_content].  A save shares
   the record, so the hash travels with the words it describes. *)
type block = { words : Hft_machine.Word.t array; hash : int }

(* marks a block never written since [create] or the last [fill]: its
   contents are [pristine] *)
let unwritten = { words = [||]; hash = 0 }

type t = {
  engine : Engine.t;
  prm : params;
  rng : Rng.t;
  obs : Hft_obs.Recorder.t;
  storage : block array;
  owned : bool array;
      (* the block's array was allocated since the last [save] or
         [restore], so no saved state shares it and a write may go in
         place *)
  mutable filled : bool;
  mutable queue : pending list; (* oldest first *)
  mutable deferred : parked list IM.t;
      (* port -> parked completions, newest first; a port bound here
         has its completion interrupts masked *)
  mutable busy_ : bool;
  mutable next_op_id : int;
  mutable next_log_seq : int;
  mutable log_rev : log_entry list;
  mutable storage_hash_ : int;
      (* xor over written blocks of their digest delta against the
         pristine image, so a fresh or freshly filled disk hashes to 0 *)
  pristine_hashes : int array;
      (* [hash_content] of block [b]'s pristine contents at [2b] (zeros)
         and [2b + 1] (the fill pattern), taken on first need; -1 until
         then *)
}

(* Position-dependent per-block digest, from the block's content hash;
   the whole-storage hash is maintained incrementally at each write. *)
let block_hash b content_hash = Fnv.int (Fnv.int Fnv.basis b) content_hash

let create ~engine ?rng ?(obs = Hft_obs.Recorder.null) prm =
  if prm.blocks <= 0 || prm.block_words <= 0 then
    invalid_arg "Disk.create: bad geometry";
  let rng = match rng with Some r -> r | None -> Rng.create 0 in
  {
    engine;
    prm;
    rng;
    obs;
    storage = Array.make prm.blocks unwritten;
    owned = Array.make prm.blocks true;
    filled = false;
    queue = [];
    deferred = IM.empty;
    busy_ = false;
    next_op_id = 0;
    next_log_seq = 0;
    log_rev = [];
    storage_hash_ = 0;
    pristine_hashes = Array.make (2 * prm.blocks) (-1);
  }

let params t = t.prm

let check_block t block =
  if block < 0 || block >= t.prm.blocks then
    invalid_arg (Printf.sprintf "Disk: bad block %d" block)

let busy t = t.busy_
let queue_depth t = List.length t.queue + if t.busy_ then 1 else 0

let pattern block i = Hft_machine.Word.mask ((block * 0x01000193) + i)

(* Blocks are built with [Array.make] and typed stores: [Array.init]
   and [Array.copy] of a block past the minor-heap limit pay a write
   barrier per word. *)
let pristine t block =
  let data = Array.make t.prm.block_words 0 in
  if t.filled then
    for i = 0 to t.prm.block_words - 1 do
      data.(i) <- pattern block i
    done;
  data

(* [hash_content (pristine t block)], folded from the pattern without
   building the block *)
let pristine_hash t block =
  let k = (2 * block) + Bool.to_int t.filled in
  let h = t.pristine_hashes.(k) in
  if h >= 0 then h
  else begin
    let h = ref content_basis in
    for i = 0 to t.prm.block_words - 1 do
      h := Fnv.int !h (if t.filled then pattern block i else 0)
    done;
    t.pristine_hashes.(k) <- !h;
    !h
  end

let fill t =
  Array.fill t.storage 0 t.prm.blocks unwritten;
  t.filled <- true;
  t.storage_hash_ <- 0

let read_block_now t block =
  check_block t block;
  let b = t.storage.(block) in
  if b == unwritten then pristine t block
  else begin
    let copy = Array.make t.prm.block_words 0 in
    Hft_machine.Memory.blit_words b.words 0 copy 0 t.prm.block_words;
    copy
  end

(* [hash] is [hash_content data].  A block a save shares is replaced
   rather than written. *)
let store t block data ~hash =
  let old = t.storage.(block) in
  let first = old == unwritten in
  let words =
    if (not first) && t.owned.(block) then old.words
    else Array.make t.prm.block_words 0
  in
  Hft_machine.Memory.blit_words data 0 words 0 t.prm.block_words;
  t.storage.(block) <- { words; hash };
  t.owned.(block) <- true;
  let old_hash = if first then pristine_hash t block else old.hash in
  t.storage_hash_ <-
    t.storage_hash_ lxor block_hash block old_hash lxor block_hash block hash

let write_block_now t block data =
  check_block t block;
  if Array.length data <> t.prm.block_words then
    invalid_arg "Disk.write_block_now: wrong block size";
  store t block data ~hash:(hash_content data)

let op_block = function Read { block } -> block | Write { block; _ } -> block
let op_is_write = function Read _ -> false | Write _ -> true

let log t ~port ~op_id ~op ~content_hash ~status ~performed =
  let entry =
    {
      seq = t.next_log_seq;
      time = Engine.now t.engine;
      port;
      op_id;
      block = op_block op;
      is_write = op_is_write op;
      status;
      performed;
      content_hash;
    }
  in
  t.next_log_seq <- t.next_log_seq + 1;
  t.log_rev <- entry :: t.log_rev

let rec start_next t =
  match t.queue with
  | [] -> t.busy_ <- false
  | p :: rest ->
    t.queue <- rest;
    t.busy_ <- true;
    let latency =
      match p.p_op with
      | Read _ -> t.prm.read_latency
      | Write _ -> t.prm.write_latency
    in
    ignore
      (Engine.after t.engine ~label:"disk complete" latency (fun () ->
           complete t p))

and complete t p =
  let uncertain = Rng.chance t.rng t.prm.fault_rate in
  let performed = (not uncertain) || Rng.chance t.rng t.prm.fault_performs in
  let status = if uncertain then Uncertain else Ok in
  let data =
    match p.p_op with
    | Write { block; data } ->
      if performed then store t block data ~hash:p.p_hash;
      None
    | Read { block } ->
      if performed && not uncertain then Some (read_block_now t block)
      else None
  in
  log t ~port:p.p_port ~op_id:p.p_id ~op:p.p_op ~content_hash:p.p_hash
    ~status ~performed;
  if Hft_obs.Recorder.enabled t.obs then
    Hft_obs.Recorder.emit t.obs ~time:(Engine.now t.engine) ~source:"disk"
      (Hft_obs.Event.Io_complete
         {
           op_id = p.p_id;
           port = p.p_port;
           block = op_block p.p_op;
           write = op_is_write p.p_op;
           uncertain = (status = Uncertain);
         });
  let c =
    { op_id = p.p_id; port = p.p_port; op = p.p_op; status; performed; data }
  in
  (match IM.find_opt p.p_port t.deferred with
  | Some parked ->
    t.deferred <-
      IM.add p.p_port
        ({ k_done = p.p_done; k_completion = c; k_hash = p.p_hash } :: parked)
        t.deferred
  | None -> p.p_done c);
  start_next t

let submit t ~port op ~on_complete =
  (match op with
  | Read { block } -> check_block t block
  | Write { block; data } ->
    check_block t block;
    if Array.length data <> t.prm.block_words then
      invalid_arg "Disk.submit: wrong block size");
  let id = t.next_op_id in
  t.next_op_id <- id + 1;
  let p_hash =
    match op with Write { data; _ } -> hash_content data | Read _ -> 0
  in
  t.queue <-
    t.queue
    @ [ { p_port = port; p_op = op; p_id = id; p_hash; p_done = on_complete } ];
  if not t.busy_ then start_next t;
  id

let defer_port t ~port =
  if not (IM.mem port t.deferred) then t.deferred <- IM.add port [] t.deferred

let release_port t ~port =
  match IM.find_opt port t.deferred with
  | None -> 0
  | Some parked ->
    t.deferred <- IM.remove port t.deferred;
    (* oldest first, the order the interrupts would have arrived in *)
    let parked = List.rev parked in
    List.iter (fun k -> k.k_done k.k_completion) parked;
    List.length parked

let drop_port t ~port =
  match IM.find_opt port t.deferred with
  | None -> 0
  | Some parked ->
    t.deferred <- IM.remove port t.deferred;
    List.length parked

let storage_hash t = t.storage_hash_

(* Blocks are shared with the save, copy-on-write; the queue, the
   parked table and the log are immutable values, held by reference. *)
type saved = {
  sv_storage : block array;
  sv_filled : bool;
  sv_queue : pending list;
  sv_deferred : parked list IM.t;
  sv_busy : bool;
  sv_next_op_id : int;
  sv_next_log_seq : int;
  sv_log_rev : log_entry list;
  sv_storage_hash : int;
  sv_rng : Rng.saved;
}

(* [like]'s storage array is shared while it holds the same blocks. *)
let save ?like t =
  Array.fill t.owned 0 t.prm.blocks false;
  {
    sv_storage =
      (match like with
      | Some l when Array.for_all2 ( == ) l.sv_storage t.storage -> l.sv_storage
      | _ -> Array.copy t.storage);
    sv_filled = t.filled;
    sv_queue = t.queue;
    sv_deferred = t.deferred;
    sv_busy = t.busy_;
    sv_next_op_id = t.next_op_id;
    sv_next_log_seq = t.next_log_seq;
    sv_log_rev = t.log_rev;
    sv_storage_hash = t.storage_hash_;
    sv_rng = Rng.save t.rng;
  }

let restore t s =
  Array.blit s.sv_storage 0 t.storage 0 t.prm.blocks;
  Array.fill t.owned 0 t.prm.blocks false;
  t.filled <- s.sv_filled;
  t.queue <- s.sv_queue;
  t.deferred <- s.sv_deferred;
  t.busy_ <- s.sv_busy;
  t.next_op_id <- s.sv_next_op_id;
  t.next_log_seq <- s.sv_next_log_seq;
  t.log_rev <- s.sv_log_rev;
  t.storage_hash_ <- s.sv_storage_hash;
  Rng.restore t.rng s.sv_rng

let fingerprint t =
  let mix = Fnv.int and flag = Fnv.bool in
  let op h o hash =
    match o with
    | Read { block } -> mix (mix h 0) block
    | Write { block; _ } -> mix (mix (mix h 1) block) hash
  in
  let status h s = mix h (match s with Ok -> 0 | Uncertain -> 1) in
  let h = flag (flag (mix Fnv.basis t.storage_hash_) t.filled) t.busy_ in
  let h = Fnv.list (fun h p -> op (mix h p.p_port) p.p_op p.p_hash) h t.queue in
  (* Log entries without their seq, op_id and completion times: those
     encode when things happened, not what the environment observed. *)
  let h =
    Fnv.list
      (fun h e ->
        let h = flag (mix (mix h e.port) e.block) e.is_write in
        mix (flag (status h e.status) e.performed) e.content_hash)
      h t.log_rev
  in
  (* Parked completions are protocol-visible state: two global states
     that differ only in what waits in the controller ring must not
     fingerprint alike. *)
  IM.fold
    (fun port parked h ->
      Fnv.list
        (fun h { k_completion = c; k_hash; _ } ->
          flag (status (op h c.op k_hash) c.status) c.performed)
        (mix h port) parked)
    t.deferred
    (mix h (IM.cardinal t.deferred))

module Log = struct
  type entry = log_entry = {
    seq : int;
    time : Time.t;
    port : int;
    op_id : int;
    block : int;
    is_write : bool;
    status : status;
    performed : bool;
    content_hash : int;
  }

  let entries t = List.rev t.log_rev

  let writes_to_block t block =
    List.filter (fun e -> e.is_write && e.block = block) (entries t)

  (* A single-processor-consistent history:
     1. The port sequence never returns to a port it has switched away
        from (one failover hands the device to the new primary for
        good).
     2. A performed write may be repeated only as a retry: the
        repetition must be adjacent among that block's performed
        writes, and the earlier attempt must either have completed
        Uncertain or the repetition must come from a different port
        (the completion interrupt died with the old primary). *)
  let check_single_processor_consistency t ~errors =
    let es = entries t in
    let ok = ref true in
    let fail fmt = Format.kasprintf (fun s -> ok := false; errors s) fmt in
    (* 1: port runs *)
    let seen_done = Hashtbl.create 4 in
    let current = ref None in
    List.iter
      (fun e ->
        match !current with
        | Some p when p = e.port -> ()
        | Some p ->
          if Hashtbl.mem seen_done e.port then
            fail "port %d reappears after failover (op #%d)" e.port e.op_id;
          Hashtbl.replace seen_done p ();
          current := Some e.port
        | None -> current := Some e.port)
      es;
    (* 2: write repetitions *)
    let by_block = Hashtbl.create 16 in
    List.iter
      (fun e ->
        if e.is_write then
          Hashtbl.replace by_block e.block
            (e :: (try Hashtbl.find by_block e.block with Not_found -> [])))
      es;
    Hashtbl.iter
      (fun block entries_rev ->
        let performed =
          List.rev entries_rev |> List.filter (fun e -> e.performed)
        in
        let rec scan = function
          | a :: (b :: _ as rest) ->
            if a.content_hash = b.content_hash then begin
              (* a repetition: must be a legal retry *)
              if not (a.status = Uncertain || a.port <> b.port) then
                fail
                  "block %d: duplicate performed write (ops #%d, #%d) with no \
                   uncertain completion or failover to justify the retry"
                  block a.op_id b.op_id
            end;
            scan rest
          | _ -> ()
        in
        scan performed;
        (* equal contents must be adjacent: a write from a stale source
           reappearing later would corrupt the block *)
        let rec non_adjacent = function
          | a :: (_ :: _ as rest) ->
            List.iteri
              (fun i b ->
                if i > 0 && a.content_hash = b.content_hash then
                  fail
                    "block %d: performed write #%d repeats earlier content of \
                     #%d non-adjacently"
                    block b.op_id a.op_id)
              rest;
            non_adjacent rest
          | _ -> ()
        in
        non_adjacent performed)
      by_block;
    !ok
end
