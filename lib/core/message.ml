type relayed_completion = {
  status : int;
  dma : (int * Hft_machine.Word.t array) option;
}

type body =
  | Intr of { epoch : int; completion : relayed_completion }
  | Env_val of { epoch : int; idx : int; value : Hft_machine.Word.t }
  | Tme of { epoch : int; tod_us : Hft_machine.Word.t; timer_deadline_us : int }
  | Epoch_end of { epoch : int }
  | Ack of { upto : int }
  | Snapshot_offer of { epoch : int; code_hash : int }
  | Snapshot_done of { epoch : int }
  | Resync of { upto : int }

type t = { seq : int; dseq : int; checksum : int; body : body }

(* ---------- checksum ---------- *)

let fnv_offset = 0x3bf29ce484222325
let mix = Hft_sim.Fnv.int

let completion_digest h completion =
  let h = mix h completion.status in
  match completion.dma with
  | None -> mix h 0
  | Some (addr, data) ->
    let h = mix (mix h addr) (Array.length data) in
    Array.fold_left mix h data

let body_checksum h body =
  match body with
  | Intr { epoch; completion } ->
    completion_digest (mix (mix h 1) epoch) completion
  | Env_val { epoch; idx; value } -> mix (mix (mix (mix h 2) epoch) idx) value
  | Tme { epoch; tod_us; timer_deadline_us } ->
    mix (mix (mix (mix h 3) epoch) tod_us) timer_deadline_us
  | Epoch_end { epoch } -> mix (mix h 4) epoch
  | Ack { upto } -> mix (mix h 5) upto
  | Snapshot_offer { epoch; code_hash } -> mix (mix (mix h 6) epoch) code_hash
  | Snapshot_done { epoch } -> mix (mix h 7) epoch
  | Resync { upto } -> mix (mix h 9) upto

let checksum_of ~seq ~dseq body =
  body_checksum (mix (mix fnv_offset seq) dseq) body

let make ~seq ?(dseq = -1) body =
  { seq; dseq; checksum = checksum_of ~seq ~dseq body; body }

let body_kind = function
  | Intr _ -> "intr"
  | Env_val _ -> "env"
  | Tme _ -> "tme"
  | Epoch_end _ -> "end"
  | Ack _ -> "ack"
  | Snapshot_offer _ -> "snap-offer"
  | Snapshot_done _ -> "snap-done"
  | Resync _ -> "resync"

let reliable t = t.dseq >= 0

let valid t = t.checksum = checksum_of ~seq:t.seq ~dseq:t.dseq t.body

(* The stored checksum already digests seq, dseq and the whole body;
   folding it once more with the header fields keeps corrupted copies
   (whose stored checksum was damaged) distinct from intact ones. *)
let hash t = mix (mix (mix fnv_offset t.seq) t.dseq) t.checksum

let corrupt ~flip t =
  (* Simulated payload damage: some bits of the frame are wrong on the
     wire.  Damaging the stored checksum (never with a zero mask) is
     the simplest model that is always *detectable* — flipping body
     bits instead would merely reach the same mismatch through the
     other operand of the comparison. *)
  { t with checksum = t.checksum lxor (flip lor 1) land Hft_sim.Fnv.mask }

(* ---------- wire size ---------- *)

(* The 24-byte header carries the wire sequence number, the reliable
   stream sequence number and the checksum. *)
let header_bytes = 24

let body_bytes ?(snapshot_bytes = 0) body =
  header_bytes
  +
  match body with
  | Intr { completion; _ } -> (
    16
    + match completion.dma with None -> 0 | Some (_, data) -> 8 + (4 * Array.length data))
  | Env_val _ -> 16
  | Tme _ -> 16
  | Epoch_end _ -> 8
  | Ack _ -> 8
  | Snapshot_offer _ -> 16 + snapshot_bytes
  | Snapshot_done _ -> 8
  | Resync _ -> 8

let bytes ?snapshot_bytes t = body_bytes ?snapshot_bytes t.body

let pp fmt t =
  match t.body with
  | Intr { epoch; completion } ->
    Format.fprintf fmt "[#%d intr epoch=%d status=%d%s]" t.seq epoch
      completion.status
      (match completion.dma with
      | None -> ""
      | Some (addr, data) ->
        Printf.sprintf " dma@0x%x[%d]" addr (Array.length data))
  | Env_val { epoch; idx; value } ->
    Format.fprintf fmt "[#%d env epoch=%d idx=%d value=%d]" t.seq epoch idx value
  | Tme { epoch; tod_us; timer_deadline_us } ->
    Format.fprintf fmt "[#%d tme epoch=%d tod=%dus deadline=%d]" t.seq epoch
      tod_us timer_deadline_us
  | Epoch_end { epoch } -> Format.fprintf fmt "[#%d end epoch=%d]" t.seq epoch
  | Ack { upto } -> Format.fprintf fmt "[#%d ack upto=%d]" t.seq upto
  | Snapshot_offer { epoch; _ } ->
    Format.fprintf fmt "[#%d snapshot-offer epoch=%d]" t.seq epoch
  | Snapshot_done { epoch } ->
    Format.fprintf fmt "[#%d snapshot-done epoch=%d]" t.seq epoch
  | Resync { upto } ->
    Format.fprintf fmt "[#%d resync upto=%d]" t.seq upto
