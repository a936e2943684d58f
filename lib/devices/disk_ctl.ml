(* Register offsets relative to the disk MMIO base; these mirror
   Hft_guest.Layout but are defined independently so the devices
   library does not depend on the guest. *)
let base = 0xF0000
let reg_cmd = 0
let reg_block = 1
let reg_dma = 2
let reg_status = 3
let reg_pad = 4

type doorbell = { cmd : int; block : int; dma : int }

type t = {
  mutable r_block : int;
  mutable r_dma : int;
  mutable r_status : int;
  mutable r_pad : int;
}

let create () = { r_block = 0; r_dma = 0; r_status = 0; r_pad = 0 }

let read t ~paddr =
  match paddr - base with
  | n when n = reg_status -> t.r_status
  | n when n = reg_block -> t.r_block
  | n when n = reg_dma -> t.r_dma
  | n when n = reg_pad -> t.r_pad
  | _ -> 0

let is_doorbell ~paddr = paddr - base = reg_cmd

let write t ~paddr ~value =
  match paddr - base with
  | n when n = reg_cmd -> invalid_arg "Disk_ctl.write: the doorbell"
  | n when n = reg_block -> t.r_block <- value
  | n when n = reg_dma -> t.r_dma <- value
  | n when n = reg_pad -> t.r_pad <- value
  | _ -> ()

let ring t ~value = { cmd = value; block = t.r_block; dma = t.r_dma }

let set_status t s = t.r_status <- s

let status t = t.r_status

let save t = { t with r_block = t.r_block }

let copy_state_from dst src =
  dst.r_block <- src.r_block;
  dst.r_dma <- src.r_dma;
  dst.r_status <- src.r_status;
  dst.r_pad <- src.r_pad

let fingerprint h t =
  List.fold_left Hft_sim.Fnv.int h [ t.r_block; t.r_dma; t.r_status; t.r_pad ]
