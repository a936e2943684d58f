type reg = int

let num_regs = 16

type alu_op =
  | Add
  | Sub
  | Mul
  | Divu
  | Remu
  | And
  | Or
  | Xor
  | Sll
  | Srl
  | Sra
  | Slt
  | Sltu

type cond = Eq | Ne | Lt | Ge | Ltu | Geu

type cr =
  | Cr_status
  | Cr_epc
  | Cr_istatus
  | Cr_cause
  | Cr_badvaddr
  | Cr_ivec
  | Cr_rc
  | Cr_scratch0
  | Cr_scratch1

let cr_index = function
  | Cr_status -> 0
  | Cr_epc -> 1
  | Cr_istatus -> 2
  | Cr_cause -> 3
  | Cr_badvaddr -> 4
  | Cr_ivec -> 5
  | Cr_rc -> 6
  | Cr_scratch0 -> 7
  | Cr_scratch1 -> 8

let cr_of_index = function
  | 0 -> Some Cr_status
  | 1 -> Some Cr_epc
  | 2 -> Some Cr_istatus
  | 3 -> Some Cr_cause
  | 4 -> Some Cr_badvaddr
  | 5 -> Some Cr_ivec
  | 6 -> Some Cr_rc
  | 7 -> Some Cr_scratch0
  | 8 -> Some Cr_scratch1
  | _ -> None

let num_crs = 9

type instr =
  | Nop
  | Ldi of reg * Word.t
  | Alu of alu_op * reg * reg * reg
  | Alui of alu_op * reg * reg * int
  | Ld of reg * reg * int
  | St of reg * reg * int
  | Br of cond * reg * reg * int
  | Jmp of int
  | Jal of reg * int
  | Jr of reg
  | Probe of reg
  | Halt
  | Wfi
  | Rdtod of reg
  | Rdtmr of reg
  | Wrtmr of reg
  | Out of reg
  | Trapc of int
  | Mfcr of reg * cr
  | Mtcr of cr * reg
  | Tlbw of reg * reg
  | Rfi

type klass = Ordinary | Environment | Privileged | Trap_call

let classify = function
  | Nop | Ldi _ | Alu _ | Alui _ | Ld _ | St _ | Br _ | Jmp _ | Jal _ | Jr _
  | Probe _ ->
    Ordinary
  | Halt | Wfi | Rdtod _ | Rdtmr _ | Wrtmr _ | Out _ -> Environment
  | Trapc _ -> Trap_call
  | Mfcr _ | Mtcr _ | Tlbw _ | Rfi -> Privileged

let is_privileged i = classify i = Privileged
let is_environment i = classify i = Environment

(* Status bits: [1:0] privilege, [2] interrupt enable, [3] mmu enable,
   [4] recovery-counter enable. *)

let status_priv s = s land 3
let status_with_priv s p = (s land lnot 3) lor (p land 3)
let status_int_enable s = s land 4 <> 0
let status_with_int_enable s b = if b then s lor 4 else s land lnot 4 land 0xFFFF_FFFF
let status_mmu_enable s = s land 8 <> 0
let status_with_mmu_enable s b = if b then s lor 8 else s land lnot 8 land 0xFFFF_FFFF
let status_rc_enable s = s land 16 <> 0
let status_with_rc_enable s b = if b then s lor 16 else s land lnot 16 land 0xFFFF_FFFF

module Cause = struct
  let interrupt = 1
  let syscall = 2
  let tlb_miss = 3
  let protection = 4
  let privilege = 5
  let illegal = 6

  let pp fmt c =
    let name =
      match c with
      | 1 -> "interrupt"
      | 2 -> "syscall"
      | 3 -> "tlb-miss"
      | 4 -> "protection"
      | 5 -> "privilege"
      | 6 -> "illegal"
      | _ -> "unknown"
    in
    Format.fprintf fmt "%s(%d)" name c
end

let cr_name = function
  | Cr_status -> "status"
  | Cr_epc -> "epc"
  | Cr_istatus -> "istatus"
  | Cr_cause -> "cause"
  | Cr_badvaddr -> "badvaddr"
  | Cr_ivec -> "ivec"
  | Cr_rc -> "rc"
  | Cr_scratch0 -> "scratch0"
  | Cr_scratch1 -> "scratch1"

let pp_cr fmt cr = Format.pp_print_string fmt (cr_name cr)

let alu_op_name = function
  | Add -> "add"
  | Sub -> "sub"
  | Mul -> "mul"
  | Divu -> "divu"
  | Remu -> "remu"
  | And -> "and"
  | Or -> "or"
  | Xor -> "xor"
  | Sll -> "sll"
  | Srl -> "srl"
  | Sra -> "sra"
  | Slt -> "slt"
  | Sltu -> "sltu"

let pp_alu_op fmt op = Format.pp_print_string fmt (alu_op_name op)

let cond_name = function
  | Eq -> "beq"
  | Ne -> "bne"
  | Lt -> "blt"
  | Ge -> "bge"
  | Ltu -> "bltu"
  | Geu -> "bgeu"

let pp fmt = function
  | Nop -> Format.fprintf fmt "nop"
  | Ldi (rd, v) -> Format.fprintf fmt "ldi r%d, %a" rd Word.pp v
  | Alu (op, rd, r1, r2) ->
    Format.fprintf fmt "%s r%d, r%d, r%d" (alu_op_name op) rd r1 r2
  | Alui (op, rd, rs, imm) ->
    Format.fprintf fmt "%si r%d, r%d, %d" (alu_op_name op) rd rs imm
  | Ld (rd, rs, off) -> Format.fprintf fmt "ld r%d, %d(r%d)" rd off rs
  | St (rv, rb, off) -> Format.fprintf fmt "st r%d, %d(r%d)" rv off rb
  | Br (c, r1, r2, tgt) ->
    Format.fprintf fmt "%s r%d, r%d, %d" (cond_name c) r1 r2 tgt
  | Jmp tgt -> Format.fprintf fmt "jmp %d" tgt
  | Jal (rd, tgt) -> Format.fprintf fmt "jal r%d, %d" rd tgt
  | Jr rs -> Format.fprintf fmt "jr r%d" rs
  | Probe rd -> Format.fprintf fmt "probe r%d" rd
  | Halt -> Format.fprintf fmt "halt"
  | Wfi -> Format.fprintf fmt "wfi"
  | Rdtod rd -> Format.fprintf fmt "rdtod r%d" rd
  | Rdtmr rd -> Format.fprintf fmt "rdtmr r%d" rd
  | Wrtmr rs -> Format.fprintf fmt "wrtmr r%d" rs
  | Out rs -> Format.fprintf fmt "out r%d" rs
  | Trapc code -> Format.fprintf fmt "trapc %d" code
  | Mfcr (rd, cr) -> Format.fprintf fmt "mfcr r%d, %s" rd (cr_name cr)
  | Mtcr (cr, rs) -> Format.fprintf fmt "mtcr %s, r%d" (cr_name cr) rs
  | Tlbw (r1, r2) -> Format.fprintf fmt "tlbw r%d, r%d" r1 r2
  | Rfi -> Format.fprintf fmt "rfi"

let equal (a : instr) (b : instr) = a = b
