type t =
  | Nop
  | Ldi of int * int
  | Add of int * int * int
  | Sub of int * int * int
  | Mul of int * int * int
  | Divu of int * int * int
  | Remu of int * int * int
  | And of int * int * int
  | Or of int * int * int
  | Xor of int * int * int
  | Sll of int * int * int
  | Srl of int * int * int
  | Sra of int * int * int
  | Slt of int * int * int
  | Sltu of int * int * int
  | Addi of int * int * int
  | Subi of int * int * int
  | Muli of int * int * int
  | Divui of int * int * int
  | Remui of int * int * int
  | Andi of int * int * int
  | Ori of int * int * int
  | Xori of int * int * int
  | Slli of int * int * int
  | Srli of int * int * int
  | Srai of int * int * int
  | Slti of int * int * int
  | Sltui of int * int * int
  | Ld of int * int * int
  | Ld0 of int * int
  | St of int * int * int
  | Beq of int * int * int
  | Bne of int * int * int
  | Blt of int * int * int
  | Bge of int * int * int
  | Bltu of int * int * int
  | Bgeu of int * int * int
  | Jmp of int
  | Jal of int * int
  | Jr of int
  | Probe of int
  | Sys of Isa.instr

let decode (i : Isa.instr) =
  match i with
  | Nop | Ldi (0, _) | Alu (_, 0, _, _) | Alui (_, 0, _, _) | Probe 0 -> Nop
  | Ldi (rd, v) -> Ldi (rd, Word.mask v)
  | Alu (op, rd, a, b) -> (
    match op with
    | Add -> Add (rd, a, b)
    | Sub -> Sub (rd, a, b)
    | Mul -> Mul (rd, a, b)
    | Divu -> Divu (rd, a, b)
    | Remu -> Remu (rd, a, b)
    | And -> And (rd, a, b)
    | Or -> Or (rd, a, b)
    | Xor -> Xor (rd, a, b)
    | Sll -> Sll (rd, a, b)
    | Srl -> Srl (rd, a, b)
    | Sra -> Sra (rd, a, b)
    | Slt -> Slt (rd, a, b)
    | Sltu -> Sltu (rd, a, b))
  | Alui (op, rd, a, imm) -> (
    let k = Word.of_signed imm in
    match op with
    | Add -> Addi (rd, a, k)
    | Sub -> Subi (rd, a, k)
    | Mul -> Muli (rd, a, k)
    | Divu -> Divui (rd, a, k)
    | Remu -> Remui (rd, a, k)
    | And -> Andi (rd, a, k)
    | Or -> Ori (rd, a, k)
    | Xor -> Xori (rd, a, k)
    | Sll -> Slli (rd, a, k)
    | Srl -> Srli (rd, a, k)
    | Sra -> Srai (rd, a, k)
    | Slt -> Slti (rd, a, k)
    | Sltu -> Sltui (rd, a, k))
  | Ld (0, rs, off) -> Ld0 (rs, Word.of_signed off)
  | Ld (rd, rs, off) -> Ld (rd, rs, Word.of_signed off)
  | St (rv, rb, off) -> St (rv, rb, Word.of_signed off)
  | Br (c, a, b, tgt) -> (
    match c with
    | Eq -> Beq (a, b, tgt)
    | Ne -> Bne (a, b, tgt)
    | Lt -> Blt (a, b, tgt)
    | Ge -> Bge (a, b, tgt)
    | Ltu -> Bltu (a, b, tgt)
    | Geu -> Bgeu (a, b, tgt))
  | Jmp tgt | Jal (0, tgt) -> Jmp tgt
  | Jal (rd, tgt) -> Jal (rd, tgt)
  | Jr rs -> Jr rs
  | Probe rd -> Probe rd
  | Halt | Wfi | Rdtod _ | Rdtmr _ | Wrtmr _ | Out _ | Trapc _ | Mfcr _
  | Mtcr _ | Tlbw _ | Rfi ->
    Sys i
