(** The decoded form of an instruction, shared by the interpreter
    ({!Cpu}) and the threaded translator ({!Translate}).

    Each operation is named by its constructor alone: the ALU operator
    and the branch condition are folded in, immediates and offsets are
    pre-masked to words, and a write to r0 decodes to no write ([Nop],
    [Jmp], [Ld0]).  Everything that is not an ordinary instruction
    keeps its {!Isa} form under [Sys]. *)

type t =
  | Nop
  | Ldi of int * int  (** rd, word *)
  | Add of int * int * int  (** rd, rs1, rs2 *)
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
  | Addi of int * int * int  (** rd, rs, word *)
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
  | Ld of int * int * int  (** rd, base, word offset *)
  | Ld0 of int * int  (** a load into r0: base, word offset *)
  | St of int * int * int  (** value, base, word offset *)
  | Beq of int * int * int  (** rs1, rs2, target *)
  | Bne of int * int * int
  | Blt of int * int * int
  | Bge of int * int * int
  | Bltu of int * int * int
  | Bgeu of int * int * int
  | Jmp of int
  | Jal of int * int  (** rd (never r0), target *)
  | Jr of int
  | Probe of int
  | Sys of Isa.instr  (** Halt, Wfi, environment, trap call, privileged *)

val decode : Isa.instr -> t
