(** Instruction-set architecture of the simulated machine.

    The machine is a small word-addressed RISC in the spirit of HP's
    PA-RISC, with exactly the features the paper's protocols depend
    on:

    - {b ordinary} instructions whose behaviour is a pure function of
      the virtual-machine state (registers + memory), satisfying the
      paper's Ordinary Instruction Assumption;
    - {b environment} instructions (time-of-day read, interval-timer
      access, wait-for-interrupt) whose behaviour depends on the
      outside world and which always transfer control to the executor
      so a hypervisor can simulate them (Environment Instruction
      Assumption);
    - {b privileged} instructions (control-register access, TLB
      insertion, return-from-interrupt) which execute directly only at
      privilege level 0 and trap otherwise — the dual-mode execution
      the paper's hypervisor relies on;
    - a {b recovery counter} decremented per completed instruction
      that traps when it becomes negative (Instruction-Stream
      Interrupt Assumption);
    - four privilege levels, with branch-and-link depositing the
      current privilege level in the low bits of the return address,
      reproducing the PA-RISC quirk discussed in section 3.1 of the
      paper.

    Code and data live in separate spaces (a Harvard organisation):
    programs are arrays of decoded instructions, data memory is an
    array of 32-bit words.  {!Encode} provides a binary format for
    whole programs. *)

type reg = int
(** Register number in [0, 15].  Register 0 is hardwired to zero. *)

val num_regs : int

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
  | Slt   (** signed set-on-less-than *)
  | Sltu  (** unsigned set-on-less-than *)

type cond = Eq | Ne | Lt | Ge | Ltu | Geu

(** Control registers. *)
type cr =
  | Cr_status   (** bits 0-1 privilege level, bit 2 interrupt-enable,
                    bit 3 mmu-enable, bit 4 recovery-counter-enable *)
  | Cr_epc      (** pc saved at trap/interrupt delivery *)
  | Cr_istatus  (** status saved at trap/interrupt delivery *)
  | Cr_cause    (** cause code of the last trap/interrupt *)
  | Cr_badvaddr (** faulting virtual address for TLB/protection traps *)
  | Cr_ivec     (** code address of the trap/interrupt vector *)
  | Cr_rc       (** recovery counter *)
  | Cr_scratch0
  | Cr_scratch1

val cr_index : cr -> int
val cr_of_index : int -> cr option
val num_crs : int

type instr =
  (* ordinary *)
  | Nop
  | Ldi of reg * Word.t          (** rd <- 32-bit immediate *)
  | Alu of alu_op * reg * reg * reg  (** rd <- rs1 op rs2 *)
  | Alui of alu_op * reg * reg * int (** rd <- rs op sign-extended imm16 *)
  | Ld of reg * reg * int        (** rd <- mem[rs + off] *)
  | St of reg * reg * int        (** mem[rbase + off] <- rv;
                                     [St (rv, rbase, off)] *)
  | Br of cond * reg * reg * int (** conditional branch to absolute
                                     code address *)
  | Jmp of int
  | Jal of reg * int             (** rd <- ((pc+1) << 2) | privilege;
                                     the PA-RISC branch-and-link quirk *)
  | Jr of reg                    (** pc <- rs >> 2 *)
  | Probe of reg                 (** rd <- current privilege level;
                                     ordinary, reveals virtualization *)
  (* environment *)
  | Halt
  | Wfi                          (** wait-for-interrupt: relinquish the
                                     processor until the executor
                                     resumes it *)
  | Rdtod of reg                 (** rd <- time-of-day clock, microseconds *)
  | Rdtmr of reg                 (** rd <- interval timer, remaining us *)
  | Wrtmr of reg                 (** interval timer <- rs microseconds;
                                     0 cancels *)
  | Out of reg                   (** console output of the low byte of rs *)
  (* traps into the kernel *)
  | Trapc of int                 (** trap call (syscall) with an 8-bit code *)
  (* privileged *)
  | Mfcr of reg * cr
  | Mtcr of cr * reg
  | Tlbw of reg * reg            (** TLB insert: vpage in rs1, entry
                                     word in rs2 (see {!Tlb.entry_word}) *)
  | Rfi                          (** pc <- epc, status <- istatus *)

(** Behavioural class of an instruction, per the paper's partition. *)
type klass = Ordinary | Environment | Privileged | Trap_call

val classify : instr -> klass

val is_privileged : instr -> bool
val is_environment : instr -> bool

(* Status-register bit layout. *)

val status_priv : Word.t -> int
val status_with_priv : Word.t -> int -> Word.t
val status_int_enable : Word.t -> bool
val status_with_int_enable : Word.t -> bool -> Word.t
val status_mmu_enable : Word.t -> bool
val status_with_mmu_enable : Word.t -> bool -> Word.t
val status_rc_enable : Word.t -> bool
val status_with_rc_enable : Word.t -> bool -> Word.t

(** Trap/interrupt cause codes stored in {!Cr_cause}. *)
module Cause : sig
  val interrupt : int
  val syscall : int
  val tlb_miss : int
  val protection : int
  val privilege : int
  val illegal : int
  val pp : Format.formatter -> int -> unit
end

val pp_cr : Format.formatter -> cr -> unit
val pp_alu_op : Format.formatter -> alu_op -> unit
val pp : Format.formatter -> instr -> unit
(** Assembly-style rendering, e.g. [add r3, r1, r2]. *)

val equal : instr -> instr -> bool
