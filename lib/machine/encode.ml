exception Decode_error of string

(* Opcodes.  Keep stable: encoded images identify programs. *)
let op_nop = 0
let op_ldi = 1
let op_alu = 2
let op_alui = 3
let op_ld = 4
let op_st = 5
let op_br = 6
let op_jmp = 7
let op_jal = 8
let op_jr = 9
let op_probe = 10
let op_halt = 11
let op_wfi = 12
let op_rdtod = 13
let op_rdtmr = 14
let op_wrtmr = 15
let op_out = 16
let op_trapc = 17
let op_mfcr = 18
let op_mtcr = 19
let op_tlbw = 20
let op_rfi = 21

let alu_code = function
  | Isa.Add -> 0
  | Isa.Sub -> 1
  | Isa.Mul -> 2
  | Isa.Divu -> 3
  | Isa.Remu -> 4
  | Isa.And -> 5
  | Isa.Or -> 6
  | Isa.Xor -> 7
  | Isa.Sll -> 8
  | Isa.Srl -> 9
  | Isa.Sra -> 10
  | Isa.Slt -> 11
  | Isa.Sltu -> 12

let alu_of_code = function
  | 0 -> Isa.Add
  | 1 -> Isa.Sub
  | 2 -> Isa.Mul
  | 3 -> Isa.Divu
  | 4 -> Isa.Remu
  | 5 -> Isa.And
  | 6 -> Isa.Or
  | 7 -> Isa.Xor
  | 8 -> Isa.Sll
  | 9 -> Isa.Srl
  | 10 -> Isa.Sra
  | 11 -> Isa.Slt
  | 12 -> Isa.Sltu
  | c -> raise (Decode_error (Printf.sprintf "bad ALU sub-opcode %d" c))

let cond_code = function
  | Isa.Eq -> 0
  | Isa.Ne -> 1
  | Isa.Lt -> 2
  | Isa.Ge -> 3
  | Isa.Ltu -> 4
  | Isa.Geu -> 5

let cond_of_code = function
  | 0 -> Isa.Eq
  | 1 -> Isa.Ne
  | 2 -> Isa.Lt
  | 3 -> Isa.Ge
  | 4 -> Isa.Ltu
  | 5 -> Isa.Geu
  | c -> raise (Decode_error (Printf.sprintf "bad condition code %d" c))

let pack ~op ?(a = 0) ?(b = 0) ?(c = 0) ?(imm = 0) () =
  let low =
    op land 0xFF
    lor ((a land 0xF) lsl 8)
    lor ((b land 0xF) lsl 12)
    lor ((c land 0xF) lsl 16)
  in
  Int64.logor (Int64.of_int low)
    (Int64.shift_left (Int64.of_int (imm land 0xFFFF_FFFF)) 32)

let encode i =
  match (i : Isa.instr) with
  | Nop -> pack ~op:op_nop ()
  | Ldi (rd, v) -> pack ~op:op_ldi ~a:rd ~imm:v ()
  | Alu (aop, rd, r1, r2) ->
    pack ~op:op_alu ~a:rd ~b:r1 ~c:r2 ~imm:(alu_code aop) ()
  | Alui (aop, rd, rs, imm) ->
    pack ~op:op_alui ~a:rd ~b:rs ~c:(alu_code aop) ~imm:(Word.of_signed imm) ()
  | Ld (rd, rs, off) -> pack ~op:op_ld ~a:rd ~b:rs ~imm:(Word.of_signed off) ()
  | St (rv, rb, off) -> pack ~op:op_st ~a:rv ~b:rb ~imm:(Word.of_signed off) ()
  | Br (c, r1, r2, tgt) ->
    pack ~op:op_br ~a:r1 ~b:r2 ~c:(cond_code c) ~imm:tgt ()
  | Jmp tgt -> pack ~op:op_jmp ~imm:tgt ()
  | Jal (rd, tgt) -> pack ~op:op_jal ~a:rd ~imm:tgt ()
  | Jr rs -> pack ~op:op_jr ~a:rs ()
  | Probe rd -> pack ~op:op_probe ~a:rd ()
  | Halt -> pack ~op:op_halt ()
  | Wfi -> pack ~op:op_wfi ()
  | Rdtod rd -> pack ~op:op_rdtod ~a:rd ()
  | Rdtmr rd -> pack ~op:op_rdtmr ~a:rd ()
  | Wrtmr rs -> pack ~op:op_wrtmr ~a:rs ()
  | Out rs -> pack ~op:op_out ~a:rs ()
  | Trapc code -> pack ~op:op_trapc ~imm:code ()
  | Mfcr (rd, cr) -> pack ~op:op_mfcr ~a:rd ~c:(Isa.cr_index cr) ()
  | Mtcr (cr, rs) -> pack ~op:op_mtcr ~a:rs ~c:(Isa.cr_index cr) ()
  | Tlbw (r1, r2) -> pack ~op:op_tlbw ~a:r1 ~b:r2 ()
  | Rfi -> pack ~op:op_rfi ()

let decode w =
  let low = Int64.to_int (Int64.logand w 0xFFFF_FFFFL) in
  let op = low land 0xFF in
  let a = (low lsr 8) land 0xF in
  let b = (low lsr 12) land 0xF in
  let c = (low lsr 16) land 0xF in
  let imm = Int64.to_int (Int64.shift_right_logical w 32) land 0xFFFF_FFFF in
  let simm () =
    let v = Word.signed imm in
    if v < -32768 || v > 32767 then
      raise (Decode_error (Printf.sprintf "offset %d out of range" v))
    else v
  in
  let cr_of c =
    match Isa.cr_of_index c with
    | Some cr -> cr
    | None -> raise (Decode_error (Printf.sprintf "bad control register %d" c))
  in
  if op = op_nop then Isa.Nop
  else if op = op_ldi then Isa.Ldi (a, imm)
  else if op = op_alu then Isa.Alu (alu_of_code imm, a, b, c)
  else if op = op_alui then Isa.Alui (alu_of_code c, a, b, simm ())
  else if op = op_ld then Isa.Ld (a, b, simm ())
  else if op = op_st then Isa.St (a, b, simm ())
  else if op = op_br then Isa.Br (cond_of_code c, a, b, imm)
  else if op = op_jmp then Isa.Jmp imm
  else if op = op_jal then Isa.Jal (a, imm)
  else if op = op_jr then Isa.Jr a
  else if op = op_probe then Isa.Probe a
  else if op = op_halt then Isa.Halt
  else if op = op_wfi then Isa.Wfi
  else if op = op_rdtod then Isa.Rdtod a
  else if op = op_rdtmr then Isa.Rdtmr a
  else if op = op_wrtmr then Isa.Wrtmr a
  else if op = op_out then Isa.Out a
  else if op = op_trapc then Isa.Trapc imm
  else if op = op_mfcr then Isa.Mfcr (a, cr_of c)
  else if op = op_mtcr then Isa.Mtcr (cr_of c, a)
  else if op = op_tlbw then Isa.Tlbw (a, b)
  else if op = op_rfi then Isa.Rfi
  else raise (Decode_error (Printf.sprintf "bad opcode %d" op))

let encode_program = Array.map encode
let decode_program = Array.map decode

let program_hash code =
  Array.fold_left
    (fun h i -> Hft_sim.Fnv.int h (Int64.to_int (encode i)))
    0x2bf29ce484222325 code
