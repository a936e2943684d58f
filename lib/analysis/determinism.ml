open Hft_machine

let checker = "determinism"
let all_regs = (1 lsl Isa.num_regs) - 1

(* Must-initialized registers as a bitmask: join is intersection
   (initialized on {e every} path), writes add bits. *)
module Init = struct
  type state = int

  let equal = Int.equal
  let join = ( land )

  let def (i : Isa.instr) =
    match i with
    | Isa.Ldi (rd, _)
    | Isa.Alu (_, rd, _, _)
    | Isa.Alui (_, rd, _, _)
    | Isa.Ld (rd, _, _)
    | Isa.Jal (rd, _)
    | Isa.Probe rd
    | Isa.Mfcr (rd, _)
    | Isa.Rdtod rd
    | Isa.Rdtmr rd ->
      Some rd
    | _ -> None

  let transfer _addr i s =
    match def i with Some rd -> s lor (1 lsl rd) | None -> s
end

let def = Init.def

let uses (i : Isa.instr) =
  match i with
  | Isa.Alu (_, _, r1, r2) | Isa.Br (_, r1, r2, _) | Isa.Tlbw (r1, r2) ->
    [ r1; r2 ]
  | Isa.Alui (_, _, rs, _) | Isa.Ld (_, rs, _) | Isa.Jr rs | Isa.Out rs
  | Isa.Wrtmr rs
  | Isa.Mtcr (_, rs) ->
    [ rs ]
  | Isa.St (rv, rb, _) -> [ rv; rb ]
  | _ -> []

(* Boot enters with only r0 defined — plus, under object-code
   editing, the counter register the hypervisor seeds with the epoch
   length before the guest starts.  A trap root inherits the
   interrupted context, which replicas agree on. *)
let boot_mask ~rewritten =
  1 lor if rewritten then 1 lsl Rewrite.counter_reg else 0

let init_solve ?stats ~rewritten (cfg : Cfg.t) =
  let module S = Absint.Make (Init) in
  let bm = boot_mask ~rewritten in
  let entries =
    List.map (fun r -> (r, if r = 0 then bm else all_regs)) cfg.Cfg.roots
  in
  S.solve ?stats cfg ~entries

let check ?(syms = Symtab.empty) ?(random_tlb = false) ?(data_init = [])
    ?(mmio_base = Cpu.default_config.Cpu.mmio_base) (cfg : Cfg.t) consts init =
  let findings = ref [] in
  let add severity addr msg =
    findings :=
      Finding.v ~checker ~severity ~addr ~where:(Symtab.resolve syms addr) msg
      :: !findings
  in
  (* Flow-insensitive constant-address store set for the memory rule. *)
  let written = Hashtbl.create 64 in
  Array.iteri
    (fun addr instr ->
      if cfg.Cfg.reachable.(addr) then
        match (instr : Isa.instr) with
        | Isa.St (_, rb, off) -> (
          match Absint.Consts.reg consts.(addr) rb with
          | Absint.Value.Const b ->
            Hashtbl.replace written (Word.add b (Word.of_signed off)) ()
          | _ -> ())
        | _ -> ())
    cfg.Cfg.code;
  let host_init =
    let tbl = Hashtbl.create 16 in
    List.iter (fun a -> Hashtbl.replace tbl a ()) data_init;
    tbl
  in
  let tlb_noted = ref false in
  Array.iteri
    (fun addr instr ->
      if cfg.Cfg.reachable.(addr) then begin
        (match init.(addr) with
        | None -> ()
        | Some mask ->
          List.sort_uniq Int.compare (uses instr)
          |> List.iter (fun r ->
                 if r <> 0 && mask land (1 lsl r) = 0 then
                   add Finding.Error addr
                     (Format.asprintf
                        "%a reads r%d, which is not written on every path \
                         from boot: replicas are not assumed to boot with \
                         identical register files, so the value can differ \
                         between primary and backup"
                        Isa.pp instr r)));
        match (instr : Isa.instr) with
        | Isa.Probe _ ->
          add Finding.Warning addr
            "probe reads environment state (the real privilege level) \
             without trapping: on the bare machine it returns 0 here, under \
             the hypervisor it returns the deprivileged level the guest \
             actually runs at (section 3.1)"
        | Isa.Ld (_, rb, off) -> (
          match Absint.Consts.reg consts.(addr) rb with
          | Absint.Value.Const b ->
            let a = Word.add b (Word.of_signed off) in
            if a >= mmio_base then
              add Finding.Info addr
                (Format.asprintf
                   "load from device register 0x%x: deterministic only \
                    because the hypervisor mediates MMIO access (I/O \
                    Instruction Assumption)"
                   a)
            else if
              (not (Hashtbl.mem written a)) && not (Hashtbl.mem host_init a)
            then
              add Finding.Warning addr
                (Format.asprintf
                   "load from 0x%x, which no instruction stores to and the \
                    host does not initialize: the read relies on \
                    deterministically zeroed boot memory"
                   a)
          | _ -> ())
        | Isa.Tlbw _ ->
          if random_tlb then
            add Finding.Error addr
              "TLB insertion under random replacement: the evicted entry \
               differs between primary and backup (the paper's HP 9000/720 \
               TLB), so miss patterns — and thus trap timing — diverge"
          else if not !tlb_noted then begin
            tlb_noted := true;
            add Finding.Info addr
              "TLB insertions are deterministic only because the configured \
               replacement policy is round-robin; on the paper's \
               random-replacement HP 9000/720 TLB this image would diverge \
               (section 3.2)"
          end
        | _ -> ()
      end)
    cfg.Cfg.code;
  List.rev !findings
