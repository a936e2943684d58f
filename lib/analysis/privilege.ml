open Hft_machine

let checker = "privilege"
let all_privs = 0b1111

(* Bitmask of privilege levels that can be live at an instruction. *)
module Priv = struct
  type state = int

  let equal = Int.equal
  let join = ( lor )
end

let levels_of mask =
  List.filter (fun l -> mask land (1 lsl l) <> 0) [ 0; 1; 2; 3 ]

let pp_levels fmt mask =
  Format.pp_print_list
    ~pp_sep:(fun fmt () -> Format.pp_print_string fmt ",")
    Format.pp_print_int fmt (levels_of mask)

(* Register uses whose consumption of a privilege-deposited link value
   (section 3.1) leaks the real privilege level into guest-visible
   state.  [Jr] is absent on purpose: it shifts the deposit back out. *)
let taint_sinks (i : Isa.instr) =
  match i with
  | Isa.St (rv, rb, _) -> [ (rv, "stored to memory") ; (rb, "used as a store address") ]
  | Isa.Ld (_, rb, _) -> [ (rb, "used as a load address") ]
  | Isa.Br (_, r1, r2, _) -> [ (r1, "branched on"); (r2, "branched on") ]
  | Isa.Out r -> [ (r, "written to the console") ]
  | Isa.Wrtmr r -> [ (r, "written to the interval timer") ]
  | Isa.Mtcr (_, rs) -> [ (rs, "written to a control register") ]
  | Isa.Tlbw (r1, r2) ->
    [ (r1, "used as a TLB tag"); (r2, "used as a TLB entry") ]
  | _ -> []

let solve ?stats (cfg : Cfg.t) consts =
  let module S = Absint.Make (struct
    include Priv

    let transfer addr (i : Isa.instr) s =
      match i with
      | Isa.Mtcr (Isa.Cr_status, rs) ->
        (* executes (rather than trapping) only at level 0 *)
        if s land 1 = 0 then 0
        else begin
          match Absint.Consts.reg consts.(addr) rs with
          | Absint.Value.Const v -> 1 lsl Isa.status_priv v
          | _ -> all_privs
        end
      | _ -> s
  end) in
  S.solve ?stats cfg ~entries:(List.map (fun r -> (r, 1)) cfg.Cfg.roots)

let check ?(syms = Symtab.empty) (cfg : Cfg.t) consts privs =
  let has_vector = List.exists (fun r -> r <> 0) cfg.Cfg.roots in
  let findings = ref [] in
  let add severity addr msg =
    findings :=
      Finding.v ~checker ~severity ~addr ~where:(Symtab.resolve syms addr) msg
      :: !findings
  in
  Array.iteri
    (fun addr instr ->
      if cfg.Cfg.reachable.(addr) then begin
        let pset = match privs.(addr) with Some s -> s | None -> 0 in
        let above = pset land lnot 1 land all_privs in
        if above <> 0 then begin
          if Isa.is_privileged instr then
            if has_vector then
              add Finding.Warning addr
                (Format.asprintf
                   "privileged instruction %a is reachable at privilege \
                    level %a: every execution there traps to the kernel \
                    instead of performing the operation"
                   Isa.pp instr pp_levels above)
            else
              add Finding.Error addr
                (Format.asprintf
                   "privileged instruction %a is reachable at privilege \
                    level %a with no trap vector installed: the fault has \
                    nowhere to deliver and the machine stops"
                   Isa.pp instr pp_levels above)
          else if Isa.is_environment instr then
            add Finding.Warning addr
              (Format.asprintf
                 "environment instruction %a is reachable at privilege \
                  level %a: the hardware does not privilege-check \
                  environment instructions, so user-level code manipulates \
                  machine-global state the kernel is assumed to mediate"
                 Isa.pp instr pp_levels above)
        end;
        let taint r =
          r <> 0
          &&
          match Absint.Consts.reg consts.(addr) r with
          | Absint.Value.Taint -> true
          | _ -> false
        in
        List.iter
          (fun (r, how) ->
            if taint r then
              add Finding.Warning addr
                (Format.asprintf
                   "r%d holds a branch-and-link value whose low bits are \
                    the real privilege level (section 3.1); %s, it makes \
                    behaviour differ between bare and virtualized runs"
                   r how))
          (taint_sinks instr)
      end)
    cfg.Cfg.code;
  List.rev !findings
