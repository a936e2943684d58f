open Hft_sim
open Hft_machine
open Hft_devices

type t = {
  engine : Engine.t;
  p : Params.t;
  cpu : Cpu.t;
  disk : Disk.t;
  ctl : Disk_ctl.t;
  clock : Clock.t;
  timer : Interval_timer.t;
  console : Console.t;
  pending : Interrupt.Pending.t;
  workload : Hft_guest.Workload.t;
  mutable halted : bool;
  mutable halt_time : Time.t;
}

let create ?(params = Params.default) ?(disk_seed = 42) ?recycle ~workload ()
    =
  let engine = Engine.create () in
  let cpu =
    Cpu.create ~config:params.Params.cpu_config
      ?recycle:(Option.map (fun old -> old.cpu) recycle)
      ~code:workload.Hft_guest.Workload.program.Asm.code ()
  in
  let manifest = Hypervisor.manifest_for ~params workload in
  Hft_analysis.Manifest.install manifest ~deprivileged:false cpu;
  (* a single machine has no oracle to differ from, so [Differential]
     degenerates to [Threaded] here *)
  Hypervisor.arm_translation ~params manifest ~deprivileged:false cpu;
  let disk =
    Disk.create ~engine ~rng:(Rng.create disk_seed) params.Params.disk
  in
  let pending = Interrupt.Pending.create () in
  let timer =
    Interval_timer.create ~engine
      ~on_expire:(fun () -> Interrupt.Pending.post pending Interrupt.Timer_expired)
      ()
  in
  {
    engine;
    p = params;
    cpu;
    disk;
    ctl = Disk_ctl.create ();
    clock = Clock.create ~engine ();
    timer;
    console = Console.create ();
    pending;
    workload;
    halted = false;
    halt_time = Time.zero;
  }

let engine t = t.engine
let cpu t = t.cpu
let disk t = t.disk
let console t = t.console

let init_disk_blocks t = Disk.fill t.disk

(* Interrupt delivery: hardware vectoring plus the interrupt kind in
   scratch0 for the guest dispatcher. *)
let deliver_interrupt t intr =
  let kind =
    match intr with
    | Interrupt.Disk_completion c ->
      (* For reads the device DMA already ran at completion; the
         status register was latched then too.  Re-latch here so
         back-to-back completions are each visible. *)
      Disk_ctl.set_status t.ctl
        (match c.Disk.status with
        | Disk.Ok -> Hft_guest.Layout.status_ok
        | Disk.Uncertain -> Hft_guest.Layout.status_uncertain);
      Hft_guest.Layout.intr_kind_disk
    | Interrupt.Timer_expired -> Hft_guest.Layout.intr_kind_timer
  in
  Cpu.set_cr t.cpu Isa.Cr_scratch0 kind;
  Cpu.deliver_trap t.cpu ~cause:Isa.Cause.interrupt ~epc:(Cpu.pc t.cpu)

let on_disk_complete t ~dma (c : Disk.completion) =
  (match (c.Disk.op, c.Disk.data) with
  | Disk.Read _, Some data ->
    (* device DMA straight into guest memory *)
    Memory.blit_in (Cpu.mem t.cpu) ~addr:dma data
  | _ -> ());
  Interrupt.Pending.post t.pending (Interrupt.Disk_completion c)

let submit_io t (db : Disk_ctl.doorbell) =
  let prm = Disk.params t.disk in
  let op =
    if db.Disk_ctl.cmd = Hft_guest.Layout.cmd_write then
      Disk.Write
        {
          block = db.Disk_ctl.block;
          data =
            Memory.blit_out (Cpu.mem t.cpu) ~addr:db.Disk_ctl.dma
              ~len:prm.Disk.block_words;
        }
    else Disk.Read { block = db.Disk_ctl.block }
  in
  let dma = db.Disk_ctl.dma in
  ignore
    (Disk.submit t.disk ~port:0 op ~on_complete:(fun c ->
         on_disk_complete t ~dma c))

let rec schedule_step t delay =
  ignore (Engine.after t.engine delay (fun () -> step t))

and step t =
  if not t.halted then begin
    (* deliver one pending interrupt if the guest will take it *)
    if
      (not (Interrupt.Pending.is_empty t.pending))
      && Cpu.interrupts_enabled t.cpu
    then begin
      match Interrupt.Pending.take t.pending with
      | Some intr ->
        deliver_interrupt t intr;
        schedule_step t t.p.Params.bare_trap_latency
      | None -> assert false
    end
    else begin
      let fuel =
        Params.burst_fuel t.p ~now:(Engine.now t.engine)
          (Engine.next_time t.engine)
      in
      (* with an interrupt pending but masked, keep bursts short so the
         enable edge is noticed promptly, as hardware sampling would *)
      let fuel =
        if Interrupt.Pending.is_empty t.pending then fuel else min fuel 64
      in
      let res = Cpu.run t.cpu ~fuel in
      let dt = Time.scale t.p.Params.instr_time res.Cpu.executed in
      ignore
        (Engine.after t.engine dt (fun () -> handle_stop t res.Cpu.stop))
    end
  end

and handle_stop t stop =
  if not t.halted then
    match stop with
    | Cpu.Fuel | Cpu.Recovery -> step t
    | Cpu.Stop_halt ->
      t.halted <- true;
      t.halt_time <- Engine.now t.engine
    | Cpu.Stop_wfi ->
      if not (Interrupt.Pending.is_empty t.pending) then step t
      else begin
        (* idle until something happens *)
        match Engine.next_time t.engine with
        | Some next ->
          ignore (Engine.at t.engine next (fun () -> step t))
        | None -> failwith "Bare.run: guest waits forever (no pending events)"
      end
    | Cpu.Env i ->
      (match i with
      | Isa.Rdtod rd -> Cpu.set_reg t.cpu rd (Clock.read_us t.clock)
      | Isa.Rdtmr rd ->
        Cpu.set_reg t.cpu rd (Word.mask (Interval_timer.remaining_us t.timer))
      | Isa.Wrtmr rs ->
        Interval_timer.set t.timer ~us:(Cpu.reg t.cpu rs)
      | Isa.Out rs -> Console.put t.console (Cpu.reg t.cpu rs)
      | _ -> failwith "Bare: unexpected environment instruction");
      Cpu.advance_pc t.cpu;
      ignore (Cpu.tick_recovery t.cpu);
      schedule_step t t.p.Params.instr_time
    | Cpu.Priv i ->
      (* guest user code attempted a privileged instruction *)
      ignore i;
      Cpu.deliver_trap t.cpu ~cause:Isa.Cause.privilege ~epc:(Cpu.pc t.cpu);
      schedule_step t t.p.Params.bare_trap_latency
    | Cpu.Mmio_read { paddr; reg } ->
      Cpu.set_reg t.cpu reg (Disk_ctl.read t.ctl ~paddr);
      Cpu.advance_pc t.cpu;
      ignore (Cpu.tick_recovery t.cpu);
      schedule_step t t.p.Params.instr_time
    | Cpu.Mmio_write { paddr; value } ->
      if Disk_ctl.is_doorbell ~paddr then
        submit_io t (Disk_ctl.ring t.ctl ~value)
      else Disk_ctl.write t.ctl ~paddr ~value;
      Cpu.advance_pc t.cpu;
      ignore (Cpu.tick_recovery t.cpu);
      schedule_step t t.p.Params.instr_time
    | Cpu.Tlb_miss { vaddr; write = _ } ->
      Cpu.deliver_trap t.cpu ~badvaddr:vaddr ~cause:Isa.Cause.tlb_miss
        ~epc:(Cpu.pc t.cpu);
      schedule_step t t.p.Params.bare_trap_latency
    | Cpu.Protection { vaddr; write = _ } ->
      Cpu.deliver_trap t.cpu ~badvaddr:vaddr ~cause:Isa.Cause.protection
        ~epc:(Cpu.pc t.cpu);
      schedule_step t t.p.Params.bare_trap_latency
    | Cpu.Syscall _code ->
      Cpu.deliver_trap t.cpu ~cause:Isa.Cause.syscall ~epc:(Cpu.pc t.cpu + 1);
      schedule_step t t.p.Params.bare_trap_latency
    | Cpu.Fault msg -> failwith ("Bare: guest fault: " ^ msg)
    | Cpu.Cert_violation { addr; msg } ->
      failwith
        (Printf.sprintf "Bare: certificate violation at %d: %s" addr msg)

type outcome = {
  time : Time.t;
  instructions : int;
  results : Guest_results.t;
  console : string;
  disk_log : Disk.Log.entry list;
}

let run ?(limit = 200_000_000) t =
  Guest_results.write_config t.cpu t.workload.Hft_guest.Workload.config;
  schedule_step t Time.zero;
  Engine.run ~limit t.engine;
  if not t.halted then failwith "Bare.run: guest did not halt";
  {
    time = t.halt_time;
    instructions = Cpu.instructions_retired t.cpu;
    results = Guest_results.read t.cpu;
    console = Console.contents t.console;
    disk_log = Disk.Log.entries t.disk;
  }
