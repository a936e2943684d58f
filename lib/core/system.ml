open Hft_sim
open Hft_devices
module Channel = Hft_net.Channel

type lockstep = {
  hashes : (int, int) Hashtbl.t;  (* epoch -> first reporter's hash *)
  mutable compared : int;
  mutable mismatches : int list;  (* reversed *)
  fail_fast : bool;
      (* under [Params.Differential] the replicas deliberately run
         different execution backends, so the first divergence is a
         translator bug: fault the run immediately instead of
         accumulating mismatches *)
}

type t = {
  engine : Engine.t;
  p : Params.t;
  workload : Hft_guest.Workload.t;
  primary_ : Hypervisor.t;
  backup_ : Hypervisor.t;
  disk_ : Disk.t;
  console_ : Console.t;
  ch_pb : Message.t Channel.t;
  ch_bp : Message.t Channel.t;
  ls : lockstep;
  mutable failover_ : bool;
  mutable reintegration_delay : Time.t option;
  mutable hv_faults_armed : int;
      (* bit [k]: the [k]th [hv_fault_on_epoch] has scheduled its fault *)
  mutable hv_fault_installs : int;
  mutable last : snapshot option;
      (* the last snapshot taken or restored, which the next one shares
         unchanged parts with *)
  mutable spares : (Hypervisor.spare * Hypervisor.spare) list;
      (* storage of snapshots that will not be restored again, which
         the next snapshots overwrite *)
}

and snapshot = {
  sn_engine : Engine.saved;
  sn_primary : Hypervisor.saved;
  sn_backup : Hypervisor.saved;
  sn_disk : Disk.saved;
  sn_console : Console.saved;
  sn_pb : Message.t Channel.saved;
  sn_bp : Message.t Channel.saved;
  sn_hashes : (int * int) list;
  sn_compared : int;
  sn_mismatches : int list;
  sn_failover : bool;
  sn_reintegration_delay : Time.t option;
  sn_hv_faults_armed : int;
}

let record_boundary ls ~epoch ~hash =
  match Hashtbl.find_opt ls.hashes epoch with
  | None -> Hashtbl.replace ls.hashes epoch hash
  | Some other ->
    ls.compared <- ls.compared + 1;
    if other <> hash then begin
      ls.mismatches <- epoch :: ls.mismatches;
      if ls.fail_fast then
        failwith
          (Printf.sprintf
             "System: differential divergence at epoch %d: one replica \
              hashed 0x%x, the other 0x%x"
             epoch other hash)
    end

let create ?(params = Params.default) ?(disk_seed = 42) ?tlb_seeds
    ?(obs = Hft_obs.Recorder.null) ?recycle ~workload () =
  let workload =
    match params.Params.epoch_mechanism with
    | Params.Recovery_register -> workload
    | Params.Code_rewriting ->
      {
        workload with
        Hft_guest.Workload.program =
          Hft_machine.Rewrite.rewrite_program ~every:params.Params.epoch_length
            workload.Hft_guest.Workload.program;
      }
  in
  let engine = Engine.create () in
  (* the lookahead: a replica reaches its peer only through a link
     message (at least one per-message overhead away) or through a
     disk completion (actorless, at least the smaller disk latency
     away); Engine.at checks every such event against it *)
  Engine.set_lookahead engine
    (Time.min params.Params.link.Hft_net.Link.per_message_overhead
       (Time.min params.Params.disk.Disk.read_latency
          params.Params.disk.Disk.write_latency));
  (* scheduler dispatches are high-volume; only feed them to the
     recorder when it asked for them, or they would evict the protocol
     events from the ring *)
  if Hft_obs.Recorder.dispatch_enabled obs then
    Engine.set_observer engine (fun time ~label ~actor ->
        Hft_obs.Recorder.emit obs ~time
          ~source:(if actor = "" then "engine" else actor)
          (Hft_obs.Event.Dispatch { label }));
  let disk_ =
    Disk.create ~engine ~rng:(Rng.create disk_seed) ~obs params.Params.disk
  in
  Disk.fill disk_;
  let console_ = Console.create () in
  let clock_p = Clock.create ~engine () in
  let clock_b = Clock.create ~engine ~skew:params.Params.backup_clock_skew () in
  (* Give each processor its own TLB-replacement stream when the
     policy is random: that is the hardware nondeterminism of
     section 3.2. *)
  let params_for seed =
    match (params.Params.cpu_config.Hft_machine.Cpu.tlb_policy, tlb_seeds) with
    | Hft_machine.Tlb.Random _, Some _ ->
      {
        params with
        Params.cpu_config =
          {
            params.Params.cpu_config with
            Hft_machine.Cpu.tlb_policy = Hft_machine.Tlb.Random (Rng.create seed);
          };
      }
    | _ -> params
  in
  let seeds = match tlb_seeds with Some (a, b) -> (a, b) | None -> (1, 1) in
  (* [Differential] splits the backends across the replicas: the
     primary executes through the direct-threaded translation, the
     backup stays on the decode-per-step interpreter, and the
     protocol's own epoch-boundary state hashes arbitrate *)
  let backend_for role p =
    match (p.Params.exec_backend, role) with
    | Params.Differential, `Primary -> Params.with_exec_backend p Params.Threaded
    | Params.Differential, `Backup -> Params.with_exec_backend p Params.Interp
    | (Params.Interp | Params.Threaded), _ -> p
  in
  let primary_ =
    Hypervisor.create ~name:"primary" ~role:Hypervisor.Primary ~port:0 ~engine
      ~params:(backend_for `Primary (params_for (fst seeds)))
      ~workload ~disk:disk_ ~console:console_ ~clock:clock_p ~obs
      ?recycle:(Option.map (fun old -> old.primary_) recycle)
      ()
  in
  let backup_ =
    Hypervisor.create ~name:"backup" ~role:Hypervisor.Backup ~port:1 ~engine
      ~params:(backend_for `Backup (params_for (snd seeds)))
      ~workload ~disk:disk_ ~console:console_ ~clock:clock_b ~obs
      ?recycle:(Option.map (fun old -> old.backup_) recycle)
      ()
  in
  (* delivery events are tagged with the RECEIVER: that is whose state
     the delivery handler mutates (model-checker independence) *)
  let ch_pb =
    Channel.create ~engine ~link:params.Params.link ~name:"primary->backup"
      ~actor:"backup" ~obs ()
  in
  let ch_bp =
    Channel.create ~engine ~link:params.Params.link ~name:"backup->primary"
      ~actor:"primary" ~obs ()
  in
  Channel.set_hasher ch_pb Message.hash;
  Channel.set_hasher ch_bp Message.hash;
  Hypervisor.connect primary_ ~tx:ch_pb ~peer:backup_;
  Hypervisor.connect backup_ ~tx:ch_bp ~peer:primary_;
  Channel.connect ch_pb (fun msg -> Hypervisor.on_message backup_ msg);
  Channel.connect ch_bp (fun msg -> Hypervisor.on_message primary_ msg);
  let ls =
    {
      hashes = Hashtbl.create 16;
      compared = 0;
      mismatches = [];
      fail_fast = params.Params.exec_backend = Params.Differential;
    }
  in
  Hypervisor.set_on_epoch_boundary primary_ (record_boundary ls);
  Hypervisor.set_on_epoch_boundary backup_ (record_boundary ls);
  let t =
    {
      engine;
      p = params;
      workload;
      primary_;
      backup_;
      disk_;
      console_;
      ch_pb;
      ch_bp;
      ls;
      failover_ = false;
      reintegration_delay = None;
      hv_faults_armed = 0;
      hv_fault_installs = 0;
      last = None;
      spares = (match recycle with Some old -> old.spares | None -> []);
    }
  in
  Hypervisor.set_on_promote backup_ (fun _ ->
      t.failover_ <- true;
      match t.reintegration_delay with
      | None -> ()
      | Some delay ->
        (* touches both nodes: deliberately actorless (dependent with
           everything) for the model checker *)
        ignore
          (Engine.after engine ~label:"reintegrate" delay (fun () ->
               Hypervisor.revive_as_backup t.primary_;
               Hypervisor.request_reintegration t.backup_)));
  t

let engine t = t.engine
let primary t = t.primary_
let backup t = t.backup_
let disk t = t.disk_
let console t = t.console_
let channel_to_backup t = t.ch_pb
let channel_to_primary t = t.ch_bp

let crash_primary_at t time =
  ignore
    (Engine.at t.engine ~label:"crash" ~actor:"primary" time (fun () ->
         Hypervisor.crash t.primary_))

let crash_on_epoch _t hv target =
  let previous = Hypervisor.get_on_epoch_boundary hv in
  Hypervisor.set_on_epoch_boundary hv (fun ~epoch ~hash ->
      if epoch = target && Hypervisor.alive hv then Hypervisor.crash hv
      else previous ~epoch ~hash)

let crash_primary_on_epoch t target = crash_on_epoch t t.primary_ target

let crash_backup_on_epoch t target = crash_on_epoch t t.backup_ target

(* ---------- hypervisor faults (ReHype extension) ---------- *)

let hv_of_target t = function `Primary -> t.primary_ | `Backup -> t.backup_

let hv_fault_at t ~target ~kind time =
  let hv = hv_of_target t target in
  ignore
    (Engine.at t.engine ~label:"hv-fault" ~actor:(Hypervisor.name hv) time
       (fun () -> Hypervisor.inject_hv_fault hv kind))

(* Inject mid-epoch, deterministically: the boundary hook fires at the
   start of epoch [target]'s boundary processing, and the fault lands
   half an epoch's worth of simulated time later — inside the epoch,
   between event handlers, wherever the node happens to be.  Hooks
   chain like [crash_on_epoch]'s so several injections (and the
   lockstep recorder) coexist. *)
let hv_fault_on_epoch t ~target ~kind epoch_target =
  let hv = hv_of_target t target in
  let previous = Hypervisor.get_on_epoch_boundary hv in
  (* whether it has fired is system state, which a snapshot covers *)
  let bit = 1 lsl t.hv_fault_installs in
  t.hv_fault_installs <- t.hv_fault_installs + 1;
  Hypervisor.set_on_epoch_boundary hv (fun ~epoch ~hash ->
      if
        epoch = epoch_target && Hypervisor.alive hv
        && t.hv_faults_armed land bit = 0
      then begin
        t.hv_faults_armed <- t.hv_faults_armed lor bit;
        let half =
          Time.scale t.p.Params.instr_time (t.p.Params.epoch_length / 2)
        in
        ignore
          (Engine.after t.engine ~label:"hv-fault" ~actor:(Hypervisor.name hv)
             half (fun () -> Hypervisor.inject_hv_fault hv kind))
      end;
      previous ~epoch ~hash)

let install_fault_model t ~rng model =
  let corrupter flip msg = Message.corrupt ~flip msg in
  Channel.set_fault_model t.ch_pb ~rng:(Rng.split rng) ~corrupter model;
  Channel.set_fault_model t.ch_bp ~rng:(Rng.split rng) ~corrupter model

let faults_injected t =
  let per ch =
    Channel.faults_lost ch + Channel.faults_duplicated ch
    + Channel.faults_corrupted ch + Channel.faults_delayed ch
  in
  per t.ch_pb + per t.ch_bp

let fingerprint t =
  let mix = Fnv.int in
  (* the virtual clock: schedule interleavings merge at the same
     instant (same-instant dispatches never advance time), while
     states that differ only by a time shift — e.g. successive rounds
     of an idle polling loop — must NOT merge, because pending timers
     fire relative to the absolute clock *)
  let h = mix Fnv.basis (Hft_sim.Time.to_ns (Engine.now t.engine)) in
  let h = mix h (Hypervisor.fingerprint t.primary_) in
  let h = mix h (Hypervisor.fingerprint t.backup_) in
  let h = mix h (Channel.fingerprint t.ch_pb) in
  let h = mix h (Channel.fingerprint t.ch_bp) in
  let h = mix h (Disk.fingerprint t.disk_) in
  let h = Fnv.string h (Console.contents t.console_) in
  Fnv.bool (mix h (Engine.pending_fingerprint t.engine)) t.failover_

let reintegrate_after_failover t ~delay =
  t.reintegration_delay <- Some delay;
  (* the actorless reintegration event is scheduled [delay] after the
     promotion handler that arms it *)
  Engine.set_lookahead t.engine (Time.min (Engine.lookahead t.engine) delay)

type outcome = {
  completed_by : [ `Primary | `Promoted_backup ];
  time : Time.t;
  results : Guest_results.t;
  console : string;
  primary_stats : Stats.t;
  backup_stats : Stats.t;
  epochs_compared : int;
  lockstep_mismatches : int list;
  disk_consistent : bool;
  disk_errors : string list;
  failover : bool;
  messages_sent : int;
  bytes_sent : int;
}

let start t =
  Hypervisor.start t.primary_;
  Hypervisor.start t.backup_

let drive ?(limit = 200_000_000) t =
  Engine.run ~limit t.engine;
  let survivor =
    (* the authoritative machine is the one that halted as a primary,
       even if it crashed afterwards; after reintegration the original
       node is alive but has become the new backup *)
    if
      Hypervisor.halted t.primary_
      && Hypervisor.role t.primary_ = Hypervisor.Primary
    then Some (`Primary, t.primary_)
    else if Hypervisor.alive t.backup_ && Hypervisor.halted t.backup_ then
      Some (`Promoted_backup, t.backup_)
    else if Hypervisor.alive t.primary_ && Hypervisor.halted t.primary_ then
      Some (`Primary, t.primary_)
    else None
  in
  match survivor with
  | None -> failwith "System.run: no virtual machine completed the workload"
  | Some (who, hv) ->
    let errors = ref [] in
    let consistent =
      Disk.Log.check_single_processor_consistency t.disk_ ~errors:(fun e ->
          errors := e :: !errors)
    in
    {
      completed_by = who;
      time = Hypervisor.halt_time hv;
      results = Hypervisor.results hv;
      console = Console.contents t.console_;
      primary_stats = Hypervisor.stats t.primary_;
      backup_stats = Hypervisor.stats t.backup_;
      epochs_compared = t.ls.compared;
      lockstep_mismatches = List.rev t.ls.mismatches;
      disk_consistent = consistent;
      disk_errors = List.rev !errors;
      failover = t.failover_;
      messages_sent = Channel.messages_sent t.ch_pb;
      bytes_sent = Channel.bytes_sent t.ch_pb;
    }

let run ?limit t =
  start t;
  drive ?limit t

(* ---------- snapshot and restore ---------- *)

let snapshot t =
  let like part = Option.map part t.last in
  let hashes =
    match t.last with
    | Some l
      when Hashtbl.length t.ls.hashes = List.length l.sn_hashes
           && List.for_all
                (fun (e, h) -> Hashtbl.find_opt t.ls.hashes e = Some h)
                l.sn_hashes ->
      l.sn_hashes
    | _ -> Hashtbl.fold (fun e h acc -> (e, h) :: acc) t.ls.hashes []
  in
  let into =
    match t.spares with
    | sp :: rest ->
      t.spares <- rest;
      Some sp
    | [] -> None
  in
  let s =
    {
      sn_engine = Engine.save t.engine;
      sn_primary =
        Hypervisor.save
          ?like:(like (fun l -> l.sn_primary))
          ?into:(Option.map fst into) t.primary_;
      sn_backup =
        Hypervisor.save
          ?like:(like (fun l -> l.sn_backup))
          ?into:(Option.map snd into) t.backup_;
      sn_disk = Disk.save ?like:(like (fun l -> l.sn_disk)) t.disk_;
      sn_console = Console.save ?like:(like (fun l -> l.sn_console)) t.console_;
      sn_pb = Channel.save ?like:(like (fun l -> l.sn_pb)) t.ch_pb;
      sn_bp = Channel.save ?like:(like (fun l -> l.sn_bp)) t.ch_bp;
      sn_hashes = hashes;
      sn_compared = t.ls.compared;
      sn_mismatches = t.ls.mismatches;
      sn_failover = t.failover_;
      sn_reintegration_delay = t.reintegration_delay;
      sn_hv_faults_armed = t.hv_faults_armed;
    }
  in
  t.last <- Some s;
  s

let restore t s =
  Hypervisor.restore t.primary_ s.sn_primary;
  Hypervisor.restore t.backup_ s.sn_backup;
  Engine.restore t.engine s.sn_engine;
  Disk.restore t.disk_ s.sn_disk;
  Console.restore t.console_ s.sn_console;
  Channel.restore t.ch_pb s.sn_pb;
  Channel.restore t.ch_bp s.sn_bp;
  Hashtbl.reset t.ls.hashes;
  List.iter (fun (e, h) -> Hashtbl.replace t.ls.hashes e h) s.sn_hashes;
  t.ls.compared <- s.sn_compared;
  t.ls.mismatches <- s.sn_mismatches;
  t.failover_ <- s.sn_failover;
  t.reintegration_delay <- s.sn_reintegration_delay;
  t.hv_faults_armed <- s.sn_hv_faults_armed;
  t.last <- Some s

let release t s =
  t.spares <-
    (Hypervisor.spare s.sn_primary, Hypervisor.spare s.sn_backup) :: t.spares
