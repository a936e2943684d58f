open Hft_core
module Time = Hft_sim.Time

type bounded = {
  sc_name : string;
  sc_descr : string;
  sc_params : Params.t;
  sc_workload : Hft_guest.Workload.t;
  sc_crash_epochs : int option list;
  sc_backup_crash_epochs : int option list;
  sc_loss_pb : int option list;
  sc_loss_bp : int option list;
  sc_hv_faults : Campaign.hv_fault_spec option list;
  sc_reintegrate_ms : int option;
  sc_limit : int;
}

(* Fast device for bounded exploration: the paper's 24/26 ms latencies
   would stretch a single write across thousands of idle epochs. *)
let quick_disk =
  {
    Hft_devices.Disk.default_params with
    Hft_devices.Disk.blocks = 16;
    read_latency = Time.of_us 40;
    write_latency = Time.of_us 50;
  }

let base_params ~epoch_length =
  {
    (Params.with_epoch_length Params.default epoch_length) with
    Params.disk = quick_disk;
    detector_timeout = Time.of_ms 2;
    rtx_timeout = Time.of_us 300;
  }

(* The headline scenario of the acceptance bar: two replicas, console
   output crossing epoch boundaries, an optional primary crash at
   boundary 1 or 2, guest done within three epochs. *)
let handoff =
  {
    sc_name = "handoff";
    sc_descr =
      "2-replica console workload, optional primary crash at epoch 1 or 2";
    sc_params = base_params ~epoch_length:48;
    sc_workload = Hft_guest.Workload.console_hello ~text:"hft";
    sc_crash_epochs = [ None; Some 1; Some 2 ];
    sc_backup_crash_epochs = [ None ];
    sc_loss_pb = [ None ];
    sc_loss_bp = [ None ];
    sc_hv_faults = [ None ];
    sc_reintegrate_ms = None;
    sc_limit = 400_000;
  }

(* Outstanding disk writes at the failover boundary: P6/P7 must give
   each exactly one uncertain completion and the retry must keep the
   shared disk single-processor consistent. *)
let crash_write =
  {
    sc_name = "crash-write";
    sc_descr =
      "2 awaited disk writes, optional primary crash at epoch 1-3 (P6/P7)";
    sc_params = base_params ~epoch_length:192;
    sc_workload =
      Hft_guest.Workload.disk_write ~pad:8 ~block_range:4 ~spin:4 ~ops:2 ();
    sc_crash_epochs = [ None; Some 1; Some 2; Some 3 ];
    sc_backup_crash_epochs = [ None ];
    sc_loss_pb = [ None ];
    sc_loss_bp = [ None ];
    sc_hv_faults = [ None ];
    sc_reintegrate_ms = None;
    sc_limit = 600_000;
  }

(* Message loss crossed with a crash: the scenario the deliberately
   broken variants (--no-retransmit, --no-ack-wait) fail on. *)
let crash_loss =
  {
    sc_name = "crash-loss";
    sc_descr =
      "console workload, optional crash, optional single message loss \
       on either channel";
    sc_params = base_params ~epoch_length:48;
    sc_workload = Hft_guest.Workload.console_hello ~text:"hft";
    sc_crash_epochs = [ None; Some 2 ];
    sc_backup_crash_epochs = [ None ];
    sc_loss_pb = [ None; Some 1; Some 3 ];
    sc_loss_bp = [ None; Some 0; Some 1 ];
    sc_hv_faults = [ None ];
    sc_reintegrate_ms = None;
    sc_limit = 600_000;
  }

(* The PR 1 regression, exhaustively: primary crashes, the promoted
   backup streams a reintegration snapshot back, and single losses are
   tried across the fresh messaging epoch — including the offer and
   the [Snapshot_done] handshake. *)
let reintegration_loss =
  {
    sc_name = "reintegration-loss";
    sc_descr =
      "failover then reintegration snapshot transfer, with single losses \
       across the handshake";
    sc_params = base_params ~epoch_length:48;
    sc_workload = Hft_guest.Workload.console_hello ~text:"hftsim";
    sc_crash_epochs = [ Some 1 ];
    sc_backup_crash_epochs = [ None ];
    sc_loss_pb = [ None; Some 0; Some 1 ];
    sc_loss_bp = [ None; Some 4; Some 5; Some 6 ];
    sc_hv_faults = [ None ];
    sc_reintegrate_ms = Some 1;
    sc_limit = 900_000;
  }

(* ReHype extension: a hypervisor fault strikes mid-epoch and the node
   microreboots in place.  The recovery timings are scaled down with
   the rest of the bounded-scenario clock so that detection (panic,
   watchdog) plus the reboot finishes well inside the peer's 2 ms
   failure detector — recovery must stay invisible, which is exactly
   what the exact-console and lockstep invariants then prove. *)
let hv_recovery_params ~epoch_length =
  {
    (base_params ~epoch_length) with
    Params.hv_reboot_time = Time.of_us 200;
    hv_panic_latency = Time.of_us 30;
    watchdog_interval = Time.of_us 500;
  }

let hv_crash =
  {
    sc_name = "hv-crash";
    sc_descr =
      "console workload, optional hypervisor crash/hang/corruption \
       mid-epoch, healed by in-place microreboot";
    sc_params = hv_recovery_params ~epoch_length:48;
    sc_workload = Hft_guest.Workload.console_hello ~text:"hft";
    sc_crash_epochs = [ None ];
    sc_backup_crash_epochs = [ None ];
    sc_loss_pb = [ None ];
    sc_loss_bp = [ None ];
    sc_hv_faults =
      [
        None;
        Some
          { Campaign.hf_target = `Primary; hf_kind = Hypervisor.Hv_crash;
            hf_epoch = 1 };
        Some
          { Campaign.hf_target = `Primary; hf_kind = Hypervisor.Hv_hang;
            hf_epoch = 2 };
        Some
          {
            Campaign.hf_target = `Backup;
            hf_kind = Hypervisor.Hv_corrupt Hypervisor.C_acks;
            hf_epoch = 1;
          };
      ];
    sc_reintegrate_ms = None;
    sc_limit = 600_000;
  }

let all = [ handoff; crash_write; crash_loss; reintegration_loss; hv_crash ]

let find name = List.find_opt (fun s -> String.equal s.sc_name name) all

type variant = { retransmit : bool; ack_wait : bool }

let correct = { retransmit = true; ack_wait = true }

let apply_variant v p =
  Params.with_ack_wait (Params.with_retransmit p v.retransmit) v.ack_wait

let params sc ~variant = apply_variant variant sc.sc_params

(* The last reference run's machine, whose guest memory the next one
   resets instead of allocating its own.  Emptied before each build and
   refilled only by a run that returns, like [Campaign.spare]. *)
let spare = ref None

let reference sc ~variant =
  let recycle = !spare in
  spare := None;
  let b =
    Bare.create ~params:(params sc ~variant) ?recycle ~workload:sc.sc_workload
      ()
  in
  Bare.init_disk_blocks b;
  let o = Bare.run b in
  spare := Some b;
  o

let instantiate sc ~variant ?crash_epoch ?backup_crash_epoch ?loss_pb ?loss_bp
    ?hv_fault ?obs ?recycle () =
  let sys =
    System.create ~params:(params sc ~variant) ?obs ?recycle
      ~workload:sc.sc_workload ()
  in
  (match crash_epoch with
  | Some e -> System.crash_primary_on_epoch sys e
  | None -> ());
  (match backup_crash_epoch with
  | Some e -> System.crash_backup_on_epoch sys e
  | None -> ());
  (match loss_pb with
  | Some n ->
    Hft_net.Channel.set_loss_plan (System.channel_to_backup sys) (Int.equal n)
  | None -> ());
  (match loss_bp with
  | Some n ->
    Hft_net.Channel.set_loss_plan (System.channel_to_primary sys) (Int.equal n)
  | None -> ());
  (match hv_fault with
  | Some (f : Campaign.hv_fault_spec) ->
    System.hv_fault_on_epoch sys ~target:f.hf_target ~kind:f.hf_kind f.hf_epoch
  | None -> ());
  (match sc.sc_reintegrate_ms with
  | Some ms -> System.reintegrate_after_failover sys ~delay:(Time.of_ms ms)
  | None -> ());
  sys

let has_crash sc = List.exists Option.is_some sc.sc_crash_epochs
