open Hft_sim

type protocol = Original | Revised

type tlb_mode = Hypervisor_managed | Guest_managed

type epoch_mechanism = Recovery_register | Code_rewriting

type exec_backend = Interp | Threaded | Differential

type t = {
  epoch_length : int;
  protocol : protocol;
  tlb_mode : tlb_mode;
  epoch_mechanism : epoch_mechanism;
  instr_time : Time.t;
  hv_entry_exit : Time.t;
  hv_work : Time.t;
  hv_epoch_local : Time.t;
  hv_send_setup : Time.t;
  hv_intr_deliver : Time.t;
  hv_intr_receive : Time.t;
  hv_tlb_fill : Time.t;
  bare_trap_latency : Time.t;
  link : Hft_net.Link.t;
  retransmit : bool;
  ack_wait : bool;
  rtx_timeout : Time.t;
  rtx_give_up : int;
  detector_timeout : Time.t;
  backup_clock_skew : Time.t;
  hv_recovery : bool;
  hv_reboot_time : Time.t;
  hv_panic_latency : Time.t;
  watchdog_interval : Time.t;
  hv_recovery_max : int;
  disk : Hft_devices.Disk.params;
  cpu_config : Hft_machine.Cpu.config;
  exec_backend : exec_backend;
  profile_guest : bool;
}

let default =
  {
    epoch_length = 4096;
    protocol = Original;
    tlb_mode = Hypervisor_managed;
    epoch_mechanism = Recovery_register;
    instr_time = Time.of_ns 20;
    hv_entry_exit = Time.of_us 8;
    hv_work = Time.of_us_float 7.12;
    hv_epoch_local = Time.of_us 70;
    hv_send_setup = Time.of_us 90;
    hv_intr_deliver = Time.of_us 5;
    hv_intr_receive = Time.of_us 10;
    hv_tlb_fill = Time.of_us_float 7.12;
    bare_trap_latency = Time.of_ns 500;
    link = Hft_net.Link.ethernet;
    retransmit = true;
    ack_wait = true;
    rtx_timeout = Time.of_ms 1;
    rtx_give_up = 25;
    detector_timeout = Time.of_ms 100;
    backup_clock_skew = Time.of_us 1500;
    hv_recovery = true;
    hv_reboot_time = Time.of_ms 10;
    hv_panic_latency = Time.of_us 50;
    watchdog_interval = Time.of_ms 5;
    hv_recovery_max = 8;
    disk = Hft_devices.Disk.default_params;
    cpu_config = Hft_machine.Cpu.default_config;
    exec_backend = Interp;
    profile_guest = false;
  }

let hsim t = Time.add t.hv_entry_exit t.hv_work

let max_burst = 2_000_000

let burst_fuel t ~now horizon =
  match horizon with
  | Some h ->
    let n = Time.to_ns (Time.diff h now) / Time.to_ns t.instr_time in
    max 1 (min n max_burst)
  | None -> max_burst

let with_epoch_length t epoch_length =
  if epoch_length <= 0 then invalid_arg "Params.with_epoch_length: must be positive";
  { t with epoch_length }

let with_protocol t protocol = { t with protocol }
let with_link t link = { t with link }
let with_retransmit t retransmit = { t with retransmit }
let with_ack_wait t ack_wait = { t with ack_wait }
let with_exec_backend t exec_backend = { t with exec_backend }
let with_profile_guest t profile_guest = { t with profile_guest }

let backend_name = function
  | Interp -> "interp"
  | Threaded -> "threaded"
  | Differential -> "differential"

let backend_of_name = function
  | "interp" -> Some Interp
  | "threaded" -> Some Threaded
  | "differential" -> Some Differential
  | _ -> None

let pp_protocol fmt = function
  | Original -> Format.pp_print_string fmt "original"
  | Revised -> Format.pp_print_string fmt "revised"

let pp_backend fmt b = Format.pp_print_string fmt (backend_name b)

let pp fmt t =
  Format.fprintf fmt
    "epoch=%d protocol=%a tlb=%s link=%s hsim=%a hepoch-local=%a send=%a"
    t.epoch_length pp_protocol t.protocol
    (match t.tlb_mode with
    | Hypervisor_managed -> "hypervisor"
    | Guest_managed -> "guest")
    t.link.Hft_net.Link.name Time.pp (hsim t) Time.pp t.hv_epoch_local Time.pp
    t.hv_send_setup
