open Hft_sim

type t = {
  mutable instructions : int;
  mutable simulated : int;
  mutable epochs : int;
  mutable interrupts_buffered : int;
  mutable interrupts_delivered : int;
  mutable env_values : int;
  mutable io_submitted : int;
  mutable io_suppressed : int;
  mutable uncertain_synthesized : int;
  mutable spurious_completions : int;
  mutable tlb_fills : int;
  mutable reflected_traps : int;
  mutable retransmits : int;
  mutable duplicates_dropped : int;
  mutable corruptions_detected : int;
  mutable pages_hashed : int;
  mutable pages_skipped : int;
  mutable snapshot_delta_bytes : int;
  mutable hv_faults_injected : int;
  mutable microreboots : int;
  mutable reconciled_ios : int;
  mutable reconciled_msgs : int;
  mutable recovery_cycles : int;
  mutable recovery_escalations : int;
  mutable recovery_windows : Time.t list;
  mutable certified_instructions : int;
  mutable validated_instructions : int;
  mutable blocks_translated : int;
  mutable threaded_instrs : int;
  mutable threaded_entries : int;
  mutable fallback_budget : int;
  mutable fallback_priv : int;
  mutable fallback_link : int;
  mutable fallback_indirect : int;
  mutable fallback_bail : int;
  mutable fallback_stop : int;
  mutable ack_wait : Time.t;
  mutable boundary : Time.t;
  mutable idle : Time.t;
  mutable intr_delay : Time.t;
}

let create () =
  {
    instructions = 0;
    simulated = 0;
    epochs = 0;
    interrupts_buffered = 0;
    interrupts_delivered = 0;
    env_values = 0;
    io_submitted = 0;
    io_suppressed = 0;
    uncertain_synthesized = 0;
    spurious_completions = 0;
    tlb_fills = 0;
    reflected_traps = 0;
    retransmits = 0;
    duplicates_dropped = 0;
    corruptions_detected = 0;
    pages_hashed = 0;
    pages_skipped = 0;
    snapshot_delta_bytes = 0;
    hv_faults_injected = 0;
    microreboots = 0;
    reconciled_ios = 0;
    reconciled_msgs = 0;
    recovery_cycles = 0;
    recovery_escalations = 0;
    recovery_windows = [];
    certified_instructions = 0;
    validated_instructions = 0;
    blocks_translated = 0;
    threaded_instrs = 0;
    threaded_entries = 0;
    fallback_budget = 0;
    fallback_priv = 0;
    fallback_link = 0;
    fallback_indirect = 0;
    fallback_bail = 0;
    fallback_stop = 0;
    ack_wait = Time.zero;
    boundary = Time.zero;
    idle = Time.zero;
    intr_delay = Time.zero;
  }

let blit ~src ~dst =
  dst.instructions <- src.instructions;
  dst.simulated <- src.simulated;
  dst.epochs <- src.epochs;
  dst.interrupts_buffered <- src.interrupts_buffered;
  dst.interrupts_delivered <- src.interrupts_delivered;
  dst.env_values <- src.env_values;
  dst.io_submitted <- src.io_submitted;
  dst.io_suppressed <- src.io_suppressed;
  dst.uncertain_synthesized <- src.uncertain_synthesized;
  dst.spurious_completions <- src.spurious_completions;
  dst.tlb_fills <- src.tlb_fills;
  dst.reflected_traps <- src.reflected_traps;
  dst.retransmits <- src.retransmits;
  dst.duplicates_dropped <- src.duplicates_dropped;
  dst.corruptions_detected <- src.corruptions_detected;
  dst.pages_hashed <- src.pages_hashed;
  dst.pages_skipped <- src.pages_skipped;
  dst.snapshot_delta_bytes <- src.snapshot_delta_bytes;
  dst.hv_faults_injected <- src.hv_faults_injected;
  dst.microreboots <- src.microreboots;
  dst.reconciled_ios <- src.reconciled_ios;
  dst.reconciled_msgs <- src.reconciled_msgs;
  dst.recovery_cycles <- src.recovery_cycles;
  dst.recovery_escalations <- src.recovery_escalations;
  dst.recovery_windows <- src.recovery_windows;
  dst.certified_instructions <- src.certified_instructions;
  dst.validated_instructions <- src.validated_instructions;
  dst.blocks_translated <- src.blocks_translated;
  dst.threaded_instrs <- src.threaded_instrs;
  dst.threaded_entries <- src.threaded_entries;
  dst.fallback_budget <- src.fallback_budget;
  dst.fallback_priv <- src.fallback_priv;
  dst.fallback_link <- src.fallback_link;
  dst.fallback_indirect <- src.fallback_indirect;
  dst.fallback_bail <- src.fallback_bail;
  dst.fallback_stop <- src.fallback_stop;
  dst.ack_wait <- src.ack_wait;
  dst.boundary <- src.boundary;
  dst.idle <- src.idle;
  dst.intr_delay <- src.intr_delay

let add_time t kind d =
  match kind with
  | `Ack_wait -> t.ack_wait <- Time.add t.ack_wait d
  | `Boundary -> t.boundary <- Time.add t.boundary d
  | `Idle -> t.idle <- Time.add t.idle d
  | `Intr_delay -> t.intr_delay <- Time.add t.intr_delay d

let certified_coverage t =
  if t.validated_instructions = 0 then None
  else
    Some
      (float_of_int t.certified_instructions
      /. float_of_int t.validated_instructions)

let mean_intr_delay_us t =
  if t.interrupts_delivered = 0 then 0.0
  else Time.to_us t.intr_delay /. float_of_int t.interrupts_delivered

let threaded_fraction t =
  if t.instructions = 0 then None
  else if t.threaded_instrs = 0 then None
  else Some (float_of_int t.threaded_instrs /. float_of_int t.instructions)

let pp fmt t =
  Format.fprintf fmt
    "@[<v>instructions: %d@ simulated: %d@ epochs: %d@ interrupts: %d \
     buffered, %d delivered@ env values: %d@ io: %d submitted, %d \
     suppressed, %d uncertain synthesized@ tlb fills: %d@ reflected traps: \
     %d@ channel: %d retransmits, %d duplicates dropped, %d corruptions \
     detected@ hashing: %d pages hashed, %d skipped@ snapshot bytes: %d@ \
     recovery: %d hv faults, %d microreboots, %d ios + %d msgs reconciled@ \
     certified: %d of %d validated instructions%s@ \
     threaded: %d instrs%s over %d entries (%d blocks); \
     fallbacks: %d budget, %d priv, %d link, %d indirect, %d bail, %d stop@ \
     ack wait: %a@ boundary: %a@ idle: %a@ mean intr delay: %.1fus@]"
    t.instructions t.simulated t.epochs t.interrupts_buffered
    t.interrupts_delivered t.env_values t.io_submitted t.io_suppressed
    t.uncertain_synthesized t.tlb_fills t.reflected_traps t.retransmits
    t.duplicates_dropped t.corruptions_detected t.pages_hashed
    t.pages_skipped t.snapshot_delta_bytes t.hv_faults_injected
    t.microreboots t.reconciled_ios t.reconciled_msgs
    t.certified_instructions t.validated_instructions
    (match certified_coverage t with
    | Some c -> Printf.sprintf " (%.1f%%)" (100.0 *. c)
    | None -> "")
    t.threaded_instrs
    (match threaded_fraction t with
    | Some f -> Printf.sprintf " (%.1f%%)" (100.0 *. f)
    | None -> "")
    t.threaded_entries t.blocks_translated
    t.fallback_budget t.fallback_priv t.fallback_link t.fallback_indirect
    t.fallback_bail t.fallback_stop
    Time.pp t.ack_wait
    Time.pp t.boundary Time.pp t.idle (mean_intr_delay_us t)
