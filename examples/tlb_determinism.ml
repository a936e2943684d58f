(* The TLB war story of section 3.2.

     dune exec examples/tlb_determinism.exe

   "We (as well as a number of HP engineers) were surprised to find
   that the Ordinary Instruction Assumption does not hold for the
   HP 9000/720 processor": the TLB replacement policy was
   nondeterministic, and since TLB misses are handled by software,
   different TLB contents at the primary and the backup become visible
   as miss traps taken at different points — the replicas diverge.

   This example runs a page-walking guest three ways:
   1. nondeterministic TLB, misses reflected to the guest: diverges;
   2. nondeterministic TLB, hypervisor-managed fills (the paper's
      fix): lockstep holds, because TLB state never becomes visible;
   3. deterministic TLB, guest-managed misses: also fine — the
      problem was never software TLB handling per se, only
      nondeterminism. *)

open Hft_core
open Hft_machine.Asm

let paging_workload =
  (* walk 16 pages with a 4-entry TLB: constant misses *)
  let main =
    [
      ldi r1 2000;
      ldi r2 0;
      label "loop";
      bge r2 r1 (lbl "done");
      andi r3 r2 15;
      slli r3 r3 10;
      addi r3 r3 0x1000;
      st r2 r3 0;
      ld r4 r3 0;
      add r5 r5 r4;
      addi r2 r2 1;
      jmp (lbl "loop");
      label "done";
      st r5 r0 Hft_guest.Layout.res_checksum;
      halt;
    ]
  in
  {
    Hft_guest.Workload.name = "paging";
    description = "page-walking guest";
    program = Hft_guest.Kernel.program ~main;
    config = [];
    instructions_per_iteration = 9;
  }

let run ~policy ~tlb_mode =
  let params =
    {
      Params.default with
      Params.epoch_length = 512;
      tlb_mode;
      cpu_config =
        {
          Hft_machine.Cpu.default_config with
          Hft_machine.Cpu.tlb_entries = 4;
          tlb_policy = policy;
        };
    }
  in
  let sys =
    System.create ~params ~tlb_seeds:(1, 2) ~workload:paging_workload ()
  in
  try
    let o = System.run sys in
    ( List.length o.System.lockstep_mismatches,
      o.System.epochs_compared,
      (Hypervisor.stats (System.primary sys)).Stats.tlb_fills,
      (Hypervisor.stats (System.primary sys)).Stats.reflected_traps )
  with Failure _ -> (-1, 0, 0, 0)

let describe label (mismatches, compared, fills, reflected) =
  if mismatches < 0 then
    Format.printf "%-46s DIVERGED (system wedged)@." label
  else
    Format.printf
      "%-46s %s (%d/%d epochs diverged; %d hypervisor fills, %d guest traps)@."
      label
      (if mismatches = 0 then "lockstep holds" else "DIVERGED")
      mismatches compared fills reflected

let () =
  Format.printf "reproducing section 3.2 on a 4-entry TLB:@.@.";
  describe "random TLB + guest-managed misses:"
    (run
       ~policy:(Hft_machine.Tlb.Random (Hft_sim.Rng.create 0))
       ~tlb_mode:Params.Guest_managed);
  describe "random TLB + hypervisor-managed fills (fix):"
    (run
       ~policy:(Hft_machine.Tlb.Random (Hft_sim.Rng.create 0))
       ~tlb_mode:Params.Hypervisor_managed);
  describe "round-robin TLB + guest-managed misses:"
    (run ~policy:Hft_machine.Tlb.Round_robin ~tlb_mode:Params.Guest_managed);
  Format.printf
    "@.the fix makes the virtual machine's architecture differ slightly from \
     the real one:@.TLB fills for resident pages appear to happen in \
     hardware — 'but the difference is one@.that does not affect HP-UX' \
     (section 3.2).@."
