(* Quickstart: build a 1-fault-tolerant virtual machine, run a
   workload on it, and inspect the result.

     dune exec examples/quickstart.exe

   The system is two simulated processors, each under a hypervisor
   augmented with the replica-coordination protocol of Bressoud &
   Schneider (SOSP 1995), sharing a dual-ported disk and connected by
   a simulated 10 Mbps Ethernet. *)

open Hft_core

let () =
  (* a workload is a guest program: kernel + benchmark main *)
  let workload = Hft_guest.Workload.dhrystone ~iterations:10_000 in

  (* paper defaults: 4K-instruction epochs, original protocol *)
  let params = Params.default in

  (* first, the baseline: the same workload on the bare machine *)
  let bare = Bare.create ~params ~workload () in
  let b = Bare.run bare in
  Format.printf "bare machine      : %a (%d instructions)@." Hft_sim.Time.pp
    b.Bare.time b.Bare.instructions;

  (* now the replicated system; lockstep checking compares the two
     virtual machines' state hash at every epoch boundary *)
  let sys = System.create ~params ~workload () in
  let o = System.run sys in
  Format.printf "replicated system : %a@." Hft_sim.Time.pp o.System.time;
  Format.printf "normalized perf   : %.2f (paper, figure 2 at 4K: 6.50)@."
    (Hft_sim.Time.to_sec o.System.time /. Hft_sim.Time.to_sec b.Bare.time);
  Format.printf "guest results     : %a@." Guest_results.pp o.System.results;
  Format.printf "epochs checked    : %d, diverged: %d@."
    o.System.epochs_compared
    (List.length o.System.lockstep_mismatches);
  Format.printf "same checksum as bare: %b@."
    (o.System.results.Guest_results.checksum
    = b.Bare.results.Guest_results.checksum);

  (* the virtual machines are indistinguishable replicas: their final
     architectural state is identical *)
  Format.printf "final VM states equal: %b@."
    (Hypervisor.vm_state_hash (System.primary sys)
    = Hypervisor.vm_state_hash (System.backup sys))
