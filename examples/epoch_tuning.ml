(* Epoch-length tuning: the paper's central engineering trade-off
   (section 4), reproduced at simulation scale.

     dune exec examples/epoch_tuning.exe

   Short epochs deliver interrupts promptly but pay the epoch-boundary
   cost (Tme send, ack round trip, [end,E] send — measured at
   443.59 us in the prototype) very often; long epochs amortize it but
   delay interrupt delivery.  For a CPU-bound workload the boundary
   cost dominates and normalized performance falls steeply with epoch
   length; for I/O-bound work the device latency hides the boundaries
   and the curve is nearly flat.  HP-UX capped usable epochs at
   385,000 instructions, where the model predicts NP 1.24. *)

open Hft_core
open Hft_harness

let () =
  let els = [ 512; 1024; 2048; 4096; 8192; 16384; 32768 ] in
  let cpu = Hft_guest.Workload.dhrystone ~iterations:15_000 in
  let io = Hft_guest.Workload.disk_write ~ops:16 () in

  (* NP = replicated time / bare time; the bare machine has no epochs,
     so one baseline serves the whole sweep *)
  let sweep w =
    let bare = Hft_sim.Time.to_sec (Scenario.bare_time w) in
    List.map
      (fun el ->
        let params = Params.with_epoch_length Params.default el in
        let o = Scenario.replicated ~params w in
        (el, Hft_sim.Time.to_sec o.System.time /. bare))
      els
  in
  let bar np =
    String.make (min 60 (int_of_float ((np -. 1.0) *. 4.0))) '#'
  in
  let print title runs =
    Format.printf "%s:@." title;
    List.iter
      (fun (el, np) -> Format.printf "  EL=%6d  NP=%6.2f  %s@." el np (bar np))
      runs
  in
  print "CPU-bound workload (dhrystone)" (sweep cpu);
  Format.printf "@.";
  print "I/O-bound workload (disk writes)" (sweep io);

  Format.printf
    "@.model at the HP-UX epoch bound (385K instructions): NPC = %.2f (paper: \
     1.24)@."
    (Hft_model.Model.npc ~el:385_000 ());
  Format.printf
    "revised protocol at 4K (no boundary ack wait): NPC = %.2f vs %.2f@."
    (Hft_model.Model.npc ~protocol:Hft_model.Model.Revised ~el:4096 ())
    (Hft_model.Model.npc ~el:4096 ())
