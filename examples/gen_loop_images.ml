(* Generates the loop-heavy example images shipped in
   [examples/images/]: a counted single-block loop, a two-level nest,
   and a guarded scan with an early exit (a multi-block loop).  They
   give the profiler and the direct-threaded translator loop shapes
   beyond the workloads' own (CI's profile-smoke job runs each under
   both backends).

   Run from the repository root:
     dune exec examples/gen_loop_images.exe *)

let save ~name program =
  let path = Filename.concat "examples/images" name in
  Hft_machine.Image.save ~path program;
  Format.printf "wrote %s (%d instructions)@." path
    (Array.length program.Hft_machine.Asm.code)

let counted =
  Hft_machine.Asm.(
    assemble
      [
        comment "counted: 256-iteration checksum through one buffer word";
        ldi r2 0;
        ldi r3 256;
        ldi r4 0x1000;
        ldi r5 0;
        label "loop";
        st r5 r4 0;
        comment "load back the word just stored (store-forwardable)";
        ld r6 r4 0;
        add r5 r5 r6;
        addi r5 r5 1;
        addi r2 r2 1;
        bltu r2 r3 (lbl "loop");
        st r5 r4 8;
        halt;
      ])

let nested =
  Hft_machine.Asm.(
    assemble
      [
        comment "nested: 8 outer sweeps of a 64-iteration inner loop";
        ldi r6 0;
        ldi r2 0;
        ldi r3 8;
        label "outer";
        ldi r4 0;
        ldi r5 64;
        label "inner";
        addi r4 r4 1;
        xor r6 r6 r4;
        bltu r4 r5 (lbl "inner");
        addi r2 r2 1;
        bltu r2 r3 (lbl "outer");
        st r6 r0 0x1000;
        halt;
      ])

let early_exit =
  Hft_machine.Asm.(
    assemble
      [
        comment "early exit: scan up to 128 words, stop at a sentinel";
        ldi r2 0;
        ldi r3 128;
        ldi r4 0x1000;
        ldi r5 0xdead;
        label "scan";
        add r7 r4 r2;
        ld r6 r7 0;
        beq r6 r5 (lbl "found");
        addi r2 r2 1;
        bltu r2 r3 (lbl "scan");
        label "found";
        st r2 r4 0x100;
        halt;
      ])

let () =
  save ~name:"loop_counted.img" counted;
  save ~name:"loop_nested.img" nested;
  save ~name:"loop_early_exit.img" early_exit
