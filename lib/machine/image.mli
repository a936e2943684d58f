(** Program images: a stable on-disk format for guest code.

    An image is a small text format — a header line followed by one
    hex-encoded {!Encode} word per instruction, with optional label
    lines — so images diff cleanly, survive version control, and can
    be inspected by hand:

    {v
    HFT1 <instruction count>
    L <name> <address>        (zero or more)
    R <address>               (zero or more, relocatable immediates)
    C <address> <text>        (zero or more, comment source lines)
    <16 hex digits>           (one per instruction)
    v}

    Labels and comment lines survive the round trip so the static
    analyzers ({!Hft_analysis}) can cite [label+offset] locations on a
    reloaded image exactly as on a freshly assembled one.

    An image carries code only.  Its certificates are not part of the
    format: the hypervisor certifies the code it loads
    ([Hft_analysis.Manifest.of_code_cached]).  An [M] line, which once
    embedded a compilation manifest, is refused as a retired feature.

    Used by the CLI to export and re-import workloads, and by tests to
    round-trip programs through the encoder. *)

exception Format_error of string

val to_string : Asm.program -> string

val of_string : string -> Asm.program
(** @raise Format_error on a malformed image: a bad line, an invalid
    instruction word or an [M] line. *)

val save : path:string -> Asm.program -> unit
val load : path:string -> Asm.program
