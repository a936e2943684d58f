(** Program images: a stable on-disk format for guest code.

    An image is a small text format — a header line followed by one
    hex-encoded {!Encode} word per instruction, with optional label
    lines — so images diff cleanly, survive version control, and can
    be inspected by hand:

    {v
    HFT1 <instruction count>
    M <json>                  (at most one, embedded manifest)
    L <name> <address>        (zero or more)
    R <address>               (zero or more, relocatable immediates)
    C <address> <text>        (zero or more, comment source lines)
    <16 hex digits>           (one per instruction)
    v}

    Labels and comment lines survive the round trip so the static
    analyzers ({!Hft_analysis}) can cite [label+offset] locations on a
    reloaded image exactly as on a freshly assembled one.

    An image may embed its compilation manifest (an
    [hftsim-manifest/4] JSON document on one [M] line).  The machine
    layer carries it as an opaque string — parsing, validation against
    the image hash, and certificate installation live in
    [Hft_analysis.Manifest], which this library cannot depend on.

    Used by the CLI to export and re-import workloads, and by tests to
    round-trip programs through the encoder. *)

exception Format_error of string

val to_string : ?manifest:string -> Asm.program -> string
val of_string : string -> Asm.program
(** @raise Format_error on a malformed image.
    @raise Encode.Decode_error on an invalid instruction word. *)

val manifest_of_string : string -> string option
(** The embedded manifest line, verbatim, if the image carries one. *)

val save : ?manifest:string -> path:string -> Asm.program -> unit
val load : path:string -> Asm.program

val load_with_manifest : path:string -> Asm.program * string option
