(** The single JSON substrate.  Every artifact is built as a {!t} and
    written by {!to_string}, the only code that emits JSON syntax or
    string escapes; {!parse} is a strict RFC 8259 reader, so a
    round trip through it catches a malformed emitter.  The toolchain
    has no JSON library and the CI schema check must not need one. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val int : int -> t

val fixed : int -> float -> t
(** [fixed d x]: [x] rounded to [d] decimal places (as [%.*f] would
    print it), for reporting a measurement at a stated precision. *)

val significant : int -> float -> t
(** [significant d x]: [x] rounded to [d] significant digits. *)

val to_string : ?pretty:bool -> t -> string
(** Compact by default (no whitespace: JSONL lines, the image [M]
    line).  [~pretty:true] is for files people read: two-space
    indentation with each member on its own line, except that an array
    or object holding only scalars and empty containers stays on one
    line.  Either form has no trailing newline.  Integral numbers print
    without a fraction, other numbers with the fewest digits that read
    back exactly; NaN and infinities print as [null].  Strings are byte
    sequences: the double quote, the backslash and control characters
    are escaped, every other byte is written as is. *)

val to_lines : t list -> string
(** JSON Lines: each value compact, each followed by a newline. *)

val parse : string -> (t, string) result
(** Strict RFC 8259: rejects raw control characters in strings,
    malformed [\u] escapes, unpaired UTF-16 surrogates (a pair decodes
    to one 4-byte UTF-8 character), numbers outside the JSON grammar
    ([+1], [.5], [1.], [01]) or the float range, and nesting deeper
    than 512.  Bytes >= 0x80 are taken as is, so
    [parse (to_string v) = Ok v] for any [v] whose numbers are finite. *)

val member : string -> t -> t option
(** Object field lookup; [None] on non-objects too. *)

val to_string_opt : t -> string option
val to_float_opt : t -> float option
val to_list_opt : t -> t list option
