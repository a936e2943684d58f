(** Lint findings: what the static analyzers report.

    A finding ties a defect to a program location (an instruction
    index plus a symbolized [label+offset] rendering), names the
    checker that produced it, and carries a severity:

    - [Error]: the image violates a paper assumption the P1-P7
      protocol depends on — replicated execution may diverge or wedge.
      [hftsim lint] exits non-zero when any error is present.
    - [Warning]: behaviour that differs between bare and virtualized
      execution (or relies on host initialization) without breaking
      replica coordination; shipped intentional cases are recorded as
      fixtures under [test/lint_fixtures].
    - [Info]: a determinism obligation discharged only by current
      configuration (e.g. round-robin TLB replacement). *)

type severity = Error | Warning | Info

type t = {
  checker : string;  (** "privilege", "determinism", "epoch" or "cfg" *)
  severity : severity;
  addr : int;        (** instruction index in the analyzed image *)
  where : string;    (** symbolized location, e.g. [k_vector+3] *)
  message : string;
}

val v :
  checker:string -> severity:severity -> addr:int -> where:string ->
  string -> t

val severity_name : severity -> string

val compare : t -> t -> int
(** Orders errors first, then warnings, then infos; ties by address. *)

val errors : t list -> t list
val warnings : t list -> t list

val has_errors : t list -> bool

val summary : t list -> string
(** e.g. ["2 errors, 1 warning, 3 notes"]; ["clean"] when empty. *)

val pp : Format.formatter -> t -> unit
(** One line: [error privilege k_user+2: message]. *)

(** Analysis-cost accounting shared by the fixpoint solvers: how many
    transfer-function applications the worklist performed before
    stabilizing.  {!Analysis.solve} threads one counter through an
    image's four solves; [hftsim lint --json] surfaces the total. *)
type stats = { mutable fixpoint_iterations : int }

val new_stats : unit -> stats
