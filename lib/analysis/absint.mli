(** A small abstract-interpretation framework over {!Cfg}: the
    analyzer's one worklist fixpoint engine, at instruction
    granularity, plus the shared value domain (constants and privilege
    taint) the checkers build on.  Every solve of an image — value
    sets, constants, privilege levels, initialized registers — runs
    on {!Make}.

    Domains must be join-semilattices of finite height, or the solve
    must pass a [widen] that bounds every ascending chain; [transfer]
    must be monotone.  The solver seeds the given entry states and
    propagates until the in-state of every reachable instruction is
    stable.  Unreachable instructions get no state ([None]) — checkers
    skip them rather than reporting on dead code. *)

module type DOMAIN = sig
  type state

  val equal : state -> state -> bool
  val join : state -> state -> state

  val transfer : int -> Hft_machine.Isa.instr -> state -> state
  (** [transfer addr instr s]: abstract post-state of executing
      [instr] at [addr] in pre-state [s]. *)
end

val retreating_targets : Cfg.t -> bool array
(** [retreating_targets cfg].(a) iff some CFG edge into [a] retreats
    with respect to the reverse postorder of the CFG's successor edges
    from its roots (the worklist's order: its source's rank is at
    least [a]'s).  Every cycle contains a retreating edge, so these
    addresses are exactly where a widening fixpoint must give ground —
    and the only places it needs to. *)

module Make (D : DOMAIN) : sig
  val solve :
    ?stats:Finding.stats ->
    ?widen:(int -> D.state -> D.state -> D.state) ->
    ?edge:(int -> Hft_machine.Isa.instr -> D.state -> int -> D.state) ->
    Cfg.t ->
    entries:(int * D.state) list ->
    D.state option array
  (** In-state of every instruction; [None] if no entry reaches it.
      The worklist pops the pending node with the smallest
      reverse-postorder rank, so loop bodies stabilize before back
      edges re-queue their header.  Two hooks specialise the engine,
      both the identity by default:
      - [widen addr old joined] is stored instead of [joined] whenever
        a join changes [addr]'s in-state — where a domain of infinite
        height (the value sets of {!Vsa}) cuts its ascending chains;
      - [edge addr instr out succ] specialises [instr]'s out-state for
        the edge to [succ] — where a conditional branch refines its
        operands.
      [stats] counts transfer-function applications. *)
end

(** The value lattice: bottom, a known constant, a value carrying the
    privilege-level deposit of [Jal]/[Probe] (the section 3.1 quirk),
    or unknown. *)
module Value : sig
  type t = Bot | Const of int | Taint | Top

  val join : t -> t -> t
  val equal : t -> t -> bool
  val pp : Format.formatter -> t -> unit
end

(** Constant propagation with privilege-taint tracking over the
    register file.  Register 0 is pinned to [Const 0]; boot-time
    registers are [Top] (the paper does not assume replicas boot with
    identical register files — the determinism checker enforces
    writes-before-reads instead). *)
module Consts : sig
  type state = Value.t array  (** indexed by register *)

  val solve : ?stats:Finding.stats -> Cfg.t -> state option array
  (** In-states seeded [Top]-everywhere at each {!Cfg.t.roots}. *)

  val reg : state option -> int -> Value.t
  (** [reg st r]: [r]'s abstract value, [Top] when the state is
      unavailable; [Const 0] for register 0. *)

  val word_alu : Hft_machine.Isa.alu_op -> int -> int -> int
  (** Concrete 32-bit ALU semantics, shared with the value-set
      analysis ({!Vsa}). *)
end
