(** Serialized counterexample schedules ([hftsim-check-replay/1]).

    A schedule pins one exact execution of a bounded scenario: the
    scenario name, the protocol variant flags, the root-choice indices
    (which crash / which loss), and the scheduler's pick at every
    co-enabled event batch.  [hftsim check --replay FILE] re-executes
    it deterministically; the text format is diffable and can be
    committed as a regression fixture. *)

type t = {
  scenario : string;
  retransmit : bool;
  ack_wait : bool;
  roots : int list;  (** indices into the scenario's root-choice dimensions *)
  choices : int list;  (** scheduler picks, index into each co-enabled batch *)
  violation : string option;  (** what the checker saw on this schedule *)
}

val magic : string

val to_string : t -> string
val of_string : string -> (t, string) result

val load : string -> (t, string) result
(** Read and parse a saved schedule.  [Error] for a file that cannot
    be read (missing, a directory, unreadable) as well as for one that
    does not parse. *)
