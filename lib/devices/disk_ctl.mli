(** Disk controller register file: the MMIO front-end of {!Disk}.

    Both executors present these registers to the guest.  The
    bare-metal runner backs them with the real device; the hypervisor
    keeps one {e shadow} instance per virtual machine and updates it
    identically at the primary and the backup, so that MMIO loads
    (notably the driver reading [disk_status] from its interrupt
    handler) return identical values in both replicas — MMIO state is
    part of the virtual-machine state the protocol keeps in lockstep.

    A write to the command register is the doorbell ({!ring}); every
    other register write is plain ({!write}). *)

type t

type doorbell = { cmd : int; block : int; dma : int }

val create : unit -> t

val read : t -> paddr:int -> Hft_machine.Word.t
(** Read a controller register.  Unknown registers in the device page
    read as zero. *)

val is_doorbell : paddr:int -> bool
(** Whether a write to [paddr] rings the doorbell (the command
    register).  Every other write is {e plain}: it changes only this
    register file, which is what lets the hypervisor simulate it
    inside a burst without ending it. *)

val write : t -> paddr:int -> value:Hft_machine.Word.t -> unit
(** A plain write: latch a register; unknown registers ignore it.
    Raises [Invalid_argument] on the doorbell, which is {!ring}. *)

val ring : t -> value:Hft_machine.Word.t -> doorbell
(** A write of the command [value] to the doorbell: the operation it
    starts, with the block and DMA registers latched so far, for the
    executor to act on (issue to the real device, or record and
    suppress at the backup). *)

val set_status : t -> int -> unit
(** Executor hook: record a completion status for the guest to read
    ({!Layout.status_ok} / [status_uncertain] equivalents). *)

val status : t -> int

val save : t -> t
(** An independent copy of the registers. *)

val copy_state_from : t -> t -> unit
(** [copy_state_from dst src] overwrites [dst]'s registers in place
    with [src]'s: the restore half of {!save}, used when reintegrating
    a backup and by checker restores. *)

val fingerprint : int -> t -> int
(** Mix the four registers into a running {!Hft_sim.Fnv} digest. *)
