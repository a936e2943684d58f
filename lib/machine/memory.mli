(** Physical data memory: a flat array of 32-bit words, with write
    tracking per chunk for incremental hashing and delta snapshots.

    Addresses are word indices.  The region at and above the MMIO base
    (see {!Cpu.config}) is not backed by this array; accesses there are
    routed to devices by the executor.

    Memory is tracked in pages of [2{^page_shift}] words, each split
    into chunks of [min 32 2{^page_shift}] words.  Every mutation
    ([write]/[write_fast]/[blit_in]/[load]) marks the containing
    chunk(s) for three independent consumers: {!digest}, which
    re-hashes only the chunks written since it last ran;
    {!dirty_pages}/{!clear_dirty}, so reintegration snapshots can count
    the pages written since the previous snapshot; and {!save}, which
    compares and copies only the chunks written since the previous
    {!save}, {!restore} or {!adopt}.  Each of the three costs what was
    written, not the memory's size.  A save is the one way memory is
    captured: the model checker restores it into the same memory,
    reintegration adopts it into the peer's. *)

type t

val create : ?page_shift:int -> words:int -> unit -> t
(** Zero-initialised memory of [words] words, tracked in pages of
    [2{^page_shift}] words (default 10, matching
    {!Cpu.default_config}).  The last page may be partial when [words]
    is not a multiple of the page size, and the last chunk when it is
    not a multiple of the chunk size.  The digest caches start out
    holding the all-zero digests, so the first {!digest} hashes only
    chunks written since. *)

val reset : t -> unit
(** Return the memory to exactly the state {!create} gives it: zero
    words, zero digests cached, every page snapshot-dirty, work
    counters at zero.  This is a {!restore} of the save {!create}
    starts from: only chunks that may hold nonzero words are zeroed —
    those written since the last save, restore or adopt, and those it
    left nonzero — so recycling a mostly untouched memory costs far
    less than allocating a new one. *)

val size : t -> int

val page_shift : t -> int

val pages : t -> int
(** Number of tracked pages ([ceil (size / 2^page_shift)]). *)

val page_words : t -> int -> int
(** Words in page [p] (smaller than [2^page_shift] only for a trailing
    partial page).  @raise Invalid_argument on a bad page index. *)

val read : t -> int -> Word.t
(** @raise Invalid_argument if the address is out of range. *)

val write : t -> int -> Word.t -> unit
(** The value is masked to 32 bits.
    @raise Invalid_argument if the address is out of range. *)

val in_range : t -> int -> bool

val read_fast : t -> int -> Word.t
(** Unchecked read for the translated-code engine: the caller must
    have proved [0 <= addr < size t] (a masked word is non-negative,
    so one compare against [size] suffices). *)

val write_fast : t -> int -> Word.t -> unit
(** Unchecked write for the translated-code engine: same address
    obligation as {!read_fast}, plus the value must already be a
    masked 32-bit word (register values are).  Write tracking is
    identical to {!write}. *)

val blit_words : Word.t array -> int -> Word.t array -> int -> int -> unit
(** [blit_words src src_pos dst dst_pos len] is [Array.blit] for word
    arrays, with plain stores where [Array.blit] pays a write barrier
    per word into a major-heap array.  Copies forwards, so overlapping
    ranges of one array need [dst_pos <= src_pos].
    @raise Invalid_argument if a range is out of bounds. *)

val blit_in : t -> addr:int -> Word.t array -> unit
(** Copy a block of words into memory starting at [addr] (DMA). *)

val blit_out : t -> addr:int -> len:int -> Word.t array
(** Copy [len] words out of memory starting at [addr] (DMA). *)

val equal : t -> t -> bool
(** Word-array content equality (early-exit loop; tracking state is
    not compared). *)

val digest : t -> int
(** Digest of the whole contents, computed incrementally.  A chunk
    digest is an FNV fold of the chunk's words, and the memory digest
    is the sum, modulo [2{^62}], of one term per chunk that mixes the
    chunk's position with its digest.  Only chunks written since the
    last digest are re-hashed, each moving the cached sum by the
    difference of its old and new terms, so a digest costs what was
    written.  A pure function of the contents — always equal to
    {!full_digest}. *)

val full_digest : t -> int
(** The same digest computed from scratch, ignoring (and not
    updating) the digest caches; the reference implementation the
    incremental path is checked against. *)

val take_hash_work : t -> int * int
(** [(pages hashed, pages skipped)] by digest computations since the
    last call; resets both counters.  A {!digest} counts a page as
    hashed when it holds a chunk written since the previous digest,
    however few, and as skipped otherwise; a {!full_digest} counts
    every page as hashed. *)

val words_hashed : unit -> int
(** Words hashed by every memory's {!digest} and {!full_digest} since
    the program started, a {!save} that copies a chunk whose digest is
    out of date included: a deterministic count of hashing work, for
    tests that gate it. *)

val words_copied : unit -> int
(** Words moved by every memory's {!save}, {!restore} and {!adopt}
    since the program started: the words of each chunk a save copies
    out and of each chunk a restore or adopt rewrites (zero-filled ones
    included; a {!reset} is not counted).  A deterministic count of
    snapshot work, for tests that gate it. *)

val dirty_pages : t -> int list
(** Pages written since the last {!clear_dirty}, ascending.  All pages
    are dirty initially. *)

val clear_dirty : t -> unit

val load : t -> addr:int -> Word.t list -> unit
(** Write a literal list of words at [addr] (program loading). *)

(** {2 Save and restore} *)

type saved
(** The whole memory — contents, the chunks written since the last
    digest, the snapshot-dirty pages, work counters — at the time of a
    {!save}; immutable.  Contents are held in chunks, each carrying its
    digest: pages not written since the previous {!save}, {!restore}
    or {!adopt} of the same memory, and the chunks of the pages that
    were that are unwritten or unchanged, are shared with it rather
    than copied. *)

val save : t -> saved
(** Compares and copies only the chunks written since the previous
    save, restore or adopt (hashing a copied chunk whose digest is out
    of date), and returns that one's save itself when nothing was
    written, hashed or counted since. *)

val restore : t -> saved -> unit
(** Put the memory back in place to a {!save} of it (any one, in any
    order, any number of times).  Rewrites only the chunks written
    since the last save, restore or adopt, and those in which that one
    and the target differ, each with the digest its saved chunk
    carries, so nothing is re-hashed.
    @raise Invalid_argument if the save is of a memory of another size
    or page size. *)

val adopt : t -> saved -> unit
(** Take in a {!save} of another memory of the same geometry (or of
    this one), as a peer reintegrating from a snapshot does: the same
    chunk walk as {!restore}, but this memory keeps its own work
    counters ({!take_hash_work}) and every page becomes
    snapshot-dirty ({!dirty_pages}).
    @raise Invalid_argument if the save is of a memory of another size
    or page size. *)
