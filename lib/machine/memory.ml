(* Write tracking.

   The lockstep protocol hashes the whole guest memory at every epoch
   boundary, the model checker fingerprints and saves it at every state
   it explores, and reintegration snapshots copy it.  All three costs
   are proportional to memory size, not to how much the guest actually
   wrote — at the paper's EL=1024 the simulator would spend far more
   host time hashing than executing.  So memory tracks writes at two
   grains, both keyed to the page size of the owning CPU's config.

   Per page, flags packed into one int so a write sets all of them with
   a single store:

   - [stale] invalidates the cached page digest; [digest] refolds only
     stale pages and reuses the cached digests of the rest.
   - [snap] records pages written since the last [clear_dirty], which
     the CPU snapshot path uses to count the delta since the previous
     snapshot.
   - [saved] records pages written since the last [save], [restore] or
     [adopt].

   Per chunk of [min 32 page] words, two bits in a byte:

   - [c_stale]: the cached chunk digest is unknown.  A stale page is
     refolded from its chunk digests, and only its stale chunks are
     re-hashed, so one written word costs one chunk's hashing.
   - [c_saved]: the chunk was written since the last [save], [restore]
     or [adopt].  Every other chunk holds exactly what [head] holds,
     which is what [save] compares and copies, what [restore] and
     [adopt] rewrite, and how [reset] finds the chunks that may hold
     nonzero words.

   The digest is a pure function of the word contents (a chunk digest
   folds its words, a page digest its chunk digests, the memory digest
   its page digests, each in a fixed order), so the incremental result
   is always equal to a from-scratch [full_digest] — that equivalence
   is what keeps primary and backup comparable whichever scheme each
   side uses. *)

let f_stale = 1
let f_snap = 2
let f_saved = 4

(* what a write sets: the page is stale, snapshot-dirty and unsaved *)
let f_written = f_stale lor f_snap lor f_saved

let c_stale = 1
let c_saved = 2
let c_written = c_stale lor c_saved

(* A [save]: every page's contents in chunks (see [save]), plus the
   page-level tracking state.  Chunk digests are not saved: a chunk a
   [restore] rewrites has its digest recomputed when next needed. *)
type saved = {
  sv_words : int;
  sv_shift : int;
  sv_pages : int array array array;
  sv_flags : int array;
  sv_digests : int array;
  sv_clean : bool;
  sv_digest_cache : int;
  sv_hashed : int;
  sv_skipped : int;
}

type t = {
  words : int array;
  page_shift : int;
  chunk_shift : int; (* [min 5 page_shift] *)
  pages : int;
  chunks : int;
  page_digests : int array;
  flags : int array; (* per page, [f_*] bits *)
  chunk_digests : int array;
  chunk_flags : Bytes.t; (* per chunk, [c_*] bits *)
  zero_chunk : int; (* digest of an all-zero chunk *)
  zero_chunk_tail : int; (* of the last chunk, which may be partial *)
  zero_page : int; (* of an all-zero page *)
  zero_tail : int; (* of the last page, which may be partial *)
  mutable clean : bool; (* no write since [digest_cache] was computed *)
  mutable digest_cache : int;
  root : saved; (* all-zero pages: what [init] leaves *)
  mutable head : saved;
      (* the last [save] or [restore]: every chunk without [c_saved]
         holds exactly [head]'s contents *)
  (* cumulative work counters, drained by [take_hash_work] *)
  mutable pages_hashed : int;
  mutable pages_skipped : int;
}

let default_page_shift = 10
let max_chunk_shift = 5

module Fnv = Hft_sim.Fnv

(* distinct bases for the word-level, chunk-level and page-level folds,
   so a digest at one level can never be mistaken for a fold at another *)
let chunk_basis = 0x3bf29ce484222325
let page_basis = 0x2545f4914f6cdd1d
let digest_basis = 0x27d4eb2f165667c5

(* words hashed by every memory since the program started *)
let hashed_words = ref 0

let words_hashed () = !hashed_words

(* the digest of [n] zero words, which is what [hash_chunk] computes
   for an untouched chunk of [n] words *)
let zero_chunk_digest n =
  let h = ref chunk_basis in
  for _ = 1 to n do
    h := Fnv.int !h 0
  done;
  !h

(* the digest of an untouched page of [n] words: whole chunks, then
   a partial one if [n] is not a multiple of [chunk_words] *)
let zero_page_digest ~chunk_words n =
  let whole = zero_chunk_digest chunk_words in
  let h = ref page_basis in
  for _ = 1 to n / chunk_words do
    h := Fnv.int !h whole
  done;
  if n mod chunk_words = 0 then !h
  else Fnv.int !h (zero_chunk_digest (n mod chunk_words))

(* Fresh memory is all zeros, so every digest is known without reading
   a word: seed the caches with the zero digests (the trailing partial
   chunk and page get their own) and mark nothing stale.  Every write
   path marks its page and chunk stale, so [digest = full_digest] holds
   from the first call on.  [create] and [reset] share this, so fresh
   state is defined once. *)
let init t =
  Array.fill t.page_digests 0 t.pages t.zero_page;
  t.page_digests.(t.pages - 1) <- t.zero_tail;
  Array.fill t.chunk_digests 0 t.chunks t.zero_chunk;
  t.chunk_digests.(t.chunks - 1) <- t.zero_chunk_tail;
  Array.fill t.flags 0 t.pages f_snap;
  Bytes.fill t.chunk_flags 0 t.chunks '\000';
  t.clean <- false;
  t.digest_cache <- 0;
  t.head <- t.root;
  t.pages_hashed <- 0;
  t.pages_skipped <- 0

let create ?(page_shift = default_page_shift) ~words () =
  if words <= 0 then invalid_arg "Memory.create: size must be positive";
  if page_shift < 0 || page_shift > 30 then
    invalid_arg "Memory.create: bad page_shift";
  let page = 1 lsl page_shift in
  let chunk_shift = min max_chunk_shift page_shift in
  let chunk_words = 1 lsl chunk_shift in
  let pages = (words + page - 1) lsr page_shift in
  let chunks = (words + chunk_words - 1) lsr chunk_shift in
  let root =
    {
      sv_words = words;
      sv_shift = page_shift;
      sv_pages = Array.make pages [||];
      sv_flags = [||];
      sv_digests = [||];
      sv_clean = false;
      sv_digest_cache = 0;
      sv_hashed = 0;
      sv_skipped = 0;
    }
  in
  let t =
    {
      words = Array.make words 0;
      page_shift;
      chunk_shift;
      pages;
      chunks;
      page_digests = Array.make pages 0;
      flags = Array.make pages 0;
      chunk_digests = Array.make chunks 0;
      chunk_flags = Bytes.make chunks '\000';
      zero_chunk = zero_chunk_digest (min chunk_words words);
      zero_chunk_tail =
        zero_chunk_digest (words - ((chunks - 1) lsl chunk_shift));
      zero_page = zero_page_digest ~chunk_words (min page words);
      zero_tail =
        zero_page_digest ~chunk_words (words - ((pages - 1) lsl page_shift));
      clean = false;
      digest_cache = 0;
      root;
      head = root;
      pages_hashed = 0;
      pages_skipped = 0;
    }
  in
  init t;
  t

let size t = Array.length t.words
let page_shift t = t.page_shift
let pages t = t.pages

let page_words t p =
  if p < 0 || p >= t.pages then invalid_arg "Memory.page_words: bad page";
  min (1 lsl t.page_shift) (Array.length t.words - (p lsl t.page_shift))

let[@inline] chunk_flag t c = Char.code (Bytes.unsafe_get t.chunk_flags c)

let[@inline] set_chunk_flag t c f =
  Bytes.unsafe_set t.chunk_flags c (Char.unsafe_chr f)

(* words in chunk [c]: fewer than [2^chunk_shift] only for the last *)
let chunk_len t c =
  min (1 lsl t.chunk_shift) (Array.length t.words - (c lsl t.chunk_shift))

(* page [p]'s first chunk and its number of chunks *)
let first_chunk t p = p lsl (t.page_shift - t.chunk_shift)

let page_chunks t p =
  min (1 lsl (t.page_shift - t.chunk_shift)) (t.chunks - first_chunk t p)

(* the [i]th chunk of a saved page, [[||]] if zero *)
let chunk page i = if Array.length page = 0 then [||] else page.(i)

(* A chunk may hold nonzero words only if it was written since [head]
   or [head] holds it as nonzero. *)
let reset t =
  for p = 0 to t.pages - 1 do
    let hp = t.head.sv_pages.(p) in
    if t.flags.(p) land f_saved <> 0 || Array.length hp <> 0 then begin
      let c0 = first_chunk t p in
      for i = 0 to page_chunks t p - 1 do
        let c = c0 + i in
        if chunk_flag t c land c_saved <> 0 || Array.length (chunk hp i) <> 0
        then Array.fill t.words (c lsl t.chunk_shift) (chunk_len t c) 0
      done
    end
  done;
  init t

let[@inline] in_range t addr = addr >= 0 && addr < Array.length t.words

let[@inline never] oob op addr =
  invalid_arg (Printf.sprintf "Memory.%s: address 0x%x out of range" op addr)

let[@inline] read t addr =
  if not (in_range t addr) then oob "read" addr;
  t.words.(addr)

let[@inline] mark t addr =
  t.flags.(addr lsr t.page_shift) <- f_written;
  set_chunk_flag t (addr lsr t.chunk_shift) c_written;
  t.clean <- false

let[@inline] write t addr v =
  if not (in_range t addr) then oob "write" addr;
  t.words.(addr) <- Word.mask v;
  mark t addr

(* Unchecked fast paths for the translated-code engine (Translate):
   the caller has already proved [0 <= addr < size t] — masked words
   are non-negative, so one compare against [size] suffices — and, for
   writes, that [v] is already a masked word (register values are).
   Write tracking is identical to [write]. *)
let[@inline] read_fast t addr = Array.unsafe_get t.words addr

let[@inline] write_fast t addr v =
  Array.unsafe_set t.words addr v;
  Array.unsafe_set t.flags (addr lsr t.page_shift) f_written;
  set_chunk_flag t (addr lsr t.chunk_shift) c_written;
  t.clean <- false

let mark_range t ~addr ~len =
  if len > 0 then begin
    let first = addr lsr t.page_shift
    and last = (addr + len - 1) lsr t.page_shift in
    Array.fill t.flags first (last - first + 1) f_written;
    let first = addr lsr t.chunk_shift
    and last = (addr + len - 1) lsr t.chunk_shift in
    Bytes.fill t.chunk_flags first (last - first + 1) (Char.chr c_written);
    t.clean <- false
  end

(* [Array.blit] for words: typed [int] stores.  The polymorphic
   runtime copies ([Array.blit], [Array.copy], [Array.sub]) cannot know
   the elements are immediate, so into a major-heap array they pay a
   write barrier per word.  Copies forwards: [src] and [dst] must not
   overlap unless [dst_pos <= src_pos]. *)
let blit_words (src : int array) src_pos (dst : int array) dst_pos len =
  if
    len < 0 || src_pos < 0 || dst_pos < 0
    || src_pos + len > Array.length src
    || dst_pos + len > Array.length dst
  then invalid_arg "Memory.blit_words";
  for i = 0 to len - 1 do
    Array.unsafe_set dst (dst_pos + i) (Array.unsafe_get src (src_pos + i))
  done

let sub_words a pos len =
  let c = Array.make len 0 in
  blit_words a pos c 0 len;
  c

let blit_in t ~addr block =
  let len = Array.length block in
  if addr < 0 || addr + len > Array.length t.words then
    invalid_arg "Memory.blit_in: block out of range";
  blit_words block 0 t.words addr len;
  mark_range t ~addr ~len

let blit_out t ~addr ~len =
  if addr < 0 || len < 0 || addr + len > Array.length t.words then
    invalid_arg "Memory.blit_out: block out of range";
  sub_words t.words addr len

let equal a b =
  let n = Array.length a.words in
  n = Array.length b.words
  &&
  let i = ref 0 in
  while !i < n && a.words.(!i) = b.words.(!i) do
    incr i
  done;
  !i = n

let hash_chunk t c =
  let lo = c lsl t.chunk_shift in
  let n = chunk_len t c in
  let words = t.words in
  let h = ref chunk_basis in
  for i = lo to lo + n - 1 do
    h := Fnv.int !h (Array.unsafe_get words i)
  done;
  hashed_words := !hashed_words + n;
  !h

(* Page [p]'s digest from its chunk digests, re-hashing the stale
   chunks and caching what they hash to. *)
let refold_page t p =
  let c0 = first_chunk t p in
  let h = ref page_basis in
  for c = c0 to c0 + page_chunks t p - 1 do
    let f = chunk_flag t c in
    if f land c_stale <> 0 then begin
      t.chunk_digests.(c) <- hash_chunk t c;
      set_chunk_flag t c (f land lnot c_stale)
    end;
    h := Fnv.int !h t.chunk_digests.(c)
  done;
  t.page_digests.(p) <- !h

let digest t =
  if t.clean then begin
    t.pages_skipped <- t.pages_skipped + t.pages;
    t.digest_cache
  end
  else begin
    let h = ref digest_basis in
    for p = 0 to t.pages - 1 do
      let f = t.flags.(p) in
      if f land f_stale <> 0 then begin
        refold_page t p;
        t.flags.(p) <- f land lnot f_stale;
        t.pages_hashed <- t.pages_hashed + 1
      end
      else t.pages_skipped <- t.pages_skipped + 1;
      h := Fnv.int !h t.page_digests.(p)
    done;
    t.digest_cache <- !h;
    t.clean <- true;
    !h
  end

let full_digest t =
  let h = ref digest_basis in
  for p = 0 to t.pages - 1 do
    let c0 = first_chunk t p in
    let hp = ref page_basis in
    for c = c0 to c0 + page_chunks t p - 1 do
      hp := Fnv.int !hp (hash_chunk t c)
    done;
    h := Fnv.int !h !hp
  done;
  t.pages_hashed <- t.pages_hashed + t.pages;
  !h

let take_hash_work t =
  let r = (t.pages_hashed, t.pages_skipped) in
  t.pages_hashed <- 0;
  t.pages_skipped <- 0;
  r

let dirty_pages t =
  let acc = ref [] in
  for p = t.pages - 1 downto 0 do
    if t.flags.(p) land f_snap <> 0 then acc := p :: !acc
  done;
  !acc

let clear_dirty t =
  for p = 0 to t.pages - 1 do
    t.flags.(p) <- t.flags.(p) land lnot f_snap
  done

let load t ~addr words = blit_in t ~addr (Array.of_list words)

(* ---------- save and restore ----------

   A [save] holds every page as an array of its chunks ([[||]] for a
   zero page or chunk).  Only the chunks written since the previous
   [save], [restore] or [adopt] are compared with it, and only those
   that changed are copied; everything else is shared, so a saved
   value needs nothing else alive to be restored, and a chain of saves
   costs about one chunk per chunk written along it.  Chunks are small
   enough to be allocated on the minor heap.  A [restore] or [adopt]
   rewrites the chunks written since [head] and those where [head] and
   the target differ (a pointer compare per chunk of a page they do
   not share). *)

let same_words words lo (ch : int array) len =
  let i = ref 0 in
  if Array.length ch = 0 then
    while !i < len && words.(lo + !i) = 0 do
      incr i
    done
  else
    while !i < len && words.(lo + !i) = ch.(!i) do
      incr i
    done;
  !i = len

(* page [p]'s live contents, sharing [prev] itself when no written
   chunk changed and every unwritten or unchanged chunk otherwise *)
let save_page t p prev =
  let c0 = first_chunk t p and n = page_chunks t p in
  let page = ref prev in
  for i = 0 to n - 1 do
    let c = c0 + i in
    let f = chunk_flag t c in
    if f land c_saved <> 0 then begin
      set_chunk_flag t c (f land lnot c_saved);
      let off = c lsl t.chunk_shift and len = chunk_len t c in
      if not (same_words t.words off (chunk prev i) len) then begin
        if !page == prev then
          page :=
            if Array.length prev = 0 then Array.make n [||]
            else Array.copy prev;
        !page.(i) <- sub_words t.words off len
      end
    end
  done;
  !page

(* [a]'s contents, as [prev] itself when they are equal *)
let share (prev : int array) (a : int array) =
  let n = Array.length a in
  if Array.length prev = n && same_words a 0 prev n then prev
  else sub_words a 0 n

(* Nothing written or rehashed since [head], and the same counters:
   [head] itself is the save. *)
let unchanged t =
  let h = t.head in
  let rec pages p =
    p = t.pages
    || t.flags.(p) land f_saved = 0
       && t.flags.(p) = h.sv_flags.(p)
       && t.page_digests.(p) = h.sv_digests.(p)
       && pages (p + 1)
  in
  h != t.root && h.sv_clean = t.clean
  && h.sv_digest_cache = t.digest_cache
  && h.sv_hashed = t.pages_hashed
  && h.sv_skipped = t.pages_skipped
  && pages 0

let save t =
  if unchanged t then t.head
  else begin
    let head = t.head in
    let pages = ref head.sv_pages in
    for p = 0 to t.pages - 1 do
      let f = t.flags.(p) in
      if f land f_saved <> 0 then begin
        let prev = head.sv_pages.(p) in
        let page = save_page t p prev in
        if page != prev then begin
          if !pages == head.sv_pages then pages := Array.copy head.sv_pages;
          !pages.(p) <- page
        end;
        t.flags.(p) <- f land lnot f_saved
      end
    done;
    let s =
      {
        head with
        sv_pages = !pages;
        sv_flags = share head.sv_flags t.flags;
        sv_digests = share head.sv_digests t.page_digests;
        sv_clean = t.clean;
        sv_digest_cache = t.digest_cache;
        sv_hashed = t.pages_hashed;
        sv_skipped = t.pages_skipped;
      }
    in
    t.head <- s;
    s
  end

let check_geometry op t s =
  if s.sv_words <> Array.length t.words || s.sv_shift <> t.page_shift then
    invalid_arg ("Memory." ^ op ^ ": geometry mismatch")

(* The chunk walk [restore] and [adopt] share.  Chunks are immutable
   once saved, so the pointer compare against [head] holds for a save
   of another memory too.  A rewritten chunk's cached digest is unknown
   (saves hold page digests only); every other chunk keeps its words,
   so its cached digest stays right. *)
let rewrite t s =
  let cur = t.head.sv_pages in
  for p = 0 to t.pages - 1 do
    let page = s.sv_pages.(p) and old = cur.(p) in
    if t.flags.(p) land f_saved <> 0 || page != old then begin
      let c0 = first_chunk t p in
      for i = 0 to page_chunks t p - 1 do
        let c = c0 + i and ch = chunk page i in
        if chunk_flag t c land c_saved <> 0 || ch != chunk old i then begin
          let off = c lsl t.chunk_shift in
          if Array.length ch = 0 then Array.fill t.words off (chunk_len t c) 0
          else blit_words ch 0 t.words off (Array.length ch);
          set_chunk_flag t c c_stale
        end
      done
    end
  done;
  blit_words s.sv_digests 0 t.page_digests 0 t.pages;
  t.clean <- s.sv_clean;
  t.digest_cache <- s.sv_digest_cache;
  t.head <- s

let restore t s =
  check_geometry "restore" t s;
  rewrite t s;
  blit_words s.sv_flags 0 t.flags 0 t.pages;
  t.pages_hashed <- s.sv_hashed;
  t.pages_skipped <- s.sv_skipped

let adopt t s =
  check_geometry "adopt" t s;
  rewrite t s;
  for p = 0 to t.pages - 1 do
    t.flags.(p) <- s.sv_flags.(p) lor f_snap
  done
