(* Dirty-page tracking.

   The lockstep protocol hashes the whole guest memory at every epoch
   boundary, and reintegration snapshots copy it.  Both costs are
   proportional to memory size, not to how much the guest actually
   wrote — at the paper's EL=1024 the simulator would spend far more
   host time hashing than executing.  So memory keeps two per-page
   dirty bitmaps keyed to the page size of the owning CPU's config:

   - [stale] invalidates the cached per-page FNV digest; [digest]
     re-hashes only stale pages and folds the cached digests of the
     rest.  The digest is a pure function of the word contents (the
     fold order is fixed), so the incremental result is always equal
     to a from-scratch [full_digest] — that equivalence is what keeps
     primary and backup comparable whichever scheme each side uses.
   - [snap_dirty] records pages written since the last [clear_dirty],
     which the CPU snapshot path uses to copy only the delta since the
     previous snapshot.

   A third set, [touched], exists only so [reset] can find the pages
   that may hold nonzero words without scanning the rest: a page may
   be nonzero only if it is [stale] or [touched].  Writes already mark
   [stale], so [touched] is set where [stale] is cleared ([digest]) or
   adopted from another memory ([copy_page], [blit_from]) — never on
   the write fast paths. *)

type t = {
  words : int array;
  page_shift : int;
  pages : int;
  page_digests : int array;
  stale : bool array; (* page digest cache invalid *)
  touched : bool array; (* page may be nonzero though not [stale] *)
  zero_page : int; (* digest of an all-zero page *)
  zero_tail : int; (* of the all-zero last page, which may be partial *)
  mutable clean : bool; (* no write since [digest_cache] was computed *)
  mutable digest_cache : int;
  snap_dirty : bool array; (* page written since last [clear_dirty] *)
  (* cumulative work counters, drained by [take_hash_work] *)
  mutable pages_hashed : int;
  mutable pages_skipped : int;
}

let default_page_shift = 10

module Fnv = Hft_sim.Fnv

(* distinct bases for the word-level and page-level folds, so a page
   digest can never be mistaken for a fold of page digests *)
let page_basis = 0x3bf29ce484222325
let digest_basis = 0x27d4eb2f165667c5

(* the digest of [n] zero words, which is what [hash_page] computes
   for an untouched page of [n] words *)
let zero_page_digest n =
  let h = ref page_basis in
  for _ = 1 to n do
    h := Fnv.int !h 0
  done;
  !h

(* Fresh memory is all zeros, so every page digest is known without
   reading a word: seed the cache with the zero-page digest (the
   trailing partial page gets its own) and mark nothing stale.  Every
   write path marks its page stale, so [digest = full_digest] holds
   from the first call on.  [create] and [reset] share this, so fresh
   state is defined once. *)
let init t =
  Array.fill t.page_digests 0 t.pages t.zero_page;
  t.page_digests.(t.pages - 1) <- t.zero_tail;
  Array.fill t.stale 0 t.pages false;
  Array.fill t.touched 0 t.pages false;
  t.clean <- false;
  t.digest_cache <- 0;
  Array.fill t.snap_dirty 0 t.pages true;
  t.pages_hashed <- 0;
  t.pages_skipped <- 0

let create ?(page_shift = default_page_shift) ~words () =
  if words <= 0 then invalid_arg "Memory.create: size must be positive";
  if page_shift < 0 || page_shift > 30 then
    invalid_arg "Memory.create: bad page_shift";
  let page = 1 lsl page_shift in
  let pages = (words + page - 1) lsr page_shift in
  let zero_page = zero_page_digest (min page words) in
  let tail = words - ((pages - 1) lsl page_shift) in
  let t =
    {
      words = Array.make words 0;
      page_shift;
      pages;
      page_digests = Array.make pages 0;
      stale = Array.make pages false;
      touched = Array.make pages false;
      zero_page;
      zero_tail = (if tail < page then zero_page_digest tail else zero_page);
      clean = false;
      digest_cache = 0;
      snap_dirty = Array.make pages true;
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

let reset t =
  for p = 0 to t.pages - 1 do
    if t.stale.(p) || t.touched.(p) then
      Array.fill t.words (p lsl t.page_shift) (page_words t p) 0
  done;
  init t

let[@inline] in_range t addr = addr >= 0 && addr < Array.length t.words

let[@inline never] oob op addr =
  invalid_arg (Printf.sprintf "Memory.%s: address 0x%x out of range" op addr)

let[@inline] read t addr =
  if not (in_range t addr) then oob "read" addr;
  t.words.(addr)

let[@inline] mark t addr =
  let p = addr lsr t.page_shift in
  t.stale.(p) <- true;
  t.snap_dirty.(p) <- true;
  t.clean <- false

let[@inline] write t addr v =
  if not (in_range t addr) then oob "write" addr;
  t.words.(addr) <- Word.mask v;
  mark t addr

(* Unchecked fast paths for the translated-code engine (Translate):
   the caller has already proved [0 <= addr < size t] — masked words
   are non-negative, so one compare against [size] suffices — and, for
   writes, that [v] is already a masked word (register values are).
   Dirty-page tracking is identical to [write]. *)
let[@inline] read_fast t addr = Array.unsafe_get t.words addr

let[@inline] write_fast t addr v =
  Array.unsafe_set t.words addr v;
  let p = addr lsr t.page_shift in
  Array.unsafe_set t.stale p true;
  Array.unsafe_set t.snap_dirty p true;
  t.clean <- false

let mark_range t ~addr ~len =
  if len > 0 then begin
    let first = addr lsr t.page_shift
    and last = (addr + len - 1) lsr t.page_shift in
    for p = first to last do
      t.stale.(p) <- true;
      t.snap_dirty.(p) <- true
    done;
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

let copy t =
  {
    words = sub_words t.words 0 (Array.length t.words);
    page_shift = t.page_shift;
    pages = t.pages;
    page_digests = sub_words t.page_digests 0 t.pages;
    stale = Array.copy t.stale;
    touched = Array.copy t.touched;
    zero_page = t.zero_page;
    zero_tail = t.zero_tail;
    clean = t.clean;
    digest_cache = t.digest_cache;
    snap_dirty = Array.copy t.snap_dirty;
    pages_hashed = 0;
    pages_skipped = 0;
  }

let blit_from t ~src =
  if Array.length t.words <> Array.length src.words then
    invalid_arg "Memory.blit_from: size mismatch";
  if t != src then begin
    blit_words src.words 0 t.words 0 (Array.length src.words);
    if t.page_shift = src.page_shift then begin
      (* adopt the source's digest caches so a restore costs no
         re-hashing beyond what the source already owed *)
      blit_words src.page_digests 0 t.page_digests 0 t.pages;
      Array.blit src.stale 0 t.stale 0 t.pages;
      Array.blit src.touched 0 t.touched 0 t.pages;
      t.digest_cache <- src.digest_cache;
      t.clean <- src.clean
    end
    else begin
      Array.fill t.stale 0 t.pages true;
      t.clean <- false
    end;
    (* relative to this memory's snapshot base, everything changed *)
    Array.fill t.snap_dirty 0 t.pages true
  end

let copy_page ~src ~dst p =
  if
    src.page_shift <> dst.page_shift
    || Array.length src.words <> Array.length dst.words
  then invalid_arg "Memory.copy_page: geometry mismatch";
  if p < 0 || p >= src.pages then invalid_arg "Memory.copy_page: bad page";
  let lo = p lsl src.page_shift in
  let len = min (1 lsl src.page_shift) (Array.length src.words - lo) in
  blit_words src.words lo dst.words lo len;
  dst.page_digests.(p) <- src.page_digests.(p);
  dst.stale.(p) <- src.stale.(p);
  dst.touched.(p) <- src.touched.(p);
  dst.snap_dirty.(p) <- true;
  dst.clean <- false

let equal a b =
  let n = Array.length a.words in
  n = Array.length b.words
  &&
  let i = ref 0 in
  while !i < n && a.words.(!i) = b.words.(!i) do
    incr i
  done;
  !i = n

let hash_page t p =
  let lo = p lsl t.page_shift in
  let hi = min (lo + (1 lsl t.page_shift)) (Array.length t.words) in
  let words = t.words in
  let h = ref page_basis in
  for i = lo to hi - 1 do
    h := Fnv.int !h words.(i)
  done;
  !h

let fold_pages digests pages =
  let h = ref digest_basis in
  for p = 0 to pages - 1 do
    h := Fnv.int !h digests.(p)
  done;
  !h

let digest t =
  if t.clean then begin
    t.pages_skipped <- t.pages_skipped + t.pages;
    t.digest_cache
  end
  else begin
    for p = 0 to t.pages - 1 do
      if t.stale.(p) then begin
        t.page_digests.(p) <- hash_page t p;
        t.stale.(p) <- false;
        t.touched.(p) <- true;
        t.pages_hashed <- t.pages_hashed + 1
      end
      else t.pages_skipped <- t.pages_skipped + 1
    done;
    t.digest_cache <- fold_pages t.page_digests t.pages;
    t.clean <- true;
    t.digest_cache
  end

let full_digest t =
  let h = ref digest_basis in
  for p = 0 to t.pages - 1 do
    h := Fnv.int !h (hash_page t p)
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
    if t.snap_dirty.(p) then acc := p :: !acc
  done;
  !acc

let clear_dirty t = Array.fill t.snap_dirty 0 t.pages false

let load t ~addr words = blit_in t ~addr (Array.of_list words)
