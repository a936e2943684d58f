(* Dirty-page tracking.

   The lockstep protocol hashes the whole guest memory at every epoch
   boundary, and reintegration snapshots copy it.  Both costs are
   proportional to memory size, not to how much the guest actually
   wrote — at the paper's EL=1024 the simulator would spend far more
   host time hashing than executing.  So memory keeps per-page flags,
   keyed to the page size of the owning CPU's config, packed into one
   int per page so a write sets all its flags with a single store:

   - [stale] invalidates the cached per-page FNV digest; [digest]
     re-hashes only stale pages and folds the cached digests of the
     rest.  The digest is a pure function of the word contents (the
     fold order is fixed), so the incremental result is always equal
     to a from-scratch [full_digest] — that equivalence is what keeps
     primary and backup comparable whichever scheme each side uses.
   - [snap] records pages written since the last [clear_dirty], which
     the CPU snapshot path uses to count the delta since the previous
     snapshot.
   - [saved] records pages written since the last [save], [restore] or
     [adopt], which a [save] copies (see below).  Every other page
     holds exactly what [head] holds, which is also how [reset] finds
     the pages that may hold nonzero words. *)

let f_stale = 1
let f_snap = 2
let f_saved = 4

(* what a write sets: the page is stale, snapshot-dirty and unsaved *)
let f_written = f_stale lor f_snap lor f_saved

(* A [save]: every page's contents in chunks (see [save]), plus the
   tracking state. *)
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
  pages : int;
  page_digests : int array;
  flags : int array; (* per page, [f_*] bits *)
  zero_page : int; (* digest of an all-zero page *)
  zero_tail : int; (* of the all-zero last page, which may be partial *)
  mutable clean : bool; (* no write since [digest_cache] was computed *)
  mutable digest_cache : int;
  root : saved; (* all-zero pages: what [init] leaves *)
  mutable head : saved;
      (* the last [save] or [restore]: every page without [f_saved]
         holds exactly [head]'s contents *)
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
  Array.fill t.flags 0 t.pages f_snap;
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
  let pages = (words + page - 1) lsr page_shift in
  let zero_page = zero_page_digest (min page words) in
  let tail = words - ((pages - 1) lsl page_shift) in
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
      pages;
      page_digests = Array.make pages 0;
      flags = Array.make pages 0;
      zero_page;
      zero_tail = (if tail < page then zero_page_digest tail else zero_page);
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

(* A page may hold nonzero words only if it was written since [head]
   or [head] holds it as nonzero. *)
let reset t =
  for p = 0 to t.pages - 1 do
    if t.flags.(p) land f_saved <> 0 || Array.length t.head.sv_pages.(p) <> 0
    then Array.fill t.words (p lsl t.page_shift) (page_words t p) 0
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
  Array.unsafe_set t.flags (addr lsr t.page_shift) f_written;
  t.clean <- false

let mark_range t ~addr ~len =
  if len > 0 then begin
    let first = addr lsr t.page_shift
    and last = (addr + len - 1) lsr t.page_shift in
    Array.fill t.flags first (last - first + 1) f_written;
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
      let f = t.flags.(p) in
      if f land f_stale <> 0 then begin
        t.page_digests.(p) <- hash_page t p;
        t.flags.(p) <- f land lnot f_stale;
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
    if t.flags.(p) land f_snap <> 0 then acc := p :: !acc
  done;
  !acc

let clear_dirty t =
  for p = 0 to t.pages - 1 do
    t.flags.(p) <- t.flags.(p) land lnot f_snap
  done

let load t ~addr words = blit_in t ~addr (Array.of_list words)

(* ---------- save and restore ----------

   A [save] holds every page as an array of chunks of at most
   [chunk_words] words ([[||]] for a zero page or chunk).  Only the
   pages written since the previous [save], [restore] or [adopt] are
   compared with it, and only the chunks that changed are copied;
   everything else is shared, so a saved value needs nothing else
   alive to be restored, and a chain of saves costs about one chunk
   per chunk written along it.  Chunks are small enough to be
   allocated on the minor heap.  A [restore] or [adopt] rewrites the
   pages written since [head] and the chunks where [head] and the
   target differ (a pointer compare per chunk). *)

let chunk_words = 32

(* the [c]th chunk of a saved page, [[||]] if zero *)
let chunk page c = if Array.length page = 0 then [||] else page.(c)

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

(* page [p]'s live contents, sharing every chunk equal to [prev]'s *)
let save_page t p prev =
  let lo = p lsl t.page_shift and n = page_words t p in
  let chunks = Array.make ((n + chunk_words - 1) / chunk_words) [||] in
  let same = ref true in
  for c = 0 to Array.length chunks - 1 do
    let off = lo + (c * chunk_words) in
    let len = min chunk_words (n - (c * chunk_words)) in
    let old = chunk prev c in
    if same_words t.words off old len then chunks.(c) <- old
    else begin
      same := false;
      chunks.(c) <- sub_words t.words off len
    end
  done;
  if !same then prev else chunks

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

(* The page walk [restore] and [adopt] share.  Chunks are immutable
   once saved, so the pointer compare against [head] holds for a save
   of another memory too. *)
let rewrite t s =
  let cur = t.head.sv_pages in
  for p = 0 to t.pages - 1 do
    let page = s.sv_pages.(p) and written = t.flags.(p) land f_saved <> 0 in
    if written || page != cur.(p) then begin
      let lo = p lsl t.page_shift and n = page_words t p in
      for c = 0 to ((n + chunk_words - 1) / chunk_words) - 1 do
        let ch = chunk page c in
        if written || ch != chunk cur.(p) c then begin
          let off = lo + (c * chunk_words) in
          if Array.length ch = 0 then
            Array.fill t.words off (min chunk_words (n - (c * chunk_words))) 0
          else blit_words ch 0 t.words off (Array.length ch)
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
