(* Write tracking.

   The lockstep protocol hashes the whole guest memory at every epoch
   boundary, the model checker fingerprints and saves it at every state
   it explores, and reintegration snapshots copy it.  Done naively, all
   three cost the memory's size, not what the guest wrote — at the
   paper's EL=1024 the simulator would spend far more host time hashing
   than executing.  So memory is tracked in chunks of [min 32 page]
   words, and each of the three costs what was written since it last
   ran.

   The digest is a position-keyed sum (mod 2^62) of chunk digests:
   chunk [c] with digest [d] contributes [term c d], an FNV mix of the
   two, so changing one chunk moves the sum by one term, and only the
   chunks written since the last digest are re-hashed.  The cached sum
   always equals the sum over the cached chunk digests, whether or not
   those are current; a digest brings the stale ones up to date.  A
   chunk digest folds its words, so the incremental result is always
   equal to a from-scratch [full_digest] — that equivalence is what
   keeps primary and backup comparable whichever scheme each side
   uses.

   Per chunk, four bits in a byte:

   - [c_listed]: written since the last [digest], and on [listed].  A
     digest counts the pages these chunks lie in as hashed.
   - [c_unknown]: the cached chunk digest is out of date.  Only a
     listed chunk can be; [digest] re-hashes it, and so does a [save]
     that copies it.
   - [c_saved]: written since the last [save], [restore] or [adopt],
     and on [unsaved].  Every other chunk holds exactly what [head]
     holds, which is what [save] compares and copies and what
     [restore] and [adopt] rewrite.
   - [c_snap]: set only while its page is snapshot-dirty (written
     since the last [clear_dirty]), so a write need not mark the page.

   A write that finds all four set stores nothing more; the first write
   to a chunk since it lost one pushes it on the lists and marks its
   page, so the lists hold each chunk at most once. *)

let c_listed = 1
let c_unknown = 2
let c_saved = 4
let c_snap = 8

(* what a write leaves *)
let c_written = c_listed lor c_unknown lor c_saved lor c_snap
let c_written_char = Char.chr c_written

(* A saved chunk: its words ([[||]] if zero) and their digest.  Saved
   chunks are immutable and always carry their digest, so a chunk a
   [restore] rewrites needs no re-hashing. *)
type chunk = { data : int array; hash : int }

(* A [save]: every page as an array of its chunks ([[||]] for a page of
   zero chunks), the listed chunks, the snapshot-dirty pages and the
   work counters. *)
type saved = {
  sv_words : int;
  sv_shift : int;
  sv_pages : chunk array array;
  sv_listed : int array;
  sv_snap : Bytes.t;
  sv_hashed : int;
  sv_skipped : int;
}

type t = {
  words : int array;
  page_shift : int;
  chunk_shift : int; (* [min 5 page_shift] *)
  page_chunk_shift : int; (* [page_shift - chunk_shift] *)
  pages : int;
  chunks : int;
  digests : int array; (* per chunk; current unless [c_unknown] *)
  flags : Bytes.t; (* per chunk, [c_*] bits *)
  mutable sum : int; (* sum of [term c digests.(c)] over every chunk *)
  listed : int array; (* the [c_listed] chunks, in [0, n_listed) *)
  mutable n_listed : int;
  unsaved : int array; (* the [c_saved] chunks, in [0, n_unsaved) *)
  mutable n_unsaved : int;
  mutable snap : Bytes.t;
      (* per page, nonzero when snapshot-dirty; replaced, never
         written in place, since saves hold it *)
  zero : chunk; (* an all-zero chunk *)
  zero_tail : chunk; (* the last chunk all zero; it may be partial *)
  all_snap : Bytes.t; (* every page snapshot-dirty *)
  no_snap : Bytes.t;
  counted : int array; (* per page, the last [gen] that counted it *)
  mutable gen : int; (* digests computed with something listed *)
  root : saved; (* what [create] leaves *)
  mutable head : saved;
      (* the last [save], [restore] or [adopt]: every chunk without
         [c_saved] holds exactly [head]'s contents *)
  (* cumulative work counters, drained by [take_hash_work] *)
  mutable pages_hashed : int;
  mutable pages_skipped : int;
}

let default_page_shift = 10
let max_chunk_shift = 5

module Fnv = Hft_sim.Fnv

(* distinct bases for the word-level fold and the position keys, so a
   chunk digest can never be mistaken for a term *)
let chunk_basis = 0x3bf29ce484222325
let digest_basis = 0x27d4eb2f165667c5

(* chunk [c]'s share of the digest when its digest is [d] *)
let[@inline] term c d = Fnv.int (Fnv.int digest_basis c) d

(* words hashed, and words moved by saves and restores, by every
   memory since the program started *)
let hashed_words = ref 0
let copied_words = ref 0

let words_hashed () = !hashed_words
let words_copied () = !copied_words

(* the digest of [n] zero words, which is what [hash_chunk] computes
   for an untouched chunk of [n] words *)
let zero_chunk_digest n =
  let h = ref chunk_basis in
  for _ = 1 to n do
    h := Fnv.int !h 0
  done;
  !h

let[@inline] flag t c = Char.code (Bytes.unsafe_get t.flags c)
let[@inline] set_flag t c f = Bytes.unsafe_set t.flags c (Char.unsafe_chr f)

(* words in chunk [c]: fewer than [2^chunk_shift] only for the last *)
let chunk_len t c =
  min (1 lsl t.chunk_shift) (Array.length t.words - (c lsl t.chunk_shift))

(* page [p]'s first chunk and its number of chunks *)
let first_chunk t p = p lsl t.page_chunk_shift

let page_chunks t p =
  min (1 lsl t.page_chunk_shift) (t.chunks - first_chunk t p)

(* chunk [c] of [page], a saved page holding it *)
let chunk_of t page c =
  if Array.length page = 0 then
    if c = t.chunks - 1 then t.zero_tail else t.zero
  else page.(c - first_chunk t (c lsr t.page_chunk_shift))

let saved_chunk t s c = chunk_of t s.sv_pages.(c lsr t.page_chunk_shift) c

let create ?(page_shift = default_page_shift) ~words () =
  if words <= 0 then invalid_arg "Memory.create: size must be positive";
  if page_shift < 0 || page_shift > 30 then
    invalid_arg "Memory.create: bad page_shift";
  let page = 1 lsl page_shift in
  let chunk_shift = min max_chunk_shift page_shift in
  let chunk_words = 1 lsl chunk_shift in
  let pages = (words + page - 1) lsr page_shift in
  let chunks = (words + chunk_words - 1) lsr chunk_shift in
  let zero = { data = [||]; hash = zero_chunk_digest (min chunk_words words) }
  and zero_tail =
    {
      data = [||];
      hash = zero_chunk_digest (words - ((chunks - 1) lsl chunk_shift));
    }
  in
  let digests = Array.make chunks zero.hash in
  digests.(chunks - 1) <- zero_tail.hash;
  let sum = ref 0 in
  Array.iteri (fun c d -> sum := (!sum + term c d) land Fnv.mask) digests;
  let all_snap = Bytes.make pages '\001' in
  let root =
    {
      sv_words = words;
      sv_shift = page_shift;
      sv_pages = Array.make pages [||];
      sv_listed = [||];
      sv_snap = all_snap;
      sv_hashed = 0;
      sv_skipped = 0;
    }
  in
  {
    words = Array.make words 0;
    page_shift;
    chunk_shift;
    page_chunk_shift = page_shift - chunk_shift;
    pages;
    chunks;
    digests;
    flags = Bytes.make chunks (Char.chr c_snap);
    sum = !sum;
    listed = Array.make chunks 0;
    n_listed = 0;
    unsaved = Array.make chunks 0;
    n_unsaved = 0;
    snap = all_snap;
    zero;
    zero_tail;
    all_snap;
    no_snap = Bytes.make pages '\000';
    counted = Array.make pages 0;
    gen = 0;
    root;
    head = root;
    pages_hashed = 0;
    pages_skipped = 0;
  }

let size t = Array.length t.words
let page_shift t = t.page_shift
let pages t = t.pages

let page_words t p =
  if p < 0 || p >= t.pages then invalid_arg "Memory.page_words: bad page";
  min (1 lsl t.page_shift) (Array.length t.words - (p lsl t.page_shift))

(* The first write to chunk [c] since it lost one of its bits. *)
let[@inline never] mark_chunk t c =
  let f = flag t c in
  if f land c_listed = 0 then begin
    t.listed.(t.n_listed) <- c;
    t.n_listed <- t.n_listed + 1
  end;
  if f land c_saved = 0 then begin
    t.unsaved.(t.n_unsaved) <- c;
    t.n_unsaved <- t.n_unsaved + 1
  end;
  (if f land c_snap = 0 then
     let p = c lsr t.page_chunk_shift in
     if Bytes.get t.snap p = '\000' then begin
       let b = Bytes.copy t.snap in
       Bytes.set b p '\001';
       t.snap <- b
     end);
  set_flag t c c_written

let[@inline] in_range t addr = addr >= 0 && addr < Array.length t.words

let[@inline never] oob op addr =
  invalid_arg (Printf.sprintf "Memory.%s: address 0x%x out of range" op addr)

let[@inline] read t addr =
  if not (in_range t addr) then oob "read" addr;
  t.words.(addr)

let[@inline] mark t addr =
  let c = addr lsr t.chunk_shift in
  if Bytes.unsafe_get t.flags c <> c_written_char then mark_chunk t c

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
  mark t addr

let mark_range t ~addr ~len =
  if len > 0 then
    for c = addr lsr t.chunk_shift to (addr + len - 1) lsr t.chunk_shift do
      if Bytes.unsafe_get t.flags c <> c_written_char then mark_chunk t c
    done

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

(* Cache [d] as chunk [c]'s digest, moving the sum by the difference
   of the two terms. *)
let set_digest t c d =
  let old = t.digests.(c) in
  if d <> old then begin
    t.sum <- (t.sum + term c d - term c old) land Fnv.mask;
    t.digests.(c) <- d
  end

let digest t =
  let n = t.n_listed in
  if n = 0 then t.pages_skipped <- t.pages_skipped + t.pages
  else begin
    t.gen <- t.gen + 1;
    let hashed = ref 0 in
    for k = 0 to n - 1 do
      let c = t.listed.(k) in
      let f = flag t c in
      if f land c_unknown <> 0 then set_digest t c (hash_chunk t c);
      set_flag t c (f land lnot (c_listed lor c_unknown));
      let p = c lsr t.page_chunk_shift in
      if t.counted.(p) <> t.gen then begin
        t.counted.(p) <- t.gen;
        incr hashed
      end
    done;
    t.n_listed <- 0;
    t.pages_hashed <- t.pages_hashed + !hashed;
    t.pages_skipped <- t.pages_skipped + t.pages - !hashed
  end;
  t.sum

let full_digest t =
  let sum = ref 0 in
  for c = 0 to t.chunks - 1 do
    sum := (!sum + term c (hash_chunk t c)) land Fnv.mask
  done;
  t.pages_hashed <- t.pages_hashed + t.pages;
  !sum

let take_hash_work t =
  let r = (t.pages_hashed, t.pages_skipped) in
  t.pages_hashed <- 0;
  t.pages_skipped <- 0;
  r

let dirty_pages t =
  let acc = ref [] in
  for p = t.pages - 1 downto 0 do
    if Bytes.get t.snap p <> '\000' then acc := p :: !acc
  done;
  !acc

(* Make [b] the snapshot-dirty set.  A chunk whose page stops being
   dirty loses [c_snap], so its next write marks the page again. *)
let set_snap t b =
  if b != t.snap then begin
    for p = 0 to t.pages - 1 do
      if Bytes.get t.snap p <> '\000' && Bytes.get b p = '\000' then
        for c = first_chunk t p to first_chunk t p + page_chunks t p - 1 do
          set_flag t c (flag t c land lnot c_snap)
        done
    done;
    t.snap <- b
  end

let clear_dirty t = set_snap t t.no_snap

let load t ~addr words = blit_in t ~addr (Array.of_list words)

(* ---------- save and restore ----------

   A [save] holds every page as an array of its saved chunks.  Only
   the chunks written since the previous [save], [restore] or [adopt]
   are compared with it, and only those that changed are copied;
   everything else is shared, so a saved value needs nothing else alive
   to be restored, and a chain of saves costs about one chunk per chunk
   written along it.  Chunks are small enough to be allocated on the
   minor heap.  A [restore] or [adopt] rewrites the chunks written
   since [head] and those where [head] and the target differ (a pointer
   compare per chunk of a page they do not share), each with the
   digest its saved chunk carries. *)

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

(* The pages of a save: [head]'s, with every written chunk that changed
   copied along with its digest (hashed now if it is out of date).  A
   written chunk that did not change takes [head]'s chunk, digest
   included. *)
let save_pages t head =
  let pages = ref head.sv_pages in
  for k = 0 to t.n_unsaved - 1 do
    let c = t.unsaved.(k) in
    let f = flag t c land lnot c_saved in
    let p = c lsr t.page_chunk_shift in
    let prev = chunk_of t head.sv_pages.(p) c in
    let off = c lsl t.chunk_shift and len = chunk_len t c in
    if same_words t.words off prev.data len then begin
      if f land c_unknown <> 0 then set_digest t c prev.hash;
      set_flag t c (f land lnot c_unknown)
    end
    else begin
      if f land c_unknown <> 0 then set_digest t c (hash_chunk t c);
      set_flag t c (f land lnot c_unknown);
      if !pages == head.sv_pages then pages := Array.copy head.sv_pages;
      let page = !pages.(p) in
      let page =
        if page != head.sv_pages.(p) then page
        else begin
          let c0 = first_chunk t p in
          let fresh =
            Array.init (page_chunks t p) (fun i -> chunk_of t page (c0 + i))
          in
          !pages.(p) <- fresh;
          fresh
        end
      in
      copied_words := !copied_words + len;
      page.(c - first_chunk t p) <-
        { data = sub_words t.words off len; hash = t.digests.(c) }
    end
  done;
  t.n_unsaved <- 0;
  !pages

(* the listed chunks, as [prev] itself when they are the same *)
let save_listed t prev =
  let n = t.n_listed in
  if n = 0 then [||]
  else if
    Array.length prev = n
    &&
    let i = ref 0 in
    while !i < n && prev.(!i) = t.listed.(!i) do
      incr i
    done;
    !i = n
  then prev
  else Array.sub t.listed 0 n

let save t =
  let head = t.head in
  let listed = save_listed t head.sv_listed in
  if
    t.n_unsaved = 0 && listed == head.sv_listed && t.snap == head.sv_snap
    && t.pages_hashed = head.sv_hashed
    && t.pages_skipped = head.sv_skipped
  then head
  else begin
    let s =
      {
        head with
        sv_pages =
          (if t.n_unsaved = 0 then head.sv_pages else save_pages t head);
        sv_listed = listed;
        sv_snap = t.snap;
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

(* chunk [c] back to the saved chunk [ch], digest and all *)
let put t c ch =
  let off = c lsl t.chunk_shift and len = chunk_len t c in
  if Array.length ch.data = 0 then Array.fill t.words off len 0
  else blit_words ch.data 0 t.words off len;
  copied_words := !copied_words + len;
  set_digest t c ch.hash;
  set_flag t c (flag t c land lnot (c_unknown lor c_saved))

(* The chunk walk [restore] and [adopt] share.  Saved chunks are
   immutable, and each nonzero one has words of its own, so comparing
   their words by pointer holds for a save of another memory too (zero
   chunks all share [[||]]).  Afterwards every cached digest is current,
   and the listed chunks are [s]'s. *)
let rewrite t s =
  let cur = t.head.sv_pages in
  if s.sv_pages != cur then
    for p = 0 to t.pages - 1 do
      let page = s.sv_pages.(p) and old = cur.(p) in
      if page != old then
        for c = first_chunk t p to first_chunk t p + page_chunks t p - 1 do
          let ch = chunk_of t page c in
          if ch.data != (chunk_of t old c).data then put t c ch
        done
    done;
  (* [put] cleared [c_saved] on the chunks it already rewrote *)
  for k = 0 to t.n_unsaved - 1 do
    let c = t.unsaved.(k) in
    if flag t c land c_saved <> 0 then put t c (saved_chunk t s c)
  done;
  t.n_unsaved <- 0;
  (* a listed chunk [put] did not rewrite holds [s]'s words already *)
  for k = 0 to t.n_listed - 1 do
    let c = t.listed.(k) in
    let f = flag t c in
    if f land c_unknown <> 0 then set_digest t c (saved_chunk t s c).hash;
    set_flag t c (f land lnot (c_listed lor c_unknown))
  done;
  let l = s.sv_listed in
  for k = 0 to Array.length l - 1 do
    set_flag t l.(k) (flag t l.(k) lor c_listed);
    t.listed.(k) <- l.(k)
  done;
  t.n_listed <- Array.length l;
  t.head <- s

let restore t s =
  check_geometry "restore" t s;
  rewrite t s;
  set_snap t s.sv_snap;
  t.pages_hashed <- s.sv_hashed;
  t.pages_skipped <- s.sv_skipped

let adopt t s =
  check_geometry "adopt" t s;
  rewrite t s;
  set_snap t t.all_snap

(* [root] is what [create] leaves, so returning to it is a reset: only
   chunks that may hold nonzero words are rewritten.  That zero-fills
   rather than moves saved words, so [words_copied] leaves it out. *)
let reset t =
  let copied = !copied_words in
  restore t t.root;
  copied_words := copied
