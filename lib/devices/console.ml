module Fnv = Hft_sim.Fnv

type saved = { text : string; digest : int }

(* what [same_as] holds when no save is known to match *)
let unsaved = { text = ""; digest = -1 }

type t = {
  buf : Buffer.t;
  mutable digest : int; (* the bytes of [buf], folded as they arrive *)
  mutable same_as : saved;
      (* the save or restore [buf] has not changed since, whose text is
         [buf]'s contents, or [unsaved] *)
}

let create () =
  { buf = Buffer.create 256; digest = Fnv.basis; same_as = unsaved }

let put t w =
  let c = w land 0xFF in
  Buffer.add_char t.buf (Char.chr c);
  t.digest <- Fnv.int t.digest c;
  t.same_as <- unsaved

let contents t = Buffer.contents t.buf

let length t = Buffer.length t.buf

let fingerprint t = Fnv.int t.digest (Buffer.length t.buf)

let clear t =
  Buffer.clear t.buf;
  t.digest <- Fnv.basis;
  t.same_as <- unsaved

let save t =
  if t.same_as != unsaved then t.same_as
  else begin
    let s = { text = contents t; digest = t.digest } in
    t.same_as <- s;
    s
  end

let restore t s =
  if t.same_as != s then begin
    Buffer.clear t.buf;
    Buffer.add_string t.buf s.text;
    t.digest <- s.digest;
    t.same_as <- s
  end
