type t = { buf : Buffer.t }

let create () = { buf = Buffer.create 256 }

let put t w = Buffer.add_char t.buf (Char.chr (w land 0xFF))

let contents t = Buffer.contents t.buf

let length t = Buffer.length t.buf

let clear t = Buffer.clear t.buf

type saved = string

let rec holds t s i =
  i = String.length s || (s.[i] = Buffer.nth t.buf i && holds t s (i + 1))

(* [like] itself while nothing was written since it was taken *)
let save ?like t =
  match like with
  | Some l when String.length l = Buffer.length t.buf && holds t l 0 -> l
  | _ -> contents t

let restore t s =
  Buffer.clear t.buf;
  Buffer.add_string t.buf s
