let prime = 0x100000001b3
let mask = (1 lsl 62) - 1
let basis = 0x0bf29ce484222325

let int h v = (h lxor (v land mask)) * prime land mask
let bool h b = int h (Bool.to_int b)

let string h s =
  String.fold_left (fun h c -> int h (Char.code c)) (int h (String.length s)) s

let list f h l = List.fold_left f (int h (List.length l)) l
