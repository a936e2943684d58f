let prime = 0x100000001b3
let mask = (1 lsl 62) - 1
let basis = 0x0bf29ce484222325

let int h v = (h lxor (v land mask)) * prime land mask
let bool h b = int h (Bool.to_int b)

let string h s =
  String.fold_left (fun h c -> int h (Char.code c)) (int h (String.length s)) s

let list f h l = List.fold_left f (int h (List.length l)) l
let queue f h q = Queue.fold f (int h (Queue.length q)) q

let table f h tbl =
  int h
    (if Hashtbl.length tbl = 0 then 0
     else Hashtbl.fold (fun k v acc -> acc lxor f basis k v) tbl 0)
