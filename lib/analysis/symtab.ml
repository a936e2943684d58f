type t = {
  labels : (int * string) array;   (* sorted by address *)
  srclines : (int * string) array; (* sorted by address *)
}

let empty = { labels = [||]; srclines = [||] }

let sorted_array kvs =
  let a = Array.of_list kvs in
  Array.sort (fun (a1, _) (a2, _) -> Int.compare a1 a2) a;
  a

let of_program (p : Hft_machine.Asm.program) =
  {
    labels =
      sorted_array (List.map (fun (n, a) -> (a, n)) p.Hft_machine.Asm.labels);
    srclines = sorted_array p.Hft_machine.Asm.srclines;
  }

(* Greatest entry with address <= addr. *)
let find_le arr addr =
  let n = Array.length arr in
  if n = 0 || fst arr.(0) > addr then None
  else begin
    let lo = ref 0 and hi = ref (n - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi + 1) / 2 in
      if fst arr.(mid) <= addr then lo := mid else hi := mid - 1
    done;
    Some arr.(!lo)
  end

let resolve t addr =
  match find_le t.labels addr with
  | Some (a, name) when a = addr -> name
  | Some (a, name) -> Printf.sprintf "%s+%d" name (addr - a)
  | None -> Printf.sprintf "@%d" addr

let srcline t addr =
  match find_le t.srclines addr with
  | Some (_, text) -> Some text
  | None -> None
