exception Format_error of string

let magic = "HFT1"

let to_string (p : Asm.program) =
  let buf = Buffer.create (Array.length p.Asm.code * 18) in
  Buffer.add_string buf
    (Printf.sprintf "%s %d\n" magic (Array.length p.Asm.code));
  List.iter
    (fun (name, addr) ->
      if String.contains name ' ' || String.contains name '\n' then
        invalid_arg "Image.to_string: label contains whitespace";
      Buffer.add_string buf (Printf.sprintf "L %s %d\n" name addr))
    (List.sort compare p.Asm.labels);
  List.iter
    (fun addr -> Buffer.add_string buf (Printf.sprintf "R %d\n" addr))
    p.Asm.code_refs;
  List.iter
    (fun (addr, text) ->
      if String.contains text '\n' then
        invalid_arg "Image.to_string: source line contains a newline";
      Buffer.add_string buf (Printf.sprintf "C %d %s\n" addr text))
    p.Asm.srclines;
  Array.iter
    (fun i -> Buffer.add_string buf (Printf.sprintf "%016Lx\n" (Encode.encode i)))
    p.Asm.code;
  Buffer.contents buf

let of_string s =
  let lines =
    String.split_on_char '\n' s
    |> List.filter (fun l -> String.trim l <> "")
  in
  match lines with
  | [] -> raise (Format_error "empty image")
  | header :: rest ->
    let count =
      match String.split_on_char ' ' header with
      | [ m; n ] when m = magic -> (
        match int_of_string_opt n with
        | Some n when n >= 0 -> n
        | _ -> raise (Format_error "bad instruction count"))
      | _ -> raise (Format_error "bad magic")
    in
    let labels = ref [] and refs = ref [] and words = ref [] in
    let srclines = ref [] in
    List.iter
      (fun line ->
        if String.length line > 2 && String.sub line 0 2 = "C " then begin
          let rest = String.sub line 2 (String.length line - 2) in
          match String.index_opt rest ' ' with
          | Some sp -> (
            match int_of_string_opt (String.sub rest 0 sp) with
            | Some a ->
              srclines :=
                (a, String.sub rest (sp + 1) (String.length rest - sp - 1))
                :: !srclines
            | None -> raise (Format_error ("bad source line: " ^ line)))
          | None -> raise (Format_error ("bad source line: " ^ line))
        end
        else if String.length line > 2 && String.sub line 0 2 = "L " then begin
          match String.split_on_char ' ' line with
          | [ _; name; addr ] -> (
            match int_of_string_opt addr with
            | Some a -> labels := (name, a) :: !labels
            | None -> raise (Format_error ("bad label line: " ^ line)))
          | _ -> raise (Format_error ("bad label line: " ^ line))
        end
        else if String.length line > 2 && String.sub line 0 2 = "M " then
          raise
            (Format_error
               "embedded manifest (M line): the feature is retired, the \
                host certifies the code it loads; delete the line")
        else if String.length line > 2 && String.sub line 0 2 = "R " then begin
          match int_of_string_opt (String.trim (String.sub line 2 (String.length line - 2))) with
          | Some a -> refs := a :: !refs
          | None -> raise (Format_error ("bad relocation line: " ^ line))
        end
        else
          match Int64.of_string_opt ("0x" ^ String.trim line) with
          | Some w -> words := w :: !words
          | None -> raise (Format_error ("bad instruction word: " ^ line)))
      rest;
    let words = Array.of_list (List.rev !words) in
    if Array.length words <> count then
      raise
        (Format_error
           (Printf.sprintf "instruction count mismatch: header %d, found %d"
              count (Array.length words)));
    let code =
      try Encode.decode_program words
      with Encode.Decode_error msg -> raise (Format_error msg)
    in
    (* rebuild through the assembler so labels are validated *)
    let by_addr = Hashtbl.create 16 in
    List.iter
      (fun (name, addr) ->
        if addr < 0 || addr > Array.length code then
          raise (Format_error (Printf.sprintf "label %s out of range" name));
        Hashtbl.replace by_addr addr
          (name :: (try Hashtbl.find by_addr addr with Not_found -> [])))
      !labels;
    let is_ref =
      let tbl = Hashtbl.create 8 in
      List.iter (fun a -> Hashtbl.replace tbl a ()) !refs;
      fun a -> Hashtbl.mem tbl a
    in
    let cmt_by_addr = Hashtbl.create 8 in
    List.iter
      (fun (addr, text) ->
        if addr < 0 || addr >= Array.length code then
          raise (Format_error "source line out of range");
        Hashtbl.replace cmt_by_addr addr text)
      !srclines;
    let items = ref [] in
    Array.iteri
      (fun addr i ->
        (match Hashtbl.find_opt by_addr addr with
        | Some names -> List.iter (fun n -> items := Asm.label n :: !items) names
        | None -> ());
        (match Hashtbl.find_opt cmt_by_addr addr with
        | Some text -> items := Asm.comment text :: !items
        | None -> ());
        (* re-express relocatable immediates through ldi_target so the
           reloaded program keeps its relocation list *)
        items :=
          (match i with
          | Isa.Ldi (rd, v) when is_ref addr -> Asm.ldi_target rd (Asm.abs v)
          | other -> Asm.insn other)
          :: !items)
      code;
    (match Hashtbl.find_opt by_addr (Array.length code) with
    | Some names -> List.iter (fun n -> items := Asm.label n :: !items) names
    | None -> ());
    (* the items come from the image: an assembler error (a duplicate
       label) is a malformed image *)
    try Asm.assemble (List.rev !items)
    with Asm.Error msg -> raise (Format_error msg)

let save ~path p =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string p))

let load ~path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> of_string (In_channel.input_all ic))
