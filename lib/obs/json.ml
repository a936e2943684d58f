(* The one JSON substrate: every artifact is built as a [t] and written
   by [to_string], the only code that emits JSON syntax or string
   escapes; [parse] is a strict RFC 8259 reader that validates what
   the printer wrote (the toolchain has no JSON library). *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

let int i = Num (float_of_int i)
let fixed d x = Num (float_of_string (Printf.sprintf "%.*f" d x))

let significant d x =
  Num (float_of_string (Printf.sprintf "%.*e" (d - 1) x))

(* ---------- printer ---------- *)

let add_string b s =
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | '\b' -> Buffer.add_string b "\\b"
      | '\012' -> Buffer.add_string b "\\f"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

(* Integral values print without a fraction, others with the fewest
   significant digits that read back to the same float.  JSON has no
   NaN or infinity: those print as null. *)
let num_to_string f =
  if Float.is_integer f && Float.abs f < 1e17 then Printf.sprintf "%.0f" f
  else if Float.is_finite f then
    let rec shortest p =
      let s = Printf.sprintf "%.*g" p f in
      if p >= 17 || float_of_string s = f then s else shortest (p + 1)
    in
    shortest 15
  else "null"

(* Empty containers lay out like scalars. *)
let is_flat = function Arr (_ :: _) | Obj (_ :: _) -> false | _ -> true

(* [indent = None] is the compact form.  The pretty form puts each
   member of a container on its own line, except that a container
   holding only flat values stays on one line. *)
let rec add_value b ~indent = function
  | Null -> Buffer.add_string b "null"
  | Bool x -> Buffer.add_string b (if x then "true" else "false")
  | Num f -> Buffer.add_string b (num_to_string f)
  | Str s -> add_string b s
  | Arr l -> add_items b ~indent '[' ']' (List.map (fun v -> (None, v)) l)
  | Obj kvs ->
    add_items b ~indent '{' '}' (List.map (fun (k, v) -> (Some k, v)) kvs)

and add_items b ~indent op cl items =
  let add_item ~indent (k, v) =
    Option.iter
      (fun k ->
        add_string b k;
        Buffer.add_string b (if indent = None then ":" else ": "))
      k;
    add_value b ~indent v
  in
  Buffer.add_char b op;
  (match indent with
  | Some n when not (List.for_all (fun (_, v) -> is_flat v) items) ->
    let newline d =
      Buffer.add_char b '\n';
      Buffer.add_string b (String.make d ' ')
    in
    List.iteri
      (fun i item ->
        if i > 0 then Buffer.add_char b ',';
        newline (n + 2);
        add_item ~indent:(Some (n + 2)) item)
      items;
    newline n
  | _ ->
    let sep = if indent = None then "," else ", " in
    List.iteri
      (fun i item ->
        if i > 0 then Buffer.add_string b sep;
        add_item ~indent item)
      items);
  Buffer.add_char b cl

let to_string ?(pretty = false) v =
  let b = Buffer.create 1024 in
  add_value b ~indent:(if pretty then Some 0 else None) v;
  Buffer.contents b

let to_lines vs = String.concat "" (List.map (fun v -> to_string v ^ "\n") vs)

(* ---------- strict reader ---------- *)

exception Parse_error of string

type state = { s : string; mutable pos : int }

let error st msg =
  raise (Parse_error (Printf.sprintf "%s at offset %d" msg st.pos))

let peek st = if st.pos < String.length st.s then Some st.s.[st.pos] else None

let skip_ws st =
  while
    st.pos < String.length st.s
    &&
    match st.s.[st.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    st.pos <- st.pos + 1
  done

let expect st c =
  match peek st with
  | Some c' when c' = c -> st.pos <- st.pos + 1
  | _ -> error st (Printf.sprintf "expected '%c'" c)

let literal st word v =
  let n = String.length word in
  if st.pos + n <= String.length st.s && String.sub st.s st.pos n = word
  then begin
    st.pos <- st.pos + n;
    v
  end
  else error st ("expected " ^ word)

(* The code unit of the "\uXXXX" escape whose "u" is at [st.pos];
   leaves [st.pos] on its last hex digit. *)
let hex4 st =
  let is_hex = function '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true | _ -> false in
  if st.pos + 4 >= String.length st.s then error st "bad \\u escape";
  let hex = String.sub st.s (st.pos + 1) 4 in
  if not (String.for_all is_hex hex) then error st "bad \\u escape";
  st.pos <- st.pos + 4;
  int_of_string ("0x" ^ hex)

(* Strings are byte sequences: bytes >= 0x80 pass through unchanged,
   raw control characters are rejected, and a \u escaped UTF-16
   surrogate pair decodes to one 4-byte UTF-8 character. *)
let parse_string st =
  expect st '"';
  let b = Buffer.create 16 in
  let rec go () =
    match peek st with
    | None -> error st "unterminated string"
    | Some '"' -> st.pos <- st.pos + 1
    | Some c when c < ' ' -> error st "raw control character in string"
    | Some '\\' ->
      st.pos <- st.pos + 1;
      (match peek st with
      | Some (('"' | '\\' | '/') as c) -> Buffer.add_char b c
      | Some 'n' -> Buffer.add_char b '\n'
      | Some 't' -> Buffer.add_char b '\t'
      | Some 'r' -> Buffer.add_char b '\r'
      | Some 'b' -> Buffer.add_char b '\b'
      | Some 'f' -> Buffer.add_char b '\012'
      | Some 'u' ->
        let hi = hex4 st in
        let cp =
          if hi < 0xD800 || hi > 0xDFFF then hi
          else if
            hi < 0xDC00
            && st.pos + 2 < String.length st.s
            && String.sub st.s (st.pos + 1) 2 = "\\u"
          then begin
            st.pos <- st.pos + 2;
            let lo = hex4 st in
            if lo < 0xDC00 || lo > 0xDFFF then error st "unpaired surrogate";
            0x10000 + ((hi - 0xD800) lsl 10) + (lo - 0xDC00)
          end
          else error st "unpaired surrogate"
        in
        Buffer.add_utf_8_uchar b (Uchar.of_int cp)
      | _ -> error st "bad escape");
      st.pos <- st.pos + 1;
      go ()
    | Some c ->
      Buffer.add_char b c;
      st.pos <- st.pos + 1;
      go ()
  in
  go ();
  Buffer.contents b

(* number = [ "-" ] ( "0" / 1-9 *DIGIT ) [ "." 1*DIGIT ]
            [ ( "e" / "E" ) [ "+" / "-" ] 1*DIGIT ] *)
let parse_number st =
  let start = st.pos in
  let accept p =
    match peek st with
    | Some c when p c ->
      st.pos <- st.pos + 1;
      true
    | _ -> false
  in
  let digit c = c >= '0' && c <= '9' in
  let digits () =
    if not (accept digit) then error st "expected digit";
    while accept digit do () done
  in
  ignore (accept (( = ) '-'));
  if not (accept (( = ) '0')) then digits ();
  if accept (( = ) '.') then digits ();
  if accept (fun c -> c = 'e' || c = 'E') then begin
    ignore (accept (fun c -> c = '+' || c = '-'));
    digits ()
  end;
  let f = float_of_string (String.sub st.s start (st.pos - start)) in
  if Float.is_finite f then f else error st "number out of range"

let max_depth = 512

let rec parse_value st depth =
  if depth > max_depth then error st "nesting too deep";
  skip_ws st;
  let items close item =
    st.pos <- st.pos + 1;
    skip_ws st;
    if peek st = Some close then begin
      st.pos <- st.pos + 1;
      []
    end
    else
      let rec go acc =
        let x = item () in
        skip_ws st;
        match peek st with
        | Some ',' ->
          st.pos <- st.pos + 1;
          go (x :: acc)
        | Some c when c = close ->
          st.pos <- st.pos + 1;
          List.rev (x :: acc)
        | _ -> error st (Printf.sprintf "expected ',' or '%c'" close)
      in
      go []
  in
  match peek st with
  | None -> error st "unexpected end of input"
  | Some '{' ->
    Obj
      (items '}' (fun () ->
           skip_ws st;
           let k = parse_string st in
           skip_ws st;
           expect st ':';
           (k, parse_value st (depth + 1))))
  | Some '[' -> Arr (items ']' (fun () -> parse_value st (depth + 1)))
  | Some '"' -> Str (parse_string st)
  | Some 't' -> literal st "true" (Bool true)
  | Some 'f' -> literal st "false" (Bool false)
  | Some 'n' -> literal st "null" Null
  | Some ('-' | '0' .. '9') -> Num (parse_number st)
  | Some _ -> error st "unexpected character"

let parse s =
  let st = { s; pos = 0 } in
  try
    let v = parse_value st 0 in
    skip_ws st;
    if st.pos <> String.length s then
      Error (Printf.sprintf "trailing garbage at offset %d" st.pos)
    else Ok v
  with Parse_error msg -> Error msg

let member k = function Obj kvs -> List.assoc_opt k kvs | _ -> None
let to_string_opt = function Str s -> Some s | _ -> None
let to_float_opt = function Num f -> Some f | _ -> None
let to_list_opt = function Arr l -> Some l | _ -> None
