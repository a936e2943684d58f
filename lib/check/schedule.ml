(* A serialized counterexample schedule: everything needed to replay
   one exact interleaving of a bounded scenario standalone
   (`hftsim check --replay FILE`).  The format is line-oriented text so
   a counterexample can be read, diffed and committed as a regression
   fixture. *)

let magic = "hftsim-check-replay/1"

type t = {
  scenario : string;
  retransmit : bool;
  ack_wait : bool;
  roots : int list;  (** indices into the scenario's root-choice dimensions *)
  choices : int list;  (** scheduler picks, index into each co-enabled batch *)
  violation : string option;  (** what the checker saw on this schedule *)
}

(* the violation text is stored on one line; newlines never appear in
   invariant messages, but sanitize anyway *)
let one_line s =
  String.map (function '\n' | '\r' -> ' ' | c -> c) s

let ints_to_string l = String.concat " " (List.map string_of_int l)

let to_string t =
  let b = Buffer.create 256 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  line "%s" magic;
  line "scenario: %s" t.scenario;
  line "retransmit: %b" t.retransmit;
  line "ack-wait: %b" t.ack_wait;
  line "roots: %s" (ints_to_string t.roots);
  line "choices: %s" (ints_to_string t.choices);
  (match t.violation with
  | Some v -> line "violation: %s" (one_line v)
  | None -> ());
  Buffer.contents b

let parse_ints s =
  String.split_on_char ' ' (String.trim s)
  |> List.filter (fun x -> x <> "")
  |> List.map int_of_string

let of_string s =
  match String.split_on_char '\n' s with
  | first :: rest when String.trim first = magic ->
    (try
       let t =
         ref
           {
             scenario = "";
             retransmit = true;
             ack_wait = true;
             roots = [];
             choices = [];
             violation = None;
           }
       in
       List.iter
         (fun line ->
           match String.index_opt line ':' with
           | None -> ()
           | Some i ->
             let key = String.trim (String.sub line 0 i) in
             let v =
               String.trim
                 (String.sub line (i + 1) (String.length line - i - 1))
             in
             (match key with
             | "scenario" -> t := { !t with scenario = v }
             | "retransmit" -> t := { !t with retransmit = bool_of_string v }
             | "ack-wait" -> t := { !t with ack_wait = bool_of_string v }
             | "roots" -> t := { !t with roots = parse_ints v }
             | "choices" -> t := { !t with choices = parse_ints v }
             | "violation" -> t := { !t with violation = Some v }
             | _ -> ()))
         rest;
       if !t.scenario = "" then Error "replay file names no scenario"
       else Ok !t
     with Invalid_argument m | Failure m ->
       Error (Printf.sprintf "malformed replay file: %s" m))
  | first :: _ ->
    Error
      (Printf.sprintf "not a replay file (expected %S, got %S)" magic
         (String.trim first))
  | [] -> Error "empty replay file"

let load path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error m -> Error m
  | s -> of_string s
