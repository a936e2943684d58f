open Hft_machine

let schema = "hftsim-manifest/4"

type cert = Deterministic | Priv0

type block = { leader : int; len : int; certs : cert list; region : int }

type superblock = {
  sid : int;
  head : int;
  members : int list;
  certified : bool;
}

type t = {
  image_hash : int;
  instructions : int;
  rewritten : bool;
  random_tlb : bool;
  mmio_base : int;
  blocks : block list;
  superblocks : superblock list;
  fixpoint_iterations : int;
  jr_sites : int;
  jr_unresolved : int;
  jr_resolved_by_vsa : int;
}

let cert_name = function
  | Deterministic -> "deterministic"
  | Priv0 -> "priv0"

let cert_of_name = function
  | "deterministic" -> Ok Deterministic
  | "priv0" -> Ok Priv0
  | s -> Error (Printf.sprintf "unknown certificate %S" s)

let certified_blocks t =
  List.length (List.filter (fun b -> b.certs <> []) t.blocks)

let certified_superblocks t =
  List.length (List.filter (fun s -> s.certified) t.superblocks)

(* Whether a block lies in a certified superblock. *)
let in_certified t =
  let sids = Hashtbl.create 16 in
  List.iter
    (fun s -> if s.certified then Hashtbl.replace sids s.sid ())
    t.superblocks;
  fun b -> b.region >= 0 && Hashtbl.mem sids b.region

(* Fraction of the reachable instructions covered by certified
   superblocks: what the runtime coverage counters converge to on a
   workload that spends its time inside certified code. *)
let static_coverage t =
  let reachable = List.fold_left (fun acc b -> acc + b.len) 0 t.blocks in
  if reachable = 0 then 0.
  else begin
    let in_cert = in_certified t in
    let covered =
      List.fold_left
        (fun acc b -> if in_cert b then acc + b.len else acc)
        0 t.blocks
    in
    float_of_int covered /. float_of_int reachable
  end

let of_solved ?(random_tlb = false)
    ?(mmio_base = Cpu.default_config.Cpu.mmio_base) (s : Analysis.solved) =
  let { Analysis.cfg; vsa; privs; init; rewritten; fixpoint_iterations; _ } =
    s
  in
  let code = cfg.Cfg.code in
  let dom = Domtree.build cfg in
  let sb = Superblock.discover cfg dom in
  let nb = dom.Domtree.nblocks in
  let det_ok = Array.make nb true in
  let priv0_ok = Array.make nb true in
  for b = 0 to nb - 1 do
    let l = dom.Domtree.leaders.(b) in
    for a = l to l + dom.Domtree.lens.(b) - 1 do
      let uses_init =
        match init.(a) with
        | None -> false
        | Some mask ->
          List.for_all
            (fun r -> r = 0 || mask land (1 lsl r) <> 0)
            (Determinism.uses code.(a))
      in
      let instr_det =
        match code.(a) with
        | Isa.Probe _ -> false
        | Isa.Tlbw _ -> not random_tlb
        | Isa.Ld (_, rb, off) -> (
          match Vsa.addr_range (Vsa.value_at vsa ~addr:a ~reg:rb) off with
          | Some (_, hi) -> hi < mmio_base
          | None -> false)
        | _ -> true
      in
      if not (uses_init && instr_det) then det_ok.(b) <- false;
      (match privs.(a) with
      | Some 1 -> () (* only level 0 reaches *)
      | _ -> priv0_ok.(b) <- false)
    done
  done;
  let cert_list b =
    (if det_ok.(b) then [ Deterministic ] else [])
    @ if priv0_ok.(b) then [ Priv0 ] else []
  in
  let blocks =
    List.init nb (fun b ->
        {
          leader = dom.Domtree.leaders.(b);
          len = dom.Domtree.lens.(b);
          certs = cert_list b;
          region = sb.Superblock.region_of.(b);
        })
  in
  let superblocks =
    Array.to_list sb.Superblock.regions
    |> List.map (fun (r : Superblock.region) ->
           {
             sid = r.Superblock.id;
             head = dom.Domtree.leaders.(r.Superblock.head);
             members =
               List.map (fun b -> dom.Domtree.leaders.(b)) r.Superblock.blocks;
             certified =
               List.for_all (fun b -> cert_list b <> []) r.Superblock.blocks;
           })
  in
  let jr_sites =
    let n = ref 0 in
    Array.iteri
      (fun a i ->
        match i with
        | Isa.Jr _ when cfg.Cfg.reachable.(a) -> incr n
        | _ -> ())
      code;
    !n
  in
  {
    image_hash = Encode.program_hash code;
    instructions = Array.length code;
    rewritten;
    random_tlb;
    mmio_base;
    blocks;
    superblocks;
    fixpoint_iterations;
    jr_sites;
    jr_unresolved = List.length cfg.Cfg.jr_unresolved;
    jr_resolved_by_vsa = List.length vsa.Vsa.resolved;
  }

let of_code ?rewritten ?random_tlb ?mmio_base ?code_refs code =
  of_solved ?random_tlb ?mmio_base (Analysis.solve ?rewritten ?code_refs code)

let of_program ?rewritten ?random_tlb ?mmio_base (p : Asm.program) =
  of_code ?rewritten ?random_tlb ?mmio_base ~code_refs:p.Asm.code_refs
    p.Asm.code

(* Analyzing an image is pure in the image and the analysis knobs, and
   every hypervisor of every trial of a chaos campaign would otherwise
   redo it; memoize on the image hash and the knobs.  [code_refs] is
   part of the key as the list itself: its [Hashtbl.hash] reads only a
   bounded prefix. *)
let cache : (int * bool * bool * int * int list, t) Hashtbl.t =
  Hashtbl.create 8

let of_code_cached ?(rewritten = false) ?(random_tlb = false)
    ?(mmio_base = Cpu.default_config.Cpu.mmio_base) ?(code_refs = []) code =
  let key =
    (Encode.program_hash code, rewritten, random_tlb, mmio_base, code_refs)
  in
  match Hashtbl.find_opt cache key with
  | Some m -> m
  | None ->
    let m = of_code ~rewritten ~random_tlb ~mmio_base ~code_refs code in
    Hashtbl.replace cache key m;
    m

let check t ~len ~hash =
  if len <> t.instructions then
    Error
      (Printf.sprintf "manifest is for a %d-instruction image, code has %d"
         t.instructions len)
  else if hash <> t.image_hash then
    Error
      (Printf.sprintf
         "stale manifest: image hash 0x%x does not match manifest hash 0x%x"
         hash t.image_hash)
  else Ok ()

let validate ~code t =
  check t ~len:(Array.length code) ~hash:(Encode.program_hash code)

(* Against a CPU the image hash is the CPU's own, computed once per
   code image. *)
let validate_cpu cpu t =
  check t ~len:(Array.length (Cpu.code cpu)) ~hash:(Cpu.code_hash cpu)

(* What armed a CPU: a recycled CPU re-arms its predecessor's tables or
   translation only when they were built from this very manifest
   (physically — manifests are immutable) with the same [deprivileged]. *)
type Cpu.origin +=
  | Validator_of of { manifest : t; deprivileged : bool }
  | Translation_of of { manifest : t; deprivileged : bool }

(* Hand the certificates to the interpreter's runtime validator.
   [Priv0] is a {e virtual}-level property; under the hypervisor's
   deprivileging (section 3.1) virtual level 0 runs at real level 1,
   so the allowed real-privilege mask maps through [deprivileged]. *)
let build_tables t ~deprivileged code =
  let n = t.instructions in
  let priv_ok = Array.make n (-1) in
  let det = Array.make n false in
  let uses = Array.make n 0 in
  let def = Array.make n 0 in
  let certified = Array.make n false in
  Array.iteri
    (fun a i ->
      uses.(a) <-
        List.fold_left
          (fun acc r -> if r = 0 then acc else acc lor (1 lsl r))
          0 (Determinism.uses i);
      def.(a) <-
        (match Determinism.def i with
        | Some rd when rd <> 0 -> 1 lsl rd
        | _ -> 0))
    code;
  let priv0_mask = if deprivileged then 1 lsl 1 else 1 in
  let in_cert = in_certified t in
  let blk_end = Array.init n (fun a -> a + 1) in
  List.iter
    (fun b ->
      for a = b.leader to b.leader + b.len - 1 do
        blk_end.(a) <- b.leader + b.len;
        if List.mem Deterministic b.certs then det.(a) <- true;
        if List.mem Priv0 b.certs then priv_ok.(a) <- priv0_mask;
        if in_cert b then certified.(a) <- true
      done)
    t.blocks;
  Cpu.validator_tables ~blk_end ~code ~priv_ok ~det ~uses ~def ~certified
    ~random_tlb:t.random_tlb ()

(* The tables depend on nothing but the manifest (whose image hash pins
   the code) and the deprivileging, so every CPU armed from the same
   pair shares one: both replicas, and every trial's and exploration's
   machines.  They are found by the manifest's identity and held
   weakly, one slot per deprivileging, so tables no armed CPU holds any
   more are collected (a model-checking session passes through several
   images) and built again on the next arming. *)
module By_manifest = Ephemeron.K1.Make (struct
  type nonrec t = t

  let equal = ( == )
  let hash = Hashtbl.hash
end)

let tables_memo : Cpu.vtables Weak.t By_manifest.t = By_manifest.create 8

let arm_validator t ~deprivileged cpu =
  let slots =
    match By_manifest.find_opt tables_memo t with
    | Some slots -> slots
    | None ->
      let slots = Weak.create 2 in
      By_manifest.replace tables_memo t slots;
      slots
  in
  let slot = Bool.to_int deprivileged in
  let tables =
    match Weak.get slots slot with
    | Some tables -> tables
    | None ->
      let tables = build_tables t ~deprivileged (Cpu.code cpu) in
      Weak.set slots slot (Some tables);
      tables
  in
  Cpu.install_validator cpu
    ~origin:(Validator_of { manifest = t; deprivileged })
    tables

let install t ~deprivileged cpu =
  (match validate_cpu cpu t with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Manifest.install: " ^ msg));
  let same = function
    | Validator_of o -> o.manifest == t && o.deprivileged = deprivileged
    | _ -> false
  in
  if not (Cpu.rearm_validator cpu same) then arm_validator t ~deprivileged cpu

(* The translation plan: the certified superblocks with their member
   blocks.  The region's privilege precheck is the conjunction of its
   members' [Priv0] masks — entering at any other level falls back to
   the interpreter, whose per-instruction validator enforces the exact
   per-block certificate. *)
let plan t ~deprivileged =
  let priv0_mask = if deprivileged then 1 lsl 1 else 1 in
  let block_tbl = Hashtbl.create 64 in
  List.iter (fun b -> Hashtbl.replace block_tbl b.leader b) t.blocks;
  List.filter (fun s -> s.certified) t.superblocks
  |> List.map (fun s ->
         let members = List.filter_map (Hashtbl.find_opt block_tbl) s.members in
         let mask =
           List.fold_left
             (fun acc b ->
               acc land (if List.mem Priv0 b.certs then priv0_mask else -1))
             (-1) members
         in
         {
           Translate.pr_head = s.head;
           pr_blocks =
             List.map
               (fun b -> { Translate.pb_leader = b.leader; pb_len = b.len })
               members;
           pr_priv_mask = mask;
         })

(* Hand the certified superblocks to the direct-threaded translator.
   Unlike {!install} this returns the staleness check as a result: a
   stale manifest must not abort the run, it must leave the CPU on the
   full-interpreter path (the executor logs and carries on). *)
let install_translation t ~deprivileged cpu =
  match validate_cpu cpu t with
  | Error msg -> Error msg
  | Ok () ->
    let same = function
      | Translation_of o ->
        o.manifest == t && o.deprivileged = deprivileged
      | _ -> false
    in
    if not (Cpu.rearm_translation cpu same) then
      Cpu.install_translation cpu
        ~origin:(Translation_of { manifest = t; deprivileged })
        (plan t ~deprivileged);
    let translated =
      match Cpu.translation cpu with
      | Some tx -> tx.Translate.translated_regions
      | None -> 0
    in
    Ok translated

(* ---- JSON ---- *)

module J = Hft_obs.Json

let to_json t =
  let ints l = J.Arr (List.map J.int l) in
  J.Obj
    [
      ("schema", J.Str schema);
      ("image_hash", J.Str (Printf.sprintf "0x%x" t.image_hash));
      ("instructions", J.int t.instructions);
      ("rewritten", J.Bool t.rewritten);
      ("random_tlb", J.Bool t.random_tlb);
      ("mmio_base", J.int t.mmio_base);
      ("fixpoint_iterations", J.int t.fixpoint_iterations);
      ( "jr",
        J.Obj
          [
            ("sites", J.int t.jr_sites);
            ("unresolved", J.int t.jr_unresolved);
            ("resolved_by_vsa", J.int t.jr_resolved_by_vsa);
          ] );
      ("certified_blocks", J.int (certified_blocks t));
      ("certified_superblocks", J.int (certified_superblocks t));
      ("static_coverage", J.fixed 4 (static_coverage t));
      ( "blocks",
        J.Arr
          (List.map
             (fun blk ->
               J.Obj
                 [
                   ("leader", J.int blk.leader);
                   ("len", J.int blk.len);
                   ("region", J.int blk.region);
                   ( "certs",
                     J.Arr (List.map (fun c -> J.Str (cert_name c)) blk.certs)
                   );
                 ])
             t.blocks) );
      ( "superblocks",
        J.Arr
          (List.map
             (fun s ->
               J.Obj
                 [
                   ("id", J.int s.sid);
                   ("head", J.int s.head);
                   ("certified", J.Bool s.certified);
                   ("blocks", ints s.members);
                 ])
             t.superblocks) );
    ]


let ( let* ) = Result.bind

let jint name j =
  match Option.bind (J.member name j) J.to_float_opt with
  | Some f -> Ok (int_of_float f)
  | None -> Error (Printf.sprintf "manifest: missing number %S" name)

let jbool name j =
  match J.member name j with
  | Some (J.Bool v) -> Ok v
  | _ -> Error (Printf.sprintf "manifest: missing bool %S" name)

(* [f] over each element of the array field [name], in order, stopping
   at the first error. *)
let jmap f name j =
  match Option.bind (J.member name j) J.to_list_opt with
  | None -> Error (Printf.sprintf "manifest: missing array %S" name)
  | Some l ->
    List.fold_left
      (fun acc e ->
        let* acc = acc in
        let* x = f e in
        Ok (x :: acc))
      (Ok []) l
    |> Result.map List.rev

let jints name j =
  jmap
    (fun e ->
      match J.to_float_opt e with
      | Some f -> Ok (int_of_float f)
      | None -> Error (Printf.sprintf "manifest: %S element is not a number" name))
    name j

let of_json j =
  let* s =
    match Option.bind (J.member "schema" j) J.to_string_opt with
    | Some s -> Ok s
    | None -> Error "manifest: missing schema"
  in
  let* () =
    if s = schema then Ok ()
    else Error (Printf.sprintf "manifest: schema %S, expected %S" s schema)
  in
  let* image_hash =
    match Option.bind (J.member "image_hash" j) J.to_string_opt with
    | Some h -> (
      match int_of_string_opt h with
      | Some v -> Ok v
      | None -> Error "manifest: bad image_hash")
    | None -> Error "manifest: missing image_hash"
  in
  let* instructions = jint "instructions" j in
  let* rewritten = jbool "rewritten" j in
  let* random_tlb = jbool "random_tlb" j in
  let* mmio_base = jint "mmio_base" j in
  let* fixpoint_iterations = jint "fixpoint_iterations" j in
  let* jr =
    match J.member "jr" j with
    | Some o -> Ok o
    | None -> Error "manifest: missing jr"
  in
  let* jr_sites = jint "sites" jr in
  let* jr_unresolved = jint "unresolved" jr in
  let* jr_resolved_by_vsa = jint "resolved_by_vsa" jr in
  let* blocks =
    jmap
      (fun bj ->
        let* leader = jint "leader" bj in
        let* len = jint "len" bj in
        let* region = jint "region" bj in
        let* certs =
          jmap
            (fun cj ->
              match J.to_string_opt cj with
              | Some s -> cert_of_name s
              | None -> Error "manifest: certificate is not a string")
            "certs" bj
        in
        Ok { leader; len; region; certs })
      "blocks" j
  in
  let* superblocks =
    jmap
      (fun sj ->
        let* sid = jint "id" sj in
        let* head = jint "head" sj in
        let* certified = jbool "certified" sj in
        let* members = jints "blocks" sj in
        Ok { sid; head; certified; members })
      "superblocks" j
  in
  Ok
    {
      image_hash;
      instructions;
      rewritten;
      random_tlb;
      mmio_base;
      blocks;
      superblocks;
      fixpoint_iterations;
      jr_sites;
      jr_unresolved;
      jr_resolved_by_vsa;
    }

let pp_summary fmt t =
  Format.fprintf fmt
    "%d/%d blocks certified, %d/%d superblocks (coverage %.1f%%), %d/%d \
     indirect jumps unresolved (%d resolved by value-set analysis)"
    (certified_blocks t) (List.length t.blocks) (certified_superblocks t)
    (List.length t.superblocks)
    (100. *. static_coverage t)
    t.jr_unresolved t.jr_sites t.jr_resolved_by_vsa
