(* Workload definitions and seeded input generation.

   Every program, binding and request line is a pure function of
   (seed, workload, stream, index): the same seed gives the same inputs,
   and a request generated late in a run equals the one an earlier run
   generated for the same position. The daemon only ever sees the
   rendered request lines. *)

module J = Ifc_pipeline.Telemetry
module Lattice = Ifc_lattice.Lattice
module Ast = Ifc_lang.Ast
module Gen = Ifc_lang.Gen
module Pretty = Ifc_lang.Pretty
module Metrics = Ifc_lang.Metrics
module Prng = Ifc_support.Prng
module Binding = Ifc_core.Binding
module Infer = Ifc_core.Infer
module Protocol = Ifc_server.Protocol
module Corpus = Ifc_fuzz.Corpus

type op = Check | Cert

type t = {
  name : string;
  lattice_name : string;  (** The request's ["lattice"] field. *)
  op : op;
  window : int;  (** Requests in flight on the one connection. *)
  cache_size : int;  (** The daemon's [--cache-size]. *)
  store : bool;  (** The daemon runs [--store] over a restored snapshot. *)
  pool : int;  (** Distinct repeated programs (0: none). *)
  fresh_every : int;
      (** Timed request [k] carries a never-sent program iff
          [(k + 1) mod fresh_every = 0]; 1 means every request, 0 none. *)
  size : int;  (** Generator size, in statement nodes (about; see [Gen]). *)
  random_bindings : bool;
      (** Odd positions get a uniformly random binding (which almost never
          certifies); even positions, and every position when false, get an
          inferred binding (which always does). *)
  replay_requests : int;  (** Timed requests the traced run replays. *)
}

(* Windows and working sets are chosen for steady figures on a shared
   two-CPU host; README.md gives the measurements behind each choice. *)
let check_hot =
  {
    name = "check-hot";
    lattice_name = "two";
    op = Check;
    window = 2;
    cache_size = 256;
    store = false;
    pool = 64;
    fresh_every = 0;
    size = 200;
    random_bindings = true;
    replay_requests = 1000;
  }

let check_cold_mls =
  {
    name = "check-cold-mls";
    lattice_name = "mls";
    op = Check;
    window = 1;
    cache_size = 64;
    store = false;
    pool = 0;
    fresh_every = 1;
    size = 200;
    random_bindings = true;
    replay_requests = 150;
  }

let cert_store =
  {
    name = "cert-store";
    lattice_name = "two";
    op = Cert;
    window = 2;
    cache_size = 32;
    store = true;
    pool = 384;
    fresh_every = 8;
    size = 30;
    random_bindings = false;
    replay_requests = 200;
  }

let all = [ check_hot; check_cold_mls; cert_store ]

let find name = List.find_opt (fun w -> w.name = name) all

(* Inputs and references are built over the native lattice (integer
   classes), which the daemon never sees: it gets the rendered class
   names and parses them into its own string-encoded lattice. *)
type native = Native : 'a Lattice.t -> native

let native w =
  match w.lattice_name with
  | "mls" -> Native Ifc_lattice.Mls.standard
  | _ -> Native Ifc_lattice.Chain.two

(* ------------------------------------------------------------------ *)
(* Programs *)

(* Eight integer variables and two semaphores: enough names that a
   binding has real choices to make, few enough that ~200 statements
   reuse each variable many times. *)
let gen_config =
  { Gen.default with Gen.vars = [ "a"; "b"; "c"; "d"; "e"; "f"; "g"; "h" ] }

type stream = Pool | Fresh

type expectation =
  | Check_expect of { analyses : (string * bool * int option) list }
      (** Per analysis: name, verdict and (when known) check count. *)
  | Cert_expect of { certified : bool; program_text : string }

type program = {
  key : string;  (** ["p<i>"] for pool programs, ["f<i>"] for fresh ones. *)
  text : string;  (** Canonical source, as sent. *)
  binding_text : string;
  statements : int;
  expect : expectation;
      (** The reference, computed here from the generated AST and
          binding, never through the daemon. *)
}

let declared (p : Ast.program) =
  List.map
    (function
      | Ast.Var_decl { name; _ }
      | Ast.Arr_decl { name; _ }
      | Ast.Sem_decl { name; _ }
      | Ast.Chan_decl { name; _ } -> name)
    p.Ast.decls

let render_binding lat names b =
  String.concat "\n"
    (List.map
       (fun v -> v ^ " : " ^ lat.Lattice.to_string (Binding.sbind b v))
       names)

(* SplitMix seeds for distinct (seed, workload, stream, index) tuples. *)
let rng ~seed w stream index =
  let tag = match stream with Pool -> 1 | Fresh -> 2 in
  Prng.create (Hashtbl.hash (seed, w.name, tag, index))

let binding_for w lat rng ~inferred ast =
  let names = declared ast in
  if inferred then
    (* Hold one variable at top and infer the rest: the least binding
       certifying the program, which is never all-bottom. *)
    let fixed = [ (Prng.choose rng names, lat.Lattice.top) ] in
    match Infer.infer lat ~fixed ast with
    | Ok b -> b
    | Error _ -> invalid_arg (w.name ^ ": inference failed with one top variable")
  else
    Binding.make lat
      (List.map (fun v -> (v, Prng.choose rng lat.Lattice.elements)) names)

let make_program w ~seed ~key stream index ~inferred =
  let rng = rng ~seed w stream index in
  let ast = Gen.program rng gen_config ~size:w.size in
  let text = Pretty.program_to_string ast in
  let (Native lat) = native w in
  let binding = binding_for w lat rng ~inferred ast in
  let expect =
    match w.op with
    | Check ->
      let r = Ifc_core.Cfm.analyze_program binding ast in
      Check_expect
        {
          analyses =
            [ ("cfm", r.Ifc_core.Cfm.certified, Some (List.length r.Ifc_core.Cfm.checks)) ];
        }
    | Cert ->
      Cert_expect
        { certified = Ifc_core.Cfm.certified binding ast.Ast.body; program_text = text }
  in
  {
    key;
    text;
    binding_text = render_binding lat (declared ast) binding;
    statements = (Metrics.of_program ast).Metrics.statements;
    expect;
  }

(* A program source is never sent under two keys: a generated text that
   repeats an earlier one is redrawn from the next attempt's stream, so
   "fresh" means never sent before in this run. Fresh programs are not
   kept: only the attempt that produced each is, so a fresh program can
   be regenerated exactly. *)
type source = {
  w : t;
  seed : int;
  pool_programs : program array;
  fresh_attempts : (int, int) Hashtbl.t;
  seen : (Digest.t, unit) Hashtbl.t;
}

let inferred_at w index = (not w.random_bindings) || index mod 2 = 0

let generate src stream index attempt =
  make_program src.w ~seed:src.seed
    ~key:((match stream with Pool -> "p" | Fresh -> "f") ^ string_of_int index)
    stream
    ((attempt * 1_000_003) + index)
    ~inferred:(inferred_at src.w index)

let rec draw src stream index attempt =
  let p = generate src stream index attempt in
  let d = Digest.string p.text in
  if Hashtbl.mem src.seen d then draw src stream index (attempt + 1)
  else begin
    Hashtbl.replace src.seen d ();
    (p, attempt)
  end

let source w ~seed =
  let src =
    {
      w;
      seed;
      pool_programs = [||];
      fresh_attempts = Hashtbl.create 64;
      seen = Hashtbl.create 256;
    }
  in
  { src with pool_programs = Array.init w.pool (fun i -> fst (draw src Pool i 0)) }

(* Fresh programs are drawn in index order, so the dedupe is
   deterministic; [fresh src i] draws any gap below [i] first. *)
let fresh src i =
  let rec fill j =
    if j < i then begin
      if not (Hashtbl.mem src.fresh_attempts j) then
        Hashtbl.replace src.fresh_attempts j (snd (draw src Fresh j 0));
      fill (j + 1)
    end
  in
  fill (Hashtbl.length src.fresh_attempts);
  match Hashtbl.find_opt src.fresh_attempts i with
  | Some attempt -> generate src Fresh i attempt
  | None ->
    let p, attempt = draw src Fresh i 0 in
    Hashtbl.replace src.fresh_attempts i attempt;
    p

let is_fresh w k =
  match w.fresh_every with
  | 0 -> false
  | 1 -> true
  | n -> (k + 1) mod n = 0

(* A workload that mixes fresh and repeated programs sends each fresh
   request alone. The repeats then keep the daemon's one serving thread
   busy, [window] deep, and a fresh request is computed on the worker
   with nothing running beside it, so each has one class of latency. *)
let sent_alone w k = w.fresh_every > 1 && is_fresh w k

(* The program of timed request [k]: fresh positions count fresh
   programs, the others walk the pool round-robin. *)
let timed_program src k =
  let w = src.w in
  if is_fresh w k then
    let before = if w.fresh_every = 1 then k else ((k + 1) / w.fresh_every) - 1 in
    fresh src before
  else
    let repeats_before = if w.fresh_every = 0 then k else k - ((k + 1) / w.fresh_every) in
    src.pool_programs.(repeats_before mod w.pool)

(* ------------------------------------------------------------------ *)
(* Requests *)

type request = {
  id : int;
  name : string;
  line : string;
  fresh_req : bool;
  statements : int;
  expect : expectation;
}

(* A request line is rendered once per program with a marker id, then
   instantiated per request by splicing the real id into the two places
   it appears (["id"] and ["name"]): a ~5 KB copy instead of a JSON
   re-encode in the closed loop. *)
let marker = "987654321987"

let template w (p : program) =
  let id = J.Int (int_of_string marker) and name = "r" ^ marker in
  let line =
    match w.op with
    | Check ->
      Protocol.check_line ~id ~name ~lattice:w.lattice_name ~binding:p.binding_text
        ~analyses:[ "cfm" ] p.text
    | Cert ->
      Protocol.cert_emit_line ~id ~name ~lattice:w.lattice_name ~binding:p.binding_text
        p.text
  in
  let rec split from acc =
    match Str_find.index line marker from with
    | Some i -> split (i + String.length marker) (String.sub line from (i - from) :: acc)
    | None -> List.rev (String.sub line from (String.length line - from) :: acc)
  in
  match split 0 [] with
  | [ _; _; _ ] as parts -> parts
  | _ -> invalid_arg "request template: marker must occur exactly twice"

(* Pool programs keep their template; fresh ones are rendered once. *)
let templates : (string, string list) Hashtbl.t = Hashtbl.create 128

let request_of_program src ~id ~fresh_req (p : program) =
  let parts =
    match Hashtbl.find_opt templates p.key with
    | Some parts -> parts
    | None ->
      let parts = template src.w p in
      if not fresh_req then Hashtbl.replace templates p.key parts;
      parts
  in
  {
    id;
    name = "r" ^ string_of_int id;
    line = String.concat (string_of_int id) parts;
    fresh_req;
    statements = p.statements;
    expect = p.expect;
  }

(* Timed request ids start here so they never collide with warm-up
   ids, whatever the warm-up length. *)
let timed_base = 1_000_000

let timed_request src k =
  request_of_program src ~id:(timed_base + k) ~fresh_req:(is_fresh src.w k)
    (timed_program src k)

(* The known-answer corpus: each entry's own lattice and binding, CFM
   plus proof generation, expected verdicts from its sidecar. Linked
   entries are sent as their elaboration, the corpus's certification
   reference. *)
let corpus_requests dir ~first_id =
  match Corpus.load dir with
  | Error msg -> Error msg
  | Ok entries ->
    Ok
      (List.mapi
         (fun i (e : Corpus.entry) ->
           let id = first_id + i in
           let name = "corpus-" ^ e.Corpus.name in
           let lat =
             match Corpus.lattice_of_name e.Corpus.lattice_name with
             | Ok l -> l
             | Error msg -> invalid_arg msg
           in
           let text = Pretty.program_to_string e.Corpus.program in
           (* Always explicit, even when empty: the sidecar's binding, not
              the program's annotations, is what the verdicts were
              recorded under. *)
           let binding =
             render_binding lat (Binding.names e.Corpus.binding) e.Corpus.binding
           in
           let expected = e.Corpus.expected in
           {
             id;
             name;
             line =
               Protocol.check_line ~id:(J.Int id) ~name
                 ~lattice:e.Corpus.lattice_name ~binding
                 ~analyses:[ "cfm"; "prove" ] text;
             fresh_req = false;
             statements = (Metrics.of_program e.Corpus.program).Metrics.statements;
             expect =
               Check_expect
                 {
                   analyses =
                     [
                       ("cfm", expected.Corpus.cfm, None);
                       ("prove", expected.Corpus.prove, None);
                     ];
                 };
           })
         entries)

(* The warm-up a daemon gets after readiness and before timing: the
   corpus, then (for a pool workload without a store) every pool program
   once, so each timed repeat is a memory-cache hit. A store workload is
   warmed by its own preload. *)
let warmup src corpus =
  let w = src.w in
  let prefill =
    if w.store || w.fresh_every <> 0 then []
    else
      Array.to_list
        (Array.mapi
           (fun i p ->
             request_of_program src ~id:(List.length corpus + i) ~fresh_req:false p)
           src.pool_programs)
  in
  corpus @ prefill
