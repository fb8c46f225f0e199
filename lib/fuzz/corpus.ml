(* On-disk corpus of shrunk counterexamples: .ifc program + .expect sidecar. *)

module Ast = Ifc_lang.Ast
module Pretty = Ifc_lang.Pretty
module Parser = Ifc_lang.Parser
module Metrics = Ifc_lang.Metrics
module Binding = Ifc_core.Binding

type expected = {
  cls : string;
  cfm : bool;
  denning : bool;
  fs : bool;
  prove : bool;
  cert : bool;
  interfering : bool;
  race_free : bool;
  deadlock_free : bool;
  must_block : bool;
  chan_race_free : bool;
  chan_deadlock_free : bool;
  lint_findings : int;
  pruned : int;
  witness_ok : bool;
  statements : int;
}

type entry = {
  name : string;
  lattice_name : string;
  binding : string Binding.t;
  program : Ast.program;
  expected : expected;
  note : string option;
}

let lattice_of_name name =
  match Ifc_lattice.Builtin.find name with
  | Some l -> Ok l
  | None -> Error (Printf.sprintf "unknown corpus lattice %S" name)

(* Canonical replay parameters. Sidecars are written and replayed with the
   same oracle seed / pair count / state budget, so the [interfering] field
   is reproducible by construction. *)
let replay_ni_seed = 7
let replay_ni_pairs = 8
let replay_max_states = 20_000

let replay_verdicts binding program =
  Oracle.run ~ni_seed:replay_ni_seed ~ni_pairs:replay_ni_pairs
    ~max_states:replay_max_states binding program

let expected_of_verdicts ~cls program (v : Classify.verdicts) =
  {
    cls;
    cfm = v.Classify.cfm;
    denning = v.Classify.denning;
    fs = v.Classify.fs;
    prove = v.Classify.prove;
    cert = v.Classify.cert_ok;
    interfering = v.Classify.ni_violations > 0;
    race_free = v.Classify.lint_race_free;
    deadlock_free = v.Classify.lint_deadlock_free;
    must_block = v.Classify.lint_must_block;
    chan_race_free = v.Classify.lint_chan_race_free;
    chan_deadlock_free = v.Classify.lint_chan_deadlock_free;
    lint_findings = v.Classify.lint_findings;
    pruned = v.Classify.prune_spans;
    witness_ok = v.Classify.witness_ok;
    statements = (Metrics.of_program program).Metrics.statements;
  }

(* ------------------------------------------------------------------ *)
(* Sidecar syntax *)

let sidecar_text ~lattice_name ~binding ~expected ?note () =
  let buf = Buffer.create 256 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  line "lattice: %s" lattice_name;
  line "class: %s" expected.cls;
  line "cfm: %b" expected.cfm;
  line "denning: %b" expected.denning;
  line "fs: %b" expected.fs;
  line "prove: %b" expected.prove;
  line "cert: %b" expected.cert;
  line "interfering: %b" expected.interfering;
  line "race_free: %b" expected.race_free;
  line "deadlock_free: %b" expected.deadlock_free;
  line "must_block: %b" expected.must_block;
  line "chan_race_free: %b" expected.chan_race_free;
  line "chan_deadlock_free: %b" expected.chan_deadlock_free;
  line "lint_findings: %d" expected.lint_findings;
  line "pruned: %d" expected.pruned;
  line "witness_ok: %b" expected.witness_ok;
  line "statements: %d" expected.statements;
  (match note with None -> () | Some n -> line "note: %s" n);
  List.iter
    (fun (name, cls) -> line "binding: %s : %s" name cls)
    (Binding.bindings binding);
  Buffer.contents buf

let ( let* ) = Result.bind

let parse_bool field = function
  | "true" -> Ok true
  | "false" -> Ok false
  | other -> Error (Printf.sprintf "field %s: expected bool, got %S" field other)

let parse_int field s =
  match int_of_string_opt s with
  | Some n -> Ok n
  | None -> Error (Printf.sprintf "field %s: expected int, got %S" field s)

let parse_sidecar text =
  let fields = Hashtbl.create 16 in
  let bindings = ref [] in
  let* () =
    String.split_on_char '\n' text
    |> List.fold_left
         (fun acc line ->
           let* () = acc in
           let line = String.trim line in
           if line = "" || line.[0] = '#' then Ok ()
           else
             match String.index_opt line ':' with
             | None -> Error (Printf.sprintf "malformed sidecar line %S" line)
             | Some i ->
               let key = String.trim (String.sub line 0 i) in
               let value =
                 String.trim (String.sub line (i + 1) (String.length line - i - 1))
               in
               if key = "binding" then begin
                 bindings := value :: !bindings;
                 Ok ()
               end
               else begin
                 Hashtbl.replace fields key value;
                 Ok ()
               end)
         (Ok ())
  in
  let field key =
    match Hashtbl.find_opt fields key with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "sidecar missing field %s" key)
  in
  let* lattice_name = field "lattice" in
  let* lattice = lattice_of_name lattice_name in
  let* cls = field "class" in
  let* cfm = Result.bind (field "cfm") (parse_bool "cfm") in
  let* denning = Result.bind (field "denning") (parse_bool "denning") in
  let* fs = Result.bind (field "fs") (parse_bool "fs") in
  let* prove = Result.bind (field "prove") (parse_bool "prove") in
  let* cert = Result.bind (field "cert") (parse_bool "cert") in
  let* interfering =
    Result.bind (field "interfering") (parse_bool "interfering")
  in
  let* race_free = Result.bind (field "race_free") (parse_bool "race_free") in
  let* deadlock_free =
    Result.bind (field "deadlock_free") (parse_bool "deadlock_free")
  in
  let* must_block = Result.bind (field "must_block") (parse_bool "must_block") in
  (* Channel claims postdate the sidecar format; older entries carry no
     channels, for which both claims hold vacuously. *)
  let optional_bool key default =
    match Hashtbl.find_opt fields key with
    | None -> Ok default
    | Some v -> parse_bool key v
  in
  let* chan_race_free = optional_bool "chan_race_free" true in
  let* chan_deadlock_free = optional_bool "chan_deadlock_free" true in
  let* lint_findings =
    Result.bind (field "lint_findings") (parse_int "lint_findings")
  in
  (* Dataflow fields postdate the sidecar format; older entries carry
     zero pruned arms and a vacuously valid witness. *)
  let optional_int key default =
    match Hashtbl.find_opt fields key with
    | None -> Ok default
    | Some v -> parse_int key v
  in
  let* pruned = optional_int "pruned" 0 in
  let* witness_ok = optional_bool "witness_ok" true in
  let* statements = Result.bind (field "statements") (parse_int "statements") in
  let* binding =
    Binding.of_spec lattice (String.concat "\n" (List.rev !bindings))
  in
  Ok
    ( lattice_name,
      binding,
      {
        cls;
        cfm;
        denning;
        fs;
        prove;
        cert;
        interfering;
        race_free;
        deadlock_free;
        must_block;
        chan_race_free;
        chan_deadlock_free;
        lint_findings;
        pruned;
        witness_ok;
        statements;
      },
      Hashtbl.find_opt fields "note" )

(* ------------------------------------------------------------------ *)
(* Load / write *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path text =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc text)

let rec mkdirs dir =
  if not (Sys.file_exists dir) then begin
    mkdirs (Filename.dirname dir);
    (try Sys.mkdir dir 0o755 with Sys_error _ -> ())
  end

let load_entry dir name =
  let program_path = Filename.concat dir (name ^ ".ifc") in
  let sidecar_path = Filename.concat dir (name ^ ".expect") in
  if not (Sys.file_exists sidecar_path) then
    Error (Printf.sprintf "%s: missing sidecar %s.expect" program_path name)
  else
    let* program =
      (* Entries may be plain programs or linked units; a linked entry
         replays as its whole-program elaboration — the certification
         reference the module system is held to. *)
      let text = read_file program_path in
      if Parser.looks_linked text then
        match Parser.parse_linked text with
        | Ok l -> Ok (Ifc_modsys.Link.elaborate l)
        | Error e -> Error (Fmt.str "%s: %a" program_path Parser.pp_error e)
      else
        match Parser.parse_program text with
        | Ok p -> Ok p
        | Error e -> Error (Fmt.str "%s: %a" program_path Parser.pp_error e)
    in
    let* lattice_name, binding, expected, note =
      Result.map_error
        (fun msg -> Printf.sprintf "%s: %s" sidecar_path msg)
        (parse_sidecar (read_file sidecar_path))
    in
    Ok { name; lattice_name; binding; program; expected; note }

let load dir =
  if not (Sys.file_exists dir) then Ok []
  else
    Sys.readdir dir |> Array.to_list
    |> List.filter_map (Filename.chop_suffix_opt ~suffix:".ifc")
    |> List.sort String.compare
    |> List.fold_left
         (fun acc name ->
           let* entries = acc in
           let* entry = load_entry dir name in
           Ok (entry :: entries))
         (Ok [])
    |> Result.map List.rev

let write ~dir ~name ~lattice_name ~binding ~expected ?note program =
  mkdirs dir;
  let program_path = Filename.concat dir (name ^ ".ifc") in
  write_file program_path (Pretty.program_to_string program ^ "\n");
  write_file
    (Filename.concat dir (name ^ ".expect"))
    (sidecar_text ~lattice_name ~binding ~expected ?note ());
  program_path

let write_linked ~dir ~name ~lattice_name ~binding ~expected ?note linked =
  mkdirs dir;
  let program_path = Filename.concat dir (name ^ ".ifc") in
  write_file program_path (Pretty.linked_to_string linked ^ "\n");
  write_file
    (Filename.concat dir (name ^ ".expect"))
    (sidecar_text ~lattice_name ~binding ~expected ?note ());
  program_path
