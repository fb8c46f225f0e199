(* Certificate emission: the Theorem-1 derivation, rendered, re-parsed
   and checked once by the independent checker. *)

module Ast = Ifc_lang.Ast
module Cert = Ifc_cert.Cert

let derivation binding (p : Ast.program) =
  if Ifc_core.Cfm.certified binding p.Ast.body then
    Some (Generate.theorem1 binding p.Ast.body)
  else None

type check_failure =
  [ `Unparsable of int * Cert.parse_error
  | `Rejected of Ifc_cert.Checker.failure list ]

let of_proof ~binding ~program proof =
  let text = Cert.to_string (Cert.of_proof ~binding ~program proof) in
  match Cert.parse text with
  | Error e -> Error (`Unparsable (Ifc_logic.Proof.size proof, e))
  | Ok parsed -> (
    match Ifc_cert.Checker.check parsed program with
    | Ok () -> Ok (text, parsed)
    | Error failures -> Error (`Rejected failures))

let certificate ~witness binding program =
  match derivation binding program with
  | Some proof -> of_proof ~binding ~program proof
  | None -> (
    match Lazy.force witness with
    | Error errors -> Error (`Not_certifiable errors)
    | Ok proof -> of_proof ~binding ~program proof)
