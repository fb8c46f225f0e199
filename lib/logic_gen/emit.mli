(** The one place a version-1 certificate is made.

    Theorem 1 is constructive: when CFM certifies [S], the derivation
    {!Generate.theorem1} builds is a completely invariant flow proof. So
    it is rendered without {!Ifc_logic.Check}, and the independent
    {!Ifc_cert.Checker}, run on the re-parsed bytes, is its one check. If
    that checker rejects a certified program's certificate (a Theorem 1
    bug), no bytes are handed out. *)

val derivation :
  'a Ifc_core.Binding.t -> Ifc_lang.Ast.program -> 'a Ifc_logic.Proof.t option
(** [derivation b p] is [Generate.theorem1 b p.body] when
    [Cfm.certified b p.body], and [None] otherwise. *)

type check_failure =
  [ `Unparsable of int * Ifc_cert.Cert.parse_error
    (** The bytes do not re-parse: the proof's size and the error. *)
  | `Rejected of Ifc_cert.Checker.failure list ]

val of_proof :
  binding:string Ifc_core.Binding.t ->
  program:Ifc_lang.Ast.program ->
  string Ifc_logic.Proof.t ->
  (string * Ifc_cert.Cert.t, [> check_failure ]) result
(** Render the proof, re-parse the bytes and check them: the bytes and
    their parse, or why not. *)

val certificate :
  witness:(string Ifc_logic.Proof.t, Ifc_logic.Check.error list) result Lazy.t ->
  string Ifc_core.Binding.t ->
  Ifc_lang.Ast.program ->
  ( string * Ifc_cert.Cert.t,
    [> check_failure | `Not_certifiable of Ifc_logic.Check.error list ] )
  result
(** {!of_proof} on the {!derivation}. Without one, [witness] — the
    program's {!Invariance.witness}, forced only then — decides: its
    errors are [`Not_certifiable], and a proof it finds anyway (a
    Theorem 2 bug) goes to {!of_proof}. Lazy so that a job which also
    proves builds the witness once. *)
