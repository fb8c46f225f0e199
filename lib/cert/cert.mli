(** Proof certificates: a versioned, canonical, digest-stamped
    serialization of flow-proof derivations.

    A certificate carries everything an independent checker needs to
    re-validate a proof without re-deriving it: the digest of the program
    text it certifies, the classification scheme (as a {!Ifc_lattice.Spec}
    text), the static binding of every program variable, and — for every
    node of the derivation, in preorder — the applied Figure 1 rule and the
    node's pre- and post-assertions. Statements are {e not} serialized; the
    checker walks the certificate against the parsed program, so a
    certificate cannot smuggle in a different program than the one it is
    stamped for.

    Emission is canonical: class expressions are rendered from their
    {!Ifc_logic.Cexpr.normalize} normal form, assertion atoms are sorted
    and deduplicated, and bindings are sorted by name. Re-emitting a parsed
    certificate therefore reproduces the canonical bytes, and emitting the
    same proof twice yields byte-identical output. *)

type kind =
  | K_assign
  | K_wait
  | K_signal
  | K_send
  | K_recv
  | K_skip
  | K_alternation
  | K_iteration
  | K_composition
  | K_concurrency
  | K_consequence

type node = {
  kind : kind;
  pre : string Ifc_logic.Assertion.t;
  post : string Ifc_logic.Assertion.t;
  children : node list;
}

type t = {
  program_digest : string;  (** MD5 hex of the printed program text. *)
  lattice : string Ifc_lattice.Lattice.t;
  binds : (string * string) list;
      (** [variable, class] for every variable of the program body, sorted
          by name. *)
  root : node;
}

type parse_error = { line : int; reason : string }

val version : int
(** The certificate format version this module reads and writes. *)

val rule_name : kind -> string
(** The rule spelling used in the serialized form ([assign], [wait], ...,
    [consequence]). *)

val program_digest : Ifc_lang.Ast.program -> string
(** MD5 hex digest of {!Ifc_lang.Pretty.program_to_string}. Pretty-printing
    before hashing makes the digest insensitive to whitespace and comments
    in the source file. *)

val of_proof :
  binding:string Ifc_core.Binding.t ->
  program:Ifc_lang.Ast.program ->
  string Ifc_logic.Proof.t ->
  t
(** [of_proof ~binding ~program proof] packages [proof] (a derivation for
    [program.body]) as a certificate. The binding is restricted to the
    variables of the program body — exactly the domain of the policy
    invariant the checker re-derives. *)

val to_string : t -> string
(** Canonical text form. Always ends with a newline. *)

val node_count : t -> int

val parse : string -> (t, parse_error) result
(** Strict parser. Accepts exactly the line grammar produced by
    {!to_string} (assertion atom order is the one freedom: atoms may appear
    in any order and re-emission canonicalizes them). Malformed input of
    any kind — wrong version, bad digest syntax, unknown rule or class
    names, arity violations, truncation, trailing garbage — yields a
    structured [Error]; no exception escapes. *)

val pp_parse_error : Format.formatter -> parse_error -> unit

(** {2 Line-format helpers}

    Shared with {!Linked}, whose format uses the same line grammar and
    the same header: version, digest, [lattice:] and sorted [bind:]
    lines. *)

val chop_prefix : prefix:string -> string -> string option
(** [chop_prefix ~prefix s] is what follows [prefix] in [s], when [s]
    starts with it. *)

val split_str : string -> string -> string list
(** [split_str sep s] splits [s] at every occurrence of the
    multi-character separator [sep], left to right. The separator is
    matched in place; only the pieces are allocated. *)

val valid_digest : string -> bool
(** 32 lowercase hexadecimal digits. *)

exception Fail of parse_error

val fail : int -> string -> 'a

type cursor = { lines : string array; mutable pos : int }
(** A certificate's lines and how many have been read. *)

val next : cursor -> string -> int * string
(** [next c what] is the next line and its number, or fails with
    ["unexpected end of certificate: expected " ^ what]. *)

val finish : cursor -> unit
(** Fails on a line left unread: ["trailing data after certificate"]. *)

val element : string Ifc_lattice.Lattice.t -> int -> string -> string
(** [cls] as a class of the lattice, or fails with ["unknown class ..."]. *)

val read_header :
  string ->
  version:int ->
  label:string ->
  noun:string ->
  cursor * string * string Ifc_lattice.Lattice.t * (string * string) list
(** Reads what {!write_header} writes at the top of a text: the digest,
    lattice and binds, and the cursor past them. [noun] names the format
    in a version error, [label] the digest line. *)

val line : Buffer.t -> ('a, unit, string, unit) format4 -> 'a
(** One formatted line and its newline. *)

val write_header :
  Buffer.t ->
  version:int ->
  label:string ->
  digest:string ->
  string Ifc_lattice.Lattice.t ->
  (string * string) list ->
  unit
