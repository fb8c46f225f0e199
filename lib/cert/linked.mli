(** Linked certificates: the [ifc-cert 2] format for compositional
    certification.

    A version-2 certificate certifies a {e linked unit} (modules with
    [provides]/[requires] interfaces plus an optional main program, see
    {!Ifc_lang.Parser.parse_linked}) from per-module {e summary nodes}
    instead of per-statement proof nodes. Each summary records what the
    module's body means to the rest of the program — its symbolic
    [mod]/[flow], the residual atomic constraints its internal checks
    left over import classes, its channel endpoints and wait/signal
    obligations — keyed by the module's structural digest and, when a
    component certificate was emitted, that certificate's digest. The
    main program keeps a complete embedded version-1 certificate.

    {!check} re-validates a linked certificate end-to-end without
    re-walking any module body: it verifies the unit digest, the
    interface consistency of every summary node against the linked
    source, re-evaluates every residual constraint and export bound
    under the recorded binding, replays the top-level sequential
    composition checks from the summaries' [mod]/[flow] alone, and runs
    the embedded main certificate through the independent version-1
    {!Checker}. Supplying the component certificates ([~components])
    additionally roots each summary in a fully re-checked version-1
    proof of its module body.

    Version-1 certificates are untouched: {!Cert.version} remains [1]
    and {!Cert.parse} rejects version-2 headers, byte-identically to
    before. This module lives in the checker library and therefore — by
    the same dune-enforced trust split as {!Checker} — cannot link the
    summary generator in [ifc_modsys]. *)

(** An atomic residual constraint over import classes: the normal form
    every deferred CFM check decomposes into. [cls y] is the class the
    linker binds [y] to. *)
type constr =
  | Upper of string * string  (** [Upper (y, k)]: [cls y <= k]. *)
  | Lower of string * string  (** [Lower (k, y)]: [k <= cls y]. *)
  | Rel of string * string  (** [Rel (y, z)]: [cls y <= cls z]. *)

(** Symbolic meet-form [mod] of a module body: the meet of a concrete
    floor with the classes of the listed imports. *)
type smod = { floor : string; under : string list }

(** Symbolic [flow]: [nil], or the join of a concrete base with the
    classes of the listed imports. *)
type sflow = F_nil | F_sym of { base : string; over : string list }

type summary = {
  m_name : string;
  body_digest : string;
      (** {!Ifc_lang.Key.module_digest} of the summarized module. *)
  cert_digest : string option;
      (** MD5 hex of the component's version-1 certificate, when one was
          emitted for the import-closed module body. *)
  provides : (string * string) list;  (** Export name, upper class bound. *)
  requires : (string * string) list;  (** Import name, lower class bound. *)
  exports : (string * string) list;
      (** Export name, the class the module actually declares for it. *)
  smod : smod;
  sflow : sflow;
  constraints : constr list;  (** Sorted, deduplicated. *)
  sends : string list;  (** Channels the body sends on. *)
  recvs : string list;  (** Channels the body receives from. *)
  waits : string list;  (** Semaphores the body waits on. *)
  signals : string list;  (** Semaphores the body signals. *)
  locals_ok : bool;
      (** Did every concrete (import-free) internal check pass at summary
          time? *)
  exports_ok : bool;
      (** Does every exported variable's declared class respect its
          interface bound? Kept apart from [locals_ok] because export
          bounds are interface conformance, not Figure 2 checks. *)
}

type t = {
  linked_digest : string;  (** {!Ifc_lang.Key.linked_digest} of the whole unit. *)
  lattice : string Ifc_lattice.Lattice.t;
  binds : (string * string) list;
      (** [variable, class] over every variable of every body, sorted. *)
  summaries : summary list;  (** One per module, in unit order. *)
  main_cert : Cert.t option;
      (** Embedded version-1 certificate for the main program, present
          iff the unit has one. *)
}

val version : int
(** The linked-certificate format version: [2]. *)

val closed_program : Ifc_lang.Ast.module_unit -> Ifc_lang.Ast.program
(** The import-closed view of a module: its own declarations plus one
    integer declaration per import, annotated with the import's lower
    bound — the program component certificates are emitted against. *)

val main_program : binds:(string * string) list -> Ifc_lang.Ast.linked -> Ifc_lang.Ast.program option
(** The main program as certified: main declarations plus one annotated
    integer declaration per export in scope (class taken from [binds]),
    appended in module order. Deterministic given the unit and the
    recorded binding, so emitter and checker reconstruct the same
    program. *)

val bind_domain : Ifc_lang.Ast.linked -> Ifc_support.Sset.t
(** The variables a linked certificate's binding must cover: every
    variable of every body plus every interface name (an unused export
    still needs its class on record). The emitter renders exactly this
    set; {!check} enforces it in both directions. *)

val summary_to_lines : summary -> string list
(** The canonical block of lines for one summary node. *)

val summary_to_line : summary -> string
(** The block joined with tab characters — a single-line form for the
    store's summary seam. Round-trips through {!summary_of_line}. *)

val summary_of_line : string -> (summary, string) result

val to_string : t -> string
(** Canonical text form, beginning ["ifc-cert 2"]. Always ends with a
    newline. Re-emitting a parsed certificate reproduces the bytes. *)

val parse : string -> (t, Cert.parse_error) result
(** Strict parser for the version-2 grammar; rejects version-1 input
    (use {!Cert.parse}) and everything malformed. *)

val sniff_version : string -> int option
(** [sniff_version text] reads the [ifc-cert N] header alone, so callers
    can route to {!Cert.parse} or {!parse}. *)

type failure = Checker.failure = { path : string; rule : string; reason : string }

val check :
  ?components:string list ->
  t ->
  Ifc_lang.Ast.linked ->
  (unit, Checker.failure list) result
(** [check cert linked] validates [cert] against the linked source.
    Failure paths name the summary ([summary M]), the link step
    ([link i]), header pseudo-paths ([program] / [binding]), or nodes
    inside the embedded main certificate (prefixed [main/]).
    [~components] supplies version-1 certificate texts; each must parse,
    match some summary's recorded certificate digest, and fully re-check
    against that module's import-closed body. *)
