(** Batch job specifications and results.

    A job names one program, one binding, one lattice, and the list of
    analyses to run over them. Running a job is pure with respect to the
    spec — the same spec always yields the same verdicts — which is what
    makes results content-addressable (see {!Cache}) and batches safe to
    fan out over domains in any order.

    Analyses operate on the [string]-element lattice representation (the
    CLI-uniform one, {!Ifc_lattice.Lattice.stringify}): jobs cross domain
    boundaries and a first-class polymorphic lattice would force the spec
    type to be existential for no benefit. *)

type analysis =
  | Denning  (** The Denning & Denning baseline, concurrency ignored. *)
  | Cfm  (** The paper's Concurrent Flow Mechanism. *)
  | Prove
      (** The flow-logic decision: Theorem-1 proof generation plus the
          proof checker ({!Ifc_logic_gen.Invariance.witness}). *)
  | Cert
      (** Certificate emission ({!Ifc_logic_gen.Emit.certificate}), read
          by {!cert_outcome}. The verdict is [true] only when the
          independent checker accepts the bytes; the certificate text
          becomes the result's [artifact]. *)
  | Ni of { pairs : int; max_states : int }
      (** Empirical noninterference with bounded exploration; observer is
          the lattice bottom. *)
  | Lint
      (** The static concurrency analyzer ({!Ifc_analysis.Analyze}):
          may-happen-in-parallel races, semaphore liveness, guard lints.
          The verdict is [true] iff there are no findings; the findings
          and safety claims ride along as a JSON [artifact], so cache
          hits (and the serve protocol) return the full report without
          re-running the analysis. Binding-independent: only the program
          is analyzed. *)
  | Custom of string * (string Ifc_core.Binding.t -> Ifc_lang.Ast.program -> bool * int)
      (** An out-of-tree analysis: [(verdict, check_count)]. The name
          participates in the cache key, so distinct analyses must use
          distinct names. Not constructible from the CLI. *)
  | Link of
      string * (string Ifc_core.Binding.t -> Ifc_lang.Ast.program -> bool * int * string option)
      (** Compositional certification of a linked unit
          ([Ifc_modsys.Link], injected as a closure so the pipeline stays
          modsys-free). The spec's program is the unit's elaboration and
          its binding the linked binding; the carried string is the
          linked unit's digest, which joins the cache key because the
          verdict also depends on interface bounds the elaboration does
          not record. Returns [(verdict, checks, artifact)] — the
          artifact is the emitted [ifc-cert 2] text when one is
          produced. *)

val analysis_name : analysis -> string
(** Display name: ["denning"], ["cfm"], ["prove"], ["ni"], or the custom
    name. *)

val analysis_key : analysis -> string
(** Cache-key form: like {!analysis_name} but parameterised analyses
    include their parameters (e.g. ["ni:8:20000"]). *)

val analysis_of_string :
  ?ni_pairs:int -> ?ni_max_states:int -> string -> (analysis, string) result
(** Parses ["denning" | "cfm" | "prove" | "cert" | "ni" | "lint"]; [ni]
    takes its bounds from the optional arguments (defaults 8 and
    20000). *)

val default_analyses : analysis list
(** [[Cfm]]. *)

type spec = {
  id : int;  (** Position in the batch; results are folded in id order. *)
  name : string;  (** Human label (file path or corpus tag). *)
  program : Ifc_lang.Ast.program;
  binding : string Ifc_core.Binding.t;
  lattice : string Ifc_lattice.Lattice.t;
  analyses : analysis list;
  self_check : bool;  (** CFM's literal Figure-2 composition reading. *)
}

val make :
  id:int ->
  name:string ->
  lattice:string Ifc_lattice.Lattice.t ->
  binding:string Ifc_core.Binding.t ->
  ?analyses:analysis list ->
  ?self_check:bool ->
  Ifc_lang.Ast.program ->
  spec

val digest : spec -> string
(** Content address of everything the verdict depends on: the program's
    structure ({!Ifc_lang.Key.program}: spans, spacing and comments do not
    count), the binding's entries and its default class, the lattice
    rendered in spec-file form, the analysis keys, and the [self_check]
    flag, folded into one buffer, hashed with [Digest] and rendered in
    hex. Two specs with equal digests produce equal outcomes. The bytes
    are fixed for a given build, not across releases. *)

type analysis_result = {
  analysis : string;  (** {!analysis_name}. *)
  verdict : bool;
  checks : int;
      (** Primitive certification checks (CFM/Denning), rule applications
          or checker errors (prove), certificate nodes or checker failures
          (cert), pairs tested (ni), or findings reported (lint). *)
  duration_ns : int64;
  artifact : string option;
      (** A byproduct worth keeping — the certificate text for [Cert],
          the findings/claims report JSON for [Lint]. Cached with the
          result, so a cache hit returns the artifact without re-running
          the analysis. *)
}

type outcome = (analysis_result list, string) result
(** [Error] means the job raised; the message includes the exception.
    A [false] verdict is a normal [Ok] result, not an error. *)

type result = {
  job_id : int;
  job_name : string;
  job_digest : string;
  outcome : outcome;
  duration_ns : int64;
  from_cache : bool;
}

val lint_report_json :
  ?extra:(string * Telemetry.json) list ->
  Ifc_analysis.Analyze.report ->
  string
(** The [Lint] artifact renderer, exposed so [ifc lint --json] prints
    byte-identical JSON to the cached artifact and the serve protocol's
    ["report"] object: [{findings; claims; stats}], each finding with
    [kind], [severity], [span], [message], and [related] when present. *)

val cert_outcome :
  ( string * Ifc_cert.Cert.t,
    [< Ifc_logic_gen.Emit.check_failure
    | `Not_certifiable of Ifc_logic.Check.error list ] )
  Stdlib.result ->
  bool * int * string option
(** A [Cert] job's verdict, count and artifact: the certificate's nodes
    and text, or the flow-logic errors, the proof's size (bytes that do
    not re-parse) or the checker's failures, with no artifact. *)

val run : ?digest:string -> spec -> result
(** Executes the analyses in order, timing each. Any exception an
    analysis raises is captured into [Error] — callers never see it.
    [?digest] avoids recomputing a digest the caller already has. A job
    listing both [Prove] and [Cert] builds the flow-logic witness once,
    and its time counts toward whichever of the two forces it first. *)

val verdict : result -> [ `Pass | `Fail | `Error ]
(** [`Pass] iff every analysis verdict is [true]. *)

val verdict_string : result -> string
(** ["pass" | "fail" | "error"]. *)

val result_fields : result -> (string * Telemetry.json) list
(** The JSONL event body for one job: [event=job], id, name, digest,
    cache, verdict, duration, and one object per analysis. *)
