(** The fault-injection registry: every deliberate fault the test suites
    plant, behind one environment variable.

    [IFC_PLANT=name[,name]] enables plants by name. The fuzz plants
    append one or two cases to an [ifc fuzz] campaign whose verdicts are
    forced wrong, so the detect, shrink and persist paths stay exercised;
    [stall:MS] makes the daemon sleep [MS] milliseconds before running
    any pooled job whose request name starts with ["stall"]. *)

type t =
  | Inversion  (** A direct leak with its CFM verdict forced to certified. *)
  | Cert_inversion
      (** A provable program with its certificate round-trip forced to
          fail. *)
  | Lint_unsound
      (** A guaranteed semaphore deadlock with the concurrency analyzer's
          claims forced to all-safe. *)
  | Chan_unsound
      (** A [recv] nobody sends to, with the analyzer's claims forced to
          all-safe. *)
  | Store_stale
      (** A store entry pre-written with the flipped CFM verdict. *)
  | Dataflow_unsound
      (** Two cases: a bogus pruned arm, and a corrupted flow witness. *)
  | Refine_unsound
      (** A leaking module replacement with its refinement claim forced to
          accepted. *)
  | Stall of int  (** Milliseconds; always positive. *)

val names : string list
(** Every accepted name, in registry order: [inversion],
    [cert-inversion], [lint-unsound], [chan-unsound], [store-stale],
    [dataflow-unsound], [refine-unsound], [stall:MS]. *)

val compare : t -> t -> int
(** Registry order. A campaign appends the planted cases of its enabled
    plants in this order, whatever order they were named in. *)

val parse : string -> (t list, string) result
(** Comma-separated names; blanks and empty items are ignored, so [""]
    enables nothing. The result is deduplicated and in registry order. An
    unknown name is an error that lists every name. *)

val of_env : unit -> (t list, string) result
(** {!parse} of [IFC_PLANT]; unset means no plants. *)

val stall_ms : t list -> int
(** The [stall:MS] plant's milliseconds, or [0] without one. *)
