(** The second-level result tier behind the in-memory {!Cache}.

    {!Batch} and the server consult results memory-first, then through
    this record of closures, then compute. The record exists so the
    pipeline can be layered over a persistent store without depending on
    one: the disk-backed implementation ({!Ifc_store.Store}) lives above
    this library and is plugged in by the CLI driver.

    A tier is expected to be safe to call from multiple domains and
    threads concurrently, and to return only results it can vouch for —
    a disk tier validates checksums (and re-checks certificate artifacts
    with the independent checker) before answering, and answers [None]
    for anything it had to quarantine. *)

type stats = {
  disk_hits : int;  (** Lookups answered from the tier. *)
  disk_misses : int;  (** Lookups that fell through to compute. *)
  writes : int;  (** Results persisted this session. *)
  preloaded : int;  (** Entries warm-started into the memory cache. *)
  entries : int;  (** Live entries in the backing store right now. *)
  bytes_on_disk : int;  (** Bytes of live entries right now. *)
}

type t = {
  find : Job.spec -> digest:string -> Job.analysis_result list option;
      (** [find spec ~digest] returns the stored results for [digest], or
          [None]. The spec rides along so implementations can re-validate
          artifacts against the program (certificates through the
          independent checker). *)
  store : digest:string -> Job.analysis_result list -> unit;
      (** Persist one result set. Must be atomic: a crash mid-write may
          lose the entry but never corrupt the store. *)
  preload : Job.analysis_result list Cache.t -> int;
      (** Warm-start: load the hottest stored entries into the memory
          cache (up to its capacity), returning how many were loaded. *)
  record_heat : Job.analysis_result list Cache.t -> unit;
      (** Persist which cached entries this session used (via
          {!Cache.fold}) so the {e next} {!preload} resurrects today's
          hot set. *)
  stats : unit -> stats;
}

val stats_fields : stats -> (string * Telemetry.json) list
(** The stats record as JSON fields, ready for a [stats] response or a
    JSONL event. *)
