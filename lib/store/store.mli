(** A persistent content-addressed artifact store: the disk tier behind
    the in-memory {!Ifc_pipeline.Cache}.

    One file per entry under [objects/], named by the {!Ifc_pipeline.Job}
    digest it answers for, carrying the job's full analysis results —
    verdicts, check counts, and artifacts (certificate bytes, lint
    claims). Every write goes to [tmp/] first and reaches its final name
    by an atomic rename, so a crash at any instant leaves either the old
    store or the new store, never a torn entry. Every file ends in a
    checksum line over its payload; a reader that finds a mismatch — or
    any other structural damage — moves the file to [quarantine/] and
    answers as if the entry never existed, so corruption degrades to a
    recompute, never to a wrong answer served.

    Layout under the store directory:

    {v
    manifest            generation counter (bumped per open)
    objects/<digest>    one analysis-result entry per job digest
    summaries/<digest>  one opaque summary payload (a module summary) per key
    tmp/                write staging; leftovers are swept by gc
    quarantine/         damaged files moved aside, kept for forensics
    v}

    {b Generations and heat.} The manifest holds a generation counter,
    bumped every time the store is opened for writing. Entries are
    stamped with the generation current when they were written, and are
    re-stamped on a read hit and by {!record_heat}, so an entry's stamp
    is the last generation that used it. {!preload} loads the
    highest-stamped entries — the previous session's hot set — into the
    memory cache at boot, and {!gc} sweeps entries whose stamp has
    fallen out of the keep window.

    The store is safe to share across the domains of one process: all
    disk operations serialise behind an internal lock. It is {e not} a
    concurrency-safe database across processes, but because writes are
    atomic renames of content-addressed files, the worst a concurrent
    writer can do is replace an entry with identical bytes. *)

module Job := Ifc_pipeline.Job
module Cache := Ifc_pipeline.Cache
module Tier := Ifc_pipeline.Tier

type t

val open_ : ?bump:bool -> string -> (t, string) result
(** [open_ dir] opens (creating if needed) the store at [dir] and bumps
    its generation. [~bump:false] opens without bumping — for read-only
    inspection verbs ([stats], [verify]) that must not age the heat
    ranking. [Error] reports an unusable directory (e.g. a manifest path
    occupied by a directory). *)

val dir : t -> string

val generation : t -> int
(** The generation this session writes; stamps re-written by reads and
    {!record_heat} also use it. *)

(** {1 Entries} *)

val find :
  ?validate:(Job.analysis_result list -> bool) ->
  t ->
  digest:string ->
  Job.analysis_result list option
(** [find t ~digest] reads the entry for [digest], if any. The entry's
    checksum and structure are always verified; [validate] (default:
    accept) lets the caller impose semantic checks — the {!tier} runs
    certificate artifacts through the independent checker here. Any
    failure quarantines the file and answers [None]. A hit re-stamps
    the entry to the current generation. Counts one disk hit or miss. *)

val add : t -> digest:string -> Job.analysis_result list -> unit
(** Persist one result set under [digest] (atomic write-then-rename;
    last writer wins). Counts one write. *)

(** {1 Summaries}

    A keyed side table for callers that memoise their own artifacts
    (module summaries, [Ifc_modsys.Summary]). The payload is opaque:
    the store frames it by length, so any bytes round-trip, and its
    checksum covers it. The caller owns the key and the payload's
    format. *)

val find_summary : t -> digest:string -> string option
(** Checksum-verified like {!find}: a damaged file, or one written in an
    older summary format, is quarantined and answers [None]. A hit
    re-stamps. Does not count toward entry hit/miss statistics. *)

val add_summary : t -> digest:string -> string -> unit
(** Persist one payload under [digest] (atomic write-then-rename; last
    writer wins). *)

(** {1 Warm start} *)

val preload : t -> Job.analysis_result list Cache.t -> int
(** Load the hottest generation — every entry carrying the highest stamp
    on disk, up to the cache's capacity — into the memory cache, coldest
    first so the hottest end up most recent, and unused
    ({!Cache.add}[ ~used:false]). Returns the number loaded. *)

val record_heat : t -> Job.analysis_result list Cache.t -> unit
(** Re-stamp every store entry this session used that is still live in
    the memory cache ({!Cache.fold}) to the current generation, so the
    next {!preload} resurrects this session's final hot set. A preloaded
    entry that served no hit keeps its stamp and ages out of {!gc}'s
    window like any other. *)

(** {1 Maintenance} *)

type disk_stats = {
  generation : int;
  entries : int;
  entry_bytes : int;
  summaries : int;
  summary_bytes : int;
  quarantined : int;
}

val disk_stats : t -> disk_stats

type verify_report = {
  checked : int;
  ok : int;
  quarantined : int;
  quarantined_files : string list;  (** Basenames, in walk order. *)
}

val verify : t -> verify_report
(** Structurally verify every object and summary: checksum, digest line
    matching the file name, parseable results, and certificate artifacts
    accepted by {!Ifc_cert.Cert.parse}. Files that fail — including junk
    files whose names are not digests — are moved to [quarantine/]. *)

type gc_report = {
  live : int;
  swept : int;
  quarantined : int;  (** Unparseable entries and summaries moved aside. *)
  tmp_swept : int;
  bytes_freed : int;
}

val gc : ?keep:int -> ?tmp_age:float -> t -> gc_report
(** Mark-and-sweep by generation: an entry or summary is live iff its
    stamp is within [keep] (default 2) generations of the current one;
    everything older is deleted. Staging leftovers in [tmp/] are swept
    only when older than [tmp_age] seconds (default one hour): a fresh
    tmp file may be a concurrent writer's in-flight publish — the
    in-process mutex does not cover other processes sharing the
    directory — and removing it mid-publish would tear that write, so
    gc keeps it for a later pass rather than half-collecting it. An
    entry or summary that does not parse — damaged, or written in a
    retired format such as [ifc-store-summary 1] — has no stamp to age
    out by; gc moves it to [quarantine/], as {!find} and {!verify} do,
    and counts it as quarantined, not live. Only a file this gc moved
    counts as quarantined; one it could not move counts as live if it is
    still in place, and not at all if another process moved or removed
    it first. Files whose names are not digests are left for {!verify}
    to quarantine. *)

(** {1 The pipeline tier} *)

val tier : t -> Tier.t
(** [tier t] adapts the store to the pipeline's second-level cache
    interface. Its [find] re-validates certificate artifacts read from
    disk with the independent checker ({!Ifc_cert.Checker.check})
    against the requesting spec's program, quarantining entries whose
    certificates no longer check. Its [stats] combines session counters
    (hits, misses, writes, preloads) with current disk occupancy. *)
