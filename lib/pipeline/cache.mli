(** A bounded, content-addressed LRU result cache, shared across
    domains and striped so concurrent users don't serialize on one lock.

    Keys are {!Job.digest} strings; values are whatever the batch wants
    to memoise (normally the analysis results of a job). The cache never
    stores failures — that policy lives in {!Batch} — and eviction is
    least-recently-used, where both {!find} hits and {!add} refresh
    recency. Hit/miss/eviction counters are cumulative over the cache's
    lifetime so warm-over-cold deltas can be reported.

    A cache is an array of independent stripes, each an LRU behind its
    own mutex; keys route to stripes by hash, so the striping is
    invisible to callers. With one stripe (the default) behavior is
    exactly the classic single-lock LRU; with [n] stripes eviction is
    least-recently-used per stripe — the standard approximation. *)

type 'v t

val create : ?shards:int -> ?capacity:int -> unit -> 'v t
(** [create ()] is an empty cache holding at most [capacity] (default
    4096, minimum 1) entries, split over [shards] (default 1, minimum 1)
    independently locked stripes. Total capacity is divided evenly
    (rounding up) across stripes. *)

val shards : 'v t -> int
(** Number of stripes the cache was created with. *)

val find : 'v t -> string -> 'v option
(** Bumps the entry to most-recent on hit; counts a hit or a miss. *)

val add : ?used:bool -> 'v t -> string -> 'v -> unit
(** Inserts or refreshes; evicts the least-recently-used entry when the
    cache is over capacity. Neither counts a hit nor a miss.

    An entry is {e used} once an [add] with [~used:true] (the default)
    inserts or refreshes it, or a {!find} hits it. A warm start inserts
    with [~used:false], so an entry it loads stays unused until a
    request hits it (see {!fold}). *)

val mem : 'v t -> string -> bool
(** Recency- and counter-neutral membership test. *)

val remove : 'v t -> string -> bool
(** Explicit invalidation: drops the entry (if present, returning whether
    it was) and counts an {e invalidation} — never an eviction, so the
    two causes of entry loss stay distinguishable in {!stats}. *)

val fold : 'v t -> ('a -> string -> 'v -> 'a) -> 'a -> 'a
(** [fold t f init] folds [f] over every live entry that is used (see
    {!add}), stripe by stripe, each stripe in recency order (most
    recently used first) — so with one stripe this is exact global
    recency, and with several it is the concatenation of per-stripe
    recency orders. Recency- and counter-neutral, so a cache can be
    exported (e.g. persisted to a disk store) without perturbing what is
    being exported. Runs under each stripe's lock in turn: [f] must not
    call back into the cache. *)

type stats = {
  hits : int;
  misses : int;
  evictions : int;  (** Entries dropped by capacity pressure only. *)
  invalidations : int;  (** Entries dropped by explicit {!remove} only. *)
  size : int;
  capacity : int;
}

val stats : 'v t -> stats

val hit_rate : stats -> float
(** [hits / (hits + misses)] in percent; [0.] before any lookup. *)

val clear : 'v t -> unit
(** Drops all entries; counters are preserved. *)
