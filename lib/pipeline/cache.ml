(* Content-addressed LRU cache, striped so worker domains and I/O
   shards don't serialize on one mutex: a cache is an array of
   independent stripes, each a hash table over an intrusive
   doubly-linked recency list behind its own lock. Keys are routed to
   stripes by hash, so digest-identical lookups always meet in the same
   stripe and the striping is invisible to callers. Operations are
   O(1); a lock is held only for pointer surgery, never while computing
   a value. With one stripe (the default) behavior is exactly the
   classic single-lock LRU; with [n] stripes eviction is
   least-recently-used *per stripe*, which is the standard
   approximation. *)

type 'v node = {
  key : string;
  mutable value : 'v;
  mutable used : bool;  (* hit, or added by a caller other than a warm start *)
  mutable prev : 'v node option;  (* towards most-recent *)
  mutable next : 'v node option;  (* towards least-recent *)
}

type 'v stripe = {
  mutex : Mutex.t;
  table : (string, 'v node) Hashtbl.t;
  capacity : int;
  mutable head : 'v node option;  (* most recently used *)
  mutable tail : 'v node option;  (* least recently used *)
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable invalidations : int;
}

type 'v t = 'v stripe array

let create ?(shards = 1) ?(capacity = 4096) () =
  let shards = max 1 shards in
  let capacity = max 1 capacity in
  (* Ceiling division: the total never rounds below the request. *)
  let per_stripe = max 1 ((capacity + shards - 1) / shards) in
  Array.init shards (fun _ ->
      {
        mutex = Mutex.create ();
        table = Hashtbl.create 64;
        capacity = per_stripe;
        head = None;
        tail = None;
        hits = 0;
        misses = 0;
        evictions = 0;
        invalidations = 0;
      })

let shards t = Array.length t

let stripe_of t key = t.(Hashtbl.hash key mod Array.length t)

let with_lock s f =
  Mutex.lock s.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock s.mutex) f

(* List surgery; caller holds the stripe lock. *)

let unlink s node =
  (match node.prev with
  | Some p -> p.next <- node.next
  | None -> s.head <- node.next);
  (match node.next with
  | Some n -> n.prev <- node.prev
  | None -> s.tail <- node.prev);
  node.prev <- None;
  node.next <- None

let push_front s node =
  node.next <- s.head;
  node.prev <- None;
  (match s.head with Some h -> h.prev <- Some node | None -> s.tail <- Some node);
  s.head <- Some node

let evict_lru s =
  match s.tail with
  | None -> ()
  | Some lru ->
    unlink s lru;
    Hashtbl.remove s.table lru.key;
    s.evictions <- s.evictions + 1

let find t key =
  let s = stripe_of t key in
  with_lock s (fun () ->
      match Hashtbl.find_opt s.table key with
      | Some node ->
        s.hits <- s.hits + 1;
        node.used <- true;
        unlink s node;
        push_front s node;
        Some node.value
      | None ->
        s.misses <- s.misses + 1;
        None)

let add ?(used = true) t key value =
  let s = stripe_of t key in
  with_lock s (fun () ->
      match Hashtbl.find_opt s.table key with
      | Some node ->
        node.value <- value;
        node.used <- node.used || used;
        unlink s node;
        push_front s node
      | None ->
        let node = { key; value; used; prev = None; next = None } in
        Hashtbl.add s.table key node;
        push_front s node;
        if Hashtbl.length s.table > s.capacity then evict_lru s)

let mem t key =
  let s = stripe_of t key in
  with_lock s (fun () -> Hashtbl.mem s.table key)

(* Explicit invalidation is not an eviction: capacity pressure and
   deliberate removal are separate signals, counted separately. *)
let remove t key =
  let s = stripe_of t key in
  with_lock s (fun () ->
      match Hashtbl.find_opt s.table key with
      | None -> false
      | Some node ->
        unlink s node;
        Hashtbl.remove s.table key;
        s.invalidations <- s.invalidations + 1;
        true)

(* Folds over live used entries, stripe by stripe, each stripe in recency
   order (most recently used first) — recency- and counter-neutral, so
   exporting the cache (say, into a persistent store) never perturbs
   what it is exporting. With several stripes the concatenation is only
   approximately a global recency order, which is all the heat-recording
   consumer needs. Each stripe's fold runs under that stripe's lock:
   [f] must not call back into the cache. *)
let fold t f init =
  Array.fold_left
    (fun acc s ->
      with_lock s (fun () ->
          let rec go acc = function
            | None -> acc
            | Some node when not node.used -> go acc node.next
            | Some node -> go (f acc node.key node.value) node.next
          in
          go acc s.head))
    init t

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  invalidations : int;
  size : int;
  capacity : int;
}

let stats t =
  Array.fold_left
    (fun acc s ->
      with_lock s (fun () ->
          {
            hits = acc.hits + s.hits;
            misses = acc.misses + s.misses;
            evictions = acc.evictions + s.evictions;
            invalidations = acc.invalidations + s.invalidations;
            size = acc.size + Hashtbl.length s.table;
            capacity = acc.capacity + s.capacity;
          }))
    { hits = 0; misses = 0; evictions = 0; invalidations = 0; size = 0; capacity = 0 }
    t

let hit_rate s =
  let looked = s.hits + s.misses in
  if looked = 0 then 0. else 100. *. float_of_int s.hits /. float_of_int looked

let clear t =
  Array.iter
    (fun s ->
      with_lock s (fun () ->
          Hashtbl.reset s.table;
          s.head <- None;
          s.tail <- None))
    t
