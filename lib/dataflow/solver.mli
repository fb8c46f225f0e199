(** The generic monotone-framework worklist solver.

    A dataflow problem is a finite graph whose edges carry monotone
    transfer functions over a join-semilattice, a direction, and an
    initial value at the entry (forward) or exit (backward) nodes. The
    solver computes the least fixpoint above the initial assignment by
    chaotic iteration; for domains with infinite ascending chains
    (intervals) it applies the domain's widening operator at the
    designated widening points — loop heads — which bounds the number of
    times any node can be revisited. Contributions to a widening point
    are held back until the rest of the graph has settled, then widened
    in one step, one point at a time in node order, so no widening ever
    sees a half-propagated join.

    The iteration order is configurable ({!solve}'s [order]): the
    fixpoint of a monotone problem is independent of the order in which
    the worklist is drained, and the test suite holds the solver to
    exactly that. *)

module type DOMAIN = sig
  type t

  val bottom : t
  (** The least element: "unreachable" / "no information yet". *)

  val join : t -> t -> t

  val widen : t -> t -> t
  (** [widen old next] must over-approximate [join old next] and
      guarantee that every chain [x0, widen x0 x1, widen (widen x0 x1)
      x2, ...] stabilises. Domains satisfying the ascending chain
      condition can use [join]. *)

  val equal : t -> t -> bool
end

type direction = Forward | Backward

module Make (D : DOMAIN) : sig
  type edge = { src : int; dst : int; transfer : D.t -> D.t }

  type graph = {
    node_count : int;  (** Nodes are [0 .. node_count - 1]. *)
    edges : edge list;
    entry : int list;
        (** Nodes seeded with [init]: roots in the chosen direction. *)
    widen_points : int list;
        (** Nodes where [D.widen] replaces [D.join] — loop heads. *)
  }

  type stats = { iterations : int; visits : int }
  (** [iterations] counts worklist pops; [visits] counts edge transfer
      applications. Both are exposed so benchmarks can report solver
      throughput and tests can bound widening behaviour. *)

  val solve :
    ?direction:direction ->
    ?order:(int -> int) ->
    graph ->
    init:D.t ->
    D.t array * stats
  (** [solve g ~init] returns the fixpoint state at every node. In the
      forward direction the state at [n] is the join over incoming edges
      [(u, f, n)] of [f state(u)]; backward flips every edge. [order]
      assigns each node a priority (smaller pops first) — any total
      function yields the same fixpoint, only [stats] may differ. *)
end
