(* The monotone-framework worklist solver. *)

module type DOMAIN = sig
  type t

  val bottom : t

  val join : t -> t -> t

  val widen : t -> t -> t

  val equal : t -> t -> bool
end

type direction = Forward | Backward

module Make (D : DOMAIN) = struct
  type edge = { src : int; dst : int; transfer : D.t -> D.t }

  type graph = {
    node_count : int;
    edges : edge list;
    entry : int list;
    widen_points : int list;
  }

  type stats = { iterations : int; visits : int }

  (* A binary heap keyed by [order] would be overkill: the graphs this
     engine sees are per-program CFGs (thousands of nodes at the most),
     so the ready set is a sorted association left to stdlib Set. *)
  module Iset = Set.Make (struct
    type t = int * int (* (priority, node) *)

    let compare = compare
  end)

  module Int_set = Set.Make (Int)

  let solve ?(direction = Forward) ?(order = fun n -> n) g ~init =
    (* Orient the graph: in the backward direction every edge flips, so
       the rest of the algorithm is direction-agnostic. *)
    let edges =
      match direction with
      | Forward -> g.edges
      | Backward ->
        List.map (fun e -> { e with src = e.dst; dst = e.src }) g.edges
    in
    let succs = Array.make g.node_count [] in
    List.iter (fun e -> succs.(e.src) <- e :: succs.(e.src)) edges;
    let widen_at = Array.make g.node_count false in
    List.iter (fun n -> widen_at.(n) <- true) g.widen_points;
    let state = Array.make g.node_count D.bottom in
    List.iter (fun n -> state.(n) <- init) g.entry;
    let iterations = ref 0 in
    let visits = ref 0 in
    let queued = Array.make g.node_count false in
    let ready = ref Iset.empty in
    let push n =
      if not queued.(n) then begin
        queued.(n) <- true;
        ready := Iset.add (order n, n) !ready
      end
    in
    List.iter push g.entry;
    (* Widening is where drain order could leak into the result: a loop
       head widened against a half-propagated contribution (one arm of
       an [if] merged, the other still on the worklist) jumps further
       than one that sees the whole join. So contributions to widening
       points are held back, joined, while the rest of the graph
       settles. Loop heads cut every cycle of a CFG, so with them frozen
       the worklist drains to the same node states in any order (a
       finite domain with no widening points reaches its least fixpoint
       in the first round). Only then is one held point widened and
       released — the lowest-numbered, a property of the graph rather
       than of [order] — and the next round begins. *)
    let held = Array.make g.node_count D.bottom in
    let holding = ref Int_set.empty in
    let rec drain () =
      match Iset.min_elt_opt !ready with
      | None -> ()
      | Some ((_, n) as key) ->
        ready := Iset.remove key !ready;
        queued.(n) <- false;
        incr iterations;
        List.iter
          (fun e ->
            incr visits;
            let contribution = e.transfer state.(n) in
            if widen_at.(e.dst) then begin
              held.(e.dst) <- D.join held.(e.dst) contribution;
              holding := Int_set.add e.dst !holding
            end
            else begin
              let current = state.(e.dst) in
              let next = D.join current contribution in
              if not (D.equal next current) then begin
                state.(e.dst) <- next;
                push e.dst
              end
            end)
          succs.(n);
        drain ()
    in
    let rec rounds () =
      drain ();
      match Int_set.min_elt_opt !holding with
      | None -> ()
      | Some w ->
        holding := Int_set.remove w !holding;
        let current = state.(w) in
        let next = D.widen current held.(w) in
        held.(w) <- D.bottom;
        if not (D.equal next current) then begin
          state.(w) <- next;
          push w
        end;
        rounds ()
    in
    rounds ();
    (state, { iterations = !iterations; visits = !visits })
end
