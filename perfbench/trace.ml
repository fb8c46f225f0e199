(* Spans recorded by the benchmark around its calls into each layer.

   A span is one call: the request it served, a layer name, start and
   end on the monotonic clock, the enclosing span, and the words the
   call allocated (minor + major - promoted, from [Gc.counters], which
   count exactly for the calling domain). Spans stay in memory and are
   written as JSONL once the replay ends. With recording off, [span]
   is a plain call, which is how the tracing overhead is measured. *)

module J = Ifc_pipeline.Telemetry

type span = {
  index : int;  (** Start order. *)
  req : int;
  name : string;
  start_ns : int64;
  end_ns : int64;
  parent : int;  (** Index of the enclosing span; [-1] at top level. *)
  words : float;
}

let enabled = ref false
let recorded : span list ref = ref []
let count = ref 0
let stack : int list ref = ref []

let reset () =
  recorded := [];
  count := 0;
  stack := []

let words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let span ~req name f =
  if not !enabled then f ()
  else begin
    let index = !count in
    incr count;
    let parent = match !stack with p :: _ -> p | [] -> -1 in
    stack := index :: !stack;
    let w0 = words () in
    let t0 = J.now_ns () in
    let finish () =
      let t1 = J.now_ns () in
      let w1 = words () in
      stack := List.tl !stack;
      recorded :=
        { index; req; name; start_ns = t0; end_ns = t1; parent; words = w1 -. w0 }
        :: !recorded
    in
    match f () with
    | r ->
      finish ();
      r
    | exception e ->
      finish ();
      raise e
  end

(* Spans in start order, with their self time: duration minus the time
   the span's direct children cover. *)
let finished () =
  let all = Array.make !count None in
  List.iter (fun s -> all.(s.index) <- Some s) !recorded;
  let all = Array.map Option.get all in
  let child_ns = Array.make (Array.length all) 0L in
  Array.iter
    (fun s ->
      if s.parent >= 0 then
        child_ns.(s.parent) <-
          Int64.add child_ns.(s.parent) (Int64.sub s.end_ns s.start_ns))
    all;
  Array.map (fun s -> (s, Int64.sub (Int64.sub s.end_ns s.start_ns) child_ns.(s.index))) all

let write_jsonl path spans =
  Out_channel.with_open_text path (fun oc ->
      Array.iter
        (fun (s, self_ns) ->
          output_string oc
            (J.json_to_string
               (J.Obj
                  [
                    ("span", J.Int s.index);
                    ("req", J.Int s.req);
                    ("name", J.String s.name);
                    ("start_ns", J.Int (Int64.to_int s.start_ns));
                    ("end_ns", J.Int (Int64.to_int s.end_ns));
                    ("parent", J.Int s.parent);
                    ("self_ns", J.Int (Int64.to_int self_ns));
                    ("alloc_words", J.Int (int_of_float s.words));
                  ]));
          output_char oc '\n')
        spans)
