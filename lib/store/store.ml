(* The disk tier: content-addressed entry files with checksum trailers,
   written via tmp-then-rename, stamped with a manifest generation that
   doubles as the heat ranking for warm starts and gc. *)

module Job = Ifc_pipeline.Job
module Cache = Ifc_pipeline.Cache
module Tier = Ifc_pipeline.Tier

type t = {
  dir : string;
  mutable generation : int;
  lock : Mutex.t;
  tmp_seq : int Atomic.t;
  mutable disk_hits : int;
  mutable disk_misses : int;
  mutable writes : int;
  mutable preloaded : int;
}

let dir t = t.dir

let generation t = t.generation

(* ------------------------------------------------------------------ *)
(* Filesystem plumbing *)

let ( / ) = Filename.concat

let objects_dir t = t.dir / "objects"
let summaries_dir t = t.dir / "summaries"
let tmp_dir t = t.dir / "tmp"
let quarantine_dir t = t.dir / "quarantine"
let manifest_path t = t.dir / "manifest"

let ensure_dir path =
  if not (Sys.file_exists path) then Sys.mkdir path 0o755
  else if not (Sys.is_directory path) then
    failwith (path ^ " exists and is not a directory")

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let file_size path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> in_channel_length ic)

(* Atomic publication: stage in tmp/ (same filesystem as the target, so
   the rename cannot degrade to copy-and-delete), then rename. A crash
   before the rename leaves only a staging file for gc to sweep. *)
let write_atomic t ~dest content =
  let tmp =
    tmp_dir t
    / Printf.sprintf "%s.%d.tmp" (Filename.basename dest)
        (Atomic.fetch_and_add t.tmp_seq 1)
  in
  let oc = open_out_bin tmp in
  (try
     output_string oc content;
     close_out oc
   with e ->
     close_out_noerr oc;
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  Sys.rename tmp dest

(* Damaged files are moved aside, never deleted: the bytes are evidence.
   The destination name gets a numeric suffix if the slot is taken.
   Whether the file was moved: another process may have moved or swept
   it first. *)
let quarantine t path =
  ensure_dir (quarantine_dir t);
  let base = Filename.basename path in
  let rec free n =
    let candidate =
      if n = 0 then quarantine_dir t / base
      else quarantine_dir t / Printf.sprintf "%s.%d" base n
    in
    if Sys.file_exists candidate then free (n + 1) else candidate
  in
  match Sys.rename path (free 0) with () -> true | exception Sys_error _ -> false

let list_dir path =
  if Sys.file_exists path && Sys.is_directory path then
    let names = Sys.readdir path in
    Array.sort String.compare names;
    Array.to_list names
  else []

let is_digest_name = Ifc_cert.Cert.valid_digest

(* ------------------------------------------------------------------ *)
(* Entry and summary serialization *)

exception Malformed of string

(* Every file ends in "checksum <md5-of-payload>\n" — fixed width, so
   splitting it off needs no scan. *)
let checksum_width = String.length "checksum " + 32 + 1

let seal payload =
  payload ^ "checksum " ^ Digest.to_hex (Digest.string payload) ^ "\n"

let unseal raw =
  let len = String.length raw in
  if len < checksum_width then raise (Malformed "truncated before checksum");
  let payload = String.sub raw 0 (len - checksum_width) in
  let trailer = String.sub raw (len - checksum_width) checksum_width in
  let expected = "checksum " ^ Digest.to_hex (Digest.string payload) ^ "\n" in
  if not (String.equal trailer expected) then
    raise (Malformed "checksum mismatch");
  payload

(* A strict position-based scanner: artifacts are length-prefixed raw
   bytes, so line splitting alone cannot parse an entry. *)
type scanner = { src : string; mutable pos : int }

let scan_line sc =
  match String.index_from_opt sc.src sc.pos '\n' with
  | None -> raise (Malformed "unterminated line")
  | Some nl ->
    let line = String.sub sc.src sc.pos (nl - sc.pos) in
    sc.pos <- nl + 1;
    line

let scan_bytes sc n =
  if n < 0 || sc.pos + n > String.length sc.src then
    raise (Malformed "artifact length out of range");
  let s = String.sub sc.src sc.pos n in
  sc.pos <- sc.pos + n;
  (match String.index_from_opt sc.src sc.pos '\n' with
  | Some nl when nl = sc.pos -> sc.pos <- nl + 1
  | _ -> raise (Malformed "artifact not newline-terminated"));
  s

let scan_done sc =
  if sc.pos <> String.length sc.src then raise (Malformed "trailing garbage")

let scan_field sc key =
  let line = scan_line sc in
  let prefix = key ^ " " in
  let plen = String.length prefix in
  if String.length line < plen || not (String.equal (String.sub line 0 plen) prefix)
  then raise (Malformed ("expected " ^ key ^ " line"))
  else String.sub line plen (String.length line - plen)

let scan_int sc key =
  match int_of_string_opt (scan_field sc key) with
  | Some n -> n
  | None -> raise (Malformed ("bad " ^ key))

let scan_bool sc key =
  match bool_of_string_opt (scan_field sc key) with
  | Some b -> b
  | None -> raise (Malformed ("bad " ^ key))

(* Moves with the job key ({!Job.digest}): no lookup computes an older
   entry's key, so preload skips it and find, verify and gc quarantine it. *)
let entry_magic = "ifc-store-entry 2"
let summary_magic = "ifc-store-summary 2"

let render_entry ~digest ~generation (results : Job.analysis_result list) =
  let b = Buffer.create 256 in
  Buffer.add_string b (entry_magic ^ "\n");
  Buffer.add_string b (Printf.sprintf "digest %s\n" digest);
  Buffer.add_string b (Printf.sprintf "generation %d\n" generation);
  Buffer.add_string b (Printf.sprintf "results %d\n" (List.length results));
  List.iter
    (fun (r : Job.analysis_result) ->
      Buffer.add_string b (Printf.sprintf "analysis %s\n" r.Job.analysis);
      Buffer.add_string b (Printf.sprintf "verdict %b\n" r.Job.verdict);
      Buffer.add_string b (Printf.sprintf "checks %d\n" r.Job.checks);
      Buffer.add_string b (Printf.sprintf "duration_ns %Ld\n" r.Job.duration_ns);
      match r.Job.artifact with
      | None -> Buffer.add_string b "artifact -\n"
      | Some a ->
        Buffer.add_string b (Printf.sprintf "artifact %d\n" (String.length a));
        Buffer.add_string b a;
        Buffer.add_char b '\n')
    results;
  seal (Buffer.contents b)

let parse_entry raw =
  let sc = { src = unseal raw; pos = 0 } in
  if not (String.equal (scan_line sc) entry_magic) then
    raise (Malformed "bad entry magic");
  let digest = scan_field sc "digest" in
  if not (is_digest_name digest) then raise (Malformed "bad digest");
  let generation = scan_int sc "generation" in
  let n = scan_int sc "results" in
  if n < 0 || n > 10_000 then raise (Malformed "bad results count");
  let results =
    List.init n (fun _ ->
        let analysis = scan_field sc "analysis" in
        let verdict = scan_bool sc "verdict" in
        let checks = scan_int sc "checks" in
        let duration_ns =
          match Int64.of_string_opt (scan_field sc "duration_ns") with
          | Some d -> d
          | None -> raise (Malformed "bad duration_ns")
        in
        let artifact =
          match scan_field sc "artifact" with
          | "-" -> None
          | len -> (
            match int_of_string_opt len with
            | Some n -> Some (scan_bytes sc n)
            | None -> raise (Malformed "bad artifact length"))
        in
        { Job.analysis; verdict; checks; duration_ns; artifact })
  in
  scan_done sc;
  (digest, generation, results)

(* A summary is an opaque payload, length-framed so it may hold any
   bytes; its owner renders and parses it. *)
let render_summary ~digest ~generation payload =
  let b = Buffer.create (String.length payload + 96) in
  Buffer.add_string b (summary_magic ^ "\n");
  Buffer.add_string b (Printf.sprintf "digest %s\n" digest);
  Buffer.add_string b (Printf.sprintf "generation %d\n" generation);
  Buffer.add_string b (Printf.sprintf "payload %d\n" (String.length payload));
  Buffer.add_string b payload;
  Buffer.add_char b '\n';
  seal (Buffer.contents b)

let parse_summary raw =
  let sc = { src = unseal raw; pos = 0 } in
  if not (String.equal (scan_line sc) summary_magic) then
    raise (Malformed "bad summary magic");
  let digest = scan_field sc "digest" in
  if not (is_digest_name digest) then raise (Malformed "bad digest");
  let generation = scan_int sc "generation" in
  let payload = scan_bytes sc (scan_int sc "payload") in
  scan_done sc;
  (digest, generation, payload)

(* ------------------------------------------------------------------ *)
(* Manifest and opening *)

let manifest_magic = "ifc-store 1"

let read_manifest path =
  if not (Sys.file_exists path) then None
  else
    try
      let raw = read_file path in
      let sc = { src = raw; pos = 0 } in
      if not (String.equal (scan_line sc) manifest_magic) then None
      else Some (scan_int sc "generation")
    with Malformed _ | Sys_error _ -> None

let write_manifest t =
  write_atomic t ~dest:(manifest_path t)
    (Printf.sprintf "%s\ngeneration %d\n" manifest_magic t.generation)

(* An unreadable manifest must not brick the store: recover the counter
   from the highest stamp on disk, so new writes still sort as newest. *)
let recover_generation t =
  List.fold_left
    (fun acc name ->
      try
        let _, gen, _ = parse_entry (read_file (objects_dir t / name)) in
        max acc gen
      with Malformed _ | Sys_error _ -> acc)
    0
    (List.filter is_digest_name (list_dir (objects_dir t)))

let open_ ?(bump = true) dir =
  try
    ensure_dir dir;
    let t =
      {
        dir;
        generation = 0;
        lock = Mutex.create ();
        tmp_seq = Atomic.make 0;
        disk_hits = 0;
        disk_misses = 0;
        writes = 0;
        preloaded = 0;
      }
    in
    ensure_dir (objects_dir t);
    ensure_dir (summaries_dir t);
    ensure_dir (tmp_dir t);
    (match read_manifest (manifest_path t) with
    | Some g -> t.generation <- g
    | None -> t.generation <- recover_generation t);
    if bump then begin
      t.generation <- t.generation + 1;
      write_manifest t
    end;
    Ok t
  with
  | Failure msg -> Error msg
  | Sys_error msg -> Error msg

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

(* ------------------------------------------------------------------ *)
(* Entries *)

let add t ~digest results =
  with_lock t (fun () ->
      write_atomic t
        ~dest:(objects_dir t / digest)
        (render_entry ~digest ~generation:t.generation results);
      t.writes <- t.writes + 1)

(* Re-stamping marks heat; once an entry carries the current generation
   the rewrite is skipped, so a hot entry costs one rewrite per session. *)
let restamp_entry t ~digest ~stamped results =
  if stamped < t.generation then
    write_atomic t
      ~dest:(objects_dir t / digest)
      (render_entry ~digest ~generation:t.generation results)

let find ?(validate = fun _ -> true) t ~digest =
  with_lock t (fun () ->
      let path = objects_dir t / digest in
      if not (Sys.file_exists path) then begin
        t.disk_misses <- t.disk_misses + 1;
        None
      end
      else
        match
          let stored, stamped, results = parse_entry (read_file path) in
          if not (String.equal stored digest) then
            raise (Malformed "digest does not match file name");
          (stamped, results)
        with
        | exception (Malformed _ | Sys_error _) ->
          (* Damage degrades to a recompute, never a wrong answer. *)
          ignore (quarantine t path);
          t.disk_misses <- t.disk_misses + 1;
          None
        | stamped, results ->
          if validate results then begin
            restamp_entry t ~digest ~stamped results;
            t.disk_hits <- t.disk_hits + 1;
            Some results
          end
          else begin
            ignore (quarantine t path);
            t.disk_misses <- t.disk_misses + 1;
            None
          end)

(* ------------------------------------------------------------------ *)
(* Summaries *)

let add_summary t ~digest payload =
  with_lock t (fun () ->
      write_atomic t
        ~dest:(summaries_dir t / digest)
        (render_summary ~digest ~generation:t.generation payload))

let find_summary t ~digest =
  with_lock t (fun () ->
      let path = summaries_dir t / digest in
      if not (Sys.file_exists path) then None
      else
        match
          let stored, stamped, payload = parse_summary (read_file path) in
          if not (String.equal stored digest) then
            raise (Malformed "digest does not match file name");
          (stamped, payload)
        with
        | exception (Malformed _ | Sys_error _) ->
          ignore (quarantine t path);
          None
        | stamped, payload ->
          if stamped < t.generation then
            write_atomic t ~dest:path
              (render_summary ~digest ~generation:t.generation payload);
          Some payload)

(* ------------------------------------------------------------------ *)
(* Warm start *)

let preload t cache =
  with_lock t (fun () ->
      let entries =
        List.filter_map
          (fun name ->
            if not (is_digest_name name) then None
            else
              match parse_entry (read_file (objects_dir t / name)) with
              | digest, gen, results when String.equal digest name ->
                Some (digest, gen, results)
              | _ -> None
              | exception (Malformed _ | Sys_error _) -> None)
          (list_dir (objects_dir t))
      in
      let hottest =
        List.fold_left (fun acc (_, g, _) -> max acc g) 0 entries
      in
      let capacity = (Cache.stats cache).Cache.capacity in
      let hot =
        List.filter (fun (_, g, _) -> g = hottest && hottest > 0) entries
      in
      let chosen = Ifc_support.Listx.take capacity hot in
      (* Coldest-first insertion leaves the last-added — arbitrary within
         one generation — most recent; every chosen entry ends resident,
         unused until a request hits it. *)
      List.iter
        (fun (digest, _, results) -> Cache.add ~used:false cache digest results)
        (List.rev chosen);
      let n = List.length chosen in
      t.preloaded <- t.preloaded + n;
      n)

(* Only entries this session used are re-stamped: those it computed or
   promoted, and those that served a hit. A preloaded entry nothing hit
   keeps its stamp, so it ages out like any other. *)
let record_heat t cache =
  let digests = List.rev (Cache.fold cache (fun acc k _ -> k :: acc) []) in
  with_lock t (fun () ->
      List.iter
        (fun digest ->
          let path = objects_dir t / digest in
          if Sys.file_exists path then
            match parse_entry (read_file path) with
            | stored, stamped, results when String.equal stored digest ->
              restamp_entry t ~digest ~stamped results
            | _ -> ()
            | exception (Malformed _ | Sys_error _) -> ())
        digests)

(* ------------------------------------------------------------------ *)
(* Maintenance *)

type disk_stats = {
  generation : int;
  entries : int;
  entry_bytes : int;
  summaries : int;
  summary_bytes : int;
  quarantined : int;
}

let disk_stats t =
  with_lock t (fun () ->
      let tally dir =
        List.fold_left
          (fun (n, bytes) name ->
            match file_size (dir / name) with
            | size -> (n + 1, bytes + size)
            | exception Sys_error _ -> (n, bytes))
          (0, 0) (list_dir dir)
      in
      let entries, entry_bytes = tally (objects_dir t) in
      let summaries, summary_bytes = tally (summaries_dir t) in
      {
        generation = t.generation;
        entries;
        entry_bytes;
        summaries;
        summary_bytes;
        quarantined = List.length (list_dir (quarantine_dir t));
      })

type verify_report = {
  checked : int;
  ok : int;
  quarantined : int;
  quarantined_files : string list;
}

(* Structural verification only: checksum, framing, digest/name match,
   and certificate artifacts that at least parse. Semantic re-checking
   against a program happens in [tier]'s find, where a program exists. *)
let verify t =
  with_lock t (fun () ->
      let bad = ref [] in
      let checked = ref 0 in
      let condemn path =
        bad := Filename.basename path :: !bad;
        ignore (quarantine t path)
      in
      let check_file dir parse name =
        incr checked;
        let path = dir / name in
        if not (is_digest_name name) then condemn path
        else
          match parse (read_file path) with
          | exception (Malformed _ | Sys_error _) -> condemn path
          | stored -> if not (String.equal stored name) then condemn path
      in
      let check_entry raw =
        let stored, _, results = parse_entry raw in
        List.iter
          (fun (r : Job.analysis_result) ->
            match (r.Job.analysis, r.Job.artifact) with
            | "cert", Some text -> (
              match Ifc_cert.Cert.parse text with
              | Ok _ -> ()
              | Error _ -> raise (Malformed "unparseable certificate artifact"))
            | _ -> ())
          results;
        stored
      in
      let check_summary raw =
        let stored, _, _ = parse_summary raw in
        stored
      in
      List.iter (check_file (objects_dir t) check_entry) (list_dir (objects_dir t));
      List.iter
        (check_file (summaries_dir t) check_summary)
        (list_dir (summaries_dir t));
      let quarantined_files = List.rev !bad in
      {
        checked = !checked;
        ok = !checked - List.length quarantined_files;
        quarantined = List.length quarantined_files;
        quarantined_files;
      })

type gc_report = {
  live : int;
  swept : int;
  quarantined : int;
  tmp_swept : int;
  bytes_freed : int;
}

let gc ?(keep = 2) ?(tmp_age = 3600.) t =
  if keep < 0 then invalid_arg "Store.gc: keep must be >= 0";
  if tmp_age < 0. then invalid_arg "Store.gc: tmp_age must be >= 0";
  with_lock t (fun () ->
      let floor = t.generation - keep in
      let live = ref 0 and swept = ref 0 and quarantined = ref 0 in
      let bytes_freed = ref 0 in
      let sweep path =
        let size = try file_size path with Sys_error _ -> 0 in
        try
          Sys.remove path;
          incr swept;
          bytes_freed := !bytes_freed + size
        with Sys_error _ -> ()
      in
      let collect dir parse =
        List.iter
          (fun name ->
            if is_digest_name name then begin
              let path = dir / name in
              match parse (read_file path) with
              | exception (Malformed _ | Sys_error _) ->
                (* A file no lookup can use — damaged, or in a retired
                   format — has no stamp to age out by, so it is moved
                   aside as find and verify do. One that cannot be
                   moved stays, and counts as live. *)
                if quarantine t path then incr quarantined
                else if Sys.file_exists path then incr live
              | gen -> if gen < floor then sweep path else incr live
            end)
          (list_dir dir)
      in
      collect (objects_dir t) (fun raw ->
          let _, gen, _ = parse_entry raw in
          gen);
      collect (summaries_dir t) (fun raw ->
          let _, gen, _ = parse_summary raw in
          gen);
      (* Staging leftovers: a tmp file may be a concurrent writer's
         in-flight publish (the mutex only covers this process — another
         process sharing the directory stages and renames outside it).
         Deleting one mid-publish would tear the write, so only files
         older than [tmp_age] — crash leftovers, not live staging — are
         swept; fresh ones are kept for a later pass. *)
      let tmp_swept = ref 0 in
      let now = Unix.gettimeofday () in
      List.iter
        (fun name ->
          let path = tmp_dir t / name in
          let stale =
            match Unix.stat path with
            | exception Unix.Unix_error _ -> false
            | st -> now -. st.Unix.st_mtime > tmp_age
          in
          if stale then begin
            let size = try file_size path with Sys_error _ -> 0 in
            try
              Sys.remove path;
              incr tmp_swept;
              bytes_freed := !bytes_freed + size
            with Sys_error _ -> ()
          end)
        (list_dir (tmp_dir t));
      {
        live = !live;
        swept = !swept;
        quarantined = !quarantined;
        tmp_swept = !tmp_swept;
        bytes_freed = !bytes_freed;
      })

(* ------------------------------------------------------------------ *)
(* The pipeline tier *)

(* Certificates read back from disk go through the independent checker
   before they are served: a stored verdict is only as good as the
   artifact still checking against the program in hand. *)
let revalidate_certs (spec : Job.spec) (results : Job.analysis_result list) =
  List.for_all
    (fun (r : Job.analysis_result) ->
      match (r.Job.analysis, r.Job.artifact) with
      | "cert", Some text -> (
        match Ifc_cert.Cert.parse text with
        | Error _ -> false
        | Ok cert -> (
          match Ifc_cert.Checker.check cert spec.Job.program with
          | Ok () -> r.Job.verdict
          | Error _ -> false))
      | "cert", None ->
        (* A positive cert verdict must carry its certificate. *)
        not r.Job.verdict
      | _ -> true)
    results

let tier t =
  {
    Tier.find =
      (fun spec ~digest -> find ~validate:(revalidate_certs spec) t ~digest);
    store = (fun ~digest results -> add t ~digest results);
    preload = (fun cache -> preload t cache);
    record_heat = (fun cache -> record_heat t cache);
    stats =
      (fun () ->
        let disk = disk_stats t in
        with_lock t (fun () ->
            {
              Tier.disk_hits = t.disk_hits;
              disk_misses = t.disk_misses;
              writes = t.writes;
              preloaded = t.preloaded;
              entries = disk.entries;
              bytes_on_disk = disk.entry_bytes + disk.summary_bytes;
            }));
  }
