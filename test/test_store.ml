(* Tests for the persistent content-addressed artifact store: entry and
   summary round-trips, crash safety (truncation, torn renames, junk —
   all must degrade to a recompute, never a wrong answer), generation
   heat (preload, record_heat, gc), the tier's independent certificate
   re-validation, and warm-restart batches. *)

module Lattice = Ifc_lattice.Lattice
module Chain = Ifc_lattice.Chain
module Ast = Ifc_lang.Ast
module Gen = Ifc_lang.Gen
module Prng = Ifc_support.Prng
module Sset = Ifc_support.Sset
module Binding = Ifc_core.Binding
module Cache = Ifc_pipeline.Cache
module Job = Ifc_pipeline.Job
module Batch = Ifc_pipeline.Batch
module Store = Ifc_store.Store

let check = Alcotest.(check bool)

let check_int = Alcotest.(check int)

let two = Lattice.stringify Chain.two

let ( // ) = Filename.concat

(* Each test gets a throwaway store directory. *)
let fresh_dir () =
  let path = Filename.temp_file "ifc-store" "" in
  Sys.remove path;
  path

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (path // f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let with_dir f =
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let open_exn ?bump dir =
  match Store.open_ ?bump dir with
  | Ok st -> st
  | Error msg -> Alcotest.failf "Store.open_ %s: %s" dir msg

let random_binding rng lat stmt =
  let arr = Array.of_list lat.Lattice.elements in
  Binding.make lat
    (List.map
       (fun v -> (v, arr.(Prng.int rng (Array.length arr))))
       (Sset.elements (Ifc_lang.Vars.all_vars stmt)))

let corpus ?(analyses = [ Job.Cfm ]) ?(seed = 19790101) n =
  let rng = Prng.create seed in
  List.init n (fun i ->
      let p = Gen.program rng Gen.default ~size:(1 + (i mod 20)) in
      let b = random_binding rng two p.Ast.body in
      Job.make ~id:i
        ~name:(Printf.sprintf "corpus:%d" i)
        ~lattice:two ~binding:b ~analyses p)

let some_digest = String.make 32 'a'

let result ?(analysis = "cfm") ?(verdict = true) ?artifact () =
  { Job.analysis; verdict; checks = 3; duration_ns = 17L; artifact }

let overwrite path content =
  let oc = open_out_bin path in
  output_string oc content;
  close_out oc

(* ------------------------------------------------------------------ *)
(* Round-trips *)

let test_entry_round_trip () =
  with_dir (fun dir ->
      let st = open_exn dir in
      let results =
        [
          result ();
          result ~analysis:"cert" ~verdict:false
            ~artifact:"not really a cert\nwith a second line\n" ();
          result ~analysis:"lint" ~artifact:"{\"findings\": []}" ();
        ]
      in
      (* The cert artifact is garbage on purpose: plain [find] is
         structural only; semantic checking belongs to the tier. *)
      Store.add st ~digest:some_digest results;
      (match Store.find st ~digest:some_digest with
      | None -> Alcotest.fail "entry vanished"
      | Some read ->
        check "results survive the disk round-trip byte-for-byte" true
          (read = results));
      check "absent digest misses" true
        (Store.find st ~digest:(String.make 32 'b') = None);
      let d = Store.disk_stats st in
      check_int "one entry on disk" 1 d.Store.entries;
      check_int "nothing quarantined" 0 d.Store.quarantined)

let test_summary_round_trip () =
  with_dir (fun dir ->
      let st = open_exn dir in
      let s = "high" in
      Store.add_summary st ~digest:some_digest s;
      check "summary round-trips" true
        (Store.find_summary st ~digest:some_digest = Some s);
      let s2 = "summary m:\n  locals: ok\n\n" in
      Store.add_summary st ~digest:some_digest s2;
      check "last write wins, newlines and all" true
        (Store.find_summary st ~digest:some_digest = Some s2))

let test_reopen_bumps_generation () =
  with_dir (fun dir ->
      let g1 = Store.generation (open_exn dir) in
      let g2 = Store.generation (open_exn dir) in
      check "reopening bumps" true (g2 = g1 + 1);
      let g3 = Store.generation (open_exn ~bump:false dir) in
      check_int "bump:false inspects without aging" g2 g3)

(* ------------------------------------------------------------------ *)
(* Crash safety and corruption *)

let test_truncated_entry_recomputes_not_crashes () =
  with_dir (fun dir ->
      let st = open_exn dir in
      Store.add st ~digest:some_digest [ result () ];
      let path = dir // "objects" // some_digest in
      let raw =
        let ic = open_in_bin path in
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      (* A torn write: the file stops mid-entry, checksum gone. *)
      overwrite path (String.sub raw 0 (String.length raw / 2));
      check "truncated entry reads as a miss" true
        (Store.find st ~digest:some_digest = None);
      check "damaged file moved out of objects/" false (Sys.file_exists path);
      check_int "damaged file kept in quarantine" 1
        (Store.disk_stats st).Store.quarantined;
      (* The slot is usable again: a recompute re-adds and hits. *)
      Store.add st ~digest:some_digest [ result () ];
      check "recomputed entry hits" true
        (Store.find st ~digest:some_digest <> None))

let test_flipped_byte_quarantined () =
  with_dir (fun dir ->
      let st = open_exn dir in
      Store.add st ~digest:some_digest [ result ~verdict:true () ];
      let path = dir // "objects" // some_digest in
      let raw =
        let ic = open_in_bin path in
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      (* Flip the verdict in place: the checksum must catch it — a
         tampered verdict is served as a miss, never as [false]. *)
      let sub = "verdict true" and by = "verdict false" in
      let n = String.length raw and m = String.length sub in
      let rec find i =
        if i + m > n then Alcotest.fail "verdict line not found"
        else if String.equal (String.sub raw i m) sub then i
        else find (i + 1)
      in
      let i = find 0 in
      overwrite path
        (String.sub raw 0 i ^ by ^ String.sub raw (i + m) (n - i - m));
      check "tampered entry is a miss" true
        (Store.find st ~digest:some_digest = None);
      check_int "tampered entry quarantined" 1
        (Store.disk_stats st).Store.quarantined)

let test_staging_leftovers_swept_by_gc () =
  with_dir (fun dir ->
      let st = open_exn dir in
      Store.add st ~digest:some_digest [ result () ];
      (* A crash between staging and rename leaves a tmp file; a
         concurrent writer in another process (the in-process mutex
         does not reach it) also stages here before renaming. Only the
         aged file is a crash leftover — the fresh one may be an
         in-flight publish and must survive the sweep untouched. *)
      let stale = dir // "tmp" // "deadbeef.0.tmp" in
      let fresh = dir // "tmp" // "cafe.1.tmp" in
      overwrite stale "half an entry";
      overwrite fresh "a concurrent writer's staged entry, mid-publish";
      Unix.utimes stale 1. 1.;
      let report = Store.gc st in
      check_int "stale staging leftover swept" 1 report.Store.tmp_swept;
      check "stale leftover gone" false (Sys.file_exists stale);
      check "fresh staging file kept whole" true (Sys.file_exists fresh);
      check_int "live entry kept" 1 report.Store.live;
      check "entry still readable after gc" true
        (Store.find st ~digest:some_digest <> None);
      (* Once aged past the guard, the leftover goes too: [tmp_age] is
         the only thing keeping it. *)
      Unix.utimes fresh 1. 1.;
      let again = Store.gc st in
      check_int "aged leftover swept on a later pass" 1 again.Store.tmp_swept;
      check "aged leftover gone" false (Sys.file_exists fresh))

let test_gc_keeps_concurrent_writer_publish_whole () =
  with_dir (fun dir ->
      let st = open_exn dir in
      (* Race gc against a live writer: a publish staged in tmp/ while
         the sweep runs must either reach its final name intact or stay
         staged — never be half-collected. The writer here is a second
         handle on the same directory, standing in for another
         process. *)
      let writer = open_exn dir in
      let victim = String.make 32 'e' in
      let publisher =
        Thread.create
          (fun () ->
            for _ = 1 to 50 do
              Store.add writer ~digest:victim [ result ~verdict:true () ]
            done)
          ()
      in
      for _ = 1 to 20 do
        ignore (Store.gc st)
      done;
      Thread.join publisher;
      (* The published entry survived every sweep, whole: it still
         parses, checksums, and serves its verdict. *)
      check "published entry readable after racing gc" true
        (Store.find st ~digest:victim <> None);
      let verify = Store.verify st in
      check_int "nothing torn for verify to quarantine" 0
        verify.Store.quarantined)

let test_verify_quarantines_junk_and_damage () =
  with_dir (fun dir ->
      let st = open_exn dir in
      Store.add st ~digest:some_digest [ result () ];
      Store.add_summary st ~digest:some_digest "high";
      (* Three kinds of rot: a junk name, a zero-length entry, and an
         entry whose certificate artifact does not even parse. *)
      overwrite (dir // "objects" // "README") "not an entry";
      overwrite (dir // "objects" // String.make 32 'c') "";
      let bad_cert = String.make 32 'd' in
      Store.add st ~digest:bad_cert
        [ result ~analysis:"cert" ~artifact:"garbage bytes" () ];
      let report = Store.verify st in
      check_int "all files checked" 5 report.Store.checked;
      check_int "two fine" 2 report.Store.ok;
      check_int "three quarantined" 3 report.Store.quarantined;
      check "junk name flagged" true
        (List.mem "README" report.Store.quarantined_files);
      (* Verification is idempotent: a second pass is all-clean. *)
      let again = Store.verify st in
      check_int "second pass checks survivors" 2 again.Store.checked;
      check_int "second pass quarantines nothing" 0 again.Store.quarantined)

(* ------------------------------------------------------------------ *)
(* Heat: preload, record_heat, gc *)

let test_preload_hottest_generation () =
  with_dir (fun dir ->
      let st1 = open_exn dir in
      Store.add st1 ~digest:(String.make 32 '0') [ result () ];
      Store.add st1 ~digest:(String.make 32 '1') [ result () ];
      (* A new session: its writes are hotter than the old ones. *)
      let st2 = open_exn dir in
      Store.add st2 ~digest:(String.make 32 '2') [ result () ];
      let cache = Cache.create ~capacity:8 () in
      let n = Store.preload st2 cache in
      check_int "only the hottest generation preloads" 1 n;
      check "hot entry resident" true (Cache.mem cache (String.make 32 '2'));
      check "cold entry not resident" false
        (Cache.mem cache (String.make 32 '0')))

let test_record_heat_resurrects_hot_set () =
  with_dir (fun dir ->
      let st1 = open_exn dir in
      Store.add st1 ~digest:(String.make 32 '0') [ result () ];
      Store.add st1 ~digest:(String.make 32 '1') [ result () ];
      let st2 = open_exn dir in
      (* Session 2 only ever touched entry 0 — mark it hot at drain. *)
      let cache = Cache.create ~capacity:8 () in
      Cache.add cache (String.make 32 '0') [ result () ];
      Store.record_heat st2 cache;
      let st3 = open_exn dir in
      let cache3 = Cache.create ~capacity:8 () in
      check_int "only the re-stamped entry preloads" 1
        (Store.preload st3 cache3);
      check "it is the one session 2 kept" true
        (Cache.mem cache3 (String.make 32 '0')))

(* A preload that no request hits is not use: entries of an older
   corpus, preloaded into every session over a newer one and never hit,
   keep their stamp and age out. One seed-7 batch, then three seed-8
   batches, each a fresh process that preloads the hottest generation,
   then gc keeping one generation. *)
let test_record_heat_skips_unhit_preloads () =
  with_dir (fun dir ->
      let session seed =
        let tier = Store.tier (open_exn dir) in
        let cache = Cache.create ~capacity:64 () in
        let preloaded = tier.Ifc_pipeline.Tier.preload cache in
        ignore (Batch.run ~cache ~store:tier (corpus ~seed 8));
        preloaded
      in
      check_int "cold session preloads nothing" 0 (session 7);
      check_int "first seed-8 session preloads the seed-7 set" 8 (session 8);
      check_int "later sessions preload only the seed-8 set" 8 (session 8);
      check_int "and again" 8 (session 8);
      let report = Store.gc ~keep:1 (open_exn ~bump:false dir) in
      check_int "seed-8 entries live" 8 report.Store.live;
      check_int "never-hit seed-7 entries swept" 8 report.Store.swept)

let test_gc_sweeps_cold_generations () =
  with_dir (fun dir ->
      let st1 = open_exn dir in
      Store.add st1 ~digest:(String.make 32 '0') [ result () ];
      (* Age the first entry out of a keep-1 window. *)
      let st2 = open_exn dir in
      ignore (Store.generation st2);
      let st3 = open_exn dir in
      Store.add st3 ~digest:(String.make 32 '1') [ result () ];
      let report = Store.gc ~keep:1 st3 in
      check_int "cold entry swept" 1 report.Store.swept;
      check_int "hot entry live" 1 report.Store.live;
      check "swept bytes accounted" true (report.Store.bytes_freed > 0);
      check "cold entry gone" true
        (Store.find st3 ~digest:(String.make 32 '0') = None);
      check "hot entry kept" true
        (Store.find st3 ~digest:(String.make 32 '1') <> None))

(* gc cannot age out a file it cannot parse, so it moves it aside: a
   whole version-1 summary (a retired format, under a key no lookup may
   ever ask for again) and a junk object both leave on the first pass. *)
let test_gc_quarantines_unparseable () =
  with_dir (fun dir ->
      let st = open_exn dir in
      let summary = String.make 32 'b' and junk = String.make 32 'c' in
      let v1 =
        Printf.sprintf "ifc-store-summary 1\ndigest %s\ngeneration 1\nmod 0\n\nflow -\ncert true\n"
          summary
      in
      overwrite
        (dir // "summaries" // summary)
        (v1 ^ "checksum " ^ Digest.to_hex (Digest.string v1) ^ "\n");
      overwrite (dir // "objects" // junk) "not an entry\n";
      let first = Store.gc ~keep:0 st in
      check_int "both quarantined" 2 first.Store.quarantined;
      check_int "neither counted live" 0 first.Store.live;
      check "summary left summaries/" false (Sys.file_exists (dir // "summaries" // summary));
      check "junk left objects/" false (Sys.file_exists (dir // "objects" // junk));
      check "both kept in quarantine/" true
        (List.sort compare (Array.to_list (Sys.readdir (dir // "quarantine")))
         = List.sort compare [ summary; junk ]);
      let second = Store.gc ~keep:0 st in
      check_int "nothing left to quarantine" 0 second.Store.quarantined;
      check_int "nothing live" 0 second.Store.live)

(* Entries written under the previous job key sit in the previous entry
   format, so they retire with it: a correctly sealed version-1 entry
   under a valid name is never preloaded or found, and gc and verify move
   it aside rather than keep it live forever. *)
let test_retired_entry_format () =
  let v1_entry digest =
    let body =
      Printf.sprintf
        "ifc-store-entry 1\ndigest %s\ngeneration 1\nresults 1\nanalysis cfm\n\
         verdict true\nchecks 3\nduration_ns 17\nartifact -\n"
        digest
    in
    body ^ "checksum " ^ Digest.to_hex (Digest.string body) ^ "\n"
  in
  with_dir (fun dir ->
      let st = open_exn dir in
      let old = String.make 32 'e' and gone = String.make 32 'f' in
      overwrite (dir // "objects" // old) (v1_entry old);
      overwrite (dir // "objects" // gone) (v1_entry gone);
      let cache = Cache.create ~capacity:8 () in
      check_int "preload skips it" 0 (Store.preload st cache);
      check "cache stays empty" false (Cache.mem cache old);
      check "find misses it" true (Store.find st ~digest:old = None);
      let report = Store.gc ~keep:4 st in
      check_int "gc quarantines the other" 1 report.Store.quarantined;
      check_int "nothing counted live" 0 report.Store.live;
      check "both left objects/" false
        (Sys.file_exists (dir // "objects" // old)
        || Sys.file_exists (dir // "objects" // gone));
      let st2 = open_exn dir in
      overwrite (dir // "objects" // old) (v1_entry old);
      check_int "verify quarantines it" 1 (Store.verify st2).Store.quarantined)

let test_manifest_recovery () =
  with_dir (fun dir ->
      let st1 = open_exn dir in
      let gen = Store.generation st1 in
      Store.add st1 ~digest:some_digest [ result () ];
      (* Lose the manifest: the counter recovers from entry stamps, so
         new writes still sort as newest. *)
      Sys.remove (dir // "manifest");
      let st2 = open_exn dir in
      check "generation recovered past the stamp" true
        (Store.generation st2 > gen);
      check "entry still readable" true
        (Store.find st2 ~digest:some_digest <> None))

(* ------------------------------------------------------------------ *)
(* The tier: certificate re-validation on the read path *)

let test_tier_revalidates_certificates () =
  with_dir (fun dir ->
      let st = open_exn dir in
      let specs = corpus ~analyses:[ Job.Cfm; Job.Cert ] 6 in
      let spec = List.hd specs in
      let digest = Job.digest spec in
      (* An honestly computed entry round-trips through the tier. *)
      (match (Job.run spec).Job.outcome with
      | Error e -> Alcotest.failf "job errored: %s" e
      | Ok results ->
        Store.add st ~digest results;
        let tier = Store.tier st in
        check "honest certificate accepted" true
          (tier.Ifc_pipeline.Tier.find spec ~digest <> None));
      (* A certificate from program A stored under program B's digest:
         the checker rejects it and the entry is quarantined. *)
      let other = List.nth specs 1 in
      (match (Job.run spec).Job.outcome with
      | Error e -> Alcotest.failf "job errored: %s" e
      | Ok results ->
        let other_digest = Job.digest other in
        Store.add st ~digest:other_digest results;
        let tier = Store.tier st in
        check "mismatched certificate refused" true
          (tier.Ifc_pipeline.Tier.find other ~digest:other_digest = None);
        check "mismatched entry quarantined" true
          ((Store.disk_stats st).Store.quarantined > 0));
      (* A positive cert verdict without its artifact is refused too. *)
      let bare = String.make 32 'e' in
      Store.add st ~digest:bare [ result ~analysis:"cert" ~verdict:true () ];
      let tier = Store.tier st in
      check "certificate-less cert verdict refused" true
        (tier.Ifc_pipeline.Tier.find spec ~digest:bare = None))

(* ------------------------------------------------------------------ *)
(* Batch over the store: the warm-restart acceptance criterion *)

let test_batch_warm_restart_from_store () =
  with_dir (fun dir ->
      let specs = corpus 24 in
      let verdicts s =
        List.map (fun r -> (r.Job.job_digest, Job.verdict_string r)) s.Batch.results
      in
      (* Session 1: cold — everything computed and persisted. *)
      let st1 = open_exn dir in
      let cache1 = Cache.create ~capacity:64 () in
      let cold = Batch.run ~jobs:2 ~cache:cache1 ~store:(Store.tier st1) specs in
      check_int "cold run hits no store" 0 cold.Batch.store_hits;
      check_int "cold run misses everything" 24 cold.Batch.store_misses;
      (* Session 2: a fresh process (new cache, reopened store) with
         preload — the acceptance criterion: every job answered without
         recomputation. *)
      let st2 = open_exn dir in
      let cache2 = Cache.create ~capacity:64 () in
      let tier2 = Store.tier st2 in
      let preloaded = tier2.Ifc_pipeline.Tier.preload cache2 in
      check_int "warm start preloads the whole hot set" 24 preloaded;
      let warm = Batch.run ~jobs:2 ~cache:cache2 ~store:tier2 specs in
      check_int "warm run: all 24 from cache" 24 warm.Batch.cache_hits;
      check_int "warm run: zero cache misses" 0 warm.Batch.cache_misses;
      check "warm results all marked cached" true
        (List.for_all (fun r -> r.Job.from_cache) warm.Batch.results);
      check "warm verdicts byte-identical to cold" true
        (verdicts warm = verdicts cold);
      (* Session 3: no preload — misses fall through to disk, not to
         compute, and promotion makes the second pass memory-only. *)
      let st3 = open_exn dir in
      let cache3 = Cache.create ~capacity:64 () in
      let disk = Batch.run ~jobs:2 ~cache:cache3 ~store:(Store.tier st3) specs in
      check_int "unpreloaded run answered by the disk tier" 24
        disk.Batch.store_hits;
      check_int "no disk misses" 0 disk.Batch.store_misses;
      check "disk hits marked cached" true
        (List.for_all (fun r -> r.Job.from_cache) disk.Batch.results);
      let promoted = Batch.run ~jobs:2 ~cache:cache3 ~store:(Store.tier st3) specs in
      check_int "promoted pass is memory-only" 24 promoted.Batch.cache_hits;
      check_int "promoted pass never reaches disk" 0 promoted.Batch.store_hits)

let suite =
  ( "store",
    [
      Alcotest.test_case "entry round-trip" `Quick test_entry_round_trip;
      Alcotest.test_case "summary round-trip" `Quick test_summary_round_trip;
      Alcotest.test_case "reopen bumps generation" `Quick
        test_reopen_bumps_generation;
      Alcotest.test_case "truncated entry recomputes" `Quick
        test_truncated_entry_recomputes_not_crashes;
      Alcotest.test_case "flipped byte quarantined" `Quick
        test_flipped_byte_quarantined;
      Alcotest.test_case "gc sweeps staging leftovers" `Quick
        test_staging_leftovers_swept_by_gc;
      Alcotest.test_case "gc never tears a racing publish" `Quick
        test_gc_keeps_concurrent_writer_publish_whole;
      Alcotest.test_case "verify quarantines junk+damage" `Quick
        test_verify_quarantines_junk_and_damage;
      Alcotest.test_case "preload hottest generation" `Quick
        test_preload_hottest_generation;
      Alcotest.test_case "record_heat resurrects hot set" `Quick
        test_record_heat_resurrects_hot_set;
      Alcotest.test_case "record_heat skips unhit preloads" `Quick
        test_record_heat_skips_unhit_preloads;
      Alcotest.test_case "gc sweeps cold generations" `Quick
        test_gc_sweeps_cold_generations;
      Alcotest.test_case "gc quarantines what it cannot parse" `Quick
        test_gc_quarantines_unparseable;
      Alcotest.test_case "retired entry format" `Quick test_retired_entry_format;
      Alcotest.test_case "manifest recovery" `Quick test_manifest_recovery;
      Alcotest.test_case "tier re-validates certificates" `Quick
        test_tier_revalidates_certificates;
      Alcotest.test_case "batch warm restart from store" `Quick
        test_batch_warm_restart_from_store;
    ] )
