(* The content-addressed certificate cache: JSON goldens, the
   budget-independence split, atomic store/find round-trips, the
   corruption-tolerance contract (bad entry = miss + counted corrupt,
   never a crash), gc/stats, and the CLI replay path end to end. *)

open Tfiris
open Support
module Json = Obs.Json
module Ledger = Obs.Ledger
module Cc = Obs.Certcache

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let contains haystack needle =
  let n = String.length needle in
  let rec has i =
    i + n <= String.length haystack
    && (String.sub haystack i n = needle || has (i + 1))
  in
  has 0

(* A fresh empty cache directory per test. *)
let with_cache f = with_tmp_dir "tfiris_cc" (fun dir -> f (Cc.open_ ~dir))

let sample_key = "15669f5e73b4bc124153de3076768bbe"

let sample_cert : Cc.cert =
  {
    Cc.key = sample_key;
    cmd = "run";
    label = "<expr>";
    engine = "shl.machine";
    version = "1.0.0";
    verdict = "value";
    ok = true;
    detail = Some "1";
    consumed = [ ("steps", 3) ];
    replay = None;
  }

(* ---------- JSON ---------- *)

let test_cert_golden () =
  Alcotest.(check string) "certificate bytes"
    ("{\"schema\":\"tfiris-cert/1\","
   ^ "\"key\":\"15669f5e73b4bc124153de3076768bbe\","
   ^ "\"cmd\":\"run\",\"label\":\"<expr>\",\"engine\":\"shl.machine\","
   ^ "\"version\":\"1.0.0\",\"verdict\":\"value\",\"ok\":true,"
   ^ "\"consumed\":{\"steps\":3},\"detail\":\"1\"}")
    (Json.to_string (Cc.to_json sample_cert))

let test_cert_roundtrip () =
  let certs =
    [
      sample_cert;
      { sample_cert with Cc.detail = None; consumed = [] };
      {
        sample_cert with
        Cc.verdict = "rejected:decreasing";
        ok = false;
        replay =
          Some
            (Json.Obj
               [
                 ("component", Json.Str "refinement.driver");
                 ("rule", Json.Str "decreasing");
               ]);
      };
    ]
  in
  List.iter
    (fun c ->
      match Cc.of_json (Cc.to_json c) with
      | Ok c' -> Alcotest.(check bool) "round-trips" true (c = c')
      | Error e -> Alcotest.failf "round-trip failed: %s" e)
    certs

let test_cert_of_json_strict () =
  let refuse why s =
    match Result.bind (Json.of_string s) Cc.of_json with
    | Ok _ -> Alcotest.failf "accepted %s" why
    | Error _ -> ()
  in
  refuse "wrong schema"
    "{\"schema\":\"tfiris-cert/9\",\"key\":\"ab\",\"cmd\":\"run\",\
     \"label\":\"l\",\"engine\":\"e\",\"version\":\"v\",\
     \"verdict\":\"value\",\"ok\":true}";
  refuse "missing verdict"
    "{\"schema\":\"tfiris-cert/1\",\"key\":\"ab\",\"cmd\":\"run\",\
     \"label\":\"l\",\"engine\":\"e\",\"version\":\"v\",\"ok\":true}";
  refuse "ill-typed consumed entry"
    "{\"schema\":\"tfiris-cert/1\",\"key\":\"ab\",\"cmd\":\"run\",\
     \"label\":\"l\",\"engine\":\"e\",\"version\":\"v\",\
     \"verdict\":\"value\",\"ok\":true,\"consumed\":{\"steps\":\"x\"}}";
  refuse "ill-typed detail"
    "{\"schema\":\"tfiris-cert/1\",\"key\":\"ab\",\"cmd\":\"run\",\
     \"label\":\"l\",\"engine\":\"e\",\"version\":\"v\",\
     \"verdict\":\"value\",\"ok\":true,\"detail\":7}"

(* ---------- cacheability: only budget-independent verdicts ---------- *)

let test_cacheable_verdicts () =
  List.iter
    (fun v ->
      Alcotest.(check bool) (v ^ " cacheable") true (Cc.cacheable_verdict v))
    [
      "value";
      "stuck";
      "terminated";
      "accepted";
      "rejected:decreasing";
      "clean";
      "findings:2";
      "explored";
    ];
  List.iter
    (fun v ->
      Alcotest.(check bool)
        (v ^ " budget-dependent, not cacheable")
        false (Cc.cacheable_verdict v))
    [
      "out_of_fuel:steps";
      "fuel_exhausted";
      "rejected:out_of_budget";
      "disagree";
      "disagree:step 7";
    ]

(* ---------- store / find ---------- *)

let cert_with_key key = { sample_cert with Cc.key }

let test_store_find_roundtrip () =
  with_cache (fun t ->
      Cc.reset_session ();
      Alcotest.(check bool) "cold lookup misses" true
        (Cc.find t ~key:sample_key = None);
      Alcotest.(check bool) "store succeeds" true (Cc.store t sample_cert);
      (match Cc.find t ~key:sample_key with
      | Some c -> Alcotest.(check bool) "hit returns the cert" true (c = sample_cert)
      | None -> Alcotest.fail "stored cert not found");
      (* git-style two-level layout, and no temp leftovers *)
      let expected_path =
        Filename.concat
          (Filename.concat (Cc.dir t) (String.sub sample_key 0 2))
          (String.sub sample_key 2 30 ^ ".json")
      in
      Alcotest.(check bool) "two-level entry path" true
        (Sys.file_exists expected_path);
      Alcotest.(check string) "entry bytes: the JSON and a newline"
        (Json.to_string (Cc.to_json sample_cert) ^ "\n")
        (read_file expected_path);
      let st = Cc.stats t in
      Alcotest.(check int) "one entry" 1 st.Cc.st_entries;
      Alcotest.(check int) "no temp leftovers" 0 st.Cc.st_tmp;
      Alcotest.(check int) "nothing corrupt" 0 st.Cc.st_corrupt;
      let hits, misses, corrupt, stores = Cc.session () in
      Alcotest.(check (list int)) "session counters"
        [ 1; 1; 0; 1 ]
        [ hits; misses; corrupt; stores ])

let test_store_refusals () =
  with_cache (fun t ->
      Alcotest.(check bool) "exhaustion verdict refused" false
        (Cc.store t { sample_cert with Cc.verdict = "out_of_fuel:steps" });
      Alcotest.(check bool) "traversal key refused" false
        (Cc.store t { sample_cert with Cc.key = "../../etc/passwd" });
      Alcotest.(check bool) "short key refused" false
        (Cc.store t { sample_cert with Cc.key = "ab" });
      let st = Cc.stats t in
      Alcotest.(check int) "nothing written" 0 st.Cc.st_entries)

(* ---------- corruption tolerance: bad entry = miss, never a crash ---------- *)

let entry_path_of t key =
  Filename.concat
    (Filename.concat (Cc.dir t) (String.sub key 0 2))
    (String.sub key 2 (String.length key - 2) ^ ".json")

let test_corrupt_entry_is_miss () =
  let mangle name f =
    with_cache (fun t ->
        Cc.reset_session ();
        Alcotest.(check bool) "stored" true (Cc.store t sample_cert);
        let path = entry_path_of t sample_key in
        f path;
        Alcotest.(check bool) (name ^ " degrades to a miss") true
          (Cc.find t ~key:sample_key = None);
        let _, _, corrupt, _ = Cc.session () in
        Alcotest.(check int) (name ^ " counted as corrupt") 1 corrupt)
  in
  mangle "garbage bytes" (fun p -> write_file p "}{ not json");
  mangle "truncated entry" (fun p ->
      let raw = read_file p in
      write_file p (String.sub raw 0 (String.length raw / 2)));
  mangle "mis-keyed entry" (fun p ->
      (* a valid certificate whose stored key disagrees with its
         address: the bytes are not the certificate for this tuple *)
      write_file p
        (Json.to_string
           (Cc.to_json
              { sample_cert with Cc.key = String.make 32 'a' })
        ^ "\n"))

(* An entry whose bytes were damaged is a hit on a certificate for its
   key, or a miss counted as corrupt, and the lookup never raises.  The
   certificate carries every optional field the reader parses. *)
let test_find_mutated_prop =
  let module Q = QCheck2 in
  let cert =
    {
      sample_cert with
      Cc.verdict = "rejected:credit_not_decreasing";
      ok = false;
      consumed = [ ("steps", 3); ("states", 12) ];
      replay = Some (Json.Obj [ ("component", Json.Str "termination.wp") ]);
    }
  in
  let entry = Bytes.to_string (Json.to_line (Cc.to_json cert)) in
  QCheck_alcotest.to_alcotest
    (Q.Test.make ~count:500 ~name:"Certcache.find total on mutated bytes"
       ~print:(Printf.sprintf "%S") (Gen.mutant entry) (fun doc ->
         with_cache (fun t ->
             assert (Cc.store t cert);
             write_file (entry_path_of t sample_key) doc;
             Cc.reset_session ();
             let found =
               try Ok (Cc.find t ~key:sample_key)
               with e -> Error (Printexc.to_string e)
             in
             let hits, misses, corrupt, _ = Cc.session () in
             match found with
             | Error e -> Q.Test.fail_reportf "Certcache.find raised %s" e
             | Ok (Some c) when c.Cc.key = sample_key ->
               (hits, misses, corrupt) = (1, 0, 0)
               || Q.Test.fail_reportf "hit counted as %d/%d/%d" hits misses
                    corrupt
             | Ok (Some c) -> Q.Test.fail_reportf "hit on key %S" c.Cc.key
             | Ok None ->
               (hits, misses, corrupt) = (0, 1, 1)
               || Q.Test.fail_reportf "miss counted as %d/%d/%d" hits misses
                    corrupt)))

(* A parseable entry the caller's validate rejects (e.g. a cmd
   mismatch) is a corrupt miss, not a hit — the session stats must not
   over-report hits for certificates the invocation cannot replay. *)
let test_validate_reject_is_corrupt_miss () =
  with_cache (fun t ->
      Alcotest.(check bool) "stored" true (Cc.store t sample_cert);
      Cc.reset_session ();
      Alcotest.(check bool) "rejected by validate" true
        (Cc.find t ~key:sample_key
           ~validate:(fun c -> c.Cc.cmd = "analyze")
        = None);
      let hits, misses, corrupt, _ = Cc.session () in
      Alcotest.(check (list int)) "counted as corrupt miss, never a hit"
        [ 0; 1; 1 ]
        [ hits; misses; corrupt ];
      (* the entry itself is intact: an accepting validate still hits *)
      Alcotest.(check bool) "accepting validate hits" true
        (Cc.find t ~key:sample_key ~validate:(fun c -> c.Cc.cmd = "run")
        <> None))

(* Committed entries are world-readable: the staging file is created
   under the process umask, which must not leak into the store (a cache
   dir shared between users or uploaded from CI stays readable). *)
let test_entry_world_readable () =
  with_cache (fun t ->
      Alcotest.(check bool) "stored" true (Cc.store t sample_cert);
      let st = Unix.stat (entry_path_of t sample_key) in
      Alcotest.(check int) "entry mode 0644" 0o644
        (st.Unix.st_perm land 0o777))

let test_store_under_umask () =
  with_cache (fun t ->
      let old = Unix.umask 0o077 in
      let stored =
        Fun.protect
          ~finally:(fun () -> ignore (Unix.umask old))
          (fun () -> Cc.store t sample_cert)
      in
      Alcotest.(check bool) "stored" true stored;
      let st = Unix.stat (entry_path_of t sample_key) in
      Alcotest.(check int) "entry mode 0644 under umask 077" 0o644
        (st.Unix.st_perm land 0o777))

let subdir_of t key = Filename.concat (Cc.dir t) (String.sub key 0 2)

let files_with_suffix dir suffix =
  List.filter
    (fun f -> Filename.check_suffix f suffix)
    (Array.to_list (Sys.readdir dir))

let test_store_leaves_no_tmp () =
  with_cache (fun t ->
      List.iter
        (fun i ->
          let key = Printf.sprintf "%032x" (0xabc0 + i) in
          Alcotest.(check bool) "stored" true (Cc.store t (cert_with_key key)))
        [ 0; 1; 2 ];
      (* one key stored twice: the second rename replaces the entry *)
      Alcotest.(check bool) "stored" true (Cc.store t sample_cert);
      Alcotest.(check bool) "stored again" true (Cc.store t sample_cert);
      Array.iter
        (fun sub ->
          Alcotest.(check (list string)) ("no *.tmp in " ^ sub) []
            (files_with_suffix (Filename.concat (Cc.dir t) sub) ".tmp"))
        (Sys.readdir (Cc.dir t));
      Alcotest.(check int) "stats: no temp leftovers" 0 (Cc.stats t).Cc.st_tmp)

(* A crashed writer that had this process's pid may have left the very
   staging names this process is about to use: [O_EXCL] refuses them
   and the store moves on to the next name, leaving them for [gc]. *)
let test_store_skips_stale_tmp () =
  with_cache (fun t ->
      let sub = subdir_of t sample_key in
      Unix.mkdir sub 0o755;
      let next = Atomic.get Cc.tmp_seq in
      let stale =
        List.map
          (fun n ->
            Filename.concat sub
              (Printf.sprintf "cert-%d-%d.tmp" (Unix.getpid ()) n))
          [ next; next + 1; next + 2 ]
      in
      List.iter (fun p -> write_file p "partial") stale;
      Alcotest.(check bool) "stored past the stale names" true
        (Cc.store t sample_cert);
      Alcotest.(check bool) "entry readable" true
        (Cc.find t ~key:sample_key = Some sample_cert);
      Alcotest.(check bool) "stale files untouched" true
        (List.for_all (fun p -> read_file p = "partial") stale);
      Alcotest.(check int) "only the stale files are temp files" 3
        (Cc.stats t).Cc.st_tmp)

let test_store_creates_subdir () =
  with_cache (fun t ->
      let sub = subdir_of t sample_key in
      Alcotest.(check bool) "no subdirectory before the first store" false
        (Sys.file_exists sub);
      Alcotest.(check bool) "stored" true (Cc.store t sample_cert);
      Alcotest.(check bool) "subdirectory created" true (Sys.is_directory sub);
      (* removed behind the store's back: the next store recreates it *)
      Sys.remove (entry_path_of t sample_key);
      Unix.rmdir sub;
      Alcotest.(check bool) "stored again" true (Cc.store t sample_cert);
      Alcotest.(check bool) "entry back" true
        (Cc.find t ~key:sample_key = Some sample_cert))

let test_read_fault_hook () =
  with_cache (fun t ->
      Cc.reset_session ();
      Alcotest.(check bool) "stored" true (Cc.store t sample_cert);
      Cc.set_read_fault (Some (fun raw -> String.sub raw 0 (String.length raw / 3)));
      Fun.protect
        ~finally:(fun () -> Cc.set_read_fault None)
        (fun () ->
          Alcotest.(check bool) "faulted read is a miss" true
            (Cc.find t ~key:sample_key = None));
      (* hook restored: the entry on disk was never damaged *)
      match Cc.find t ~key:sample_key with
      | Some c -> Alcotest.(check bool) "intact after fault" true (c = sample_cert)
      | None -> Alcotest.fail "entry lost after read fault")

(* ---------- stats and gc ---------- *)

let test_gc () =
  with_cache (fun t ->
      let keys =
        List.map
          (fun i -> Printf.sprintf "%032x" (0xbeef + i))
          [ 0; 1; 2; 3; 4 ]
      in
      List.iter
        (fun k -> Alcotest.(check bool) "stored" true (Cc.store t (cert_with_key k)))
        keys;
      (* a leftover temp file from a crashed writer *)
      let tmp =
        Filename.concat
          (Filename.concat (Cc.dir t) (String.sub (List.hd keys) 0 2))
          "cert-dead.tmp"
      in
      write_file tmp "partial";
      Alcotest.(check int) "tmp visible in stats" 1 (Cc.stats t).Cc.st_tmp;
      let now = 1_000_000. in
      (* age the first two entries past the horizon *)
      List.iteri
        (fun i k ->
          let mtime = if i < 2 then now -. 7_200. else now -. 60. in
          Unix.utimes (entry_path_of t k) mtime mtime)
        keys;
      let r = Cc.gc ~max_age_s:3_600. ~now t in
      Alcotest.(check int) "scanned all" 5 r.Cc.gc_scanned;
      Alcotest.(check int) "expired the aged pair" 2 r.Cc.gc_deleted;
      Alcotest.(check int) "kept the fresh" 3 r.Cc.gc_kept;
      Alcotest.(check bool) "freed bytes counted" true (r.Cc.gc_freed_bytes > 0);
      Alcotest.(check int) "tmp swept" 1 r.Cc.gc_tmp_swept;
      (* overflow eviction: cap below the survivor count, oldest goes *)
      let r2 = Cc.gc ~max_entries:2 ~now t in
      Alcotest.(check int) "overflow deleted" 1 r2.Cc.gc_deleted;
      Alcotest.(check int) "cap respected" 2 r2.Cc.gc_kept;
      Alcotest.(check int) "stats agree" 2 (Cc.stats t).Cc.st_entries)

(* ---------- end to end through the binary ---------- *)

(* Second identical run must replay from the cache: byte-identical
   stdout, a [cached] ledger marker, and the same content key (the
   marker is key-neutral). *)
let test_cli_run_cache_replay () =
  if not (Sys.file_exists cli_exe) then Alcotest.skip ();
  with_tmp_dir "tfiris_cc_e2e" (fun dir ->
      let cache = Filename.concat dir "cache" in
      let led = Filename.concat dir "LEDGER.jsonl" in
      let out1 = Filename.concat dir "out1" in
      let out2 = Filename.concat dir "out2" in
      Alcotest.(check int) "cold run" 0
        (sh "%s run -e '1 + 2' --cache=%s --ledger=%s > %s" cli_exe
           (Filename.quote cache) (Filename.quote led) (Filename.quote out1));
      Alcotest.(check int) "warm run" 0
        (sh "%s run -e '1 + 2' --cache=%s --ledger=%s > %s 2>/dev/null" cli_exe
           (Filename.quote cache) (Filename.quote led) (Filename.quote out2));
      Alcotest.(check string) "stdout byte-identical" (read_file out1)
        (read_file out2);
      match Ledger.load ~path:led with
      | Error e -> Alcotest.failf "ledger unreadable: %s" e
      | Ok [ cold; warm ] ->
        Alcotest.(check bool) "cold not cached" false cold.Ledger.cached;
        Alcotest.(check bool) "warm cached" true warm.Ledger.cached;
        Alcotest.(check string) "cached marker is key-neutral" cold.Ledger.key
          warm.Ledger.key;
        Alcotest.(check string) "verdict replayed" cold.Ledger.verdict
          warm.Ledger.verdict;
        Alcotest.(check bool) "consumed replayed" true
          (cold.Ledger.consumed = warm.Ledger.consumed)
      | Ok rs -> Alcotest.failf "expected 2 records, got %d" (List.length rs))

let test_cli_cache_stats_and_gc () =
  if not (Sys.file_exists cli_exe) then Alcotest.skip ();
  with_tmp_dir "tfiris_cc_e2e" (fun dir ->
      let cache = Filename.concat dir "cache" in
      Alcotest.(check int) "seed the cache" 0
        (sh "%s run -e '1 + 2' --cache=%s > /dev/null" cli_exe
           (Filename.quote cache));
      let stats_out = Filename.concat dir "stats" in
      Alcotest.(check int) "cache stats" 0
        (sh "%s cache stats --cache=%s > %s" cli_exe (Filename.quote cache)
           (Filename.quote stats_out));
      let rendered = read_file stats_out in
      Alcotest.(check bool) "stats mention one entry" true
        (let needle = "entries: 1" in
         let rec has i =
           i + String.length needle <= String.length rendered
           && (String.sub rendered i (String.length needle) = needle
              || has (i + 1))
         in
         has 0);
      (* gc with a zero cap empties the store *)
      Alcotest.(check int) "cache gc" 0
        (sh "%s cache gc --max-entries=0 --cache=%s > /dev/null" cli_exe
           (Filename.quote cache));
      let t = Cc.open_ ~dir:cache in
      Alcotest.(check int) "gc emptied the cache" 0 (Cc.stats t).Cc.st_entries)

(* verify-corpus: cold run stores, warm run answers every lookup from
   the store and reproduces every cold record's outcome; a corrupted
   entry re-verifies (miss), never lies. *)
let test_cli_verify_corpus () =
  if not (Sys.file_exists cli_exe) then Alcotest.skip ();
  with_tmp_dir "tfiris_cc_e2e" (fun dir ->
      let cache = Filename.concat dir "cache" in
      let cold = Filename.concat dir "cold.jsonl" in
      let warm = Filename.concat dir "warm.jsonl" in
      Alcotest.(check int) "cold corpus run" 0
        (sh "%s verify-corpus ../examples/shl --cache=%s --ledger=%s > /dev/null"
           cli_exe (Filename.quote cache) (Filename.quote cold));
      Alcotest.(check int) "warm corpus run gated at 100%% hits" 0
        (sh
           "%s verify-corpus ../examples/shl --cache=%s --ledger=%s \
            --min-hit-rate=100 > /dev/null"
           cli_exe (Filename.quote cache) (Filename.quote warm));
      (* an impossible gate on a cold cache must fail *)
      let empty = Filename.concat dir "empty-cache" in
      Alcotest.(check int) "cold cache cannot meet the gate" 1
        (sh
           "%s verify-corpus ../examples/shl --cache=%s --min-hit-rate=90 \
            > /dev/null 2>&1"
           cli_exe (Filename.quote empty));
      (* everything a record says about the outcome; only wall time,
         mem and the cached flag may differ between passes *)
      let outcomes path =
        match Ledger.load ~path with
        | Error e -> Alcotest.failf "ledger unreadable: %s" e
        | Ok rs ->
          List.map
            (fun (r : Ledger.record) ->
              (r.label, r.cmd, r.verdict, r.ok, r.detail, r.consumed))
            rs
      in
      Alcotest.(check bool) "warm outcomes equal cold ones" true
        (outcomes cold = outcomes warm);
      (match Ledger.load ~path:warm with
      | Ok rs ->
        Alcotest.(check bool) "every warm record replayed" true
          (rs <> [] && List.for_all (fun r -> r.Ledger.cached) rs)
      | Error e -> Alcotest.failf "warm ledger unreadable: %s" e);
      (* corrupt one committed entry: the third run re-verifies it and
         still agrees with the cold verdicts *)
      let t = Cc.open_ ~dir:cache in
      let certs, _ = Cc.entries t in
      (match certs with
      | (path, _, _) :: _ -> write_file path "corrupt"
      | [] -> Alcotest.fail "cold run stored nothing");
      let third = Filename.concat dir "third.jsonl" in
      Alcotest.(check int) "corrupted entry re-verifies" 0
        (sh "%s verify-corpus ../examples/shl --cache=%s --ledger=%s > /dev/null"
           cli_exe (Filename.quote cache) (Filename.quote third));
      Alcotest.(check bool) "re-verification flips nothing" true
        (outcomes cold = outcomes third))

(* The content key excludes --fail-on, so the replayed exit code must be
   recomputed against the replaying invocation's --fail-on, not the
   producing run's: a cert seeded under --fail-on=error (exit 0) must
   still gate a warm --fail-on=warning run (exit 1) on a program whose
   only finding is a warning. *)
let test_cli_analyze_fail_on_replay () =
  if not (Sys.file_exists cli_exe) then Alcotest.skip ();
  with_tmp_dir "tfiris_cc_e2e" (fun dir ->
      let cache = Filename.concat dir "cache" in
      let out1 = Filename.concat dir "out1" in
      let out2 = Filename.concat dir "out2" in
      let err2 = Filename.concat dir "err2" in
      (* 'let x = 1 in 2' has exactly one warning (scope/unused-let) *)
      Alcotest.(check int) "cold run passes under --fail-on=error" 0
        (sh
           "%s analyze -e 'let x = 1 in 2' --format=json-stable --cache=%s \
            > %s 2>/dev/null"
           cli_exe (Filename.quote cache) (Filename.quote out1));
      Alcotest.(check int) "warm run still fails under --fail-on=warning" 1
        (sh
           "%s analyze -e 'let x = 1 in 2' --format=json-stable --cache=%s \
            --fail-on=warning > %s 2> %s"
           cli_exe (Filename.quote cache) (Filename.quote out2)
           (Filename.quote err2));
      Alcotest.(check bool) "the strict run replayed from the cache" true
        (contains (read_file err2) "cache hit");
      Alcotest.(check string) "report byte-identical" (read_file out1)
        (read_file out2))

(* A certificate stores only the json-stable report: a warm run asking
   for another format must compute fresh (byte-identical to an uncached
   run), never dump the stored json-stable form instead. *)
let test_cli_analyze_format_mismatch_runs_fresh () =
  if not (Sys.file_exists cli_exe) then Alcotest.skip ();
  with_tmp_dir "tfiris_cc_e2e" (fun dir ->
      let cache = Filename.concat dir "cache" in
      let fresh = Filename.concat dir "fresh" in
      let warm = Filename.concat dir "warm" in
      let warm_err = Filename.concat dir "warm_err" in
      Alcotest.(check int) "uncached text run" 0
        (sh "%s analyze -e 'let x = 1 in 2' > %s 2>/dev/null" cli_exe
           (Filename.quote fresh));
      Alcotest.(check int) "seed the cache (json-stable)" 0
        (sh
           "%s analyze -e 'let x = 1 in 2' --format=json-stable --cache=%s \
            > /dev/null 2>&1"
           cli_exe (Filename.quote cache));
      Alcotest.(check int) "warm text run" 0
        (sh "%s analyze -e 'let x = 1 in 2' --cache=%s > %s 2> %s" cli_exe
           (Filename.quote cache) (Filename.quote warm)
           (Filename.quote warm_err));
      Alcotest.(check bool) "format mismatch does not replay" false
        (contains (read_file warm_err) "cache hit");
      Alcotest.(check string) "text output matches the uncached run"
        (read_file fresh) (read_file warm))

(* run --stats prints step counts a certificate cannot reproduce: a
   warm --stats run computes fresh (identical stdout), while its stored
   cert still serves plain runs. *)
let test_cli_run_stats_no_replay () =
  if not (Sys.file_exists cli_exe) then Alcotest.skip ();
  with_tmp_dir "tfiris_cc_e2e" (fun dir ->
      let cache = Filename.concat dir "cache" in
      let out1 = Filename.concat dir "out1" in
      let out2 = Filename.concat dir "out2" in
      let err3 = Filename.concat dir "err3" in
      Alcotest.(check int) "cold --stats run" 0
        (sh "%s run -e '1 + 2' --stats --cache=%s > %s 2>/dev/null" cli_exe
           (Filename.quote cache) (Filename.quote out1));
      Alcotest.(check int) "warm --stats run" 0
        (sh "%s run -e '1 + 2' --stats --cache=%s > %s 2>/dev/null" cli_exe
           (Filename.quote cache) (Filename.quote out2));
      Alcotest.(check string) "--stats stdout byte-identical" (read_file out1)
        (read_file out2);
      Alcotest.(check int) "plain warm run" 0
        (sh "%s run -e '1 + 2' --cache=%s > /dev/null 2> %s" cli_exe
           (Filename.quote cache) (Filename.quote err3));
      Alcotest.(check bool) "plain run replays the stats-run cert" true
        (contains (read_file err3) "cache hit"))

(* Warm equals cold: each row runs cold, then warm against the same
   fresh cache.  Stdout and the exit code must be byte-equal, and so
   must stderr once the warm run's one "tfiris: cache hit" line is
   dropped; [replays] says whether the warm run must hit at all
   (--explain never replays, and prints its post-mortem both times). *)
let hit_line = "tfiris: cache hit"

let warm_cold_rows =
  [
    ("run -e '1 + 2'", true);
    ("run -e '1 2'", true);
    ("check-term -e '(rec f n. if n = 0 then 0 else f (n - 1)) 5'", true);
    ("check-term -e '(rec f x. f x) 0'", true);
    ("refine --target='1 + 2' --source='3 - 0'", true);
    ( "refine --target='(rec loop f x. if f () then loop f x else ()) (fun \
       u -> true) ()' --source='()'",
      true );
    ("analyze -e 'let x = 1 in 2' --format=json-stable --fail-on=error", true);
    ("analyze -e 'let x = 1 in 2' --format=json-stable --fail-on=warning", true);
    ("check-term -e '(rec f x. f x) 0' --explain", false);
    ( "refine --target='(rec loop f x. if f () then loop f x else ()) (fun \
       u -> true) ()' --source='()' --explain=json",
      false );
  ]

let test_cli_warm_equals_cold () =
  if not (Sys.file_exists cli_exe) then Alcotest.skip ();
  List.iter
    (fun (args, replays) ->
      with_tmp_dir "tfiris_cc_e2e" (fun dir ->
          let args =
            Printf.sprintf "%s --cache=%s" args
              (Filename.quote (Filename.concat dir "cache"))
          in
          let code, out, err = run_cli args in
          let code', out', err' = run_cli args in
          let lines s = String.split_on_char '\n' s in
          let hits, rest =
            List.partition (String.starts_with ~prefix:hit_line) (lines err')
          in
          Alcotest.(check int) (args ^ ": cache hit lines")
            (if replays then 1 else 0)
            (List.length hits);
          Alcotest.(check int) (args ^ ": exit") code code';
          Alcotest.(check string) (args ^ ": stdout") out out';
          Alcotest.(check string) (args ^ ": stderr") err
            (String.concat "\n" rest)))
    warm_cold_rows

(* --explain never replays, but the verdict it computed is stored: a
   later plain run replays it. *)
let test_cli_explain_stores () =
  if not (Sys.file_exists cli_exe) then Alcotest.skip ();
  with_tmp_dir "tfiris_cc_e2e" (fun dir ->
      let cache = Filename.quote (Filename.concat dir "cache") in
      let code, out, _ =
        run_cli
          (Printf.sprintf "check-term -e '(rec f x. f x) 0' --explain --cache=%s"
             cache)
      in
      Alcotest.(check int) "explain exit" 1 code;
      Alcotest.(check bool) "post-mortem printed" true
        (contains out "== forensics: termination.wp");
      let code, out, err =
        run_cli
          (Printf.sprintf "check-term -e '(rec f x. f x) 0' --cache=%s" cache)
      in
      Alcotest.(check int) "plain exit" 1 code;
      Alcotest.(check bool) "plain run replays" true (contains err hit_line);
      Alcotest.(check string) "plain stdout" "strategy gave up at step 1\n" out)

(* A check-term certificate without its verdict line (as an older
   binary wrote them) cannot be rendered: it is a corrupt miss and the
   run recomputes. *)
let test_cli_cert_without_detail_recomputes () =
  if not (Sys.file_exists cli_exe) then Alcotest.skip ();
  with_tmp_dir "tfiris_cc_e2e" (fun dir ->
      let cache = Filename.concat dir "cache" in
      let args =
        Printf.sprintf "check-term -e '(rec f x. f x) 0' --cache=%s"
          (Filename.quote cache)
      in
      let _, cold, _ = run_cli args in
      let t = Cc.open_ ~dir:cache in
      (match Cc.entries t with
      | [ (path, _, _) ], _ -> (
        match Result.bind (Obs.Json.of_string (read_file path)) Cc.of_json with
        | Ok c ->
          write_file path
            (Obs.Json.to_string (Cc.to_json { c with Cc.detail = None }))
        | Error e -> Alcotest.failf "stored cert unreadable: %s" e)
      | _ -> Alcotest.fail "expected one stored certificate");
      let _, warm, err = run_cli args in
      Alcotest.(check bool) "no replay" false (contains err hit_line);
      Alcotest.(check string) "recomputed stdout" cold warm)

let suite =
  [
    Alcotest.test_case "certificate JSON golden" `Quick test_cert_golden;
    Alcotest.test_case "certificate round-trip" `Quick test_cert_roundtrip;
    Alcotest.test_case "ill-typed certificates refused" `Quick
      test_cert_of_json_strict;
    Alcotest.test_case "only budget-independent verdicts cacheable" `Quick
      test_cacheable_verdicts;
    Alcotest.test_case "store/find round-trip, layout, counters" `Quick
      test_store_find_roundtrip;
    Alcotest.test_case "store refuses uncacheable and unsafe" `Quick
      test_store_refusals;
    Alcotest.test_case "corrupt entry degrades to miss" `Quick
      test_corrupt_entry_is_miss;
    Alcotest.test_case "validate-rejected entry is a corrupt miss" `Quick
      test_validate_reject_is_corrupt_miss;
    Alcotest.test_case "committed entries are world-readable" `Quick
      test_entry_world_readable;
    Alcotest.test_case "store under umask 077 commits 0644" `Quick
      test_store_under_umask;
    Alcotest.test_case "store leaves no temp file" `Quick
      test_store_leaves_no_tmp;
    Alcotest.test_case "stale staging name does not block a store" `Quick
      test_store_skips_stale_tmp;
    Alcotest.test_case "store creates the subdirectory on demand" `Quick
      test_store_creates_subdir;
    Alcotest.test_case "read-fault hook: miss, not crash" `Quick
      test_read_fault_hook;
    Alcotest.test_case "gc: age, cap, tmp sweep" `Quick test_gc;
    Alcotest.test_case "cli: warm run replays byte-identically" `Quick
      test_cli_run_cache_replay;
    Alcotest.test_case "cli: cache stats and gc" `Quick
      test_cli_cache_stats_and_gc;
    Alcotest.test_case "cli: verify-corpus cold/warm/corrupt" `Slow
      test_cli_verify_corpus;
    Alcotest.test_case "cli: replayed analyze honours --fail-on" `Quick
      test_cli_analyze_fail_on_replay;
    Alcotest.test_case "cli: analyze format mismatch runs fresh" `Quick
      test_cli_analyze_format_mismatch_runs_fresh;
    Alcotest.test_case "cli: run --stats never replays" `Quick
      test_cli_run_stats_no_replay;
    Alcotest.test_case "cli: warm equals cold, command by command" `Quick
      test_cli_warm_equals_cold;
    Alcotest.test_case "cli: --explain computes, and stores" `Quick
      test_cli_explain_stores;
    Alcotest.test_case "cli: cert without its verdict line recomputes" `Quick
      test_cli_cert_without_detail_recomputes;
    test_find_mutated_prop;
  ]
