(* The run ledger, live progress heartbeats and corpus reporting.

   The ledger is an append-only JSONL file of verdict records addressed
   by a content key (program, spec, engine, tool version) — the record
   shape and the key are golden-tested byte-for-byte because external
   tooling (and the planned certificate cache, ROADMAP item 3) depend
   on their stability.  Heartbeat sequences are pinned through the
   pluggable Trace clock.  The CLI round-trips are exercised end to end
   through the built binary, like the --trace tests in test_obs.ml. *)

open Tfiris
open Support
module Json = Obs.Json
module Ledger = Obs.Ledger
module Report = Obs.Report
module Progress = Obs.Progress
module Span = Obs.Span
module Trace = Obs.Trace
module Budget = Robust.Budget
module Shl = Tfiris.Shl

(* A record with every field pinned, for the byte-level goldens. *)
let sample_record =
  {
    Ledger.key =
      Ledger.content_key ~program:"let x = 1 in x" ~spec:""
        ~engine:"shl.machine" ~version:"1.0.0";
    cmd = "run";
    label = "<expr>";
    engine = "shl.machine";
    version = "1.0.0";
    verdict = "value";
    ok = true;
    wall_ms = 1.5;
    consumed = [ ("steps", 3) ];
    cached = false;
    mem = None;
    detail = Some "1";
    budget = None;
    seed = None;
    domains = None;
    metrics = None;
    forensics = None;
  }

(* ---------- record shape and content keys ---------- *)

(* A pinned mem block for the /2 goldens. *)
let sample_mem =
  {
    Obs.Telemetry.allocated_words = 1_234;
    minor_words = 1_200;
    major_words = 100;
    promoted_words = 66;
    minor_collections = 1;
    major_collections = 0;
    compactions = 0;
    top_heap_words = 262_144;
  }

let test_record_golden () =
  Alcotest.(check string)
    "tfiris-run/2 record bytes"
    ("{\"schema\":\"tfiris-run/2\","
   ^ "\"key\":\"15669f5e73b4bc124153de3076768bbe\","
   ^ "\"cmd\":\"run\",\"label\":\"<expr>\",\"engine\":\"shl.machine\","
   ^ "\"version\":\"1.0.0\",\"verdict\":\"value\",\"ok\":true,"
   ^ "\"wall_ms\":1.5,\"consumed\":{\"steps\":3},\"detail\":\"1\"}")
    (Json.to_string (Ledger.to_json sample_record));
  (* with a mem block: fixed field order between consumed and detail *)
  Alcotest.(check string)
    "tfiris-run/2 record bytes with mem"
    ("{\"schema\":\"tfiris-run/2\","
   ^ "\"key\":\"15669f5e73b4bc124153de3076768bbe\","
   ^ "\"cmd\":\"run\",\"label\":\"<expr>\",\"engine\":\"shl.machine\","
   ^ "\"version\":\"1.0.0\",\"verdict\":\"value\",\"ok\":true,"
   ^ "\"wall_ms\":1.5,\"consumed\":{\"steps\":3},"
   ^ "\"mem\":{\"allocated_words\":1234,\"minor_words\":1200,"
   ^ "\"major_words\":100,\"promoted_words\":66,\"minor_collections\":1,"
   ^ "\"major_collections\":0,\"compactions\":0,\"top_heap_words\":262144},"
   ^ "\"detail\":\"1\"}")
    (Json.to_string (Ledger.to_json { sample_record with Ledger.mem = Some sample_mem }))

let test_record_roundtrip () =
  let r =
    {
      sample_record with
      Ledger.verdict = "rejected:credit_not_decreasing";
      ok = false;
      seed = Some 42;
      budget = Some (Json.Obj [ ("steps", Json.Int 100) ]);
      mem = Some sample_mem;
      forensics =
        Some (Json.Obj [ ("component", Json.Str "termination.wp") ]);
    }
  in
  match Ledger.of_json (Ledger.to_json r) with
  | Error e -> Alcotest.failf "round-trip failed: %s" e
  | Ok r' ->
    Alcotest.(check bool) "round-trips exactly" true (r = r');
    (* a wrong schema is refused, not coerced *)
    let bad =
      Json.Obj [ ("schema", Json.Str "tfiris-run/999") ]
    in
    (match Ledger.of_json bad with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail "unknown schema accepted");
    (* a /1 record is refused like any other unknown schema: no
       committed ledger uses /1, and its reader is gone (the /1 tag
       survives only in the content-key pre-image) *)
    let v1_line =
      "{\"schema\":\"tfiris-run/1\","
      ^ "\"key\":\"15669f5e73b4bc124153de3076768bbe\","
      ^ "\"cmd\":\"run\",\"label\":\"<expr>\",\"engine\":\"shl.machine\","
      ^ "\"version\":\"1.0.0\",\"verdict\":\"value\",\"ok\":true,"
      ^ "\"wall_ms\":1.5,\"consumed\":{\"steps\":3},\"detail\":\"1\"}"
    in
    match Result.bind (Json.of_string v1_line) Ledger.of_json with
    | Error e ->
      Alcotest.(check string) "/1 refused as an unknown schema"
        "unknown ledger schema \"tfiris-run/1\"" e
    | Ok _ -> Alcotest.fail "/1 record accepted"

(* A record whose [consumed] block was mangled must poison the load
   like every other ill-typed field — silently dropping the entry (the
   old List.filter_map behaviour) would let report --diff compare a
   run as if it had consumed nothing. *)
let test_consumed_strict () =
  let base = Json.to_string (Ledger.to_json sample_record) in
  let patch ~from ~to_ s =
    let rec go i =
      if i + String.length from > String.length s then s
      else if String.sub s i (String.length from) = from then
        String.sub s 0 i ^ to_
        ^ String.sub s
            (i + String.length from)
            (String.length s - i - String.length from)
      else go (i + 1)
    in
    go 0
  in
  let load line =
    Result.bind (Json.of_string line) Ledger.of_json
  in
  (* the pristine line still loads *)
  (match load base with
  | Ok r -> Alcotest.(check bool) "sanity: intact line loads" true (r = sample_record)
  | Error e -> Alcotest.failf "sanity load failed: %s" e);
  (* a string where a count should be *)
  (match load (patch ~from:"{\"steps\":3}" ~to_:"{\"steps\":\"three\"}" base) with
  | Ok _ -> Alcotest.fail "ill-typed consumed entry silently dropped"
  | Error e ->
    Alcotest.(check bool)
      (Printf.sprintf "error names the entry (%s)" e)
      true
      (String.length e > 0));
  (* consumed itself not an object *)
  (match load (patch ~from:"{\"steps\":3}" ~to_:"17" base) with
  | Ok _ -> Alcotest.fail "non-object consumed accepted"
  | Error _ -> ());
  (* absent consumed is still fine (defaults to []) *)
  match load (patch ~from:",\"consumed\":{\"steps\":3}" ~to_:"" base) with
  | Ok r -> Alcotest.(check bool) "absent consumed -> []" true (r.Ledger.consumed = [])
  | Error e -> Alcotest.failf "absent consumed refused: %s" e

(* The PR-10 [cached] marker: rendered only when true (pre-cache
   records stay byte-identical), placed right after [consumed],
   round-trips, rejects garbage — and never enters the content key
   (a replayed verdict and its original share an address). *)
let test_cached_field () =
  let r = { sample_record with Ledger.cached = true } in
  Alcotest.(check string)
    "record bytes with cached"
    ("{\"schema\":\"tfiris-run/2\","
   ^ "\"key\":\"15669f5e73b4bc124153de3076768bbe\","
   ^ "\"cmd\":\"run\",\"label\":\"<expr>\",\"engine\":\"shl.machine\","
   ^ "\"version\":\"1.0.0\",\"verdict\":\"value\",\"ok\":true,"
   ^ "\"wall_ms\":1.5,\"consumed\":{\"steps\":3},\"cached\":true,"
   ^ "\"detail\":\"1\"}")
    (Json.to_string (Ledger.to_json r));
  (match Ledger.of_json (Ledger.to_json r) with
  | Ok r' -> Alcotest.(check bool) "cached round-trips" true (r = r')
  | Error e -> Alcotest.failf "cached round-trip failed: %s" e);
  Alcotest.(check string) "content key ignores cached" sample_record.Ledger.key
    r.Ledger.key;
  let line =
    "{\"schema\":\"tfiris-run/2\","
    ^ "\"key\":\"15669f5e73b4bc124153de3076768bbe\","
    ^ "\"cmd\":\"run\",\"label\":\"<expr>\",\"engine\":\"shl.machine\","
    ^ "\"version\":\"1.0.0\",\"verdict\":\"value\",\"ok\":true,"
    ^ "\"wall_ms\":1.5,\"consumed\":{\"steps\":3},\"cached\":\"yes\","
    ^ "\"detail\":\"1\"}"
  in
  match Result.bind (Json.of_string line) Ledger.of_json with
  | Ok _ -> Alcotest.fail "ill-typed cached accepted"
  | Error _ -> ()

(* ---------- content keys across runs: the cache's contract ---------- *)

(* The certificate cache persists keys across processes, so the key
   function must be injective on real inputs (no two corpus tuples
   collide) and byte-stable against a committed golden. *)
let corpus_key_tuples () =
  let dir = "../examples/shl" in
  let files =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".shl")
    |> List.sort compare
  in
  List.concat_map
    (fun f ->
      let e = Shl.Parser.parse_exn (read_file (Filename.concat dir f)) in
      let program = Shl.Pretty.expr_to_string e in
      (* the two verify-corpus stages plus a termination spec: distinct
         engine/spec tuples over the same program text *)
      [
        (f, "run", program, "", "shl.machine");
        (f, "analyze", program, "all", "analysis");
        (f, "check-term", program, "w", "termination.wp/adaptive");
      ])
    files

let test_content_key_injective_on_corpus () =
  let tuples = corpus_key_tuples () in
  Alcotest.(check bool) "corpus found" true (List.length tuples >= 3 * 5);
  let keys =
    List.map
      (fun (_, _, program, spec, engine) ->
        Ledger.content_key ~program ~spec ~engine ~version:Tfiris.version)
      tuples
  in
  let distinct = List.sort_uniq compare keys in
  Alcotest.(check int) "no two corpus tuples collide" (List.length keys)
    (List.length distinct)

let test_content_key_corpus_golden () =
  (* committed golden: one "<key>  <file> <cmd>" line per corpus tuple.
     Regenerate (after an intentional corpus or pretty-printer change)
     with:  dune exec test/gen_content_keys.exe > test/content_keys.golden *)
  let expected = read_file "content_keys.golden" in
  let got =
    String.concat ""
      (List.map
         (fun (f, cmd, program, spec, engine) ->
           Printf.sprintf "%s  %s %s\n"
             (Ledger.content_key ~program ~spec ~engine
                ~version:Tfiris.version)
             f cmd)
         (corpus_key_tuples ()))
  in
  Alcotest.(check string) "corpus content keys byte-stable" expected got

(* QCheck: distinct tuples yield distinct keys (the \x00 canonical
   pre-image means collisions would be MD5 collisions — not reachable
   from printable fuzz inputs). *)
let test_content_key_injective_prop =
  let module Q = QCheck2 in
  let field = Q.Gen.(string_size ~gen:printable (0 -- 12)) in
  let tup = Q.Gen.quad field field field field in
  QCheck_alcotest.to_alcotest
    (Q.Test.make ~count:300
       ~name:"content_key: distinct tuples, distinct keys"
       (Q.Gen.pair tup tup)
       (fun ((p1, s1, e1, v1), (p2, s2, e2, v2)) ->
         let k1 =
           Ledger.content_key ~program:p1 ~spec:s1 ~engine:e1 ~version:v1
         in
         let k2 =
           Ledger.content_key ~program:p2 ~spec:s2 ~engine:e2 ~version:v2
         in
         if (p1, s1, e1, v1) = (p2, s2, e2, v2) then k1 = k2 else k1 <> k2))

let test_content_key_stability () =
  let key () =
    Ledger.content_key ~program:"let x = 1 in x" ~spec:""
      ~engine:"shl.machine" ~version:"1.0.0"
  in
  (* byte-stable across calls and across releases of this code: the
     pre-image is canonical, the digest is stdlib MD5 *)
  Alcotest.(check string) "pinned hex digest"
    "15669f5e73b4bc124153de3076768bbe" (key ());
  Alcotest.(check string) "same inputs, same key" (key ()) (key ());
  let base = key () in
  let changed ~program ~spec ~engine ~version =
    Ledger.content_key ~program ~spec ~engine ~version
  in
  Alcotest.(check bool) "engine changes the key" true
    (base
    <> changed ~program:"let x = 1 in x" ~spec:"" ~engine:"shl.reference"
         ~version:"1.0.0");
  Alcotest.(check bool) "program changes the key" true
    (base
    <> changed ~program:"let x = 2 in x" ~spec:"" ~engine:"shl.machine"
         ~version:"1.0.0");
  Alcotest.(check bool) "spec changes the key" true
    (base
    <> changed ~program:"let x = 1 in x" ~spec:"w" ~engine:"shl.machine"
         ~version:"1.0.0");
  Alcotest.(check bool) "version changes the key" true
    (base
    <> changed ~program:"let x = 1 in x" ~spec:"" ~engine:"shl.machine"
         ~version:"1.0.1");
  (* \x00 separators: field boundaries cannot be confused *)
  Alcotest.(check bool) "fields do not bleed" true
    (changed ~program:"ab" ~spec:"c" ~engine:"e" ~version:"v"
    <> changed ~program:"a" ~spec:"bc" ~engine:"e" ~version:"v")

let test_append_load_roundtrip () =
  let path = Filename.temp_file "tfiris_ledger" ".jsonl" in
  Sys.remove path;
  (* append creates the file *)
  Ledger.append ~path sample_record;
  let stuck = { sample_record with Ledger.verdict = "stuck"; ok = false } in
  Ledger.append ~path stuck;
  Alcotest.(check string) "file bytes: one JSON line per record"
    (String.concat ""
       (List.map
          (fun r -> Json.to_string (Ledger.to_json r) ^ "\n")
          [ sample_record; stuck ]))
    (read_file path);
  (* a line from an older ledger, carrying the retired [domains] block *)
  let line = Json.to_string (Ledger.to_json sample_record) in
  let oc = open_out_gen [ Open_append ] 0o644 path in
  output_string oc (String.sub line 0 (String.length line - 1));
  output_string oc ",\"domains\":{\"count\":2,\"wall_ms\":[1.5,0.25]}}\n";
  close_out oc;
  (match Ledger.load ~path with
  | Error e -> Alcotest.failf "load failed: %s" e
  | Ok rs ->
    Alcotest.(check int) "all three records back" 3 (List.length rs);
    Alcotest.(check bool) "first round-trips" true
      (List.nth rs 0 = sample_record);
    Alcotest.(check string) "order preserved" "stuck"
      (List.nth rs 1).Ledger.verdict;
    let legacy = List.nth rs 2 in
    Alcotest.(check (pair string string))
      "a legacy domains block loads with the same key and verdict"
      (sample_record.Ledger.key, sample_record.Ledger.verdict)
      (legacy.Ledger.key, legacy.Ledger.verdict));
  Sys.remove path

(* Appends are line-atomic (one [write(2)] on an O_APPEND fd), so two
   processes hammering the same ledger, as corpus shards do, interleave
   whole records, never bytes: the file must load cleanly with every
   record intact. *)
let test_append_concurrent () =
  let path = Filename.temp_file "tfiris_ledger_conc" ".jsonl" in
  Sys.remove path;
  let per = 100 in
  let writer verdict =
    match Unix.fork () with
    | 0 ->
      (try
         for _ = 1 to per do
           Ledger.append ~path { sample_record with Ledger.verdict }
         done
       with _ -> Unix._exit 1);
      Unix._exit 0
    | pid -> pid
  in
  let p1 = writer "left" and p2 = writer "right" in
  List.iter
    (fun pid ->
      match snd (Unix.waitpid [] pid) with
      | Unix.WEXITED 0 -> ()
      | _ -> Alcotest.fail "a writer process failed")
    [ p1; p2 ];
  (match Ledger.load ~path with
  | Error e -> Alcotest.failf "concurrently written ledger corrupt: %s" e
  | Ok rs ->
    Alcotest.(check int) "no record lost" (2 * per) (List.length rs);
    let count v =
      List.length (List.filter (fun r -> r.Ledger.verdict = v) rs)
    in
    Alcotest.(check int) "left writer's records all there" per (count "left");
    Alcotest.(check int) "right writer's records all there" per (count "right"));
  Sys.remove path

let test_load_malformed () =
  let path = Filename.temp_file "tfiris_ledger" ".jsonl" in
  let oc = open_out path in
  output_string oc (Json.to_string (Ledger.to_json sample_record));
  output_string oc "\n\nnot json at all\n";
  close_out oc;
  (match Ledger.load ~path with
  | Ok _ -> Alcotest.fail "corrupt ledger loaded silently"
  | Error e ->
    (* blank line skipped, so the bad line is reported as line 3 *)
    Alcotest.(check bool)
      (Printf.sprintf "error is line-numbered (%s)" e)
      true
      (String.length e > 0
      && List.exists
           (fun sub ->
             let rec go i =
               i + String.length sub <= String.length e
               && (String.sub e i (String.length sub) = sub || go (i + 1))
             in
             go 0)
           [ ":3:" ]));
  Sys.remove path

(* A ledger whose bytes were damaged loads to [Ok] or a line-numbered
   [Error], and never raises.  The three records between them carry
   every optional block the reader parses. *)
let test_load_mutated_prop =
  let module Q = QCheck2 in
  let ledger =
    String.concat ""
      (List.map
         (fun r -> Bytes.to_string (Json.to_line (Ledger.to_json r)))
         [
           sample_record;
           {
             sample_record with
             Ledger.verdict = "rejected:credit_not_decreasing";
             ok = false;
             mem = Some sample_mem;
             budget = Some (Json.Obj [ ("steps", Json.Int 100) ]);
             seed = Some 42;
             forensics =
               Some (Json.Obj [ ("component", Json.Str "termination.wp") ]);
           };
           {
             sample_record with
             Ledger.cached = true;
             metrics = Some (Json.Obj [ ("counters", Json.Obj []) ]);
           };
         ])
  in
  QCheck_alcotest.to_alcotest
    (Q.Test.make ~count:500 ~name:"Ledger.load total on mutated bytes"
       ~print:(Printf.sprintf "%S") (Gen.mutant ledger) (fun doc ->
         let path = Filename.temp_file "tfiris_ledger" ".jsonl" in
         Fun.protect
           ~finally:(fun () -> Sys.remove path)
           (fun () ->
             let oc = open_out_bin path in
             output_string oc doc;
             close_out oc;
             match Ledger.load ~path with
             | Ok _ | Error _ -> true
             | exception e ->
               Q.Test.fail_reportf "Ledger.load raised %s"
                 (Printexc.to_string e))))

(* ---------- corpus summaries and diffs ---------- *)

let rec_of ?(cmd = "run") ?(ok = true) ?(wall = 1.0) ?steps ~key ~verdict () =
  {
    sample_record with
    Ledger.key;
    cmd;
    verdict;
    ok;
    wall_ms = wall;
    consumed = (match steps with None -> [] | Some n -> [ ("steps", n) ]);
    label = key;
  }

let test_summarize () =
  let records =
    [
      rec_of ~key:"a" ~verdict:"value" ~wall:1.0 ~steps:10 ();
      rec_of ~key:"b" ~verdict:"terminated" ~wall:5.0 ();
      rec_of ~key:"a" ~verdict:"value" ~wall:3.0 ~steps:10 ();
      rec_of ~key:"a" ~verdict:"value" ~wall:2.0 ~steps:12 ();
    ]
  in
  match Report.summarize records with
  | [ a; b ] ->
    Alcotest.(check string) "first-appearance order" "a" a.Report.s_key;
    Alcotest.(check int) "runs grouped" 3 a.Report.s_runs;
    Alcotest.(check (float 1e-9)) "median wall" 2.0 a.Report.s_median_ms;
    Alcotest.(check (float 1e-9)) "min wall" 1.0 a.Report.s_min_ms;
    Alcotest.(check (float 1e-9)) "max wall" 3.0 a.Report.s_max_ms;
    Alcotest.(check (option int)) "median steps" (Some 10)
      a.Report.s_median_steps;
    Alcotest.(check bool) "stable verdict" false a.Report.s_unstable;
    Alcotest.(check string) "other key kept" "b" b.Report.s_key;
    Alcotest.(check (option int)) "no steps recorded" None
      b.Report.s_median_steps
  | l -> Alcotest.failf "expected 2 summaries, got %d" (List.length l)

let test_summarize_unstable () =
  let records =
    [
      rec_of ~key:"a" ~verdict:"value" ();
      rec_of ~key:"a" ~verdict:"stuck" ~ok:false ();
    ]
  in
  match Report.summarize records with
  | [ a ] ->
    Alcotest.(check bool) "disagreement surfaces" true a.Report.s_unstable;
    Alcotest.(check string) "latest verdict wins" "stuck" a.Report.s_verdict
  | _ -> Alcotest.fail "expected one summary"

(* Analyze records carry per-pass finding counts in [consumed]
   ("pass.<name>"); [report] folds them into one row per pass.  Other
   commands' records must not contribute. *)
let test_pass_summary () =
  let analyze key consumed =
    { sample_record with Ledger.key; cmd = "analyze"; consumed; label = key }
  in
  let records =
    [
      analyze "a" [ ("findings", 3); ("pass.scope", 1); ("pass.symheap", 2) ];
      rec_of ~key:"r" ~verdict:"value" ~steps:5 ();
      analyze "b" [ ("findings", 4); ("pass.symheap", 4) ];
    ]
  in
  (match Report.pass_summary records with
  | [ scope; symheap ] ->
    Alcotest.(check string) "first-appearance order" "scope" scope.Report.p_pass;
    Alcotest.(check int) "scope records" 1 scope.Report.p_records;
    Alcotest.(check int) "scope findings" 1 scope.Report.p_findings;
    Alcotest.(check string) "symheap row" "symheap" symheap.Report.p_pass;
    Alcotest.(check int) "symheap summed across records" 2
      symheap.Report.p_records;
    Alcotest.(check int) "symheap findings summed" 6 symheap.Report.p_findings
  | l -> Alcotest.failf "expected 2 pass rows, got %d" (List.length l));
  (* text appendix renders only when passes exist; JSON gains a
     "passes" field only when passed some *)
  Alcotest.(check string) "no passes, no appendix" ""
    (Report.render_pass_text (Report.pass_summary [ sample_record ]));
  let j = Json.to_string (Report.summary_to_json (Report.summarize records)) in
  Alcotest.(check bool)
    "summary JSON unchanged without passes" false
    (let rec has i =
       i + 8 <= String.length j && (String.sub j i 8 = "\"passes\"" || has (i + 1))
     in
     has 0);
  let j =
    Json.to_string
      (Report.summary_to_json
         ~passes:(Report.pass_summary records)
         (Report.summarize records))
  in
  Alcotest.(check bool)
    "passes field present" true
    (let rec has i =
       i + 8 <= String.length j && (String.sub j i 8 = "\"passes\"" || has (i + 1))
     in
     has 0)

(* One diff exercising every change class at once — and the injected
   verdict flip the acceptance criteria ask the diff to detect. *)
let test_diff_classification () =
  let before =
    [
      rec_of ~key:"flip" ~verdict:"terminated" ();
      rec_of ~key:"same" ~verdict:"value" ();
      rec_of ~key:"slow" ~verdict:"value" ~wall:10.0 ();
      rec_of ~key:"gone" ~verdict:"value" ();
    ]
  in
  let after =
    [
      rec_of ~key:"flip" ~verdict:"rejected:credit_not_decreasing" ~ok:false ();
      rec_of ~key:"same" ~verdict:"value" ();
      rec_of ~key:"slow" ~verdict:"value" ~wall:100.0 ();
      rec_of ~key:"fresh-fail" ~verdict:"stuck" ~ok:false ();
      rec_of ~key:"fresh-ok" ~verdict:"value" ();
    ]
  in
  let d = Report.diff ~before ~after () in
  Alcotest.(check int) "keys in both" 3 d.Report.compared;
  Alcotest.(check int) "one flip" 1 d.Report.flips;
  Alcotest.(check int) "one new failure" 1 d.Report.new_failures;
  Alcotest.(check int) "one time regression" 1 d.Report.regressions;
  Alcotest.(check bool) "flips fail the diff" true (Report.failed d);
  let classes =
    List.map
      (fun e -> (Report.change_name e.Report.d_change, e.Report.d_key))
      d.Report.entries
  in
  Alcotest.(check (list (pair string string)))
    "entries ordered by severity"
    [
      ("verdict-flip", "flip");
      ("new-failure", "fresh-fail");
      ("time-regression", "slow");
      ("added", "fresh-ok");
      ("removed", "gone");
    ]
    classes;
  (match d.Report.entries with
  | flip :: _ ->
    Alcotest.(check (option string)) "flip: before verdict"
      (Some "terminated") flip.Report.d_before;
    Alcotest.(check (option string)) "flip: after verdict"
      (Some "rejected:credit_not_decreasing") flip.Report.d_after
  | [] -> Alcotest.fail "no entries");
  (* the rendered forms carry the counts *)
  let txt = Report.render_diff_text d in
  Alcotest.(check bool) "text totals" true
    (let sub = "3 compared: 1 verdict flip, 1 new failure, 1 time regression" in
     let rec go i =
       i + String.length sub <= String.length txt
       && (String.sub txt i (String.length sub) = sub || go (i + 1))
     in
     go 0);
  match Json.of_string (Json.to_string (Report.diff_to_json d)) with
  | Error e -> Alcotest.failf "diff JSON unparseable: %s" e
  | Ok j ->
    Alcotest.(check (option bool)) "json failed flag" (Some true)
      (Option.bind (Json.member "failed" j) Json.to_bool)

let test_diff_time_only_is_advisory () =
  let before = [ rec_of ~key:"slow" ~verdict:"value" ~wall:10.0 () ] in
  let after = [ rec_of ~key:"slow" ~verdict:"value" ~wall:100.0 () ] in
  let d = Report.diff ~before ~after () in
  Alcotest.(check int) "regression seen" 1 d.Report.regressions;
  Alcotest.(check bool) "but the diff passes" false (Report.failed d);
  (* below the absolute noise floor nothing is reported at all *)
  let before = [ rec_of ~key:"jitter" ~verdict:"value" ~wall:0.1 () ] in
  let after = [ rec_of ~key:"jitter" ~verdict:"value" ~wall:1.0 () ] in
  let d = Report.diff ~before ~after () in
  Alcotest.(check int) "10x of nothing is nothing" 0 d.Report.regressions

(* ---------- the memory gate ---------- *)

let rec_mem ~key w =
  {
    sample_record with
    Ledger.key;
    label = key;
    mem = Some { sample_mem with Obs.Telemetry.allocated_words = w };
  }

let test_diff_mem_regression () =
  let before = [ rec_mem ~key:"hot" 1_000_000; rec_mem ~key:"cool" 1_000_000 ] in
  let after = [ rec_mem ~key:"hot" 5_000_000; rec_mem ~key:"cool" 1_000_100 ] in
  (* unarmed: the regression is classified and counted but advisory *)
  let d = Report.diff ~before ~after () in
  Alcotest.(check int) "one mem regression" 1 d.Report.mem_regressions;
  Alcotest.(check bool) "gate not armed" false d.Report.mem_gate;
  Alcotest.(check bool) "advisory by default" false (Report.failed d);
  (match
     List.find_opt
       (fun e -> e.Report.d_change = Report.Mem_regression)
       d.Report.entries
   with
  | None -> Alcotest.fail "mem-regression entry missing"
  | Some e ->
    Alcotest.(check (option int)) "words before" (Some 1_000_000)
      e.Report.d_w_before;
    Alcotest.(check (option int)) "words after" (Some 5_000_000)
      e.Report.d_w_after);
  (* armed with an explicit threshold: same classification, now failing *)
  let d = Report.diff ~mem_threshold:2.0 ~before ~after () in
  Alcotest.(check int) "still one regression at 2x" 1 d.Report.mem_regressions;
  Alcotest.(check bool) "gate armed" true d.Report.mem_gate;
  Alcotest.(check bool) "armed gate fails the diff" true (Report.failed d);
  (* a looser threshold lets the same growth through *)
  let d = Report.diff ~mem_threshold:10.0 ~before ~after () in
  Alcotest.(check int) "10x tolerates 5x growth" 0 d.Report.mem_regressions;
  Alcotest.(check bool) "nothing to gate" false (Report.failed d);
  (* the JSON rendering carries the gate verdict *)
  let d = Report.diff ~mem_threshold:2.0 ~before ~after () in
  match Json.of_string (Json.to_string (Report.diff_to_json d)) with
  | Error e -> Alcotest.failf "diff JSON unparseable: %s" e
  | Ok j ->
    Alcotest.(check (option bool)) "json mem_gate" (Some true)
      (Option.bind (Json.member "mem_gate" j) Json.to_bool);
    Alcotest.(check (option bool)) "json failed" (Some true)
      (Option.bind (Json.member "failed" j) Json.to_bool)

(* Growth below the 100k-word absolute floor never trips the gate, no
   matter the ratio — and records without mem blocks are skipped. *)
let test_diff_mem_floor_and_missing () =
  let before = [ rec_mem ~key:"tiny" 10 ] in
  let after = [ rec_mem ~key:"tiny" 50_000 ] in
  let d = Report.diff ~mem_threshold:1.5 ~before ~after () in
  Alcotest.(check int) "5000x of nothing is nothing" 0 d.Report.mem_regressions;
  Alcotest.(check bool) "floor keeps the diff green" false (Report.failed d);
  (* a /1-era baseline (no mem) compared against /2 runs: vacuously green *)
  let before = [ rec_of ~key:"old" ~verdict:"value" () ] in
  let after = [ rec_mem ~key:"old" 50_000_000 ] in
  let d = Report.diff ~mem_threshold:1.5 ~before ~after () in
  Alcotest.(check int) "no baseline mem, no regression" 0
    d.Report.mem_regressions;
  Alcotest.(check bool) "still green" false (Report.failed d)

(* The summary medians allocated words per key and renders it. *)
let test_summarize_alloc () =
  let records =
    [ rec_mem ~key:"a" 1_000; rec_mem ~key:"a" 3_000; rec_mem ~key:"a" 2_000 ]
  in
  match Report.summarize records with
  | [ a ] ->
    Alcotest.(check (option int)) "median allocated words" (Some 2_000)
      a.Report.s_alloc_w;
    let j = Json.to_string (Report.summary_to_json [ a ]) in
    Alcotest.(check bool) "alloc_w in summary JSON" true
      (let sub = "\"alloc_w\":2000" in
       let rec go i =
         i + String.length sub <= String.length j
         && (String.sub j i (String.length sub) = sub || go (i + 1))
       in
       go 0)
  | l -> Alcotest.failf "expected one summary, got %d" (List.length l)

(* ---------- budget fractions ---------- *)

let test_remaining_frac () =
  let m = Budget.meter (Budget.of_steps 10) in
  Alcotest.(check (option (float 1e-9))) "full" (Some 1.0)
    (Budget.remaining_frac m);
  for _ = 1 to 5 do
    ignore (Budget.step m)
  done;
  Alcotest.(check (option (float 1e-9))) "half spent" (Some 0.5)
    (Budget.remaining_frac m);
  for _ = 1 to 20 do
    ignore (Budget.step m)
  done;
  Alcotest.(check (option (float 1e-9))) "clamped at zero" (Some 0.0)
    (Budget.remaining_frac m);
  (* nothing bounded (wall deliberately excluded): no fraction *)
  Alcotest.(check (option (float 1e-9))) "unbounded -> None" None
    (Budget.remaining_frac (Budget.meter Budget.unlimited))

(* ---------- heartbeats ---------- *)

(* Sink + enabled + period bracket, mirroring with_memory_trace. *)
let with_heartbeats ?(every = 5) f =
  let sink, contents = Progress.memory_sink () in
  let prev = Progress.install sink in
  Progress.set_every every;
  let r = Fun.protect ~finally:(fun () -> Progress.restore prev) f in
  (r, contents ())

let no_info () = Progress.no_info

(* A run with heartbeats on, failing if its span is off. *)
let beating ?(component = "c") f =
  Span.run ~component (function
    | Span.Off -> Alcotest.fail "enabled span is off"
    | sp -> f sp)

let test_heartbeat_deterministic () =
  (* one clock reading at the span's open, then one per heartbeat:
     with a 1ms step the n-th heartbeat sits at n ms, and each covers
     [every] units in exactly 1ms *)
  let (), snaps =
    with_heartbeats ~every:5 (fun () ->
        with_pinned_clock ~start:0 ~step:1_000_000 (fun () ->
            beating ~component:"test.comp" (fun sp ->
                for _ = 1 to 12 do
                  Span.tick sp no_info ()
                done)))
  in
  let shape =
    List.map
      (fun s ->
        Progress.
          (s.s_component, s.s_phase, s.s_seq, s.s_units, s.s_rate, s.s_elapsed_ms))
      snaps
  in
  Alcotest.(check int) "12 ticks at every=5 -> 2 heartbeats" 2
    (List.length snaps);
  Alcotest.(check bool) "pinned sequence" true
    (shape
    = [
        ("test.comp", "run", 1, 5, 5000., 1.0);
        ("test.comp", "run", 2, 10, 5000., 2.0);
      ])

let test_heartbeat_phase_and_gauges () =
  let (), snaps =
    with_heartbeats ~every:2 (fun () ->
        with_pinned_clock (fun () ->
            beating (fun sp ->
                let info () =
                  {
                    Progress.states = Some 7;
                    frontier = Some 3;
                    budget_left = Some 0.25;
                  }
                in
                Span.set_phase sp "game";
                Span.tick sp info ();
                Span.tick sp info ();
                Span.set_phase sp "drain";
                Span.tick sp info ();
                Span.tick sp info ())))
  in
  match snaps with
  | [ s1; s2 ] ->
    Alcotest.(check string) "initial phase" "game" s1.Progress.s_phase;
    Alcotest.(check string) "phase change tracked" "drain" s2.Progress.s_phase;
    Alcotest.(check (option int)) "states gauge" (Some 7) s1.Progress.s_states;
    Alcotest.(check (option int)) "frontier gauge" (Some 3)
      s1.Progress.s_frontier;
    Alcotest.(check (option (float 0.))) "budget gauge" (Some 0.25)
      s1.Progress.s_budget_left
  | l -> Alcotest.failf "expected 2 heartbeats, got %d" (List.length l)

let test_heartbeat_disabled_is_free () =
  Alcotest.(check bool) "span is Off when off" true
    (Span.run ~component:"c" (fun sp -> sp = Span.Off))

let test_heartbeat_sink_errors_contained () =
  let prev = Progress.install (fun _ -> failwith "boom") in
  Progress.set_every 1;
  Fun.protect
    ~finally:(fun () -> Progress.restore prev)
    (fun () ->
      (* must not raise *)
      beating (fun sp -> Span.tick sp no_info ()))

let test_heartbeat_json () =
  let snap =
    {
      Progress.s_component = "conc.explore";
      s_phase = "run";
      s_seq = 1;
      s_units = 100;
      s_rate = 5000.;
      s_elapsed_ms = 20.;
      s_states = Some 42;
      s_frontier = Some 7;
      s_budget_left = Some 0.5;
    }
  in
  Alcotest.(check string) "tfiris-progress/1 bytes"
    ("{\"schema\":\"tfiris-progress/1\",\"component\":\"conc.explore\","
   ^ "\"phase\":\"run\",\"seq\":1,\"units\":100,\"rate\":5000.0,"
   ^ "\"elapsed_ms\":20.0,\"states\":42,\"frontier\":7,\"budget_left\":0.5}")
    (Json.to_string (Progress.to_json snap))

(* The instrumented drivers: the explorer's heartbeats carry the live
   visited/frontier gauges; the termination driver reports the budget
   fraction. *)
let test_explore_heartbeats () =
  let (result, snaps) =
    with_heartbeats ~every:10 (fun () ->
        Shl.Conc.explore (Shl.Conc.init Shl.Conc.racy_incr))
  in
  Alcotest.(check bool) "exploration unaffected" true
    (result.Shl.Conc.states > 0);
  Alcotest.(check bool) "heartbeats fired" true (snaps <> []);
  List.iter
    (fun s ->
      Alcotest.(check string) "component" "conc.explore"
        s.Progress.s_component;
      Alcotest.(check bool) "states gauge present" true
        (s.Progress.s_states <> None);
      Alcotest.(check bool) "frontier gauge present" true
        (s.Progress.s_frontier <> None);
      Alcotest.(check bool) "budget gauge present" true
        (s.Progress.s_budget_left <> None))
    snaps

let test_wp_heartbeats () =
  let e = Shl.Parser.parse_exn "(rec f n. if n = 0 then 0 else f (n - 1)) 50" in
  let (verdict, snaps) =
    with_heartbeats ~every:20 (fun () ->
        Termination.Wp.run
          ~budget:(Budget.of_steps 10_000)
          ~credits:Tfiris_ordinal.Ord.omega
          (Termination.Wp.adaptive ())
          (Shl.Step.config e))
  in
  (match verdict with
  | Termination.Wp.Terminated _ -> ()
  | v ->
    Alcotest.failf "run must still terminate: %a" Termination.Wp.pp_verdict v);
  Alcotest.(check bool) "heartbeats fired" true (snaps <> []);
  List.iter
    (fun s ->
      Alcotest.(check string) "component" "termination.wp"
        s.Progress.s_component;
      match s.Progress.s_budget_left with
      | Some f ->
        Alcotest.(check bool) "fraction in [0,1]" true (f >= 0. && f <= 1.)
      | None -> Alcotest.fail "budget gauge missing under a step budget")
    snaps

let test_refine_heartbeats () =
  let (verdict, snaps) =
    with_heartbeats ~every:1 (fun () ->
        Refinement.Memo_spec.certify (Refinement.Memo_spec.fib_instance 4))
  in
  (match verdict with
  | Some (Refinement.Driver.Accepted _) -> ()
  | Some (Refinement.Driver.Rejected (r, _)) ->
    Alcotest.failf "refinement must still accept: %a"
      Refinement.Driver.pp_reject r
  | None -> Alcotest.fail "memo_fib certificate missing");
  Alcotest.(check bool) "heartbeats fired" true (snaps <> []);
  match snaps with
  | s :: _ ->
    Alcotest.(check string) "component" "refinement.driver"
      s.Progress.s_component;
    Alcotest.(check string) "game phase first" "game" s.Progress.s_phase
  | [] -> ()

(* ---------- end to end through the binary ---------- *)



let test_cli_ledger_keys_stable () =
  if not (Sys.file_exists cli_exe) then Alcotest.skip ();
  let led = Filename.temp_file "tfiris_led" ".jsonl" in
  Sys.remove led;
  Alcotest.(check int) "first run" 0
    (sh "%s run -e '1 + 2' --ledger=%s > /dev/null" cli_exe (Filename.quote led));
  Alcotest.(check int) "second run" 0
    (sh "%s run -e '1 + 2' --ledger=%s > /dev/null" cli_exe (Filename.quote led));
  Alcotest.(check int) "different engine" 0
    (sh "%s run -e '1 + 2' --engine=lockstep --ledger=%s > /dev/null" cli_exe
       (Filename.quote led));
  (match Ledger.load ~path:led with
  | Error e -> Alcotest.failf "ledger unreadable: %s" e
  | Ok [ r1; r2; r3 ] ->
    Alcotest.(check string) "same invocation, same key" r1.Ledger.key
      r2.Ledger.key;
    Alcotest.(check bool) "engine changes the key" true
      (r1.Ledger.key <> r3.Ledger.key);
    Alcotest.(check string) "verdict recorded" "value" r1.Ledger.verdict;
    Alcotest.(check bool) "steps recorded" true
      (List.mem_assoc "steps" r1.Ledger.consumed);
    Alcotest.(check string) "tool version stamped" Tfiris.version
      r1.Ledger.version
  | Ok rs -> Alcotest.failf "expected 3 records, got %d" (List.length rs));
  Sys.remove led

let test_cli_ledger_all_commands () =
  if not (Sys.file_exists cli_exe) then Alcotest.skip ();
  let led = Filename.temp_file "tfiris_led" ".jsonl" in
  Sys.remove led;
  Alcotest.(check int) "check-term" 0
    (sh
       "%s check-term -e '(rec f n. if n = 0 then 0 else f (n - 1)) 10' \
        --ledger=%s > /dev/null"
       cli_exe (Filename.quote led));
  Alcotest.(check int) "refine" 0
    (sh "%s refine --target='1 + 2' --source='3 - 0' --ledger=%s > /dev/null"
       cli_exe (Filename.quote led));
  Alcotest.(check int) "analyze" 0
    (sh "%s analyze -e '1 + 2' --ledger=%s > /dev/null" cli_exe
       (Filename.quote led));
  Alcotest.(check int) "chaos" 0
    (sh "%s chaos --seeds=2 --ledger=%s > /dev/null" cli_exe (Filename.quote led));
  (match Ledger.load ~path:led with
  | Error e -> Alcotest.failf "ledger unreadable: %s" e
  | Ok rs ->
    Alcotest.(check (list string)) "every verdict-producing command appends"
      [ "check-term"; "refine"; "analyze"; "chaos" ]
      (List.map (fun r -> r.Ledger.cmd) rs);
    List.iter
      (fun r -> Alcotest.(check bool) "all green" true r.Ledger.ok)
      rs);
  Sys.remove led

let test_cli_report_diff_detects_flip () =
  if not (Sys.file_exists cli_exe) then Alcotest.skip ();
  let before = Filename.temp_file "tfiris_led_a" ".jsonl" in
  let after = Filename.temp_file "tfiris_led_b" ".jsonl" in
  Sys.remove before;
  Sys.remove after;
  Ledger.append ~path:before sample_record;
  Ledger.append ~path:after
    { sample_record with Ledger.verdict = "stuck"; ok = false };
  (* same ledger on both sides: clean, exit 0 *)
  Alcotest.(check int) "no changes -> exit 0" 0
    (sh "%s report --diff %s %s > /dev/null" cli_exe (Filename.quote before)
       (Filename.quote before));
  (* injected verdict flip: exit 1 *)
  Alcotest.(check int) "verdict flip -> exit 1" 1
    (sh "%s report --diff %s %s > /dev/null" cli_exe (Filename.quote before)
       (Filename.quote after));
  (* summary mode exits 0 and renders *)
  Alcotest.(check int) "summary exits 0" 0
    (sh "%s report %s > /dev/null" cli_exe (Filename.quote before));
  Sys.remove before;
  Sys.remove after

let test_cli_progress_jsonl () =
  if not (Sys.file_exists cli_exe) then Alcotest.skip ();
  let out = Filename.temp_file "tfiris_prog" ".jsonl" in
  Alcotest.(check int) "run with progress" 0
    (sh
       "%s check-term -e '(rec f n. if n = 0 then 0 else f (n - 1)) 100' \
        --progress=every:50,%s > /dev/null 2>&1"
       cli_exe (Filename.quote out));
  let lines =
    String.split_on_char '\n' (read_file out)
    |> List.filter (fun l -> String.trim l <> "")
  in
  Alcotest.(check bool) "heartbeats written" true (List.length lines >= 2);
  List.iter
    (fun line ->
      match Json.of_string line with
      | Error e -> Alcotest.failf "heartbeat unparseable: %s" e
      | Ok j ->
        Alcotest.(check (option string)) "schema" (Some "tfiris-progress/1")
          (Option.bind (Json.member "schema" j) Json.to_str);
        Alcotest.(check (option string)) "component"
          (Some "termination.wp")
          (Option.bind (Json.member "component" j) Json.to_str))
    lines;
  Sys.remove out

let suite =
  [
    Alcotest.test_case "run record golden" `Quick test_record_golden;
    Alcotest.test_case "record round-trip" `Quick test_record_roundtrip;
    Alcotest.test_case "ill-typed consumed entries refused" `Quick
      test_consumed_strict;
    Alcotest.test_case "cached marker: bytes, round-trip, key-neutral" `Quick
      test_cached_field;
    Alcotest.test_case "content key stability" `Quick
      test_content_key_stability;
    Alcotest.test_case "content key injective on corpus" `Quick
      test_content_key_injective_on_corpus;
    Alcotest.test_case "content keys match committed golden" `Quick
      test_content_key_corpus_golden;
    test_content_key_injective_prop;
    Alcotest.test_case "append/load round-trip" `Quick
      test_append_load_roundtrip;
    Alcotest.test_case "concurrent appends are line-atomic" `Quick
      test_append_concurrent;
    Alcotest.test_case "corrupt ledger refused" `Quick test_load_malformed;
    Alcotest.test_case "summaries per key" `Quick test_summarize;
    Alcotest.test_case "per-pass analysis grouping" `Quick test_pass_summary;
    Alcotest.test_case "unstable verdicts surface" `Quick
      test_summarize_unstable;
    Alcotest.test_case "diff classifies changes" `Quick
      test_diff_classification;
    Alcotest.test_case "time regressions are advisory" `Quick
      test_diff_time_only_is_advisory;
    Alcotest.test_case "mem regressions: advisory then gated" `Quick
      test_diff_mem_regression;
    Alcotest.test_case "mem gate floor and missing baselines" `Quick
      test_diff_mem_floor_and_missing;
    Alcotest.test_case "summary medians allocated words" `Quick
      test_summarize_alloc;
    Alcotest.test_case "budget remaining fraction" `Quick test_remaining_frac;
    Alcotest.test_case "deterministic heartbeat sequence" `Quick
      test_heartbeat_deterministic;
    Alcotest.test_case "heartbeat phases and gauges" `Quick
      test_heartbeat_phase_and_gauges;
    Alcotest.test_case "disabled span is Off" `Quick
      test_heartbeat_disabled_is_free;
    Alcotest.test_case "sink errors contained" `Quick
      test_heartbeat_sink_errors_contained;
    Alcotest.test_case "heartbeat JSON golden" `Quick test_heartbeat_json;
    Alcotest.test_case "explore emits gauges" `Quick test_explore_heartbeats;
    Alcotest.test_case "wp emits budget fraction" `Quick test_wp_heartbeats;
    Alcotest.test_case "refinement driver emits heartbeats" `Quick
      test_refine_heartbeats;
    Alcotest.test_case "cli: ledger keys stable" `Quick
      test_cli_ledger_keys_stable;
    Alcotest.test_case "cli: every command appends" `Quick
      test_cli_ledger_all_commands;
    Alcotest.test_case "cli: report --diff detects flip" `Quick
      test_cli_report_diff_detects_flip;
    Alcotest.test_case "cli: --progress writes JSONL" `Quick
      test_cli_progress_jsonl;
    test_load_mutated_prop;
  ]
