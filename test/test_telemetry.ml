(* Obs.Telemetry: GC samples and deltas, the mem wire form, the shared
   memory-gate comparator, span-level GC attributes through the tracer,
   and the bench gates end to end through the built harness. *)

open Tfiris
open Support
module Trace = Obs.Trace
module Telemetry = Obs.Telemetry
module Json = Obs.Json

(* ---------- measure arithmetic ---------- *)

let s ~minor ~promoted ~major ~mgc ~mjgc ~comp ~top =
  {
    Telemetry.s_minor_words = minor;
    s_promoted_words = promoted;
    s_major_words = major;
    s_minor_collections = mgc;
    s_major_collections = mjgc;
    s_compactions = comp;
    s_top_heap_words = top;
  }

let test_measure_arithmetic () =
  let before =
    s ~minor:1_000. ~promoted:100. ~major:200. ~mgc:1 ~mjgc:0 ~comp:0 ~top:500
  in
  let after =
    s ~minor:5_000. ~promoted:300. ~major:700. ~mgc:4 ~mjgc:1 ~comp:1 ~top:900
  in
  let m = Telemetry.measure ~before ~after in
  (* allocated = minor + major - promoted = 4000 + 500 - 200 *)
  Alcotest.(check int) "allocated words" 4_300 m.Telemetry.allocated_words;
  Alcotest.(check int) "minor delta" 4_000 m.Telemetry.minor_words;
  Alcotest.(check int) "major delta" 500 m.Telemetry.major_words;
  Alcotest.(check int) "promoted delta" 200 m.Telemetry.promoted_words;
  Alcotest.(check int) "minor gcs" 3 m.Telemetry.minor_collections;
  Alcotest.(check int) "major gcs" 1 m.Telemetry.major_collections;
  Alcotest.(check int) "compactions" 1 m.Telemetry.compactions;
  (* the high-water mark is the closing absolute, not a delta *)
  Alcotest.(check int) "top heap" 900 m.Telemetry.top_heap_words

(* A real allocation is visible in the delta: the sampled counters are
   live, not cached. *)
let test_measure_real_allocation () =
  let before = Telemetry.sample () in
  ignore (Sys.opaque_identity (Array.make 100_000 0.));
  let m = Telemetry.measure ~before ~after:(Telemetry.sample ()) in
  Alcotest.(check bool)
    "a 100k-word array shows up" true
    (m.Telemetry.allocated_words >= 100_000)

(* ---------- wire form ---------- *)

let sample_mem =
  {
    Telemetry.allocated_words = 4_300;
    minor_words = 4_000;
    major_words = 500;
    promoted_words = 200;
    minor_collections = 3;
    major_collections = 1;
    compactions = 0;
    top_heap_words = 900;
  }

let test_mem_json_golden () =
  Alcotest.(check string) "mem block bytes"
    ("{\"allocated_words\":4300,\"minor_words\":4000,\"major_words\":500,"
   ^ "\"promoted_words\":200,\"minor_collections\":3,\"major_collections\":1,"
   ^ "\"compactions\":0,\"top_heap_words\":900}")
    (Json.to_string (Telemetry.to_json sample_mem));
  match
    Result.map Telemetry.of_json
      (Json.of_string (Json.to_string (Telemetry.to_json sample_mem)))
  with
  | Ok (Some m) ->
    Alcotest.(check bool) "round-trips exactly" true (m = sample_mem)
  | Ok None -> Alcotest.fail "reader lost the block"
  | Error e -> Alcotest.failf "reparse failed: %s" e

let test_mem_json_partial () =
  (* allocated_words is the one required field *)
  Alcotest.(check bool)
    "no allocated_words -> None" true
    (Telemetry.of_json (Json.Obj [ ("minor_words", Json.Int 5) ]) = None);
  match Telemetry.of_json (Json.Obj [ ("allocated_words", Json.Int 7) ]) with
  | None -> Alcotest.fail "minimal block refused"
  | Some m ->
    Alcotest.(check int) "allocated kept" 7 m.Telemetry.allocated_words;
    Alcotest.(check int) "missing fields default to 0" 0
      m.Telemetry.minor_collections

let test_pp_words () =
  let p w = Format.asprintf "%a" Telemetry.pp_words w in
  Alcotest.(check string) "plain words" "999w" (p 999);
  Alcotest.(check string) "kilowords" "12.3kw" (p 12_345);
  Alcotest.(check string) "megawords" "3.46Mw" (p 3_456_789);
  Alcotest.(check string) "gigawords" "2.00Gw" (p 2_000_000_000)

(* ---------- the gate comparator ---------- *)

let test_regressions_comparator () =
  let baseline = [ ("a", 1_000_000); ("b", 1_000_000); ("z", 0) ] in
  let current =
    [ ("a", 3_000_000); ("b", 1_000_050); ("c", 9_999_999); ("z", 200_000) ]
  in
  let regs =
    Telemetry.regressions ~threshold:1.5 ~min_delta_w:100_000 ~baseline current
  in
  let names = List.map (fun r -> r.Telemetry.r_name) regs in
  (* "a" trips both conditions; "b" grew 50 words (under the floor);
     "c" has no baseline (skipped); "z" grew from zero, which is an
     infinite ratio over the floor *)
  Alcotest.(check (list string)) "regressed labels" [ "a"; "z" ] names;
  (match regs with
  | a :: _ ->
    Alcotest.(check int) "baseline words" 1_000_000 a.Telemetry.r_base_w;
    Alcotest.(check int) "current words" 3_000_000 a.Telemetry.r_cur_w;
    Alcotest.(check (float 1e-9)) "ratio" 3.0 a.Telemetry.r_ratio
  | [] -> Alcotest.fail "no regressions");
  (match List.rev regs with
  | z :: _ ->
    Alcotest.(check bool) "zero baseline -> infinite ratio" true
      (z.Telemetry.r_ratio = Float.infinity)
  | [] -> Alcotest.fail "no regressions");
  (* under the ratio but over the floor: not a regression *)
  Alcotest.(check int) "ratio condition required" 0
    (List.length
       (Telemetry.regressions ~threshold:1.5 ~min_delta_w:100_000
          ~baseline:[ ("d", 10_000_000) ]
          [ ("d", 11_000_000) ]))

(* ---------- span-level GC attributes ---------- *)

let attr name (ev : Trace.event) = List.assoc_opt name ev.Trace.attrs

let test_span_gc_attrs () =
  Telemetry.set_spans true;
  let (), evs =
    Fun.protect
      ~finally:(fun () -> Telemetry.set_spans false)
      (fun () ->
        with_memory_trace (fun () ->
            Trace.with_span "outer" (fun () ->
                Trace.with_span "alloc" (fun () ->
                    ignore (Sys.opaque_identity (Array.make 50_000 0.))))))
  in
  match List.rev evs with
  | outer_end :: alloc_end :: _ ->
    Alcotest.(check string) "outermost close last" "outer"
      outer_end.Trace.name;
    (* both closes carry the GC attrs; the inner span's delta covers
       (at least) the array it allocated *)
    List.iter
      (fun (ev : Trace.event) ->
        match (attr "gc.alloc_w" ev, attr "gc.minor_gcs" ev, attr "gc.major_gcs" ev) with
        | Some (Trace.I _), Some (Trace.I _), Some (Trace.I _) -> ()
        | _ -> Alcotest.failf "span %s close missing gc attrs" ev.Trace.name)
      [ outer_end; alloc_end ];
    (match attr "gc.alloc_w" alloc_end with
    | Some (Trace.I w) ->
      Alcotest.(check bool) "inner delta sees the array" true (w >= 50_000)
    | _ -> Alcotest.fail "gc.alloc_w missing")
  | _ -> Alcotest.fail "expected four events"

let test_span_gc_attrs_off_by_default () =
  let (), evs =
    with_memory_trace (fun () -> Trace.with_span "quiet" (fun () -> ()))
  in
  List.iter
    (fun (ev : Trace.event) ->
      Alcotest.(check bool)
        (ev.Trace.name ^ " carries no gc attrs when sampling is off")
        true
        (attr "gc.alloc_w" ev = None))
    evs

(* ---------- the bench gates, end to end ---------- *)

(* A deterministic "leaky build" (--mem-handicap) must fail `bench
   --compare` on the memory gate; one changed work counter must fail the
   counter gate; and bad input — a baseline that cannot be read or
   checked, a run outside the repository root, an unwritable output, an
   unknown option — must be refused (exit 2) before any experiment
   runs. *)
let bench_exe = Filename.concat (Sys.getcwd ()) "../bench/main.exe"

(* The bench reads examples/shl relative to its working directory; by
   default run it from the build root, where the test's deps place the
   examples. *)
let bench ?(cwd = "..") args =
  Printf.sprintf "cd %s && %s %s" (Filename.quote cwd) bench_exe args

let test_bench_mem_gate () =
  if not (Sys.file_exists bench_exe) then Alcotest.skip ();
  let dir = Filename.temp_file "tfiris_bench" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  let base = Filename.concat dir "base.json" in
  let out = Filename.concat dir "out.json" in
  let bad = Filename.concat dir "bad.json" in
  let stdout_f = Filename.concat dir "stdout" in
  let stderr_f = Filename.concat dir "stderr" in
  let write path contents =
    Out_channel.with_open_bin path (fun oc -> output_string oc contents)
  in
  (* the constant time gate may trip too (the leak also costs wall
     time), so only the lines of the gate under test are compared *)
  let stderr_lines ~prefix =
    String.split_on_char '\n' (read_file stderr_f)
    |> List.filter (String.starts_with ~prefix)
  in
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun f -> Sys.remove (Filename.concat dir f))
        (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () ->
      Alcotest.(check int) "baseline run" 0
        (sh "%s > /dev/null"
           (bench
              (Printf.sprintf "--out=%s --save-baseline=%s"
                 (Filename.quote out) (Filename.quote base))));
      (* a 50M-word leak in e1 against the always-armed 4x gate: exit 3 *)
      Alcotest.(check int) "the leaky build fails" 3
        (sh "%s > /dev/null 2> %s"
           (bench
              (Printf.sprintf "--out=%s --compare=%s --mem-handicap=e1:50000000"
                 (Filename.quote out) (Filename.quote base)))
           (Filename.quote stderr_f));
      Alcotest.(check (list string))
        "the memory gate names e1"
        [ "bench: allocation regression in: e1" ]
        (stderr_lines ~prefix:"bench: allocation regression in: ");
      (* the first work counter of e1 off by one in the baseline: the
         counter gate fails and names the experiment, the counter and
         both values *)
      let edited = ref None in
      let bump = function
        | Json.Obj (("name", Json.Str "e1") :: _ as fields) ->
          Json.Obj
            (List.map
               (function
                 | "counters", Json.Obj ((c, Json.Int n) :: rest) ->
                   edited := Some (c, n);
                   ("counters", Json.Obj ((c, Json.Int (n + 1)) :: rest))
                 | f -> f)
               fields)
        | e -> e
      in
      (match Json.of_string (read_file base) with
      | Ok (Json.Obj fields) ->
        write bad
          (Json.to_string
             (Json.Obj
                (List.map
                   (function
                     | "experiments", Json.List es ->
                       ("experiments", Json.List (List.map bump es))
                     | f -> f)
                   fields)))
      | _ -> Alcotest.fail "saved baseline unreadable");
      (match !edited with
      | None -> Alcotest.fail "e1 recorded no counter to edit"
      | Some (c, n) ->
        Alcotest.(check int) "changed counter fails the gate" 3
          (sh "%s > /dev/null 2> %s"
             (bench
                (Printf.sprintf "--out=%s --compare=%s" (Filename.quote out)
                   (Filename.quote bad)))
             (Filename.quote stderr_f));
        let prefix = "bench: work counter changed: " in
        Alcotest.(check (list string))
          "the error names e1, the counter and both values"
          [ Printf.sprintf "%se1 %s: %d vs baseline %d" prefix c n (n + 1) ]
          (stderr_lines ~prefix));
      (* bad input: refused up front, naming what is wrong *)
      let refused ?cwd what args ~prefix =
        Alcotest.(check int) (what ^ ": exit 2") 2
          (sh "%s > %s 2> %s" (bench ?cwd args) (Filename.quote stdout_f)
             (Filename.quote stderr_f));
        Alcotest.(check string) (what ^ ": no experiment ran") ""
          (read_file stdout_f);
        let err = read_file stderr_f in
        Alcotest.(check string) (what ^ ": error names the input") prefix
          (String.sub err 0 (min (String.length prefix) (String.length err)))
      in
      List.iter
        (fun (what, contents) ->
          (match contents with
          | Some c -> write bad c
          | None -> if Sys.file_exists bad then Sys.remove bad);
          refused what
            (Printf.sprintf "--out=%s --compare=%s" (Filename.quote out)
               (Filename.quote bad))
            ~prefix:(Printf.sprintf "bench: %s: " bad))
        [
          ("missing file", None);
          ("not JSON", Some "{\"schema\":");
          ( "wrong schema",
            Some {|{"schema":"tfiris-bench-obs/4","experiments":[]}|} );
          ("no experiments list", Some {|{"schema":"tfiris-bench-obs/5"}|});
        ];
      refused "outside the repository root" ~cwd:dir
        (Printf.sprintf "--out=%s" (Filename.quote out))
        ~prefix:
          "bench: examples/shl: not found (run from the repository root)\n";
      (* a regular file as the parent directory: unwritable even as root *)
      let unwritable = Filename.concat base "out.json" in
      refused "unwritable --out"
        (Printf.sprintf "--out=%s" (Filename.quote unwritable))
        ~prefix:(Printf.sprintf "bench: %s: " unwritable);
      refused "unwritable --save-baseline"
        (Printf.sprintf "--out=%s --save-baseline=%s" (Filename.quote out)
           (Filename.quote unwritable))
        ~prefix:(Printf.sprintf "bench: %s: " unwritable);
      refused "unknown option --quick"
        (Printf.sprintf "--quick --out=%s" (Filename.quote out))
        ~prefix:"usage: ";
      (* the written document carries the /5 schema with per-experiment
         trial times and mem blocks *)
      match Json.of_string (read_file out) with
      | Error e -> Alcotest.failf "bench output unparseable: %s" e
      | Ok doc ->
        Alcotest.(check (option string)) "schema" (Some "tfiris-bench-obs/5")
          (Option.bind (Json.member "schema" doc) Json.to_str);
        let exps =
          Option.bind (Json.member "experiments" doc) Json.to_list
          |> Option.value ~default:[]
        in
        Alcotest.(check bool) "experiments present" true (exps <> []);
        List.iter
          (fun e ->
            (match Option.bind (Json.member "mem" e) Telemetry.of_json with
            | Some _ -> ()
            | None -> Alcotest.fail "experiment without a mem block");
            Alcotest.(check (option int)) "three trials" (Some 3)
              (Option.map List.length
                 (Option.bind (Json.member "trials_ns" e) Json.to_list)))
          exps)

let suite =
  [
    Alcotest.test_case "measure arithmetic" `Quick test_measure_arithmetic;
    Alcotest.test_case "measure sees real allocation" `Quick
      test_measure_real_allocation;
    Alcotest.test_case "mem block golden + round-trip" `Quick
      test_mem_json_golden;
    Alcotest.test_case "mem block partial reads" `Quick test_mem_json_partial;
    Alcotest.test_case "pp_words" `Quick test_pp_words;
    Alcotest.test_case "gate comparator semantics" `Quick
      test_regressions_comparator;
    Alcotest.test_case "span closes carry GC deltas" `Quick test_span_gc_attrs;
    Alcotest.test_case "GC spans off by default" `Quick
      test_span_gc_attrs_off_by_default;
    Alcotest.test_case "bench memory gate end to end" `Quick
      test_bench_mem_gate;
  ]
