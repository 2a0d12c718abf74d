(* Observability: the tracer (span nesting, sinks, serialisation
   round-trips), the metrics registry, and the property tying the
   interpreter's metrics to its classic stats and trace. *)

open Tfiris
open Support
module Trace = Obs.Trace
module Metrics = Obs.Metrics
module Json = Obs.Json
module Budget = Robust.Budget
module Q = QCheck2

let test_span_nesting () =
  let (), evs =
    with_memory_trace (fun () ->
        Trace.with_span "outer" (fun () ->
            Trace.instant "tick" ~attrs:[ ("n", Trace.I 1) ];
            Trace.with_span "inner" (fun () -> Trace.instant "tock")))
  in
  let shape =
    List.map (fun ev -> (ev.Trace.name, ev.Trace.phase, ev.Trace.depth)) evs
  in
  Alcotest.(check int) "event count" 6 (List.length evs);
  let expect =
    Trace.
      [
        ("outer", Span_begin, 0);
        ("tick", Instant, 1);
        ("inner", Span_begin, 1);
        ("tock", Instant, 2);
        ("inner", Span_end, 1);
        ("outer", Span_end, 0);
      ]
  in
  if shape <> expect then Alcotest.fail "span nesting shape mismatch";
  (* timestamps are non-decreasing *)
  let rec mono = function
    | a :: (b :: _ as rest) ->
      Int64.compare a.Trace.ts_ns b.Trace.ts_ns <= 0 && mono rest
    | _ -> true
  in
  Alcotest.(check bool) "timestamps monotone" true (mono evs)

(* An exception unwinds the depth and the GC stack: the next span
   opens at depth 0, and with GC sampling on both closes carry their
   [gc.*] delta and leave the stack empty. *)
let test_span_exception_safety () =
  Obs.Telemetry.set_spans true;
  let (), evs =
    Fun.protect
      ~finally:(fun () -> Obs.Telemetry.set_spans false)
      (fun () ->
        with_memory_trace (fun () ->
            (try Trace.with_span "doomed" (fun () -> failwith "boom")
             with Failure _ -> ());
            Trace.with_span "after" (fun () -> ())))
  in
  let shape =
    List.map (fun ev -> (ev.Trace.name, ev.Trace.phase, ev.Trace.depth)) evs
  in
  Alcotest.(check bool)
    "span closed on exception, next span at depth 0" true
    (shape
    = Trace.
        [
          ("doomed", Span_begin, 0);
          ("doomed", Span_end, 0);
          ("after", Span_begin, 0);
          ("after", Span_end, 0);
        ]);
  List.iter
    (fun ev ->
      if ev.Trace.phase = Trace.Span_end then
        Alcotest.(check bool)
          (ev.Trace.name ^ " close carries gc attrs") true
          (List.mem_assoc "gc.alloc_w" ev.Trace.attrs))
    evs;
  Alcotest.(check int) "gc stack popped" 0 (List.length !Trace.gc_stack)

let test_disabled_is_silent () =
  let sink, contents = Trace.memory_sink () in
  let prev = Trace.install sink in
  Trace.set_enabled false;
  let r = Trace.with_span "quiet" (fun () -> 41 + 1) in
  Trace.instant "quiet-too";
  Trace.restore prev;
  Alcotest.(check int) "with_span passes result through" 42 r;
  Alcotest.(check int) "no events when disabled" 0 (List.length (contents ()))

let test_ring_buffer () =
  let (), evs =
    with_memory_trace ~capacity:4 (fun () ->
        for i = 1 to 6 do
          Trace.instant (string_of_int i)
        done)
  in
  Alcotest.(check (list string))
    "ring keeps last [capacity], oldest first" [ "3"; "4"; "5"; "6" ]
    (List.map (fun ev -> ev.Trace.name) evs)

(* ---------- serialisation ---------- *)

let ev_testable =
  let pp ppf (ev : Trace.event) =
    Format.fprintf ppf "%s@%Ld d%d" ev.name ev.ts_ns ev.depth
  in
  Alcotest.testable pp ( = )

let test_jsonl_roundtrip () =
  let mk name phase ts d attrs =
    Trace.{ name; phase; ts_ns = Int64.of_int ts; depth = d; attrs }
  in
  let evs =
    [
      mk "a" Trace.Span_begin 10 0 [ ("i", Trace.I 3); ("s", Trace.S "x\"y\n") ];
      mk "b" Trace.Instant 11 1 [ ("f", Trace.F 2.5); ("b", Trace.B true) ];
      mk "a" Trace.Span_end 12 0 [];
    ]
  in
  List.iter
    (fun ev ->
      let line = Json.to_string (Trace.json_of_event ev) in
      match Json.of_string line with
      | Error e -> Alcotest.failf "reparse failed: %s (%s)" e line
      | Ok j -> (
        match Trace.event_of_json j with
        | None -> Alcotest.failf "event_of_json failed on %s" line
        | Some ev' -> Alcotest.check ev_testable "round-trip" ev ev'))
    evs

let test_jsonl_sink_file () =
  let path = Filename.temp_file "tfiris_trace" ".jsonl" in
  let oc = open_out path in
  let prev = Trace.install (Trace.jsonl_sink oc) in
  ignore
    (Shl.Interp.exec ~budget:(Budget.of_steps 1_000)
       (Shl.Parser.parse_exn "1 + 2 * 3"));
  Trace.restore prev;
  close_out oc;
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> ());
  close_in ic;
  Sys.remove path;
  let lines = List.rev !lines in
  Alcotest.(check bool) "at least one event" true (List.length lines >= 2);
  List.iter
    (fun line ->
      match Json.of_string line with
      | Error e -> Alcotest.failf "bad JSONL line: %s (%s)" e line
      | Ok j ->
        if Trace.event_of_json j = None then
          Alcotest.failf "line is not an event: %s" line)
    lines

(* ---------- sink goldens ----------

   The serialized forms are consumed by external tools (flamegraph.pl
   feeds, chrome://tracing, log processors), so the exact bytes are
   golden-tested: string escaping per RFC 8259 (quotes, backslashes,
   control characters, non-ASCII passthrough), nested and zero-duration
   spans.  Timestamps are pinned via the pluggable clock. *)

let test_json_escaping_golden () =
  let ev =
    Trace.
      {
        name = "q\"b\\s\nn\001c\t\xc3\xa9";
        phase = Trace.Instant;
        ts_ns = 5L;
        depth = 1;
        attrs = [ ("k\"", Trace.S "v\\") ];
      }
  in
  let line = Json.to_string (Trace.json_of_event ev) in
  Alcotest.(check string) "escaped exactly"
    "{\"ev\":\"instant\",\"name\":\"q\\\"b\\\\s\\nn\\u0001c\\t\xc3\xa9\",\"ts\":5,\"depth\":1,\"attrs\":{\"k\\\"\":\"v\\\\\"}}"
    line;
  (* and the reader undoes every escape *)
  match Result.map Trace.event_of_json (Json.of_string line) with
  | Ok (Some ev') -> Alcotest.check ev_testable "round-trip" ev ev'
  | Ok None -> Alcotest.fail "reparse lost the event"
  | Error e -> Alcotest.failf "reparse failed: %s" e

let test_jsonl_sink_golden () =
  let path = Filename.temp_file "tfiris_jsonl" ".jsonl" in
  let oc = open_out path in
  let prev = Trace.install (Trace.jsonl_sink oc) in
  with_pinned_clock ~start:1000 ~step:500 (fun () ->
      Trace.with_span "outer"
        ~attrs:[ ("s", Trace.S "a\"b\\c") ]
        (fun () ->
          Trace.instant "tick";
          Trace.with_span "inner" (fun () -> ())));
  Trace.restore prev;
  close_out oc;
  let got = read_file path in
  Sys.remove path;
  Alcotest.(check string) "jsonl bytes"
    ("{\"ev\":\"begin\",\"name\":\"outer\",\"ts\":1000,\"depth\":0,\"attrs\":{\"s\":\"a\\\"b\\\\c\"}}\n"
   ^ "{\"ev\":\"instant\",\"name\":\"tick\",\"ts\":1500,\"depth\":1,\"attrs\":{}}\n"
   ^ "{\"ev\":\"begin\",\"name\":\"inner\",\"ts\":2000,\"depth\":1,\"attrs\":{}}\n"
   ^ "{\"ev\":\"end\",\"name\":\"inner\",\"ts\":2500,\"depth\":1,\"attrs\":{}}\n"
   ^ "{\"ev\":\"end\",\"name\":\"outer\",\"ts\":3000,\"depth\":0,\"attrs\":{}}\n")
    got

(* The Chrome [trace_event] array: produced by the same sink the CLI's
   --trace=FILE:chrome uses; must parse as a JSON array of objects with
   the fields chrome://tracing requires, with balanced B/E phases. *)
let check_chrome_file ?(require = fun _ -> true) ~ctx path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  match Json.of_string s with
  | Error e -> Alcotest.failf "%s: chrome trace unparseable: %s" ctx e
  | Ok (Json.List events) ->
    Alcotest.(check bool) (ctx ^ ": non-empty") true (events <> []);
    let depth = ref 0 in
    List.iter
      (fun ev ->
        let str k =
          match Option.bind (Json.member k ev) Json.to_str with
          | Some s -> s
          | None -> Alcotest.failf "%s: event missing %s" ctx k
        in
        let _name = str "name" in
        let ph = str "ph" in
        (match ph with
        | "B" -> incr depth
        | "E" ->
          decr depth;
          if !depth < 0 then Alcotest.failf "%s: E before B" ctx
        | "i" | "M" -> ()
        | ph -> Alcotest.failf "%s: unexpected phase %s" ctx ph);
        (* metadata events carry no timestamp *)
        if ph <> "M" && Json.member "ts" ev = None then
          Alcotest.failf "%s: no ts" ctx)
      events;
    Alcotest.(check int) (ctx ^ ": spans balanced") 0 !depth;
    if not (require events) then
      Alcotest.failf "%s: required event missing" ctx
  | Ok _ -> Alcotest.failf "%s: chrome trace is not an array" ctx

let has_event name events =
  List.exists
    (fun ev -> Option.bind (Json.member "name" ev) Json.to_str = Some name)
    events

let test_chrome_sink_golden () =
  (* a constant clock: nested spans collapse to zero duration, which
     chrome://tracing must still accept (balanced B/E at equal ts) *)
  let path = Filename.temp_file "tfiris_chrome" ".json" in
  let oc = open_out path in
  let prev = Trace.install (Trace.chrome_sink oc) in
  with_pinned_clock ~start:7000 ~step:0 (fun () ->
      Trace.span_begin "a";
      Trace.span_begin "z";
      Trace.span_end "z";
      Trace.span_end "a";
      Trace.instant "w" ~attrs:[ ("q", Trace.S "x\"y") ]);
  Trace.restore prev;
  close_out oc;
  let got = read_file path in
  Alcotest.(check string) "chrome bytes"
    ("[{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\"args\":{\"name\":\"tfiris\"}},\n"
   ^ "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\"args\":{\"name\":\"domain 0\"}},\n"
   ^ "{\"name\":\"a\",\"ph\":\"B\",\"ts\":7.0,\"pid\":1,\"tid\":0},\n"
   ^ "{\"name\":\"z\",\"ph\":\"B\",\"ts\":7.0,\"pid\":1,\"tid\":0},\n"
   ^ "{\"name\":\"z\",\"ph\":\"E\",\"ts\":7.0,\"pid\":1,\"tid\":0},\n"
   ^ "{\"name\":\"a\",\"ph\":\"E\",\"ts\":7.0,\"pid\":1,\"tid\":0},\n"
   ^ "{\"name\":\"w\",\"ph\":\"i\",\"ts\":7.0,\"pid\":1,\"tid\":0,\"s\":\"t\",\"args\":{\"q\":\"x\\\"y\"}}]\n")
    got;
  (* and the structural checker still accepts it *)
  check_chrome_file ~ctx:"golden" path ~require:(has_event "w");
  Sys.remove path

let test_chrome_sink () =
  let path = Filename.temp_file "tfiris_trace" ".json" in
  let oc = open_out path in
  let prev = Trace.install (Trace.chrome_sink oc) in
  (* a driver run, so the trace contains per-decision spans *)
  ignore (Refinement.Memo_spec.certify (Refinement.Memo_spec.fib_instance 3));
  Trace.restore prev;
  close_out oc;
  check_chrome_file ~ctx:"chrome_sink" path
    ~require:(fun evs -> has_event "driver.decide" evs && has_event "driver.run" evs);
  Sys.remove path

(* End to end through the binary: `tfiris run --trace=FILE:chrome`. *)
let test_cli_chrome_trace () =
  if not (Sys.file_exists cli_exe) then Alcotest.skip ();
  let path = Filename.temp_file "tfiris_cli_trace" ".json" in
  let cmd =
    Printf.sprintf "%s run --trace=%s:chrome -e '1 + 2 * 3' > /dev/null" cli_exe
      (Filename.quote path)
  in
  Alcotest.(check int) "cli exit code" 0 (Sys.command cmd);
  check_chrome_file ~ctx:"cli" path ~require:(has_event "shl.exec");
  Sys.remove path

(* ---------- metrics ---------- *)

(* Snapshot/reset touch the process-global registry the instrumented
   libraries also use, so tests bracket carefully. *)
let with_metrics f =
  Metrics.reset ();
  Metrics.set_enabled true;
  Fun.protect f ~finally:(fun () ->
      Metrics.set_enabled false;
      Metrics.reset ())

let find_hist name =
  List.find_map
    (function Metrics.Histogram_v (n, d) when n = name -> Some d | _ -> None)
    (Metrics.snapshot ())

let test_metrics_basic () =
  with_metrics (fun () ->
      let c = Metrics.counter "test.obs.counter" in
      let g = Metrics.gauge "test.obs.gauge" in
      let h = Metrics.histogram "test.obs.hist" in
      Metrics.incr c;
      Metrics.add c 4;
      Metrics.set g 2.5;
      List.iter (Metrics.observe_int h) [ 0; 1; 2; 3; 1000 ];
      let snap = Metrics.snapshot () in
      Alcotest.(check (option int))
        "counter" (Some 5)
        (Metrics.counter_value snap "test.obs.counter");
      (match find_hist "test.obs.hist" with
      | None -> Alcotest.fail "histogram missing from snapshot"
      | Some d ->
        Alcotest.(check int) "hist count" 5 d.Metrics.count;
        Alcotest.(check (float 1e-9)) "hist sum" 1006. d.Metrics.sum;
        Alcotest.(check (float 1e-9)) "hist max" 1000. d.Metrics.max;
        (* 0 and 1 share the [0,1] bucket; 2, 3, 1000 land in (1,2],
           (2,4] and (512,1024] *)
        Alcotest.(check int) "hist buckets" 4 (List.length d.Metrics.buckets));
      Metrics.reset ();
      let snap = Metrics.snapshot () in
      Alcotest.(check (option int))
        "reset zeroes" (Some 0)
        (Metrics.counter_value snap "test.obs.counter");
      Alcotest.(check bool)
        "reset zeroes the gauge" true
        (List.mem (Metrics.Gauge_v ("test.obs.gauge", 0.)) snap);
      let empty = { Metrics.count = 0; sum = 0.; max = 0.; buckets = [] } in
      Alcotest.(check bool)
        "reset empties the histogram" true
        (find_hist "test.obs.hist" = Some empty);
      Metrics.observe_int h 3;
      Alcotest.(check bool)
        "one observation after reset counts once" true
        (find_hist "test.obs.hist"
        = Some { Metrics.count = 1; sum = 3.; max = 3.; buckets = [ (4., 1) ] }))

let test_metrics_disabled () =
  Metrics.reset ();
  Metrics.set_enabled false;
  let c = Metrics.counter "test.obs.counter" in
  Metrics.incr c;
  Metrics.add c 10;
  Alcotest.(check (option int))
    "no updates when disabled" (Some 0)
    (Metrics.counter_value (Metrics.snapshot ()) "test.obs.counter")

let test_metrics_idempotent_registration () =
  let c1 = Metrics.counter "test.obs.same" in
  let c2 = Metrics.counter "test.obs.same" in
  Alcotest.(check bool) "same instrument" true (c1 == c2);
  match Metrics.gauge "test.obs.same" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "kind clash not rejected"

let test_metrics_json () =
  with_metrics (fun () ->
      let c = Metrics.counter "test.obs.counter" in
      Metrics.add c 7;
      let j = Metrics.to_json (Metrics.snapshot ()) in
      match Json.of_string (Json.to_string j) with
      | Error e -> Alcotest.failf "metrics JSON unparseable: %s" e
      | Ok j' ->
        Alcotest.(check (option int))
          "value survives" (Some 7)
          (Option.bind (Json.member "test.obs.counter" j') Json.to_int))

(* The documented bucket boundaries ("Bucket boundaries" in metrics.ml):
   base-2 exponential, bucket 0 is (-inf, 1], bucket i is (2^(i-1), 2^i],
   bucket 31 absorbs the overflow.  Exact at every power of two, so
   [hist_sums]/bucketed data are bit-for-bit reproducible. *)
let test_hist_bucket_boundaries () =
  let check_b ctx exp v =
    Alcotest.(check int) ctx exp (Metrics.bucket_of v)
  in
  check_b "negatives -> 0" 0 (-3.);
  check_b "0 -> 0" 0 0.;
  check_b "1 -> 0" 0 1.;
  check_b "just above 1 -> 1" 1 (Float.succ 1.);
  check_b "2 -> 1" 1 2.;
  check_b "3 -> 2" 2 3.;
  for i = 1 to 30 do
    check_b (Printf.sprintf "2^%d lands in bucket %d" i i) i
      (Float.pow 2. (float_of_int i))
  done;
  for i = 1 to 29 do
    check_b
      (Printf.sprintf "2^%d + ulp spills into bucket %d" i (i + 1))
      (i + 1)
      (Float.succ (Float.pow 2. (float_of_int i)))
  done;
  check_b "above 2^30 overflows into 31" 31 (Float.succ (Float.pow 2. 30.));
  check_b "huge values stay in 31" 31 1e30;
  Alcotest.(check (float 0.)) "bound of bucket 0" 1.
    (Metrics.bucket_upper_bound 0);
  Alcotest.(check (float 0.)) "bound of bucket 5" 32.
    (Metrics.bucket_upper_bound 5);
  Alcotest.(check (float 0.)) "bound of the overflow bucket"
    (Float.pow 2. 31.)
    (Metrics.bucket_upper_bound 31);
  (match Metrics.bucket_upper_bound 32 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "out-of-range bound not rejected");
  match Metrics.bucket_upper_bound (-1) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative bound not rejected"

(* The snapshot reports each non-empty bucket under exactly
   [bucket_upper_bound]. *)
let test_hist_snapshot_bounds () =
  with_metrics (fun () ->
      let h = Metrics.histogram "test.obs.bounds" in
      List.iter (Metrics.observe h) [ 1.; 2.; Float.succ 2. ];
      match
        List.find_map
          (function
            | Metrics.Histogram_v ("test.obs.bounds", d) -> Some d | _ -> None)
          (Metrics.snapshot ())
      with
      | None -> Alcotest.fail "histogram missing"
      | Some d ->
        Alcotest.(check (list (pair (float 0.) int)))
          "buckets keyed by inclusive upper bound"
          [ (1., 1); (2., 1); (4., 1) ]
          d.Metrics.buckets)

(* Quantile estimates from the exponential buckets: the estimate is the
   inclusive upper bound of the bucket holding the rank-⌈q·count⌉
   observation — exact when observations sit on bucket boundaries
   (powers of two), otherwise an overshoot of at most one bucket. *)
let test_hist_quantiles () =
  with_metrics (fun () ->
      let h = Metrics.histogram "test.obs.quant" in
      List.iter (Metrics.observe_int h) [ 1; 2; 3; 1000 ];
      match find_hist "test.obs.quant" with
      | None -> Alcotest.fail "histogram missing"
      | Some d ->
        (* rank ⌈0.5·4⌉ = 2 falls in (1,2]; rank ⌈0.95·4⌉ = 4 is the
           1000 observation, kept in (512,1024] *)
        Alcotest.(check (option (float 0.)))
          "p50" (Some 2.)
          (Metrics.estimate_quantile d 0.5);
        Alcotest.(check (option (float 0.)))
          "p95" (Some 1024.)
          (Metrics.estimate_quantile d 0.95);
        Alcotest.(check (option (float 0.)))
          "p100 tops out at the last bucket" (Some 1024.)
          (Metrics.estimate_quantile d 1.0);
        Alcotest.(check (option (float 0.)))
          "p0 clamps to rank 1" (Some 1.)
          (Metrics.estimate_quantile d 0.))

let test_hist_quantiles_boundary_exact () =
  with_metrics (fun () ->
      let h = Metrics.histogram "test.obs.quant2" in
      List.iter (Metrics.observe_int h) [ 4; 4; 4; 4 ];
      match find_hist "test.obs.quant2" with
      | None -> Alcotest.fail "histogram missing"
      | Some d ->
        Alcotest.(check (option (float 0.)))
          "boundary observation is exact (p50)" (Some 4.)
          (Metrics.estimate_quantile d 0.5);
        Alcotest.(check (option (float 0.)))
          "boundary observation is exact (p95)" (Some 4.)
          (Metrics.estimate_quantile d 0.95))

(* The satellite fix: an empty histogram used to estimate NaN (0/0 on
   the rank), which leaked into the JSON rendering as [null] fields.
   It now has no estimate at all, and both renderings omit p50/p95. *)
let test_hist_quantiles_empty () =
  let d = { Metrics.count = 0; sum = 0.; max = 0.; buckets = [] } in
  Alcotest.(check (option (float 0.)))
    "empty histogram has no estimate" None
    (Metrics.estimate_quantile d 0.5);
  with_metrics (fun () ->
      let _h = Metrics.histogram "test.obs.quant_empty" in
      let snap = Metrics.snapshot () in
      let text = Format.asprintf "%a" Metrics.render_text snap in
      let has sub =
        let rec go i =
          i + String.length sub <= String.length text
          && (String.sub text i (String.length sub) = sub || go (i + 1))
        in
        go 0
      in
      Alcotest.(check bool) "text omits p50" false (has "p50<=");
      Alcotest.(check bool) "text omits p95" false (has "p95<=");
      match
        Result.bind
          (Json.of_string (Json.to_string (Metrics.to_json snap)))
          (fun j ->
            Option.to_result ~none:"hist object missing"
              (Json.member "test.obs.quant_empty" j))
      with
      | Error e -> Alcotest.fail e
      | Ok hist ->
        Alcotest.(check bool)
          "json omits p50_le" true
          (Json.member "p50_le" hist = None);
        Alcotest.(check bool)
          "json omits p95_le" true
          (Json.member "p95_le" hist = None))

(* The estimates ride along in both renderings. *)
let test_hist_quantiles_rendered () =
  with_metrics (fun () ->
      let h = Metrics.histogram "test.obs.quant3" in
      List.iter (Metrics.observe_int h) [ 1; 2; 3; 1000 ];
      let snap = Metrics.snapshot () in
      let text = Format.asprintf "%a" Metrics.render_text snap in
      let has sub =
        let rec go i =
          i + String.length sub <= String.length text
          && (String.sub text i (String.length sub) = sub || go (i + 1))
        in
        go 0
      in
      Alcotest.(check bool) "text shows p50<=" true (has "p50<=2");
      Alcotest.(check bool) "text shows p95<=" true (has "p95<=1024");
      match
        Result.bind
          (Json.of_string (Json.to_string (Metrics.to_json snap)))
          (fun j ->
            Option.to_result ~none:"hist object missing"
              (Json.member "test.obs.quant3" j))
      with
      | Error e -> Alcotest.fail e
      | Ok hist ->
        let field k =
          match Option.bind (Json.member k hist) Json.to_float with
          | Some f -> f
          | None -> Alcotest.failf "field %s missing" k
        in
        Alcotest.(check (float 0.)) "json p50_le" 2. (field "p50_le");
        Alcotest.(check (float 0.)) "json p95_le" 1024. (field "p95_le"))

(* ---------- snapshot determinism ---------- *)

(* Snapshots render sorted by instrument name, whatever the
   registration order — the Hashtbl's iteration order must never leak
   into the golden outputs. *)
let test_snapshot_sorted_golden () =
  with_metrics (fun () ->
      (* registered deliberately out of order *)
      let z = Metrics.counter "test.order.z" in
      let a = Metrics.counter "test.order.a" in
      let m = Metrics.gauge "test.order.m" in
      Metrics.add z 3;
      Metrics.incr a;
      Metrics.set m 2.;
      let snap = Metrics.snapshot () in
      let names = List.map Metrics.entry_name snap in
      Alcotest.(check (list string))
        "whole snapshot is name-sorted"
        (List.sort String.compare names)
        names;
      let text = Format.asprintf "%a" Metrics.render_text snap in
      Alcotest.(check string) "text golden, sorted"
        ("test.order.a            1\n"
       ^ "test.order.m            2\n"
       ^ "test.order.z            3\n")
        text)

(* ---------- JSON writer audit (satellite S2) ---------- *)

(* Every control character below U+0020 must leave the writer escaped —
   RFC 8259 forbids them raw inside strings — and survive a round-trip
   through our own reader. *)
let test_json_control_chars_exhaustive () =
  for i = 0 to 0x1F do
    let s = Printf.sprintf "a%cb" (Char.chr i) in
    let line = Json.to_string (Json.Str s) in
    String.iter
      (fun c ->
        if Char.code c < 0x20 then
          Alcotest.failf "U+%04X emitted raw (in %S)" i line)
      line;
    match Json.of_string line with
    | Ok (Json.Str s') ->
      Alcotest.(check string) (Printf.sprintf "U+%04X round-trips" i) s s'
    | Ok _ -> Alcotest.failf "U+%04X reparsed as a non-string" i
    | Error e -> Alcotest.failf "U+%04X unparseable: %s" i e
  done

(* RFC 8259 has no representation for non-finite numbers; the writer
   used to print [nan]/[inf] literally, producing invalid JSON.  They
   now degrade to [null]. *)
let test_json_nonfinite_floats () =
  Alcotest.(check string)
    "nan -> null" "null"
    (Json.to_string (Json.Float Float.nan));
  Alcotest.(check string)
    "inf -> null" "null"
    (Json.to_string (Json.Float Float.infinity));
  Alcotest.(check string)
    "-inf -> null" "null"
    (Json.to_string (Json.Float Float.neg_infinity));
  match Json.of_string (Json.to_string (Json.Obj [ ("x", Json.Float Float.nan) ])) with
  | Ok j ->
    Alcotest.(check bool)
      "nan field reparses as null" true
      (Json.member "x" j = Some Json.Null)
  | Error e -> Alcotest.failf "nan-bearing object unparseable: %s" e

(* The indexed reader against the option-per-byte reader it replaced
   ([Ref_json]): the same value, or the same error message, on printed
   documents and on byte-mutated ones.  Values compare with [compare],
   so a float reads equal to itself even if it is a NaN. *)
let json_matches_reference name count gen =
  QCheck_alcotest.to_alcotest
    (Q.Test.make ~count ~name ~print:(Printf.sprintf "%S") gen (fun doc ->
         let got = Json.of_string doc and want = Ref_json.of_string doc in
         compare got want = 0
         ||
         let show = function
           | Ok j -> "Ok " ^ Json.to_string j
           | Error m -> "Error " ^ m
         in
         Q.Test.fail_reportf "reader: %s@.reference: %s" (show got) (show want)))

let json_reference_prop =
  json_matches_reference "Json.of_string = reference (printed)" 1000
    (Q.Gen.map Json.to_string Gen.json)

let json_reference_mutant_prop =
  json_matches_reference "Json.of_string = reference (mutated)" 3000
    Gen.json_mutant

(* The anti-drift property ISSUE.md asks for: on arbitrary generated
   programs, the per-kind step counters published to the registry sum to
   exactly [stats.steps], which in turn equals the step count implied by
   [Interp.trace] at the same fuel. *)
let interp_counters_agree =
  QCheck_alcotest.to_alcotest
    (Q.Test.make ~count:120 ~name:"interp metrics = stats = |trace| - 1"
       ~print:Gen.print_shl Gen.shl_expr (fun e ->
         let fuel = 500 in
         Metrics.reset ();
         Metrics.set_enabled true;
         let _, stats = Shl.Interp.exec ~budget:(Budget.of_steps fuel) e in
         Metrics.set_enabled false;
         let snap = Metrics.snapshot () in
         Metrics.reset ();
         let from_metrics =
           Metrics.sum_counters snap ~prefix:"shl.interp.steps."
         in
         let from_trace = List.length (Shl.Interp.trace ~fuel e) - 1 in
         from_metrics = stats.Shl.Interp.steps && stats.Shl.Interp.steps = from_trace))

(* The satellite fix: fuel is an exact bound, so a program finishing in
   exactly [fuel] steps reports Value, not Out_of_fuel. *)
let test_fuel_exact () =
  let e = Shl.Parser.parse_exn "1 + 2 + 3" in
  let n = Option.get (Shl.Interp.steps_to_value e) in
  (match Shl.Interp.exec ~budget:(Budget.of_steps n) e with
  | Shl.Interp.Value (Shl.Ast.Int 6, _), stats ->
    Alcotest.(check int) "all steps counted" n stats.Shl.Interp.steps
  | Shl.Interp.Value _, _ -> Alcotest.fail "wrong value"
  | (Shl.Interp.Stuck _ | Shl.Interp.Out_of_fuel _), _ ->
    Alcotest.fail "exact fuel must suffice");
  (match Shl.Interp.exec ~budget:(Budget.of_steps (n - 1)) e with
  | Shl.Interp.Out_of_fuel _, _ -> ()
  | _ -> Alcotest.fail "fuel - 1 must be Out_of_fuel");
  Alcotest.(check int)
    "trace at exact fuel is complete" (n + 1)
    (List.length (Shl.Interp.trace ~fuel:n e));
  Alcotest.(check bool)
    "diverges_beyond is strict" false
    (Shl.Interp.diverges_beyond n e)

let suite =
  [
    Alcotest.test_case "span nesting" `Quick test_span_nesting;
    Alcotest.test_case "span exception safety" `Quick test_span_exception_safety;
    Alcotest.test_case "disabled tracer is silent" `Quick test_disabled_is_silent;
    Alcotest.test_case "memory sink ring buffer" `Quick test_ring_buffer;
    Alcotest.test_case "jsonl round-trip" `Quick test_jsonl_roundtrip;
    Alcotest.test_case "json escaping golden" `Quick test_json_escaping_golden;
    Alcotest.test_case "jsonl sink golden" `Quick test_jsonl_sink_golden;
    Alcotest.test_case "chrome sink golden" `Quick test_chrome_sink_golden;
    Alcotest.test_case "jsonl file sink" `Quick test_jsonl_sink_file;
    Alcotest.test_case "chrome sink (driver spans)" `Quick test_chrome_sink;
    Alcotest.test_case "cli --trace=chrome" `Quick test_cli_chrome_trace;
    Alcotest.test_case "metrics basics" `Quick test_metrics_basic;
    Alcotest.test_case "metrics disabled" `Quick test_metrics_disabled;
    Alcotest.test_case "metrics registration" `Quick
      test_metrics_idempotent_registration;
    Alcotest.test_case "metrics JSON" `Quick test_metrics_json;
    Alcotest.test_case "histogram bucket boundaries" `Quick
      test_hist_bucket_boundaries;
    Alcotest.test_case "histogram snapshot bounds" `Quick
      test_hist_snapshot_bounds;
    Alcotest.test_case "histogram quantile estimates" `Quick
      test_hist_quantiles;
    Alcotest.test_case "quantiles exact at bucket boundaries" `Quick
      test_hist_quantiles_boundary_exact;
    Alcotest.test_case "quantiles on empty histogram" `Quick
      test_hist_quantiles_empty;
    Alcotest.test_case "quantiles in text and JSON renderings" `Quick
      test_hist_quantiles_rendered;
    Alcotest.test_case "snapshot sorted by name (golden)" `Quick
      test_snapshot_sorted_golden;
    Alcotest.test_case "json control chars escape exhaustively" `Quick
      test_json_control_chars_exhaustive;
    Alcotest.test_case "json non-finite floats -> null" `Quick
      test_json_nonfinite_floats;
    json_reference_prop;
    json_reference_mutant_prop;
    interp_counters_agree;
    Alcotest.test_case "fuel bound is exact" `Quick test_fuel_exact;
  ]
