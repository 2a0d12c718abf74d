(* The static analyzer: scope/shape lint, the dataflow engine and its
   two domains, termination-measure inference (cross-validated against
   the transfinite credit checker of §5), and the race detector
   (cross-validated against exhaustive interleaving exploration). *)

module Shl = Tfiris.Shl
module An = Tfiris.Analysis
module F = An.Finding
module Ord = Tfiris.Ord
module Wp = Tfiris.Termination.Wp
module Prog = Tfiris_shl.Prog
module Conc = Tfiris_shl.Conc

let parse = Shl.Parser.parse_exn

let ids fs = List.map (fun f -> f.F.id) fs
let has_id id fs = List.mem id (ids fs)
let count_id id fs = List.length (List.filter (fun f -> f.F.id = id) fs)

let severity_of id fs =
  match List.find_opt (fun f -> f.F.id = id) fs with
  | Some f -> Some f.F.severity
  | None -> None

(* ---------- scope and shape lint ---------- *)

let test_scope () =
  let fs = An.Scope.run (parse "x + 1") in
  Alcotest.(check (option bool)) "unbound var is an error" (Some true)
    (Option.map (fun s -> s = F.Error) (severity_of "scope/unbound-var" fs));
  let fs = An.Scope.run (parse "let x = 1 in let x = 2 in x") in
  Alcotest.(check bool) "shadowing reported" true
    (has_id "scope/shadowed-binder" fs);
  Alcotest.(check (option bool)) "shadowing is info only" (Some true)
    (Option.map (fun s -> s = F.Info) (severity_of "scope/shadowed-binder" fs));
  let fs = An.Scope.run (parse "let x = 1 in 2") in
  Alcotest.(check bool) "unused let reported" true (has_id "scope/unused-let" fs);
  let fs = An.Scope.run (parse "let _x = 1 in 2") in
  Alcotest.(check bool) "underscore binders exempt" false
    (has_id "scope/unused-let" fs);
  Alcotest.(check bool) "closed program is clean" true
    (An.Scope.run (parse "let x = 1 in x + 1") = [])

let test_shape () =
  let stuck src id =
    let fs = An.Scope.run (parse src) in
    Alcotest.(check bool) (id ^ " on " ^ src) true (has_id id fs);
    Alcotest.(check (option bool)) (id ^ " is an error") (Some true)
      (Option.map (fun s -> s = F.Error) (severity_of id fs))
  in
  stuck "1 2" "shape/stuck-app";
  stuck "fst 1" "shape/stuck-proj";
  stuck "if 1 then 2 else 3" "shape/stuck-if";
  stuck "!true" "shape/stuck-load";
  stuck "1 := 2" "shape/stuck-store";
  stuck "match 1 with | inl x -> x | inr y -> y end" "shape/stuck-case";
  stuck "1 + true" "shape/stuck-op";
  stuck "(fun x -> x) = (fun y -> y)" "shape/stuck-op";
  (* = is total on closure-free values: not flagged *)
  Alcotest.(check bool) "eq on ground shapes is fine" false
    (has_id "shape/stuck-op" (An.Scope.run (parse "1 = true")))

(* ---------- constant propagation ---------- *)

let test_constprop () =
  let fs = An.Domains.constprop (parse "if true then 1 else 2") in
  Alcotest.(check int) "dead else-branch" 1
    (count_id "constprop/unreachable-branch" fs);
  let fs = An.Domains.constprop (parse "let x = 2 in if x < 1 then 1 else 2") in
  Alcotest.(check int) "constants propagate through let" 1
    (count_id "constprop/unreachable-branch" fs);
  let fs = An.Domains.constprop (parse "1 + true") in
  Alcotest.(check bool) "constant type clash" true
    (has_id "constprop/stuck-op" fs);
  (* an unknown condition reports nothing: cas yields an unknown bool *)
  let fs =
    An.Domains.constprop
      (parse "let r = ref 0 in if cas r 0 1 then 1 else 2")
  in
  Alcotest.(check int) "unknown condition: no dead branch" 0
    (count_id "constprop/unreachable-branch" fs);
  (* the memoized fib of §4.3 is clean: the heap summary must survive
     the memoized closure being applied only through the table *)
  let memo_fib = Shl.Ast.App (Prog.memo_of Prog.fib_template, Shl.Ast.int_ 10) in
  Alcotest.(check (list string)) "memo fib clean under constprop" []
    (ids (An.Domains.constprop memo_fib))

(* ---------- intervals ---------- *)

let test_interval () =
  (* division is total, so even a definite zero divisor only warns *)
  let fs = An.Domains.interval (parse "1 quot 0") in
  Alcotest.(check (option bool)) "definite division by zero" (Some true)
    (Option.map (fun s -> s = F.Warning) (severity_of "interval/div-by-zero" fs));
  (* divisor in [0,3]: possible, a warning *)
  let fs =
    An.Domains.interval
      (parse
         "let r = ref false in let b = cas r false true in let d = if b then \
          0 else 3 in 10 quot d")
  in
  Alcotest.(check (option bool)) "possible division by zero" (Some true)
    (Option.map (fun s -> s = F.Warning) (severity_of "interval/div-by-zero" fs));
  (* fully unknown divisor: silence, not a warning storm *)
  let fs =
    An.Domains.interval (parse "let r = ref 5 in let d = !r - !r in 10 quot 7 + d")
  in
  Alcotest.(check bool) "known nonzero divisor is fine" false
    (has_id "interval/div-by-zero" fs);
  let fs = An.Domains.interval (parse "let s = ref 7 in !(s +l (0 - 1))") in
  Alcotest.(check (option bool)) "definite negative pointer offset" (Some true)
    (Option.map (fun s -> s = F.Error) (severity_of "interval/ptr-offset" fs));
  let fs =
    An.Domains.interval
      (parse
         "let r = ref false in let b = cas r false true in let d = if b then \
          0 - 1 else 3 in let s = ref 7 in !(s +l d)")
  in
  Alcotest.(check (option bool)) "possibly negative pointer offset" (Some true)
    (Option.map (fun s -> s = F.Warning) (severity_of "interval/ptr-offset" fs));
  (* pointer arithmetic must not resurrect stale contents: the
     incremented pointer may cross into a sibling allocation *)
  let slen_walk =
    parse
      "let s = ref 97 in let _z = ref 0 in (rec slen p. if !p = 0 then 0 \
       else slen (p +l 1) + 1) s"
  in
  Alcotest.(check int) "no false dead branches through +l" 0
    (count_id "interval/unreachable-branch" (An.Domains.interval slen_walk)
    + count_id "constprop/unreachable-branch" (An.Domains.constprop slen_walk))

(* ---------- pointer-⊤ heap havoc ----------

   Regression pins for the [Any_sites] escape hatch: once a program
   writes through a pointer whose allocation sites are unknown (any
   pointer arithmetic result), the whole abstract heap must go to top —
   every later load returns ⊤ and no branch may be proved dead from
   remembered heap contents.  Both mutation forms (Store and Cas) take
   the same hatch. *)

let test_any_sites_havoc () =
  (* baseline: through a *known* site, heap contents are tracked and
     the comparison folds, killing the else branch *)
  let fs = An.Domains.constprop (parse "let r = ref 7 in if !r = 7 then 1 else 2") in
  Alcotest.(check int) "known site: heap contents fold" 1
    (count_id "constprop/unreachable-branch" fs);
  (* same program, but a store through [r +l 0] — an Any_sites pointer —
     intervenes: the write may hit any cell, so [!r] must be ⊤ and the
     branch stays live even though the store wrote the same value *)
  let fs =
    An.Domains.constprop
      (parse "let r = ref 7 in let p = r +l 0 in p := 7; if !r = 7 then 1 else 2")
  in
  Alcotest.(check int) "store through unknown pointer havocs the heap" 0
    (count_id "constprop/unreachable-branch" fs);
  (* Cas through an unknown pointer is a write too: same havoc *)
  let fs =
    An.Domains.constprop
      (parse
         "let r = ref 7 in let p = r +l 0 in let _c = cas p 7 7 in if !r = 7 \
          then 1 else 2")
  in
  Alcotest.(check int) "cas through unknown pointer havocs the heap" 0
    (count_id "constprop/unreachable-branch" fs);
  (* havoc poisons *reads*, not the value lattice itself: a definite
     zero divisor before the havoc is still reported *)
  let fs =
    An.Domains.interval
      (parse "let r = ref 7 in let p = r +l 0 in p := 0; 1 quot 0")
  in
  Alcotest.(check (option bool)) "pre-existing facts survive havoc"
    (Some true)
    (Option.map (fun s -> s = F.Warning) (severity_of "interval/div-by-zero" fs));
  (* and a load after havoc is ⊤, not stale: no div-by-zero claim even
     though the last remembered store was 0 *)
  let fs =
    An.Domains.interval
      (parse "let r = ref 7 in let p = r +l 0 in p := 0; 10 quot !r")
  in
  Alcotest.(check bool) "post-havoc load is top, not stale" false
    (has_id "interval/div-by-zero" fs)

(* ---------- termination measures, checked against §5 credits ---------- *)

let verdict_of name e =
  let reports = An.Term_measure.infer e in
  match
    List.find_opt (fun r -> r.An.Term_measure.fn_name = Some name) reports
  with
  | Some r -> Some r.An.Term_measure.verdict
  | None -> None

let measure_of name e =
  match verdict_of name e with
  | Some (An.Term_measure.Decreasing m) -> Some m
  | _ -> None

(* The candidate measure class tells us which transfinite credit should
   make the §5 checker accept: a nat or pointer-walk measure is learned
   from ω, a lexicographic ω·a+b measure from ω². *)
let credits_for = function
  | An.Term_measure.M_nat | An.Term_measure.M_omega -> Ord.omega
  | An.Term_measure.M_omega_ab | An.Term_measure.M_omega_sq ->
    Ord.omega_pow (Ord.of_int 2)

let accepts ~credits ?heap e =
  match Wp.run ~credits (Wp.adaptive ()) (Shl.Step.config ?heap e) with
  | Wp.Terminated _ -> true
  | Wp.Rejected _ -> false

let test_termination_inference () =
  let fib = parse "rec fib n. if n < 2 then n else fib (n - 1) + fib (n - 2)" in
  Alcotest.(check bool) "fib: nat measure" true
    (measure_of "fib" fib = Some An.Term_measure.M_nat);
  let slen = parse "rec slen p. if !p = 0 then 0 else slen (p +l 1) + 1" in
  Alcotest.(check bool) "slen: omega measure" true
    (measure_of "slen" slen = Some An.Term_measure.M_omega);
  let ack =
    parse
      "rec a m. fun n -> if m = 0 then n + 1 else if n = 0 then a (m - 1) 1 \
       else a (m - 1) (a m (n - 1))"
  in
  Alcotest.(check bool) "ackermann: lexicographic measure" true
    (measure_of "a" ack = Some An.Term_measure.M_omega_ab);
  (* e_loop: the §2 counterexample program never decreases *)
  (match verdict_of "loop" Prog.e_loop with
  | Some (An.Term_measure.Non_decreasing (_ :: _)) -> ()
  | _ -> Alcotest.fail "e_loop: expected a non-decreasing verdict");
  let fs = An.Term_measure.run Prog.e_loop in
  Alcotest.(check (option bool)) "e_loop warning" (Some true)
    (Option.map (fun s -> s = F.Warning) (severity_of "term/non-decreasing" fs));
  (* memo_rec's recursion escapes through the table *)
  let fs = An.Term_measure.run Prog.memo_rec in
  Alcotest.(check bool) "memo_rec: escaping recursion" true
    (has_id "term/escaping-recursion" fs)

let test_termination_credits_agree () =
  (* each inferred measure class is validated by running the program
     under the §5 transfinite credit checker with the ordinal the class
     prescribes — the static analysis and the dynamic certificate agree *)
  let fib = parse "rec fib n. if n < 2 then n else fib (n - 1) + fib (n - 2)" in
  let m = Option.get (measure_of "fib" fib) in
  Alcotest.(check bool) "fib 12 terminates within its class" true
    (accepts ~credits:(credits_for m) (Shl.Ast.App (fib, Shl.Ast.int_ 12)));
  let slen = parse "rec slen p. if !p = 0 then 0 else slen (p +l 1) + 1" in
  let m = Option.get (measure_of "slen" slen) in
  let l, heap = Prog.alloc_string "abcde" Shl.Heap.empty in
  Alcotest.(check bool) "slen over a heap string terminates" true
    (accepts ~credits:(credits_for m) ~heap
       (Shl.Ast.App (slen, Shl.Ast.Val (Shl.Ast.Loc l))));
  let ack =
    parse
      "rec a m. fun n -> if m = 0 then n + 1 else if n = 0 then a (m - 1) 1 \
       else a (m - 1) (a m (n - 1))"
  in
  let m = Option.get (measure_of "a" ack) in
  Alcotest.(check bool) "ackermann 2 2 terminates within omega^2" true
    (accepts ~credits:(credits_for m)
       (parse
          "(rec a m. fun n -> if m = 0 then n + 1 else if n = 0 then a (m - \
           1) 1 else a (m - 1) (a m (n - 1))) 2 2"));
  (* and the non-decreasing program is rejected on those same budgets *)
  Alcotest.(check bool) "e_loop rejected" false
    (match
       Wp.run ~credits:(Ord.omega_pow (Ord.of_int 2))
         (Wp.adaptive ~fuel:20_000 ())
         (Shl.Step.config Prog.e_loop)
     with
    | Wp.Terminated _ -> true
    | Wp.Rejected _ -> false)

(* ---------- races, checked against exhaustive exploration ---------- *)

let static_races e = (An.Races.analyze e).An.Races.races
let dynamic_races e = An.Races.dynamic_races e

let test_race_soundness () =
  (* soundness: on every program whose exhaustive interleaving
     exploration exhibits a race, the static detector reports one;
     on the correctly locked program it reports none *)
  let programs =
    [
      ("racy_incr", Conc.racy_incr);
      ("locked_incr", Conc.locked_incr);
      ("spinlock_pair", Conc.spinlock_pair);
      ("spinlock_pair_racy_read", Conc.spinlock_pair_racy_read);
      ("fork_store", parse "let c = ref 0 in fork (c := 1); c := 2; !c");
    ]
  in
  let total_dyn = ref 0 and total_static = ref 0 in
  List.iter
    (fun (name, e) ->
      let dyn = dynamic_races e in
      let stat = static_races e in
      total_dyn := !total_dyn + List.length dyn;
      total_static := !total_static + List.length stat;
      if dyn <> [] then
        Alcotest.(check bool)
          (name ^ ": dynamic races are statically covered")
          true (stat <> []))
    programs;
  (* precision: the static overapproximation on this corpus stays
     within a small constant factor of the dynamically real races *)
  Alcotest.(check bool) "some dynamic races exist in the corpus" true
    (!total_dyn > 0);
  Alcotest.(check bool) "static counts bound dynamic counts" true
    (!total_static >= !total_dyn);
  Alcotest.(check bool) "static over-reporting is bounded (< 5x)" true
    (!total_static < 5 * !total_dyn)

let test_race_precision () =
  (* the locked program has no static findings at all: cas-only
     synchronization is understood *)
  Alcotest.(check int) "locked_incr: no false positives" 0
    (List.length (static_races Conc.locked_incr));
  (* racy_incr: the counter race includes a write/write pair *)
  let fs = An.Races.run Conc.racy_incr in
  Alcotest.(check bool) "racy_incr has a write-write race" true
    (has_id "race/write-write" fs);
  Alcotest.(check bool) "race findings are warnings" true
    (List.for_all (fun f -> f.F.severity = F.Warning) fs);
  (* sequential programs race with nobody *)
  Alcotest.(check int) "sequential program: no races" 0
    (List.length (static_races (parse "let r = ref 0 in r := 1; !r")))

(* The fork-free shortcut of [Races.run] against the full fixpoint. *)
let races_same_as_analyze e =
  let got = An.Races.run e
  and expected = An.Races.findings (An.Races.analyze e) in
  got = expected
  || QCheck2.Test.fail_reportf "analyze [%s], run [%s]"
       (String.concat "; " (ids expected))
       (String.concat "; " (ids got))

let races_oracle_prop name gen =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:200 ~name ~print:Gen.print_shl gen
       races_same_as_analyze)

(* A fork reachable only through a function body still spawns a second
   context, so the shortcut must look inside [rec] bodies. *)
let test_race_fork_in_rec () =
  let e =
    parse
      "let c = ref 0 in (rec f n. if n = 0 then fork (c := 1) else f (n - \
       1)) 2; c := 2; !c"
  in
  let fs = An.Races.run e in
  Alcotest.(check bool) "fork inside rec: write-write race reported" true
    (has_id "race/write-write" fs);
  Alcotest.(check bool) "same findings as the full analysis" true
    (fs = An.Races.findings (An.Races.analyze e))

(* In [rec z z. body] the parameter shadows the function name, as in
   [Step]: the dataflow passes bind the parameter over the function, and
   the race pass's flow-insensitive points-to sets give [z] both, which
   only over-approximates. *)
let test_rec_binder_order () =
  let fs =
    An.Domains.constprop (parse "(rec f f. if f = 2 then 1 else 0) 2")
  in
  Alcotest.(check int) "constprop: the parameter is the constant 2" 1
    (count_id "constprop/unreachable-branch" fs);
  Alcotest.(check bool) "constprop: no stuck comparison" false
    (has_id "constprop/stuck-op" fs);
  let e = parse "let c = ref 0 in fork ((rec z z. z := 1) c); c := 2; !c" in
  Alcotest.(check bool) "races: the dynamic race is real" true
    (dynamic_races e <> []);
  Alcotest.(check bool) "races: statically covered" true (static_races e <> [])

(* ---------- the driver: reports, JSON, and the examples ---------- *)

let test_analyzer_driver () =
  let r = An.Analyzer.analyze ~label:"clean" (parse "let x = 1 in x + 1") in
  Alcotest.(check int) "clean program: no findings" 0
    (List.length r.An.Analyzer.findings);
  Alcotest.(check bool) "clean program passes every gate" false
    (An.Analyzer.fails ~fail_on:F.Info r);
  Alcotest.(check int) "all passes ran" (List.length An.Analyzer.pass_names)
    (List.length r.An.Analyzer.timings);
  let r = An.Analyzer.analyze ~label:"bad" (parse "x + 1") in
  Alcotest.(check bool) "errors trip the error gate" true
    (An.Analyzer.fails ~fail_on:F.Error r);
  let r =
    An.Analyzer.analyze ~passes:[ "scope" ] ~label:"one-pass" (parse "1 quot 0")
  in
  Alcotest.(check int) "pass selection honored" 1
    (List.length r.An.Analyzer.timings);
  Alcotest.(check bool) "interval findings absent when deselected" false
    (has_id "interval/div-by-zero" r.An.Analyzer.findings)

let test_case_studies_clean () =
  (* the paper's positive case studies analyze without errors or
     warnings — memoization (§4.3) and nested memoized Levenshtein *)
  let memo_fib = Shl.Ast.App (Prog.memo_of Prog.fib_template, Shl.Ast.int_ 10) in
  let check name e =
    let r = An.Analyzer.analyze ~label:name e in
    Alcotest.(check int) (name ^ ": no errors") 0
      (F.count_severity r.An.Analyzer.findings F.Error);
    Alcotest.(check int) (name ^ ": no warnings") 0
      (F.count_severity r.An.Analyzer.findings F.Warning)
  in
  check "memo_fib" memo_fib;
  check "mlev" Prog.mlev;
  check "rlev" Prog.rlev

let test_golden_json () =
  (* the §2 counterexample: a non-decreasing loop with a constant-true
     condition — the report is stable, golden-tested JSON *)
  let r = An.Analyzer.analyze ~label:"e_loop" Prog.e_loop in
  let got = Tfiris.Obs.Json.to_string (An.Analyzer.report_to_json_stable r) in
  let expect =
    {|{"program":"e_loop","findings":[{"id":"term/non-decreasing","severity":"warning","path":"/fn/fn/body/body/then","message":"recursive call to loop does not visibly decrease its argument"},{"id":"constprop/unreachable-branch","severity":"warning","path":"/fn/fn/body/body/else","message":"condition is always true; else-branch is unreachable"},{"id":"interval/unreachable-branch","severity":"warning","path":"/fn/fn/body/body/else","message":"condition is always true; else-branch is unreachable"},{"id":"symheap/summary","severity":"info","path":"/fn/fn","message":"[approx] {emp} loop(f, x) {ret=() * junk}"}],"counts":{"error":0,"warning":3,"info":1}}|}
  in
  Alcotest.(check string) "e_loop golden report" expect got;
  let racy = parse "let c = ref 0 in fork (c := 1); c := 2; !c" in
  let r = An.Analyzer.analyze ~label:"fork_store" racy in
  let got = Tfiris.Obs.Json.to_string (An.Analyzer.report_to_json_stable r) in
  let expect =
    {|{"program":"fork_store","findings":[{"id":"race/write-write","severity":"warning","path":"/in/rest/first","message":"possible data race on the cell allocated at /bound: write at /in/rest/first (main thread) vs write at /in/first/fork (thread forked at /in/first)"},{"id":"race/read-write","severity":"warning","path":"/in/rest/rest","message":"possible data race on the cell allocated at /bound: read at /in/rest/rest (main thread) vs write at /in/first/fork (thread forked at /in/first)"}],"counts":{"error":0,"warning":2,"info":0}}|}
  in
  Alcotest.(check string) "fork_store golden report" expect got

(* ---------- analyzer golden over generated let-chains ---------- *)

(* Let-chains in the shape of the time-to-verdict corpus, written out
   here: each defines its functions with [let] and adds up their
   results.  [memo_loop] is the pinned dataflow case: a store through an
   offset pointer (unknown sites, so the heap is havocked) followed by
   the event loop storing closures into its queue. *)
let memo_defs =
  "let map = fun u -> ref (inl ()) in let get = fun tbl k -> (rec go l. \
   match l with | inl u -> inl () | inr c -> if fst (fst c) = k then inr \
   (snd (fst c)) else go (snd c) end) !tbl in let set = fun tbl k v -> tbl \
   := inr ((k, v), !tbl) in let memo = fun t -> let tbl = map () in rec g y. \
   match get tbl y with | inl u -> let r = t g y in set tbl y r; r | inr r \
   -> r end in let mfib = memo (fun g n -> if n < 2 then n else g (n - 1) + \
   g (n - 2)) in "

let loop_defs =
  "let mk = fun u -> ref (inl ()) in let add = fun q f -> q := inr (f, !q) \
   in let pop = fun q -> match !q with | inl u -> inl () | inr c -> q := snd \
   c; inr (fst c) end in let run = rec run q. match pop q with | inl u -> () \
   | inr f -> f (); run q end in let q = mk () in let n = ref 0 in "

let loop_tasks =
  "add q (fun u -> n := !n + 3); add q (fun u -> add q (fun v -> n := !n + \
   4)); run q; "

let slen_defs =
  "let s0 = ref 104 in let s1 = ref 105 in let s2 = ref 33 in let z = ref 0 \
   in let slen = rec slen p. if !p = 0 then 0 else slen (p +l 1) + 1 in "

let sort_defs =
  "let ins = rec ins v. fun l -> match l with | inl u -> inr (v, inl ()) | \
   inr c -> if v <= fst c then inr (v, l) else inr (fst c, ins v (snd c)) \
   end in let srt = rec srt l. match l with | inl u -> inl () | inr c -> ins \
   (fst c) (srt (snd c)) end in let enc = rec enc l. match l with | inl u -> \
   0 | inr c -> fst c + 10 * enc (snd c) end in "

let ack_defs =
  "let ack = rec ack m. fun n -> if m = 0 then n + 1 else if n = 0 then ack \
   (m - 1) 1 else ack (m - 1) (ack m (n - 1)) in "

let memo_loop =
  parse
    ("let h = ref 1 in let h1 = ref 0 in (h +l 1) := 0; " ^ memo_defs
   ^ loop_defs ^ loop_tasks ^ "mfib 10 + !n")

let chain_programs =
  [
    ("memo", parse (memo_defs ^ "mfib 12 + mfib 7"));
    ("event_loop", parse (loop_defs ^ loop_tasks ^ "!n"));
    ("slen", parse (slen_defs ^ "slen s0"));
    ( "sort",
      parse (sort_defs ^ "enc (srt (inr (3, inr (1, inr (2, inl ())))))") );
    ("ackermann", parse (ack_defs ^ "ack 2 3"));
    ("memo_loop", memo_loop);
    ( "mixed",
      parse
        (slen_defs ^ memo_defs ^ sort_defs ^ ack_defs ^ loop_defs ^ loop_tasks
       ^ "slen s0 + mfib 9 + enc (srt (inr (2, inr (1, inl ())))) + ack 1 2 + \
          !n") );
  ]

(* Forty fixed-seed [Gen.shl_fn_chain] programs, then the chains above. *)
let golden_programs () =
  let rand = Random.State.make [| 20 |] in
  List.mapi
    (fun i e -> (Printf.sprintf "fn_chain_%02d" i, e))
    (QCheck2.Gen.generate ~n:40 ~rand Gen.shl_fn_chain)
  @ chain_programs

(* Two lines per program: the stable analyzer report and the
   bi-abduced summaries (tfiris-symheap/1). *)
let render_golden programs =
  let line j = Tfiris.Obs.Json.to_string j ^ "\n" in
  String.concat ""
    (List.map
       (fun (label, e) ->
         line (An.Analyzer.report_to_json_stable (An.Analyzer.analyze ~label e))
         ^ line (An.Biabd.to_json ~label (An.Biabd.check e)))
       programs)

(* On a mismatch the current output is written to a temporary file, so
   an intentional analyzer change can be reviewed with diff and copied
   over test/analyze_chains.golden. *)
let test_chains_golden () =
  let expected = Support.read_file "analyze_chains.golden" in
  let got = render_golden (golden_programs ()) in
  if got <> expected then begin
    let out = Filename.temp_file "analyze_chains" ".golden" in
    let oc = open_out_bin out in
    output_string oc got;
    close_out oc;
    let lines s = String.split_on_char '\n' s in
    let rec first_diff i = function
      | a :: r1, b :: r2 -> if a = b then first_diff (i + 1) (r1, r2) else i
      | _ -> i
    in
    Alcotest.failf "analyzer output differs from the golden at line %d; \
                    current output written to %s"
      (first_diff 1 (lines expected, lines got)) out
  end

let test_examples_analyze_clean () =
  (* every shipped example analyzes without errors *)
  let dir = "../examples/shl" in
  if not (Sys.file_exists dir) then Alcotest.skip ();
  let files =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".shl")
    |> List.sort compare
  in
  Alcotest.(check bool) "examples present" true (List.length files >= 5);
  List.iter
    (fun f ->
      let path = Filename.concat dir f in
      let ic = open_in_bin path in
      let src = really_input_string ic (in_channel_length ic) in
      close_in ic;
      let r = An.Analyzer.analyze ~label:f (parse src) in
      Alcotest.(check int) (f ^ ": no errors") 0
        (F.count_severity r.An.Analyzer.findings F.Error))
    files

(* ---------- the dataflow engine vs its plain round loop ---------- *)

module type ENGINE = sig
  type state

  val create : unit -> state
  val round : state -> Shl.Ast.expr -> unit
  val findings : state -> Shl.Ast.expr -> F.t list
end

(* The oracle for [analyze]: all [max_rounds] rounds run whether or not
   the last one moved a table, then the reporting pass. *)
let plain_loop (module E : ENGINE) e =
  let st = E.create () in
  for _ = 1 to An.Dataflow.max_rounds do
    E.round st e
  done;
  E.findings st e

let engines =
  [
    ( "constprop",
      An.Domains.constprop,
      (module An.Domains.Const_engine : ENGINE) );
    ( "interval",
      An.Domains.interval,
      (module An.Domains.Interval_engine : ENGINE) );
  ]

let same_as_plain_loop e =
  List.for_all
    (fun (name, analyze, engine) ->
      let got = analyze e and expected = plain_loop engine e in
      got = expected
      || QCheck2.Test.fail_reportf "%s: plain loop [%s], analyze [%s]" name
           (String.concat "; " (ids expected))
           (String.concat "; " (ids got)))
    engines

(* Rounds [analyze] ran on [e], per domain. *)
let rounds e =
  let module Metrics = Tfiris.Obs.Metrics in
  Metrics.reset ();
  Metrics.set_enabled true;
  Fun.protect ~finally:(fun () ->
      Metrics.set_enabled false;
      Metrics.reset ())
  @@ fun () ->
  List.map
    (fun (name, analyze, _) ->
      ignore (analyze e);
      let s = Metrics.snapshot () in
      Option.value ~default:0
        (Metrics.counter_value s ("analysis." ^ name ^ ".rounds")))
    engines

(* A store after the havoc cannot be observed, so the closures the event
   loop stores do not dirty a round: both domains stop well before the
   cap of 24. *)
let test_plain_loop_pinned () =
  Alcotest.(check bool) "memo_loop: same findings as the plain loop" true
    (same_as_plain_loop memo_loop);
  Alcotest.(check (list int)) "memo_loop: rounds (constprop, interval)"
    [ 3; 6 ] (rounds memo_loop);
  List.iter
    (fun (label, e) ->
      Alcotest.(check bool) (label ^ ": same findings as the plain loop") true
        (same_as_plain_loop e))
    chain_programs

(* [h] is only ever applied to ⊤ by the round's sweep until its own body
   loads it back out of [r] and calls it, in the second round, which
   moves no table.  From then on no round analyzes [h]'s body, so the
   reporting pass has no division finding: the clean round that set the
   flag must not stand in for it. *)
let test_plain_loop_first_call_in_clean_round () =
  let e =
    parse
      "let r = ref (fun x -> x) in let h = rec h n. ((!r) 0; r := h; 1 quot \
       0) in 0"
  in
  Alcotest.(check bool) "same findings as the plain loop" true
    (same_as_plain_loop e);
  Alcotest.(check (list int)) "rounds (constprop, interval)" [ 2; 2 ]
    (rounds e);
  Alcotest.(check (list string)) "no interval finding" []
    (ids (An.Domains.interval e))

let plain_loop_prop name gen =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:200 ~name ~print:Gen.print_shl gen
       same_as_plain_loop)

(* ---------- metrics integration ---------- *)

let test_metrics () =
  let module Metrics = Tfiris.Obs.Metrics in
  Metrics.reset ();
  Metrics.set_enabled true;
  Fun.protect ~finally:(fun () ->
      Metrics.set_enabled false;
      Metrics.reset ())
  @@ fun () ->
  ignore (An.Analyzer.analyze ~label:"m" (parse "x + 1"));
  let s = Metrics.snapshot () in
  let counter name = Option.value ~default:0 (Metrics.counter_value s name) in
  Alcotest.(check bool) "programs counted" true (counter "analysis.programs" >= 1);
  Alcotest.(check bool) "error findings counted" true
    (counter "analysis.findings.error" >= 1);
  Alcotest.(check bool) "per-pass timings recorded" true
    (List.exists
       (function
         | Metrics.Histogram_v ("analysis.pass.scope.wall_ns", h) ->
           h.Metrics.count >= 1
         | _ -> false)
       s)

(* ---------- end to end through the binary ---------- *)

let test_cli_analyze () =
  if not (Sys.file_exists Support.cli_exe) then Alcotest.skip ();
  let run args =
    Sys.command (Printf.sprintf "%s analyze %s > /dev/null" Support.cli_exe args)
  in
  Alcotest.(check int) "clean expression exits 0" 0
    (run "-e 'let x = 1 in x + 1'");
  Alcotest.(check int) "unbound variable trips --fail-on=error" 1
    (run "-e 'x + 1'");
  Alcotest.(check int) "warnings pass the default gate" 0
    (run "-e 'let y = 1 in 2'");
  Alcotest.(check int) "--fail-on=warning tightens the gate" 1
    (run "--fail-on=warning -e 'let y = 1 in 2'");
  Alcotest.(check int) "json format exits 0" 0
    (run "--format=json -e '1 + 2'");
  Alcotest.(check int) "unknown pass is a usage error" 2
    (run "--pass=nonsense -e '1' 2>/dev/null")

let suite =
  [
    Alcotest.test_case "scope lint" `Quick test_scope;
    Alcotest.test_case "shape lint" `Quick test_shape;
    Alcotest.test_case "constant propagation" `Quick test_constprop;
    Alcotest.test_case "interval analysis" `Quick test_interval;
    Alcotest.test_case "pointer-top heap havoc" `Quick test_any_sites_havoc;
    Alcotest.test_case "termination measures inferred" `Quick
      test_termination_inference;
    Alcotest.test_case "termination measures agree with §5 credits" `Slow
      test_termination_credits_agree;
    Alcotest.test_case "race detector is sound vs exploration" `Slow
      test_race_soundness;
    Alcotest.test_case "race detector precision" `Quick test_race_precision;
    Alcotest.test_case "analyzer driver" `Quick test_analyzer_driver;
    Alcotest.test_case "paper case studies analyze clean" `Quick
      test_case_studies_clean;
    Alcotest.test_case "golden JSON reports" `Quick test_golden_json;
    Alcotest.test_case "golden over generated let-chains" `Quick
      test_chains_golden;
    Alcotest.test_case "dataflow vs plain round loop (pinned)" `Quick
      test_plain_loop_pinned;
    Alcotest.test_case "dataflow: a first call in the clean round" `Quick
      test_plain_loop_first_call_in_clean_round;
    plain_loop_prop "dataflow vs plain round loop (let-chains of functions)"
      Gen.shl_fn_chain;
    plain_loop_prop "dataflow vs plain round loop (wild programs)" Gen.shl_expr;
    Alcotest.test_case "races: fork inside a rec body" `Quick
      test_race_fork_in_rec;
    races_oracle_prop "races: run vs full analyze (wild programs)" Gen.shl_expr;
    races_oracle_prop "races: run vs full analyze (let-chains of functions)"
      Gen.shl_fn_chain;
    races_oracle_prop "races: run vs full analyze (concurrent programs)"
      Gen.conc_expr;
    races_oracle_prop "races: run vs full analyze (forks in function bodies)"
      Gen.conc_fork_in_fn;
    Alcotest.test_case "shipped examples analyze clean" `Quick
      test_examples_analyze_clean;
    Alcotest.test_case "metrics integration" `Quick test_metrics;
    Alcotest.test_case "cli analyze" `Quick test_cli_analyze;
    Alcotest.test_case "rec z z: the parameter shadows the name" `Quick
      test_rec_binder_order;
  ]
