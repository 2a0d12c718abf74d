(* Sequential HeapLang: head steps, contexts, interpreter, parser and
   printer, and the paper's example programs against OCaml oracles. *)

open Tfiris
open Shl
module Types = Tfiris.Shl.Types
module Budget = Tfiris.Robust.Budget
module Q = QCheck2

let run_src src =
  let e = Parser.parse_exn src in
  Interp.eval ~budget:(Budget.of_steps 2_000_000) e

let check_int name src expected =
  match run_src src with
  | Some (Ast.Int n) -> Alcotest.(check int) name expected n
  | Some v -> Alcotest.failf "%s: got %s" name (Pretty.value_to_string v)
  | None -> Alcotest.failf "%s: no value" name

let check_bool name src expected =
  match run_src src with
  | Some (Ast.Bool b) -> Alcotest.(check bool) name expected b
  | Some v -> Alcotest.failf "%s: got %s" name (Pretty.value_to_string v)
  | None -> Alcotest.failf "%s: no value" name

let test_arith () =
  check_int "add" "1 + 2 * 3" 7;
  check_int "sub/assoc" "10 - 3 - 2" 5;
  check_int "quot" "17 quot 5" 3;
  check_int "rem" "17 rem 5" 2;
  check_int "quot truncates" "(0 - 17) quot 5" (-3);
  check_int "rem takes the dividend's sign" "(0 - 17) rem 5" (-2);
  check_int "quot by zero is 0" "17 quot 0" 0;
  check_int "rem by zero is the dividend" "17 rem 0" 17;
  check_int "unary minus" "-3 + 10" 7;
  check_bool "lt" "2 < 3" true;
  check_bool "le" "3 <= 3" true;
  check_bool "eq ints" "4 = 2 + 2" true;
  check_bool "and sugar" "true && false" false;
  check_bool "or sugar" "false || true" true;
  check_bool "not" "not (1 < 2)" false

let test_functions () =
  check_int "beta" "(fun x -> x + 1) 41" 42;
  check_int "curried" "(fun x y -> x * y) 6 7" 42;
  check_int "rec fact" "(rec f n. if n = 0 then 1 else n * f (n - 1)) 5" 120;
  check_int "let" "let x = 3 in let y = 4 in x * y" 12;
  check_int "shadowing" "let x = 1 in let x = x + 1 in x" 2;
  check_int "closure capture" "let a = 10 in (fun x -> x + a) 5" 15

let test_heap () =
  check_int "ref/load" "!(ref 42)" 42;
  check_int "store" "let r = ref 1 in r := 99; !r" 99;
  check_int "aliasing" "let r = ref 1 in let s = r in s := 5; !r" 5;
  check_int "two cells" "let a = ref 1 in let b = ref 2 in a := !b + 10; !a + !b" 14;
  check_int "ptr add on fresh blocks"
    "let a = ref 7 in let b = ref 8 in !(a +l 1)" 8

let test_sums_pairs () =
  check_int "fst" "fst (3, 4)" 3;
  check_int "snd" "snd (3, 4)" 4;
  check_int "case inl" "match inl 5 with | inl x -> x + 1 | inr y -> 0 end" 6;
  check_int "case inr" "match inr 5 with | inl x -> 0 | inr y -> y * 2 end" 10;
  check_bool "pair eq" "(1, 2) = (1, 2)" true;
  check_bool "nested sum eq" "inl (inr 3) = inl (inr 3)" true

let test_stuck () =
  let stuck src =
    match Interp.exec (Parser.parse_exn src) with
    | Interp.Stuck _, _ -> true
    | (Interp.Value _ | Interp.Out_of_fuel _), _ -> false
  in
  Alcotest.(check bool) "add bool stuck" true (stuck "1 + true");
  Alcotest.(check bool) "apply int stuck" true (stuck "3 4");
  Alcotest.(check bool) "load non-loc stuck" true (stuck "!5");
  Alcotest.(check bool) "store to unallocated stuck" true (stuck "#99 := 1");
  Alcotest.(check bool) "fst of int stuck" true (stuck "fst 3");
  Alcotest.(check bool) "unbound var stuck" true (stuck "x + 1")

let test_pure_classification () =
  (* pure steps do not touch the heap; heap ops are not pure *)
  let kind_of src =
    match Step.prim_step (Step.config (Parser.parse_exn src)) with
    | Ok (_, k) -> Some k
    | Error _ -> None
  in
  Alcotest.(check bool) "beta is pure" true
    (match kind_of "(fun x -> x) 1" with Some Step.Pure -> true | _ -> false);
  Alcotest.(check bool) "ref is alloc" true
    (match kind_of "ref 1" with Some (Step.Alloc _) -> true | _ -> false);
  Alcotest.(check bool) "pure_step refuses heap ops" true
    (Step.pure_step (Parser.parse_exn "ref 1") = None);
  Alcotest.(check bool) "pure_steps chains" true
    (Step.pure_steps
       (Parser.parse_exn "(fun x -> x + 1) 1")
       (Ast.Val (Ast.Int 2)))

let test_ctx () =
  let e = Parser.parse_exn "(1 + 2) * (3 + 4)" in
  match Ctx.decompose e with
  | Some (k, redex) ->
    Alcotest.(check bool) "redex is 1+2" true
      (redex = Ast.Bin_op (Ast.Add, Ast.int_ 1, Ast.int_ 2));
    Alcotest.(check bool) "refill is identity" true (Ctx.fill k redex = e)
  | None -> Alcotest.fail "no decomposition"

let test_trace_and_stats () =
  let e = Parser.parse_exn "let r = ref 0 in r := 1; !r" in
  let _, stats = Interp.exec e in
  Alcotest.(check int) "heap steps = alloc + store + load" 3 stats.Interp.heap_steps;
  let tr = Interp.trace ~fuel:100 e in
  Alcotest.(check bool) "trace starts at e" true
    ((List.hd tr).Step.expr = e);
  Alcotest.(check bool) "trace ends at a value" true
    (match (List.nth tr (List.length tr - 1)).Step.expr with
    | Ast.Val _ -> true
    | _ -> false)

(* ---------- paper programs vs OCaml oracles ---------- *)

let test_fib_oracle () =
  List.iter
    (fun n ->
      let r = Interp.eval (Ast.App (Prog.rec_of Prog.fib_template, Ast.int_ n)) in
      let m =
        Interp.eval ~budget:(Budget.of_steps 5_000_000)
          (Ast.App (Prog.memo_of Prog.fib_template, Ast.int_ n))
      in
      let expected = Some (Ast.Int (Prog.fib_spec n)) in
      Alcotest.(check bool) (Printf.sprintf "rec fib %d" n) true (r = expected);
      Alcotest.(check bool) (Printf.sprintf "memo fib %d" n) true (m = expected))
    [ 0; 1; 2; 7; 12 ]

let test_memo_speedup () =
  (* memoized fib is asymptotically faster: steps grow linearly *)
  let steps f n =
    Option.get
      (Interp.steps_to_value ~budget:(Budget.of_steps 50_000_000)
         (Ast.App (f, Ast.int_ n)))
  in
  let m14 = steps (Prog.memo_of Prog.fib_template) 14 in
  let m15 = steps (Prog.memo_of Prog.fib_template) 15 in
  let r14 = steps (Prog.rec_of Prog.fib_template) 14 in
  let r15 = steps (Prog.rec_of Prog.fib_template) 15 in
  Alcotest.(check bool) "memo grows additively" true (m15 - m14 < 200);
  Alcotest.(check bool) "rec grows multiplicatively" true
    (float_of_int r15 /. float_of_int r14 > 1.4);
  Alcotest.(check bool) "memo beats rec at 15" true (m15 < r15)

let test_slen_oracle () =
  List.iter
    (fun s ->
      let heap = Heap.empty in
      let l, heap = Prog.alloc_string s heap in
      let r =
        Interp.eval ~heap (Ast.App (Prog.rec_of Prog.slen_template, Ast.Val (Ast.Loc l)))
      in
      Alcotest.(check bool) (Printf.sprintf "slen %S" s) true
        (r = Some (Ast.Int (String.length s))))
    [ ""; "a"; "hello"; "transfinite" ]

let test_lev_oracle () =
  List.iter
    (fun (a, b) ->
      let heap = Heap.empty in
      let l1, heap = Prog.alloc_string a heap in
      let l2, heap = Prog.alloc_string b heap in
      let arg = Ast.Val (Ast.Pair (Ast.Loc l1, Ast.Loc l2)) in
      let budget = Budget.of_steps 100_000_000 in
      let m = Interp.eval ~budget ~heap (Ast.App (Prog.mlev, arg)) in
      let r = Interp.eval ~budget ~heap (Ast.App (Prog.rlev, arg)) in
      let expected = Some (Ast.Int (Prog.lev_spec a b)) in
      Alcotest.(check bool) (Printf.sprintf "mlev %S %S" a b) true (m = expected);
      Alcotest.(check bool) (Printf.sprintf "rlev %S %S" a b) true (r = expected))
    [ ("", ""); ("a", ""); ("", "ab"); ("cat", "hat"); ("kitten", "sitting") ]

let test_event_loop_program () =
  let prog =
    Prog.event_loop_ctx
      (Parser.parse_exn
         {|
let q = mkloop () in
let r = ref 0 in
addtask q (fun u -> r := !r + 1);
addtask q (fun u -> addtask q (fun v -> r := !r + 10); r := !r + 100);
run q;
!r
|})
  in
  match Interp.eval prog with
  | Some (Ast.Int n) -> Alcotest.(check int) "all tasks ran" 111 n
  | Some v -> Alcotest.failf "got %s" (Pretty.value_to_string v)
  | None -> Alcotest.fail "event loop did not finish"

let test_divergence () =
  Alcotest.(check bool) "e_loop runs ≥ 100k steps" true
    (Interp.diverges_beyond 100_000 Prog.e_loop)

(* ---------- list library and sorting ---------- *)

let test_sort_basic () =
  let run ns =
    match
      Interp.eval ~budget:(Budget.of_steps 5_000_000)
        (Ast.App (Prog.insertion_sort, Prog.list_of_ints ns))
    with
    | Some v -> Prog.decode_int_list v
    | None -> None
  in
  Alcotest.(check (option (list int))) "empty" (Some []) (run []);
  Alcotest.(check (option (list int))) "sorted" (Some [ 1; 2; 3 ]) (run [ 3; 1; 2 ]);
  Alcotest.(check (option (list int)))
    "duplicates" (Some [ 0; 1; 1; 5; 5; 9 ])
    (run [ 5; 1; 9; 1; 5; 0 ]);
  (* the sum of a list *)
  match
    Interp.eval (Ast.App (Prog.sum_list, Prog.list_of_ints [ 1; 2; 3; 4 ]))
  with
  | Some (Ast.Int 10) -> ()
  | _ -> Alcotest.fail "sum_list"

let sort_oracle_prop =
  QCheck_alcotest.to_alcotest
    (Q.Test.make ~count:150 ~name:"insertion sort matches List.sort"
       ~print:(fun l -> String.concat ";" (List.map string_of_int l))
       Q.Gen.(list_size (int_bound 12) (int_range (-20) 20))
       (fun ns ->
         match
           Interp.eval ~budget:(Budget.of_steps 5_000_000)
             (Ast.App (Prog.insertion_sort, Prog.list_of_ints ns))
         with
         | Some v ->
           Prog.decode_int_list v = Some (List.sort compare ns)
         | None -> false))

let test_sort_untypeable () =
  (* the sum-encoded lists are an untyped recursive datatype; the
     monomorphic fragment (no iso-recursive types) rejects the sort —
     working beyond types is the point of HeapLang-style languages *)
  match Types.infer Prog.insertion_sort with
  | Error _ -> ()
  | Ok t ->
    Alcotest.failf "sort unexpectedly typed at %s" (Types.ty_to_string t)

(* ---------- parser and printer ---------- *)

let test_parse_errors () =
  let bad src =
    match Parser.parse src with Ok _ -> false | Error _ -> true
  in
  Alcotest.(check bool) "unclosed paren" true (bad "(1 + 2");
  Alcotest.(check bool) "trailing tokens" true (bad "1 + 2 )");
  Alcotest.(check bool) "missing in" true (bad "let x = 1 x");
  Alcotest.(check bool) "match without end" true (bad "match x with | inl a -> 1 | inr b -> 2");
  Alcotest.(check bool) "rec without dot" true (bad "rec f x f");
  Alcotest.(check bool) "stray char" true (bad "1 @ 2");
  Alcotest.(check bool) "unterminated comment" true (bad "1 + (* hmm")

let test_comments () =
  check_int "comments ignored" "1 + (* two (* nested *) *) 2" 3

(* The parser cannot distinguish a value literal from the expression
   that builds it: it produces [Rec] for every lambda, [Inj_l_e]/[Pair_e]
   for every injection/pair.  Normalize both sides to the value form
   wherever all components are values, recursing into closure bodies,
   before comparing. *)
let rec norm (e : Ast.expr) : Ast.expr =
  let open Ast in
  match e with
  | Val v -> Val (norm_value v)
  | Var _ -> e
  | Rec (f, x, b) -> Val (Rec_fun (f, x, norm b))
  | App (a, b) -> App (norm a, norm b)
  | Un_op (op, a) -> Un_op (op, norm a)
  | Bin_op (op, a, b) -> Bin_op (op, norm a, norm b)
  | If (a, b, c) -> If (norm a, norm b, norm c)
  | Pair_e (a, b) -> (
    match norm a, norm b with
    | Val v1, Val v2 -> Val (Pair (v1, v2))
    | a', b' -> Pair_e (a', b'))
  | Fst a -> Fst (norm a)
  | Snd a -> Snd (norm a)
  | Inj_l_e a -> (
    match norm a with Val v -> Val (Inj_l v) | a' -> Inj_l_e a')
  | Inj_r_e a -> (
    match norm a with Val v -> Val (Inj_r v) | a' -> Inj_r_e a')
  | Case (a, (x, b), (y, c)) -> Case (norm a, (x, norm b), (y, norm c))
  | Ref a -> Ref (norm a)
  | Load a -> Load (norm a)
  | Store (a, b) -> Store (norm a, norm b)
  | Let (x, a, b) -> Let (x, norm a, norm b)
  | Seq (a, b) -> Seq (norm a, norm b)
  | Fork a -> Fork (norm a)
  | Cas (a, b, c) -> Cas (norm a, norm b, norm c)

and norm_value (v : Ast.value) : Ast.value =
  let open Ast in
  match v with
  | Unit | Bool _ | Int _ | Loc _ -> v
  | Pair (v1, v2) -> Pair (norm_value v1, norm_value v2)
  | Inj_l v -> Inj_l (norm_value v)
  | Inj_r v -> Inj_r (norm_value v)
  | Rec_fun (f, x, b) -> Rec_fun (f, x, norm b)

let roundtrip_prop =
  QCheck_alcotest.to_alcotest
    (Q.Test.make ~count:1000 ~name:"print/parse roundtrip" ~print:Gen.print_shl
       Gen.shl_expr (fun e ->
         match Parser.parse (Pretty.expr_to_string e) with
         | Ok e' -> norm e' = norm e
         | Error _ -> false))

(* The direct-call printer against the format-string printer it
   replaced ([Ref_pretty]): byte for byte, on the roundtrip generator's
   programs and on wide ones that overrun the margin. *)
let pretty_matches_reference name count gen =
  QCheck_alcotest.to_alcotest
    (Q.Test.make ~count ~name ~print:Gen.print_shl gen (fun e ->
         let got = Pretty.expr_to_string e in
         let want = Ref_pretty.expr_to_string e in
         got = want
         || Q.Test.fail_reportf "printed:@.%s@.reference:@.%s" got want))

let pretty_reference_prop =
  pretty_matches_reference "printer = format-string printer" 1000 Gen.shl_expr

let pretty_reference_wide_prop =
  pretty_matches_reference "printer = format-string printer (wide)" 300
    Gen.shl_wide

(* One term per box kind, each too wide for one line and built so that
   a different box kind would break it differently: the printer must
   break it, exactly as the reference does. *)
let test_pretty_boxes_break () =
  let open Ast in
  let v = Var "accumulator_of_the_left_spine" in
  let long = "continuation_after_the_loop" in
  let app2 = App (v, v) and app3 = App (App (v, v), v) in
  let short x = Var x in
  List.iter
    (fun (kind, e) ->
      let got = Pretty.expr_to_string e in
      Alcotest.(check string) kind (Ref_pretty.expr_to_string e) got;
      if not (String.contains got '\n') then
        Alcotest.failf "%s: printed on one line: %s" kind got)
    [
      ("application (hov 2)", App (app3, app2));
      ("operator (hov)", Bin_op (Add, Bin_op (Mul, v, v), Bin_op (Sub, v, v)));
      ("if (hv)", If (short "c", short "d", app3));
      ("match (hv)", Case (short "c", ("x", short "y"), (long, app2)));
      ("let (v, hov 2)", Let (long, app3, short "x"));
      ("sequence (v)", Seq (short "a", short "b"));
      ("store (hov 2)", Store (v, Bin_op (Add, v, app2)));
      ("cas (hov 2)", Cas (v, v, v));
      ("rec (hov 2)", Rec (Some long, long, app2));
      ("fun (hov 2)", lam long app3);
      ("closure value (hov 2)", Val (Rec_fun (Some long, long, app2)));
    ]

(* Every keyword lexes as [Kw]; [is_keyword] is [List.mem] over
   [Lexer.keywords] (the only list of them); and the near misses of
   keywords and two-character operators lex as they always have. *)
let test_lexer_keywords () =
  let toks s =
    List.map (fun (l : Lexer.located) -> (l.tok, l.pos)) (Lexer.tokenize s)
  in
  let show ts =
    String.concat " "
      (List.map
         (fun (t, pos) -> Format.asprintf "%a@%d" Lexer.pp_token t pos)
         ts)
  in
  let check src want =
    Alcotest.(check string) src (show want) (show (toks src))
  in
  List.iter
    (fun k -> check k [ (Lexer.Kw k, 0); (Lexer.Eof, String.length k) ])
    Lexer.keywords;
  let near k =
    [ k; k ^ "s"; k ^ "'"; k ^ "_"; k ^ "1"; String.capitalize_ascii k;
      String.sub k 0 (String.length k - 1); "_" ^ k ]
  in
  List.iter
    (fun w ->
      Alcotest.(check bool) ("is_keyword " ^ w) (List.mem w Lexer.keywords)
        (Lexer.is_keyword w))
    ("" :: "x" :: List.concat_map near Lexer.keywords);
  let open Lexer in
  check "lets" [ (Ident "lets", 0); (Eof, 4) ];
  check "in'" [ (Ident "in'", 0); (Eof, 3) ];
  check "fun_" [ (Ident "fun_", 0); (Eof, 4) ];
  check "x+l" [ (Ident "x", 0); (Op "+l", 1); (Eof, 3) ];
  check "x+ly" [ (Ident "x", 0); (Op "+", 1); (Ident "ly", 2); (Eof, 4) ];
  check "x+l y" [ (Ident "x", 0); (Op "+l", 1); (Ident "y", 4); (Eof, 5) ];
  check "a<=b" [ (Ident "a", 0); (Op "<=", 1); (Ident "b", 3); (Eof, 4) ];
  check "p&&q" [ (Ident "p", 0); (Op "&&", 1); (Ident "q", 3); (Eof, 4) ];
  check "a|b||c"
    [ (Ident "a", 0); (Bar, 1); (Ident "b", 2); (Op "||", 3); (Ident "c", 5);
      (Eof, 6) ];
  check "f:=x->y"
    [ (Ident "f", 0); (Assign, 1); (Ident "x", 3); (Arrow, 4); (Ident "y", 6);
      (Eof, 7) ];
  match Lexer.tokenize "p & q" with
  | _ -> Alcotest.fail "a lone & lexed"
  | exception Lexer.Error (m, 2) ->
    Alcotest.(check string) "lone &" "unexpected character '&'" m

let determinism_prop =
  QCheck_alcotest.to_alcotest
    (Q.Test.make ~count:300 ~name:"interpreter is deterministic"
       ~print:Gen.print_shl Gen.shl_expr (fun e ->
         let r1 = Interp.exec ~budget:(Budget.of_steps 2000) e in
         let r2 = Interp.exec ~budget:(Budget.of_steps 2000) e in
         match fst r1, fst r2 with
         | Interp.Value (v1, _), Interp.Value (v2, _) -> v1 = v2
         | Interp.Stuck _, Interp.Stuck _ -> true
         | Interp.Out_of_fuel _, Interp.Out_of_fuel _ -> true
         | _, _ -> false))

let decompose_fill_prop =
  QCheck_alcotest.to_alcotest
    (Q.Test.make ~count:500 ~name:"decompose/fill is the identity"
       ~print:Gen.print_shl Gen.shl_expr (fun e ->
         match Ctx.decompose e with
         | Some (k, r) -> Ctx.fill k r = e
         | None -> Ast.is_value e))

let subst_closed_prop =
  QCheck_alcotest.to_alcotest
    (Q.Test.make ~count:300 ~name:"substitution leaves closed terms alone"
       ~print:Gen.print_shl Gen.shl_expr (fun e ->
         (not (Ast.is_closed e)) || Ast.subst "zzz" Ast.Unit e = e))

(* regression: a [Val (Rec_fun ...)] literal with a free body occurrence
   counts toward [free_vars], so [subst] must reach inside it — stepping
   [let x = () in if () then <closure-value y. x> else ()] used to leak
   the free [x] *)
let test_subst_into_closure_value () =
  let open Ast in
  let clo = Val (Rec_fun (None, "y", Var "x")) in
  let e = Let ("x", Val Unit, If (Val Unit, clo, Val Unit)) in
  Alcotest.(check bool) "closed before" true (is_closed e);
  Alcotest.(check bool)
    "subst reaches closure body" true
    (subst "x" Unit clo = Val (Rec_fun (None, "y", Val Unit)));
  (match Step.prim_step (Step.config e) with
  | Ok (cfg, _) ->
    Alcotest.(check bool) "closed after step" true (is_closed cfg.Step.expr)
  | Error _ -> Alcotest.fail "let should step");
  (* binders still shadow: no substitution under a binder for [x] *)
  let shadowed = Val (Rec_fun (Some "f", "x", Var "x")) in
  Alcotest.(check bool)
    "shadowed binder untouched" true
    (subst "x" Unit shadowed = shadowed)

let steps_preserve_closed_prop =
  QCheck_alcotest.to_alcotest
    (Q.Test.make ~count:300 ~name:"steps preserve closedness"
       ~print:Gen.print_shl Gen.shl_expr (fun e ->
         (not (Ast.is_closed e))
         ||
         match Step.prim_step (Step.config e) with
         | Ok (cfg, _) -> Ast.is_closed cfg.Step.expr
         | Error _ -> true))

let suite =
  [
    Alcotest.test_case "arithmetic and booleans" `Quick test_arith;
    Alcotest.test_case "functions and binding" `Quick test_functions;
    Alcotest.test_case "heap operations" `Quick test_heap;
    Alcotest.test_case "sums and pairs" `Quick test_sums_pairs;
    Alcotest.test_case "stuck programs" `Quick test_stuck;
    Alcotest.test_case "pure/heap step classification" `Quick
      test_pure_classification;
    Alcotest.test_case "evaluation contexts" `Quick test_ctx;
    Alcotest.test_case "traces and statistics" `Quick test_trace_and_stats;
    Alcotest.test_case "fib against oracle" `Quick test_fib_oracle;
    Alcotest.test_case "memoization speedup shape" `Quick test_memo_speedup;
    Alcotest.test_case "slen against oracle" `Quick test_slen_oracle;
    Alcotest.test_case "levenshtein against oracle" `Slow test_lev_oracle;
    Alcotest.test_case "reentrant event loop program" `Quick
      test_event_loop_program;
    Alcotest.test_case "e_loop diverges (bounded)" `Quick test_divergence;
    Alcotest.test_case "insertion sort and list library" `Quick
      test_sort_basic;
    sort_oracle_prop;
    Alcotest.test_case "sort is outside the typed fragment" `Quick
      test_sort_untypeable;
    Alcotest.test_case "parse errors" `Quick test_parse_errors;
    Alcotest.test_case "comments" `Quick test_comments;
    roundtrip_prop;
    pretty_reference_prop;
    pretty_reference_wide_prop;
    Alcotest.test_case "printer breaks every box kind" `Quick
      test_pretty_boxes_break;
    Alcotest.test_case "lexer keywords and near misses" `Quick
      test_lexer_keywords;
    determinism_prop;
    decompose_fill_prop;
    subst_closed_prop;
    Alcotest.test_case "substitution reaches closure-value bodies" `Quick
      test_subst_into_closure_value;
    steps_preserve_closed_prop;
  ]
