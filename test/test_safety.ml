(* The safety logic: assertion semantics, Hoare triples with the frame
   property validated by execution, invariant monitors, and the
   fuel-indexed logical relation (including Landin's knot). *)

open Tfiris.Safety
module Q = QCheck2
module Shl = Tfiris.Shl
module Budget = Tfiris.Robust.Budget

let parse = Shl.Parser.parse_exn

(* ---------- assertions ---------- *)

let test_assertion_models () =
  let open Assertion in
  let p = Star (Points_to (0, Shl.Ast.Int 1), Points_to (1, Shl.Ast.Int 2)) in
  Alcotest.(check int) "star of two cells: one model" 1
    (List.length (models p));
  Alcotest.(check int) "emp: one model" 1 (List.length (models Emp));
  Alcotest.(check int) "false: no models" 0 (List.length (models (Pure false)));
  Alcotest.(check int) "or: two models" 2
    (List.length (models (Or (Points_to (0, Shl.Ast.Int 1), Emp))));
  (* overlapping star is unsatisfiable *)
  Alcotest.(check int) "ℓ↦1 ∗ ℓ↦2: no models" 0
    (List.length
       (models (Star (Points_to (0, Shl.Ast.Int 1), Points_to (0, Shl.Ast.Int 2)))))

let test_assertion_sat () =
  let open Assertion in
  let h = Shl.Heap.store 0 (Shl.Ast.Int 1) Shl.Heap.empty in
  Alcotest.(check bool) "points-to sat" true (sat (Points_to (0, Shl.Ast.Int 1)) h);
  Alcotest.(check bool) "wrong value" false (sat (Points_to (0, Shl.Ast.Int 2)) h);
  Alcotest.(check bool) "emp on nonempty" false (sat Emp h);
  Alcotest.(check bool) "exact ownership: extra cell refutes" false
    (sat (Points_to (0, Shl.Ast.Int 1)) (Shl.Heap.store 5 Shl.Ast.Unit h));
  Alcotest.(check bool) "exists over candidates" true
    (sat
       (Exists_in
          ( [ Shl.Ast.Int 0; Shl.Ast.Int 1 ],
            fun v -> Points_to (0, v) ))
       h)

let test_entails () =
  let open Assertion in
  let a = Points_to (0, Shl.Ast.Int 1) in
  Alcotest.(check bool) "P ⊢ P ∨ Q" true (entails a (Or (a, Emp)));
  Alcotest.(check bool) "P ∗ Q ⊢ Q ∗ P" true
    (entails
       (Star (a, Points_to (1, Shl.Ast.Int 2)))
       (Star (Points_to (1, Shl.Ast.Int 2), a)));
  Alcotest.(check bool) "emp ⊬ P" false (entails Emp a)

(* ---------- triples ---------- *)

let test_swap () =
  let t = Triple.swap_triple ~l1:0 ~l2:1 ~a:(Shl.Ast.Int 10) ~b:(Shl.Ast.Bool true) in
  match Triple.check t with
  | Triple.Valid n -> Alcotest.(check bool) "ran several frames" true (n >= 3)
  | Triple.Invalid f -> Alcotest.failf "swap: %a" Triple.pp_failure f

let test_incr_and_alloc () =
  (match Triple.check (Triple.incr_triple ~l:0 ~n:41) with
  | Triple.Valid _ -> ()
  | Triple.Invalid f -> Alcotest.failf "incr: %a" Triple.pp_failure f);
  match Triple.check (Triple.alloc_triple (Shl.Ast.Int 9)) with
  | Triple.Valid _ -> ()
  | Triple.Invalid f -> Alcotest.failf "alloc: %a" Triple.pp_failure f

let test_triple_rejections () =
  let open Assertion in
  (* wrong postcondition *)
  let bad =
    {
      Triple.pre = Points_to (0, Shl.Ast.Int 1);
      expr = parse "#0 := 2";
      post = (fun _ -> Points_to (0, Shl.Ast.Int 99));
    }
  in
  (match Triple.check bad with
  | Triple.Invalid (Triple.Post_failed _) -> ()
  | v -> Alcotest.failf "bad post: %a" Triple.pp_verdict v);
  (* stuck program: load of a bool *)
  let stuck =
    {
      Triple.pre = Emp;
      expr = parse "!true";
      post = (fun _ -> Emp);
    }
  in
  (match Triple.check stuck with
  | Triple.Invalid (Triple.Stuck_run _) -> ()
  | v -> Alcotest.failf "stuck: %a" Triple.pp_verdict v);
  (* unsatisfiable precondition flagged *)
  let vac =
    { Triple.pre = Pure false; expr = parse "()"; post = (fun _ -> Emp) }
  in
  (match Triple.check vac with
  | Triple.Invalid Triple.No_models -> ()
  | v -> Alcotest.failf "vacuous: %a" Triple.pp_verdict v);
  (* insufficient precondition: the program touches an unowned cell *)
  let unowned =
    { Triple.pre = Emp; expr = parse "!(#0)"; post = (fun _ -> Emp) }
  in
  match Triple.check unowned with
  | Triple.Invalid (Triple.Stuck_run _) -> ()
  | v -> Alcotest.failf "unowned: %a" Triple.pp_verdict v

let test_frame_rule () =
  let base = Triple.incr_triple ~l:0 ~n:5 in
  let framed = Triple.frame (Assertion.Points_to (7, Shl.Ast.Unit)) base in
  match Triple.check framed with
  | Triple.Valid _ -> ()
  | Triple.Invalid f -> Alcotest.failf "framed incr: %a" Triple.pp_failure f

let test_consequence () =
  let base = Triple.incr_triple ~l:0 ~n:5 in
  (* weaken the postcondition to a disjunction *)
  let weakened =
    Triple.consequence ~pre':base.Triple.pre
      ~post':(fun v ->
        Assertion.Or (base.Triple.post v, Assertion.Pure false))
      ~post_candidates:[ Shl.Ast.Unit ] base
  in
  match weakened with
  | Some t -> (
    match Triple.check t with
    | Triple.Valid _ -> ()
    | Triple.Invalid f -> Alcotest.failf "weakened: %a" Triple.pp_failure f)
  | None -> Alcotest.fail "consequence refused a valid weakening"

(* frame property as a language-level law: random programs cannot touch
   a far-away frame they don't know about *)
let frame_locality_prop =
  QCheck_alcotest.to_alcotest
    (Q.Test.make ~count:200 ~name:"locality: runs preserve unknown frames"
       ~print:Gen.print_shl Gen.shl_expr
       (fun e ->
         let frame = Shl.Heap.store 1000 (Shl.Ast.Int 123) Shl.Heap.empty in
         match Shl.Interp.exec ~budget:(Budget.of_steps 2000) ~heap:frame e with
         | Shl.Interp.Value (_, h'), _ ->
           Shl.Heap.lookup 1000 h' = Some (Shl.Ast.Int 123)
         | (Shl.Interp.Stuck _ | Shl.Interp.Out_of_fuel _), _ -> true))

(* ---------- invariants ---------- *)

let test_invariant_monitor () =
  (* a counter that only grows: the invariant "cell 0 holds a
     non-negative int" is preserved by the incrementing loop *)
  let pool =
    [
      ( "counter",
        Invariant.cell_invariant 0 (fun v _ _ ->
            match v with Shl.Ast.Int n -> n >= 0 | _ -> false) );
    ]
  in
  let prog =
    parse "(rec go n. if n = 0 then () else (#0 := !(#0) + 1; go (n - 1))) 5"
  in
  let cfg =
    { Shl.Step.expr = prog; heap = Shl.Heap.store 0 (Shl.Ast.Int 0) Shl.Heap.empty }
  in
  Alcotest.(check bool) "preserved" true (Invariant.preserved ~pool cfg);
  (* a program that breaks it is caught, with the step number *)
  let breaker = parse "#0 := !(#0) + 1; #0 := 0 - 5; #0 := 1" in
  match Invariant.monitor ~pool { cfg with Shl.Step.expr = breaker } with
  | Error v ->
    Alcotest.(check string) "right invariant" "counter" v.Invariant.name;
    Alcotest.(check bool) "mid-run" true (v.Invariant.step > 0)
  | Ok _ -> Alcotest.fail "violation not caught"

let test_invariant_impredicative () =
  (* an invariant whose body consults another invariant: cell 1 holds a
     location whose own invariant is registered *)
  let pool =
    [
      ( "inner",
        Invariant.cell_invariant 0 (fun v _ _ ->
            match v with Shl.Ast.Int _ -> true | _ -> false) );
      ( "outer",
        Invariant.Assert
          (fun h pool ->
            match Shl.Heap.lookup 1 h with
            | Some (Shl.Ast.Loc 0) -> Invariant.holds pool "inner" h
            | _ -> false) );
    ]
  in
  let heap =
    Shl.Heap.store 1 (Shl.Ast.Loc 0)
      (Shl.Heap.store 0 (Shl.Ast.Int 3) Shl.Heap.empty)
  in
  let prog = parse "#0 := !(#0) * 2; !(#0)" in
  Alcotest.(check bool) "impredicative pool preserved" true
    (Invariant.preserved ~pool { Shl.Step.expr = prog; heap })

(* ---------- the logical relation ---------- *)

let test_logrel_ground () =
  let open Logrel in
  Alcotest.(check bool) "int" true (expr_ok T_int (parse "1 + 2"));
  Alcotest.(check bool) "bool" true (expr_ok T_bool (parse "1 < 2"));
  Alcotest.(check bool) "prod" true (expr_ok (T_prod (T_int, T_bool)) (parse "(1, true)"));
  Alcotest.(check bool) "sum" true (expr_ok (T_sum (T_unit, T_int)) (parse "inr 3"));
  Alcotest.(check bool) "wrong type refuted" false (expr_ok T_bool (parse "1 + 2"));
  Alcotest.(check bool) "stuck refuted" false (expr_ok T_int (parse "1 + true"))

let test_logrel_fun_ref () =
  let open Logrel in
  Alcotest.(check bool) "identity at int->int" true
    (expr_ok (T_fun (T_int, T_int)) (parse "fun x -> x + 1"));
  Alcotest.(check bool) "non-function refuted" false
    (expr_ok (T_fun (T_int, T_int)) (parse "42"));
  Alcotest.(check bool) "function body can get stuck on int args" false
    (expr_ok (T_fun (T_int, T_int)) (parse "fun x -> x 1"));
  Alcotest.(check bool) "ref int" true (expr_ok (T_ref T_int) (parse "ref 5"));
  Alcotest.(check bool) "ref of function" true
    (expr_ok (T_ref (T_fun (T_int, T_int))) (parse "ref (fun x -> x)"));
  Alcotest.(check bool) "program using its ref" true
    (expr_ok T_int (parse "let r = ref 1 in r := !r + 1; !r"))

let test_landins_knot () =
  let open Logrel in
  (* well-typed at unit, diverges, never stuck: accepted at every fuel
     (= safety), which is the step-indexed reading *)
  Alcotest.(check bool) "knot safe at fuel 1k" true
    (expr_ok ~fuel:1_000 T_unit landins_knot);
  Alcotest.(check bool) "knot safe at fuel 50k" true
    (expr_ok ~fuel:50_000 T_unit landins_knot);
  Alcotest.(check bool) "knot really diverges" true
    (Shl.Interp.diverges_beyond 50_000 landins_knot);
  (* the cyclic store value is in ⟦ref (unit -> unit)⟧ at every index *)
  let l, h = knot_heap in
  List.iter
    (fun fuel ->
      Alcotest.(check bool)
        (Printf.sprintf "knot value at fuel %d" fuel)
        true
        (member fuel (T_ref (T_fun (T_unit, T_unit))) (Shl.Ast.Loc l) h))
    [ 1; 5; 50 ]

let logrel_generated_prop =
  (* generated closed programs of unknown type: if they terminate in an
     int, they are in ⟦int⟧ — consistency of the relation with
     evaluation *)
  QCheck_alcotest.to_alcotest
    (Q.Test.make ~count:200 ~name:"evaluation to int implies ⟦int⟧ membership"
       ~print:Gen.print_shl Gen.shl_expr
       (fun e ->
         match Shl.Interp.exec ~budget:(Budget.of_steps 2000) e with
         | Shl.Interp.Value (Shl.Ast.Int _, _), _ ->
           Logrel.expr_ok ~fuel:2000 Logrel.T_int e
         | _ -> true))

let suite =
  [
    Alcotest.test_case "assertion models" `Quick test_assertion_models;
    Alcotest.test_case "assertion satisfaction" `Quick test_assertion_sat;
    Alcotest.test_case "assertion entailment" `Quick test_entails;
    Alcotest.test_case "swap triple" `Quick test_swap;
    Alcotest.test_case "incr and alloc triples" `Quick test_incr_and_alloc;
    Alcotest.test_case "invalid triples rejected" `Quick test_triple_rejections;
    Alcotest.test_case "frame rule" `Quick test_frame_rule;
    Alcotest.test_case "consequence rule" `Quick test_consequence;
    frame_locality_prop;
    Alcotest.test_case "invariant monitor" `Quick test_invariant_monitor;
    Alcotest.test_case "impredicative invariants" `Quick
      test_invariant_impredicative;
    Alcotest.test_case "logrel: ground types" `Quick test_logrel_ground;
    Alcotest.test_case "logrel: functions and refs" `Quick test_logrel_fun_ref;
    Alcotest.test_case "Landin's knot (type-world circularity)" `Quick
      test_landins_knot;
    logrel_generated_prop;
  ]
