(* The linear async-channel language (§5.2): typing (positive and
   negative), scheduler semantics, the termination theorem over a
   generator of well-typed programs, and the polymorphic extension. *)

open Tfiris
open Promises
module Q = QCheck2
open Syntax

let typechecks e = Typing.well_typed e

let eval_int name e expected =
  match Semantics.eval e with
  | Some (Int n) -> Alcotest.(check int) name expected n
  | Some v -> Alcotest.failf "%s: got %s" name (Syntax.to_string v)
  | None -> Alcotest.failf "%s: no value" name

(* ---------- typing: positives ---------- *)

let test_typing_positive () =
  Alcotest.(check bool) "simple promise" true
    (typechecks Termination.simple_promise);
  Alcotest.(check bool) "chain" true (typechecks (Termination.chain 5));
  Alcotest.(check bool) "fan" true (typechecks (Termination.fan 5));
  Alcotest.(check bool) "nested" true (typechecks Termination.nested);
  Alcotest.(check bool) "poly id" true (typechecks Termination.poly_id);
  Alcotest.(check bool) "impredicative self-application" true
    (typechecks Termination.impredicative_self);
  Alcotest.(check bool) "promise of a polymorphic value" true
    (typechecks Termination.poly_promise);
  (match Typing.typecheck Termination.simple_promise with
  | Ok T_int -> ()
  | Ok t -> Alcotest.failf "wrong type %s" (Format.asprintf "%a" pp_ty t)
  | Error e -> Alcotest.failf "rejected: %a" Typing.pp_error e);
  match Typing.typecheck (Post (Int 1)) with
  | Ok (T_chan T_int) -> ()
  | Ok t -> Alcotest.failf "wrong type %s" (Format.asprintf "%a" pp_ty t)
  | Error e -> Alcotest.failf "rejected: %a" Typing.pp_error e

(* ---------- typing: negatives ---------- *)

let test_typing_negative () =
  let rejected name e =
    Alcotest.(check bool) name false (typechecks e)
  in
  rejected "unused channel" (Let ("c", Post (Int 1), Int 0));
  rejected "channel waited twice"
    (Let ("c", Post (Int 1), Bin (Add, Wait (Var "c"), Wait (Var "c"))));
  rejected "function used twice"
    (Let
       ( "f",
         Lam ("x", T_int, Var "x"),
         Bin (Add, App (Var "f", Int 1), App (Var "f", Int 2)) ));
  rejected "branches disagree on linear use"
    (Let
       ( "c",
         Post (Int 1),
         If (Bool true, Wait (Var "c"), Int 0) ));
  rejected "self application" Termination.omega_untyped;
  rejected "wait on non-channel" (Wait (Int 3));
  rejected "unbound variable" (Var "nope");
  rejected "unbound type variable" (Lam ("x", T_var "a", Var "x"));
  rejected "arith on bool" (Bin (Add, Bool true, Int 1));
  rejected "runtime channel literal in source" (Wait (Chan_v 0))

(* ---------- semantics ---------- *)

let test_eval () =
  eval_int "simple promise" Termination.simple_promise 3;
  eval_int "chain 10" (Termination.chain 10) 10;
  eval_int "fan 6" (Termination.fan 6) 21;
  eval_int "nested" Termination.nested 42;
  eval_int "impredicative self" Termination.impredicative_self 42;
  eval_int "poly promise" Termination.poly_promise 7

let test_blocking_order () =
  (* a task can wait on a channel resolved later by another task *)
  let e =
    Let
      ( "a",
        Post (Int 5),
        Let
          ( "b",
            Post (Bin (Mul, Wait (Var "a"), Int 2)),
            Bin (Add, Wait (Var "b"), Int 1) ) )
  in
  Alcotest.(check bool) "typechecks" true (typechecks e);
  eval_int "cross-task data flow" e 11

let test_scheduler_counts () =
  match Semantics.exec Termination.simple_promise with
  | Semantics.Value (Int 3, steps) ->
    Alcotest.(check bool) "takes a few scheduler steps" true (steps > 2)
  | _ -> Alcotest.fail "unexpected outcome"

let test_untyped_divergence () =
  match
    Semantics.exec ~budget:(Robust.Budget.of_steps 5_000)
      Termination.omega_untyped
  with
  | Semantics.Out_of_fuel -> ()
  | _ -> Alcotest.fail "untyped Ω should spin"

(* ---------- termination with credits ---------- *)

let certified e =
  match Termination.verify e with
  | Termination.Wp.Terminated _ -> true
  | Termination.Wp.Rejected _ -> false

let test_credit_verification () =
  List.iter
    (fun (name, e) ->
      match Termination.verify e with
      | Termination.Wp.Terminated _ -> ()
      | Termination.Wp.Rejected (r, _) ->
        Alcotest.failf "%s rejected: %s" name (Termination.Wp.rule_name r))
    [
      ("simple", Termination.simple_promise);
      ("chain", Termination.chain 8);
      ("fan", Termination.fan 8);
      ("nested", Termination.nested);
      ("impredicative", Termination.impredicative_self);
      ("poly promise", Termination.poly_promise);
    ]

let test_credit_rejects_divergence () =
  match Termination.verify ~oracle_fuel:20_000 Termination.omega_untyped with
  | Termination.Wp.Terminated _ -> Alcotest.fail "Ω accepted!"
  | Termination.Wp.Rejected _ -> ()

(* The adaptive pre-run stops Ω at its first repeated scheduler state,
   so at the default [oracle_fuel] (2 000 000 steps) the verdict costs
   one step of pre-run, not the whole fuel. *)
let test_prerun_cuts_omega () =
  (match Termination.prerun (Semantics.init Termination.omega_untyped) with
  | Shl.Machine.Cycle_in k -> Alcotest.(check int) "repeat found after" 1 k
  | _ -> Alcotest.fail "expected the pre-run to find Ω's cycle");
  match Termination.verify Termination.omega_untyped with
  | Termination.Wp.Terminated _ -> Alcotest.fail "Ω accepted!"
  | Termination.Wp.Rejected (r, _) ->
    Alcotest.(check string) "rule" "gave_up" (Termination.Wp.rule_name r)

(* A terminating run is counted to its end, as [Semantics.exec] counts
   it, and a past wall deadline stops the pre-run at its next poll
   without charging the meter. *)
let test_prerun_counts_and_deadline () =
  let e = Termination.chain 400 in
  let steps =
    match Semantics.exec e with
    | Semantics.Value (_, n) -> n
    | _ -> Alcotest.fail "chain 400 does not finish"
  in
  Alcotest.(check bool) "longer than one wall poll" true
    (steps > Robust.Budget.wall_check_period);
  (match Termination.prerun (Semantics.init e) with
  | Shl.Machine.Value_in k -> Alcotest.(check int) "pre-run steps" steps k
  | _ -> Alcotest.fail "expected the pre-run to finish");
  let m =
    Robust.Budget.(meter { unlimited with steps = Some 1; wall_ms = Some 0 })
  in
  Unix.sleepf 0.002;
  (match Termination.prerun ~meter:m (Semantics.init e) with
  | Shl.Machine.Cut Robust.Budget.Wall_ms -> ()
  | _ -> Alcotest.fail "expected the pre-run to stop at the deadline");
  Alcotest.(check int) "no step charged" 0 (Robust.Budget.steps_used m)

(* The scheduler plays Wp's game, so a rejected promise run publishes
   what every credit run does: a forensics report and the metrics. *)
let test_credit_rejection_observed () =
  let module F = Obs.Forensics in
  let module M = Obs.Metrics in
  F.set_enabled true;
  F.clear_last ();
  M.reset ();
  M.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      F.set_enabled false;
      F.clear_last ();
      M.set_enabled false;
      M.reset ())
    (fun () ->
      ignore (Termination.verify ~oracle_fuel:20_000 Termination.omega_untyped);
      (match F.last () with
      | Some r ->
        Alcotest.(check string) "component" "termination.wp" r.F.r_component;
        Alcotest.(check string) "rule" "gave_up" r.F.r_rule
      | None -> Alcotest.fail "no forensics report");
      Alcotest.(check (option int)) "one rejection counted" (Some 1)
        (M.counter_value (M.snapshot ()) "termination.wp.rejections"))

(* ---------- promise combinators ---------- *)

let test_combinators_typed () =
  let check_ty name e expected =
    match Typing.typecheck e with
    | Ok t ->
      Alcotest.(check bool) name true (ty_equal t expected)
    | Error err -> Alcotest.failf "%s ill-typed: %a" name Typing.pp_error err
  in
  check_ty "pure" (Combinators.pure (Int 1)) (T_chan T_int);
  check_ty "map"
    (Combinators.map
       (Lam ("x", T_int, Bin (Mul, Var "x", Int 2)))
       (Combinators.pure (Int 21)))
    (T_chan T_int);
  check_ty "bind"
    (Combinators.bind (Combinators.pure (Int 1))
       (Lam ("x", T_int, Combinators.pure (Var "x"))))
    (T_chan T_int);
  check_ty "join"
    (Combinators.join (Combinators.pure (Combinators.pure (Int 5))))
    (T_chan T_int);
  check_ty "both"
    (Combinators.both (Combinators.pure (Int 1)) (Combinators.pure (Bool true)))
    (T_chan (T_prod (T_int, T_bool)));
  check_ty "pipeline" (Combinators.pipeline 5) T_int;
  check_ty "tree_sum" (Combinators.tree_sum 3) T_int;
  check_ty "bind_chain" (Combinators.bind_chain 4) T_int

let test_combinators_run () =
  let expect name e v =
    match Semantics.eval e with
    | Some (Int n) -> Alcotest.(check int) name v n
    | Some other -> Alcotest.failf "%s: got %s" name (Syntax.to_string other)
    | None -> Alcotest.failf "%s: no value" name
  in
  expect "map doubles" (Wait (Combinators.map
    (Lam ("x", T_int, Bin (Mul, Var "x", Int 2)))
    (Combinators.pure (Int 21)))) 42;
  expect "pipeline 5 = 1+1+2+3+4+5" (Combinators.pipeline 5) 16;
  expect "tree_sum 3 = 2^3" (Combinators.tree_sum 3) 8;
  expect "bind_chain 6" (Combinators.bind_chain 6) 6

let test_combinators_terminate () =
  List.iter
    (fun (name, e) ->
      Alcotest.(check bool) name true (certified e))
    [
      ("pipeline 8", Combinators.pipeline 8);
      ("tree_sum 4", Combinators.tree_sum 4);
      ("bind_chain 8", Combinators.bind_chain 8);
    ]

(* ---------- the theorem, property-tested ---------- *)

let generated_welltyped_prop =
  QCheck_alcotest.to_alcotest
    (Q.Test.make ~count:300 ~name:"generated programs typecheck at int"
       ~print:Gen.print_promise Gen.promise_term
       (fun e ->
         match Typing.typecheck e with
         | Ok T_int -> true
         | Ok _ | Error _ -> false))

let welltyped_terminate_prop =
  QCheck_alcotest.to_alcotest
    (Q.Test.make ~count:300
       ~name:"§5.2 theorem: well-typed programs terminate"
       ~print:Gen.print_promise Gen.promise_term
       (fun e ->
         Typing.well_typed e
         &&
         match Semantics.exec ~budget:(Robust.Budget.of_steps 100_000) e with
         | Semantics.Value (Int _, _) -> true
         | Semantics.Value _ | Semantics.Deadlocked _ | Semantics.Stuck _
         | Semantics.Out_of_fuel ->
           false))

let welltyped_credit_prop =
  QCheck_alcotest.to_alcotest
    (Q.Test.make ~count:150
       ~name:"§5.2 theorem: credit harness certifies generated programs"
       ~print:Gen.print_promise Gen.promise_term
       certified)

(* The adaptive pre-run counts steps on the scheduler; the checked run
   must take exactly that many, spending the learned credit to 0. *)
let credit_counts_exec_prop =
  QCheck_alcotest.to_alcotest
    (Q.Test.make ~count:150
       ~name:"§5.2 credit game: steps = Semantics.exec, credit spent"
       ~print:Gen.print_promise Gen.promise_term
       (fun e ->
         match (Termination.verify e, Semantics.exec e) with
         | Termination.Wp.Terminated (v, left, st), Semantics.Value (v', n) ->
           v = v' && st.Termination.Wp.steps = n
           && (n = 0 || Ord.is_zero left)
         | _ -> false))

let suite =
  [
    Alcotest.test_case "typing: positive" `Quick test_typing_positive;
    Alcotest.test_case "typing: negative" `Quick test_typing_negative;
    Alcotest.test_case "evaluation" `Quick test_eval;
    Alcotest.test_case "cross-task blocking" `Quick test_blocking_order;
    Alcotest.test_case "scheduler accounting" `Quick test_scheduler_counts;
    Alcotest.test_case "untyped Ω diverges" `Quick test_untyped_divergence;
    Alcotest.test_case "credit verification of case studies" `Quick
      test_credit_verification;
    Alcotest.test_case "credit harness rejects Ω" `Quick
      test_credit_rejects_divergence;
    Alcotest.test_case "credit rejection: forensics and metrics" `Quick
      test_credit_rejection_observed;
    Alcotest.test_case "pre-run stops Ω at its first repeat" `Quick
      test_prerun_cuts_omega;
    Alcotest.test_case "pre-run counts to the end, stops at the deadline"
      `Quick test_prerun_counts_and_deadline;
    Alcotest.test_case "combinators: typing" `Quick test_combinators_typed;
    Alcotest.test_case "combinators: evaluation" `Quick test_combinators_run;
    Alcotest.test_case "combinators: termination" `Quick
      test_combinators_terminate;
    generated_welltyped_prop;
    welltyped_terminate_prop;
    welltyped_credit_prop;
    credit_counts_exec_prop;
  ]
