(* RefinementSHL: the Figure 3 rule checker (both systems), the driver,
   strategies, memoization certificates, and adequacy (Theorem 4.3). *)

open Tfiris
open Refinement
module Q = QCheck2
module Shl = Tfiris.Shl
module Budget = Tfiris.Robust.Budget

let parse = Shl.Parser.parse_exn

let lockstep_tp_script ?fuel (g : Rules.goal) : Rules.script option =
  Rules.lockstep_script ?fuel g

(* ---------- Lemma 4.2 instances ---------- *)

let loop_with f = Shl.Ast.(App (App (Shl.Prog.loop, parse f), unit_))

let test_loop_terminating () =
  (* f = g = λ_. false: both sides run the loop zero times and finish *)
  let g =
    Rules.goal ~target:(loop_with "fun u -> false")
      ~source:(loop_with "fun u -> false") ()
  in
  match lockstep_tp_script g with
  | Some script ->
    Alcotest.(check bool) "script proves the goal" true
      (Rules.proved Rules.Refinement_tp g script)
  | None -> Alcotest.fail "no script found"

let test_loop_diverging_loeb () =
  (* f = g = λ_. true: the classic Löb cycle of Lemma 4.2 *)
  let g =
    Rules.goal ~target:(loop_with "fun u -> true")
      ~source:(loop_with "fun u -> true") ()
  in
  match lockstep_tp_script g with
  | Some script ->
    Alcotest.(check bool) "Löb script proves the diverging loop" true
      (Rules.proved Rules.Refinement_tp g script);
    Alcotest.(check bool) "script uses Löb and the hypothesis" true
      (List.mem (Rules.Loeb "IH") script
      && List.mem (Rules.Use_hyp "IH") script)
  | None -> Alcotest.fail "no script found"

(* ---------- the §4.1 unsoundness: e_loop ⪯ skip ---------- *)

(* In the Iris result-refinement system the later is stripped by target
   steps alone, so the Löb proof goes through with the source never
   moving.  Build the script by stepping the target to its cycle. *)
let iris_eloop_script () : Rules.script =
  let rec to_cycle (t : Shl.Step.config) seen acc =
    if List.mem t seen then (List.rev acc, t, List.length seen)
    else
      match Shl.Step.prim_step t with
      | Ok (t', _) -> to_cycle t' (seen @ [ t ]) (Rules.Pure_t :: acc)
      | Error _ -> (List.rev acc, t, 0)
  in
  let t0 = Shl.Step.config Shl.Prog.e_loop in
  (* find the first recurring configuration *)
  let rec find_entry t seen =
    if List.mem t seen then t
    else
      match Shl.Step.prim_step t with
      | Ok (t', _) -> find_entry t' (seen @ [ t ])
      | Error _ -> t
  in
  let entry = find_entry t0 [] in
  (* prefix: steps from t0 to entry *)
  let rec prefix t acc =
    if t = entry then List.rev acc
    else
      match Shl.Step.prim_step t with
      | Ok (t', _) -> prefix t' (Rules.Pure_t :: acc)
      | Error _ -> List.rev acc
  in
  (* cycle: steps from entry back to entry *)
  let cycle =
    let rec go t acc first =
      if (not first) && t = entry then List.rev acc
      else
        match Shl.Step.prim_step t with
        | Ok (t', _) -> go t' (Rules.Pure_t :: acc) false
        | Error _ -> List.rev acc
    in
    go entry [] true
  in
  ignore to_cycle;
  prefix t0 [] @ [ Rules.Loeb "IH" ] @ cycle @ [ Rules.Use_hyp "IH" ]

let test_eloop_skip_iris_accepts () =
  let g = Rules.goal ~target:Shl.Prog.e_loop ~source:Shl.Prog.skip () in
  let script = iris_eloop_script () in
  Alcotest.(check bool)
    "Iris result rules ACCEPT e_loop ⪯ skip (the §4.1 inadequacy)" true
    (Rules.proved Rules.Iris_result g script)

let test_eloop_skip_tp_rejects () =
  let g = Rules.goal ~target:Shl.Prog.e_loop ~source:Shl.Prog.skip () in
  (* the same proof idea, translated to §4.2 rules: stutter the target
     around its cycle. It must fail: the hypothesis stays guarded. *)
  let translate = function
    | Rules.Pure_t -> [ Rules.Tp_stutter_t; Rules.Tp_pure_t ]
    | r -> [ r ]
  in
  let script = List.concat_map translate (iris_eloop_script ()) in
  (match Rules.check Rules.Refinement_tp g script with
  | Ok Rules.Proved -> Alcotest.fail "TP rules must reject e_loop ⪯ skip"
  | Ok (Rules.Open _) -> Alcotest.fail "script should fail at Use_hyp"
  | Error e ->
    Alcotest.(check bool) "fails at the guarded hypothesis" true
      (e.Rules.rule = "Hyp(IH)"));
  (* spending the one available source step does not help either: the
     source config then differs from the hypothesis *)
  let with_src_step =
    match iris_eloop_script () with
    | prefix_and_rest ->
      let rec split acc = function
        | Rules.Loeb n :: rest -> (List.rev acc, Rules.Loeb n :: rest)
        | r :: rest -> split (r :: acc) rest
        | [] -> (List.rev acc, [])
      in
      let pre, rest = split [] prefix_and_rest in
      List.concat_map translate pre
      @ [ Rules.Loeb "IH"; Rules.Tp_pure_s; Rules.Tp_pure_t ]
      @ List.concat_map translate
          (List.filter
             (function Rules.Loeb _ -> false | _ -> true)
             (match rest with _ :: tl -> tl | [] -> []))
  in
  match Rules.check Rules.Refinement_tp g with_src_step with
  | Ok Rules.Proved -> Alcotest.fail "must not prove"
  | Ok (Rules.Open _) | Error _ -> ()

let test_iris_rules_not_in_tp () =
  let g = Rules.goal ~target:Shl.Prog.e_loop ~source:Shl.Prog.skip () in
  match Rules.check Rules.Refinement_tp g [ Rules.Pure_t ] with
  | Error e -> Alcotest.(check string) "PureT refused" "PureT" e.Rules.rule
  | Ok _ -> Alcotest.fail "PureT must not be available in RefinementSHL"

let test_rule_side_conditions () =
  let g =
    Rules.goal ~target:(parse "1 + 1") ~source:(parse "ref 1") ()
  in
  (* wrong step class *)
  (match Rules.check Rules.Refinement_tp g [ Rules.Tp_pure_s ] with
  | Error e -> Alcotest.(check string) "store vs pure" "TPPureS" e.Rules.rule
  | Ok _ -> Alcotest.fail "source step is an alloc, TPPureS must fail");
  (* target-stepping rule in source-stepping triple *)
  (match Rules.check Rules.Refinement_tp g [ Rules.Tp_pure_t ] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "wrong triple form");
  (* e_t ∉ Val side condition *)
  let gv = Rules.goal ~target:(parse "()") ~source:(parse "1 + 1") () in
  (match Rules.check Rules.Refinement_tp gv [ Rules.Tp_pure_s ] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "e_t ∉ Val must be enforced");
  (* Value_done requires equal ground values *)
  let gm = Rules.goal ~target:(parse "1") ~source:(parse "2") () in
  match Rules.check Rules.Refinement_tp gm [ Rules.Value_done ] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "distinct values must not close"

(* ---------- driver ---------- *)

let test_driver_lockstep () =
  (* lockstep needs runs of equal length: identical programs *)
  let t = Shl.Step.config (parse "1 + 2 + 3") in
  let s = Shl.Step.config (parse "1 + 2 + 3") in
  (match Driver.run ~target:t ~source:s Strategy.lockstep with
  | Driver.Accepted (Driver.Terminated (Shl.Ast.Int 6), _) -> ()
  | v -> Alcotest.failf "unexpected: %a" Driver.pp_verdict v);
  (* a shorter source works via the oracle strategy, which paces and
     stutters with exact budgets *)
  let s' = Shl.Step.config (parse "2 + 4") in
  match Strategy.oracle ~target:t ~source:s' () with
  | None -> Alcotest.fail "oracle should exist for terminating pair"
  | Some strat -> (
    match Driver.run ~target:t ~source:s' strat with
    | Driver.Accepted (Driver.Terminated (Shl.Ast.Int 6), _) -> ()
    | v -> Alcotest.failf "oracle unexpected: %a" Driver.pp_verdict v)

let test_driver_value_mismatch () =
  let t = Shl.Step.config (parse "1 + 2") in
  let s = Shl.Step.config (parse "1 + 3") in
  match Driver.run ~target:t ~source:s Strategy.lockstep with
  | Driver.Rejected (Driver.Value_mismatch _, _) -> ()
  | v -> Alcotest.failf "unexpected: %a" Driver.pp_verdict v

let test_driver_budget_enforced () =
  (* a stutter that does not decrease is rejected *)
  let bad : Driver.strategy =
    {
      Driver.name = "bad";
      decide =
        (fun ~step_no:_ ~target:_ ~source:_ ~budget -> Driver.Stutter budget);
    }
  in
  let t = Shl.Step.config Shl.Prog.e_loop in
  let s = Shl.Step.config Shl.Prog.e_loop in
  match Driver.run ~target:t ~source:s bad with
  | Driver.Rejected (Driver.Budget_not_decreasing _, _) -> ()
  | v -> Alcotest.failf "unexpected: %a" Driver.pp_verdict v

let test_driver_stutter_wellfounded () =
  (* stutter-only from ω is forced to stop within finitely many steps *)
  let t = Shl.Step.config Shl.Prog.e_loop in
  let s = Shl.Step.config Shl.Prog.skip in
  match Driver.run ~init_budget:Ord.omega ~target:t ~source:s
          (Strategy.stutter_only Ord.omega) with
  | Driver.Rejected (_, st) ->
    Alcotest.(check bool) "rejected after finitely many stutters" true
      (st.Driver.target_steps < 1000)
  | Driver.Accepted _ -> Alcotest.fail "must not accept e_loop ⪯ skip"

let test_driver_ground_type () =
  (* a closure result violates ⪯G's ground-type requirement *)
  let t = Shl.Step.config (parse "fun x -> x") in
  let s = Shl.Step.config (parse "fun x -> x") in
  match Driver.run ~target:t ~source:s Strategy.lockstep with
  | Driver.Rejected (Driver.Result_not_ground _, _) -> ()
  | v -> Alcotest.failf "unexpected: %a" Driver.pp_verdict v

let test_divergence_transfer () =
  let t = Shl.Step.config Shl.Prog.e_loop in
  let s = Shl.Step.config (loop_with "fun u -> true") in
  Alcotest.(check bool) "source driven unboundedly" true
    (Adequacy.divergence_transfer
       ~budgets:(List.map Budget.of_steps [ 100; 1000; 5000 ])
       ~target:t ~source:s Strategy.lockstep)

(* ---------- memoization case studies (E4/E5) ---------- *)

let certify_ok name inst =
  Alcotest.test_case name `Slow (fun () ->
      match Memo_spec.certify inst with
      | Some (Driver.Accepted (Driver.Terminated _, _) as v) ->
        Alcotest.(check bool) "adequate" true
          (Adequacy.verdict_adequate ~target:inst.Memo_spec.target
             ~source:inst.Memo_spec.source ~budget:(Budget.of_steps 50_000_000) v)
      | Some v -> Alcotest.failf "not accepted: %a" Driver.pp_verdict v
      | None -> Alcotest.fail "no certificate")

let test_broken_template () =
  (* the §1 mutation diverges: no oracle certificate, and online
     strategies are rejected or report divergence with a terminated
     source — never accepted as Terminated *)
  let inst = Memo_spec.broken_instance 3 in
  Alcotest.(check bool) "no oracle certificate" true
    (Memo_spec.certify ~fuel:100_000 inst = None);
  match
    Driver.run ~budget:(Budget.of_steps 100_000) ~target:inst.Memo_spec.target
      ~source:inst.Memo_spec.source Strategy.lockstep
  with
  | Driver.Accepted (Driver.Terminated _, _) ->
    Alcotest.fail "broken memoization must not be certified as terminated"
  | Driver.Accepted (Driver.Fuel_exhausted _, _) | Driver.Rejected _ -> ()

let test_lookup_cost_unbounded () =
  match Memo_spec.lookup_cost 6, Memo_spec.lookup_cost 14 with
  | Some small, Some big ->
    Alcotest.(check bool) "lookup stutters grow with the table" true
      (big > small + 20)
  | _, _ -> Alcotest.fail "lookup cost measurement failed"

(* ---------- compositionality: refinement under evaluation contexts ----------

   The paper's ⪯G quantifies over all contexts K (the Bind rule); the
   driver checks K = empty.  Empirically validate the quantification:
   certified pairs stay certified when plugged into larger contexts. *)

let test_context_compositionality () =
  let pairs =
    [ ("1 + 2 + 3", "6"); ("(fun x -> x * 2) 21", "42 + 0") ]
  in
  let contexts =
    [
      (fun e -> Shl.Ast.Bin_op (Shl.Ast.Add, e, Shl.Ast.int_ 5));
      (fun e -> Shl.Ast.Let ("x", e, parse "x * x"));
      (fun e -> Shl.Ast.Seq (parse "ref 9", e));
      (fun e -> Shl.Ast.If (parse "1 < 2", e, parse "0"));
    ]
  in
  List.iter
    (fun (t_src, s_src) ->
      List.iteri
        (fun i k ->
          let target = Shl.Step.config (k (parse t_src)) in
          let source = Shl.Step.config (k (parse s_src)) in
          match Strategy.oracle ~target ~source () with
          | None -> Alcotest.failf "K%d: no oracle" i
          | Some strat -> (
            match Driver.run ~target ~source strat with
            | Driver.Accepted (Driver.Terminated _, _) -> ()
            | v ->
              Alcotest.failf "K%d[%s ⪯ %s]: %a" i t_src s_src
                Driver.pp_verdict v))
        contexts)
    pairs

(* ---------- queue refinement case study ---------- *)

let test_queue_basic () =
  let ops =
    Queue_spec.[ Push 1; Push 2; Pop; Push 3; Pop; Pop; Pop; Push 4; Pop ]
  in
  (match Queue_spec.run_impl ~batched:true ops with
  | Some obs -> Alcotest.(check bool) "batched matches oracle" true (obs = Queue_spec.oracle ops)
  | None -> Alcotest.fail "batched run failed");
  (match Queue_spec.run_impl ~batched:false ops with
  | Some obs -> Alcotest.(check bool) "naive matches oracle" true (obs = Queue_spec.oracle ops)
  | None -> Alcotest.fail "naive run failed");
  match Queue_spec.certify ops with
  | Some (Driver.Accepted (Driver.Terminated _, _)) -> ()
  | Some v -> Alcotest.failf "not accepted: %a" Driver.pp_verdict v
  | None -> Alcotest.fail "no certificate"

let test_queue_empty_pops () =
  (* popping an empty queue yields None on both sides *)
  let ops = Queue_spec.[ Pop; Pop; Push 7; Pop; Pop ] in
  match Queue_spec.run_impl ~batched:true ops with
  | Some obs ->
    Alcotest.(check bool) "Nones recorded" true
      (obs = Queue_spec.oracle ops && List.length obs = 4)
  | None -> Alcotest.fail "run failed"

let queue_oracle_prop =
  QCheck_alcotest.to_alcotest
    (Q.Test.make ~count:100 ~name:"both queues match the OCaml oracle"
       ~print:Gen.print_queue_ops Gen.queue_ops
       (fun ops ->
         Queue_spec.run_impl ~batched:true ops = Some (Queue_spec.oracle ops)
         && Queue_spec.run_impl ~batched:false ops = Some (Queue_spec.oracle ops)))

let queue_refinement_prop =
  QCheck_alcotest.to_alcotest
    (Q.Test.make ~count:40
       ~name:"batched ⪯ naive certified on random scripts"
       ~print:Gen.print_queue_ops Gen.queue_ops
       (fun ops ->
         match Queue_spec.certify ops with
         | Some (Driver.Accepted (Driver.Terminated _, _)) -> true
         | Some _ | None -> false))

(* ---------- adequacy property over random terminating pairs ---------- *)

let adequacy_prop =
  QCheck_alcotest.to_alcotest
    (Q.Test.make ~count:100
       ~name:"Theorem 4.3 (results): accepted ⟹ values really agree"
       ~print:Gen.print_shl Gen.shl_expr
       (fun e ->
         (* reflexive refinement: e ⪯ e via lockstep; whenever accepted
            as Terminated, independent replay agrees *)
         let t = Shl.Step.config e in
         let s = Shl.Step.config e in
         match
           Driver.run ~budget:(Budget.of_steps 2000) ~target:t ~source:s
             Strategy.lockstep
         with
         | Driver.Accepted (Driver.Terminated _, _) as v ->
           Adequacy.verdict_adequate ~target:t ~source:s
             ~budget:(Budget.of_steps 5000) v
         | Driver.Accepted (Driver.Fuel_exhausted _, _) | Driver.Rejected _ ->
           true))

let suite =
  [
    Alcotest.test_case "Lemma 4.2: terminating loop script" `Quick
      test_loop_terminating;
    Alcotest.test_case "Lemma 4.2: diverging loop via Löb" `Quick
      test_loop_diverging_loeb;
    Alcotest.test_case "§4.1: Iris rules accept e_loop ⪯ skip" `Quick
      test_eloop_skip_iris_accepts;
    Alcotest.test_case "§4.2: TP rules reject e_loop ⪯ skip" `Quick
      test_eloop_skip_tp_rejects;
    Alcotest.test_case "rule-system separation" `Quick test_iris_rules_not_in_tp;
    Alcotest.test_case "side conditions enforced" `Quick
      test_rule_side_conditions;
    Alcotest.test_case "driver: lockstep accepts" `Quick test_driver_lockstep;
    Alcotest.test_case "driver: value mismatch" `Quick
      test_driver_value_mismatch;
    Alcotest.test_case "driver: budget descent enforced" `Quick
      test_driver_budget_enforced;
    Alcotest.test_case "driver: stuttering is well-founded" `Quick
      test_driver_stutter_wellfounded;
    Alcotest.test_case "driver: ground-type results" `Quick
      test_driver_ground_type;
    Alcotest.test_case "divergence transfer (Thm 4.3 clause 2)" `Quick
      test_divergence_transfer;
    certify_ok "memo fib certificate (E4)" (Memo_spec.fib_instance 10);
    certify_ok "memo slen certificate" (Memo_spec.slen_instance "hello");
    certify_ok "memo lev certificate (E5)" (Memo_spec.lev_instance "cat" "hat");
    Alcotest.test_case "broken template (§1 mutation)" `Quick
      test_broken_template;
    Alcotest.test_case "unbounded stuttering (vs bounded-stutter logics)"
      `Slow test_lookup_cost_unbounded;
    Alcotest.test_case "compositionality under contexts (Bind)" `Quick
      test_context_compositionality;
    Alcotest.test_case "queue refinement: basics" `Quick test_queue_basic;
    Alcotest.test_case "queue refinement: empty pops" `Quick
      test_queue_empty_pops;
    queue_oracle_prop;
    queue_refinement_prop;
    adequacy_prop;
  ]
