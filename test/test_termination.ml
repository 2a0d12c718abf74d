(* TerminationSHL: the strict-descent credit driver (Theorem 5.1),
   finite vs transfinite credits, TSplit composition, and the event-loop
   case study. *)

open Tfiris
open Termination
module Q = QCheck2
module Shl = Tfiris.Shl
module Budget = Tfiris.Robust.Budget

let parse = Shl.Parser.parse_exn
let cfg src = Shl.Step.config (parse src)

let test_countdown_exact () =
  (* countdown with the exact step count succeeds with 0 left *)
  let e = parse "1 + 2 + 3" in
  let n = Option.get (Shl.Interp.steps_to_value e) in
  match Wp.run ~credits:(Ord.of_int n) Wp.countdown (Shl.Step.config e) with
  | Wp.Terminated (Shl.Ast.Int 6, left, st) ->
    Alcotest.(check bool) "credit exactly spent" true (Ord.is_zero left);
    Alcotest.(check int) "steps" n st.Wp.steps
  | v -> Alcotest.failf "unexpected: %a" Wp.pp_verdict v

let test_countdown_insufficient () =
  match Wp.run ~credits:(Ord.of_int 3) Wp.countdown (cfg "1 + 2 + 3 + 4 + 5") with
  | Wp.Rejected (Wp.Gave_up, _) -> ()
  | v -> Alcotest.failf "unexpected: %a" Wp.pp_verdict v

let test_adaptive_omega () =
  (* ω suffices for any terminating program via dynamic instantiation *)
  let fib12 = Shl.Ast.App (Shl.Prog.rec_of Shl.Prog.fib_template, Shl.Ast.int_ 12) in
  match Wp.run ~credits:Ord.omega (Wp.adaptive ()) (Shl.Step.config fib12) with
  | Wp.Terminated (Shl.Ast.Int 144, _, st) ->
    Alcotest.(check int) "exactly one limit refinement" 1 st.Wp.limit_refinements
  | v -> Alcotest.failf "unexpected: %a" Wp.pp_verdict v

let test_diverging_never_accepted () =
  (* e_loop: no credit strategy can be accepted; the adaptive oracle
     gives up, and the checked descent guarantees the driver halts *)
  List.iter
    (fun credits ->
      match
        Wp.run ~credits (Wp.adaptive ~fuel:50_000 ())
          (Shl.Step.config Shl.Prog.e_loop)
      with
      | Wp.Terminated _ -> Alcotest.fail "e_loop accepted as terminating!"
      | Wp.Rejected _ -> ())
    [ Ord.omega; Ord.omega_pow Ord.omega; Ord.of_int 1000 ]

let test_adaptive_wall_deadline () =
  (* the adaptive pre-run honours the run's wall deadline: a diverging
     program that never repeats a configuration (so no cycle cuts it)
     is rejected for the wall budget close to the deadline, not after
     the 10^7-step pre-run; no step is charged for the pre-run *)
  let budget = { Robust.Budget.unlimited with wall_ms = Some 50 } in
  let t0 = Unix.gettimeofday () in
  let v =
    Wp.run ~budget ~credits:Ord.omega (Wp.adaptive ())
      (cfg "(rec f x. f (x + 1)) 0")
  in
  let ms = (Unix.gettimeofday () -. t0) *. 1000. in
  (match v with
  | Wp.Rejected (Wp.Out_of_budget Robust.Budget.Wall_ms, st) ->
    Alcotest.(check int) "rejected at the consulting step" 1 st.Wp.steps
  | v -> Alcotest.failf "unexpected: %a" Wp.pp_verdict v);
  if ms < 50. || ms > 300. then
    Alcotest.failf "finished after %.0f ms, deadline 50 ms" ms;
  (* without a wall bound nothing changes: the pre-run gives up *)
  match
    Wp.run ~budget:(Robust.Budget.of_steps 100) ~credits:Ord.omega
      (Wp.adaptive ~fuel:1_000 ()) (cfg "(rec f x. f (x + 1)) 0")
  with
  | Wp.Rejected (Wp.Gave_up, st) -> Alcotest.(check int) "gave up" 1 st.Wp.steps
  | v -> Alcotest.failf "unexpected: %a" Wp.pp_verdict v

let test_descent_validated () =
  (* a cheating strategy that does not decrease is caught *)
  let cheat : Shl.Step.config Wp.strategy =
    {
      Wp.name = "cheat";
      spend = (fun ~step_no:_ ~config:_ ~credit ~meter:_ -> Some credit);
    }
  in
  match Wp.run ~credits:Ord.omega cheat (cfg "1 + 2") with
  | Wp.Rejected (Wp.Not_decreasing _, _) -> ()
  | v -> Alcotest.failf "unexpected: %a" Wp.pp_verdict v

(* Strategies pay for the configurations they read, and no more:
   countdown never reads one, adaptive reads one at the limit. *)
let test_config_on_demand () =
  let calls = ref 0 in
  let counting =
    {
      Wp.machine with
      Wp.config =
        (fun c ->
          incr calls;
          Wp.machine.Wp.config c);
    }
  in
  let e = parse "(rec f n. if n = 0 then 0 else f (n - 1)) 5" in
  let n = Option.get (Shl.Interp.steps_to_value e) in
  let play credits s =
    calls := 0;
    match Wp.play ~credits counting s (Shl.Machine.config e) with
    | Wp.Terminated (_, _, st) -> Alcotest.(check int) "steps" n st.Wp.steps
    | v -> Alcotest.failf "unexpected: %a" Wp.pp_verdict v
  in
  play (Ord.of_int n) Wp.countdown;
  Alcotest.(check int) "countdown builds no configuration" 0 !calls;
  play Ord.omega (Wp.adaptive ());
  Alcotest.(check int) "adaptive builds one, at the limit" 1 !calls

let test_stuck_rejected () =
  match Wp.run ~credits:Ord.omega (Wp.adaptive ()) (cfg "1 + true") with
  | Wp.Rejected (Wp.Stuck _, _) | Wp.Rejected (Wp.Gave_up, _) -> ()
  | v -> Alcotest.failf "unexpected: %a" Wp.pp_verdict v

(* ---------- TSplit composition (§5.1) ---------- *)

let test_e_two () =
  let f = parse "fun u -> 1 + 2 + 3" in
  match Triple.e_two_spec f with
  | None -> Alcotest.fail "no spec"
  | Some spec -> (
    match Triple.verify spec with
    | Wp.Terminated (Shl.Ast.Int 12, _, _) -> ()
    | v -> Alcotest.failf "unexpected: %a" Wp.pp_verdict v)

let test_dynamic_loop () =
  let u = parse "fun v -> 3 * 4" in
  let f = parse "fun u -> 2 + 2" in
  (match Triple.dynamic_spec ~u ~f with
  | None -> Alcotest.fail "no spec"
  | Some spec -> (
    match Triple.verify spec with
    | Wp.Terminated (Shl.Ast.Int _, _, st) ->
      Alcotest.(check bool) "used a limit refinement (learned k)" true
        (st.Wp.limit_refinements >= 1)
    | v -> Alcotest.failf "unexpected: %a" Wp.pp_verdict v));
  (* the finite-credit baseline fails on a small fixed budget *)
  match Triple.dynamic_finite_attempt ~u ~f ~budget:30 with
  | Wp.Rejected (Wp.Gave_up, _) -> ()
  | v -> Alcotest.failf "finite attempt unexpectedly: %a" Wp.pp_verdict v

let test_split_pots_isolated () =
  (* pot 1 too small: the split strategy fails even though the total
     would cover — credits in one pot cannot pay the other's steps,
     exactly the resource discipline of ∗ *)
  let f = parse "fun u -> 1 + 2 + 3 + 4 + 5 + 6" in
  let boundary = Triple.left_operand_done in
  let tiny = Ord.of_int 2 in
  let big = Ord.of_int 500 in
  let strat =
    Triple.split_strategy ~boundary ~pot1:tiny ~pot2:big Wp.countdown
      Wp.countdown
  in
  match
    Wp.run ~credits:(Ord.hsum tiny big) strat
      (Shl.Step.config (Shl.Prog.e_two f))
  with
  | Wp.Rejected _ -> ()
  | Wp.Terminated _ -> Alcotest.fail "undersized pot must fail"

(* ---------- measured (lexicographic) strategies ---------- *)

module Nested = Tfiris_termination.Nested

let test_nested_measured () =
  let u = parse "fun v -> 2 + 2" in
  let f = parse "fun v -> 1 + 2" in
  (match Nested.verify ~u ~f () with
  | Wp.Terminated (Shl.Ast.Unit, _, st) ->
    Alcotest.(check bool) "several lexicographic drops" true
      (st.Wp.limit_refinements > 4)
  | v -> Alcotest.failf "unexpected: %a" Wp.pp_verdict v);
  (* the finite baseline with a small budget fails *)
  match Nested.verify_finite ~budget:40 ~u ~f () with
  | Wp.Rejected (Wp.Gave_up, _) -> ()
  | v -> Alcotest.failf "finite unexpectedly: %a" Wp.pp_verdict v

let test_nested_zero_rounds () =
  (* u () = 0: the loop body never runs; the measure jumps ω³ → 0 *)
  let u = parse "fun v -> 0" in
  let f = parse "fun v -> 99" in
  match Nested.verify ~u ~f () with
  | Wp.Terminated (Shl.Ast.Unit, _, _) -> ()
  | v -> Alcotest.failf "unexpected: %a" Wp.pp_verdict v

let test_measured_rejects_bad_measure () =
  (* a measure that increases mid-run exhausts its pad and gives up;
     the run is still finite *)
  let bogus _cfg = Some Ord.omega in
  match
    Wp.run_measured ~measure:bogus ~pad:4 (Shl.Step.config Shl.Prog.e_loop)
  with
  | Wp.Rejected (_, st) ->
    Alcotest.(check bool) "stopped quickly" true (st.Wp.steps <= 10)
  | Wp.Terminated _ -> Alcotest.fail "e_loop accepted"

let test_measured_requires_limit_values () =
  (* successor-valued measures are refused: the pad argument would be
     unsound *)
  let succ_valued _ = Some (Ord.succ Ord.omega) in
  match
    Wp.run_measured ~measure:succ_valued ~pad:4
      (Shl.Step.config (parse "1 + 2"))
  with
  | Wp.Rejected _ -> ()
  | Wp.Terminated _ -> Alcotest.fail "successor-valued measure accepted"

let test_ackermann () =
  let e m n = Shl.Ast.app2 Shl.Prog.ack (Shl.Ast.int_ m) (Shl.Ast.int_ n) in
  (* oracle-free sanity: values match the OCaml spec *)
  List.iter
    (fun (m, n) ->
      Alcotest.(check bool)
        (Printf.sprintf "ack %d %d" m n)
        true
        (Shl.Interp.eval ~budget:(Budget.of_steps 50_000_000) (e m n)
        = Some (Shl.Ast.Int (Shl.Prog.ack_spec m n))))
    [ (0, 0); (1, 3); (2, 3); (3, 3) ];
  (* $ω^ω suffices (the classical bound) *)
  match
    Wp.run ~credits:(Ord.omega_pow Ord.omega) (Wp.adaptive ())
      (Shl.Step.config (e 2 3))
  with
  | Wp.Terminated (Shl.Ast.Int 9, _, _) -> ()
  | v -> Alcotest.failf "ack verification: %a" Wp.pp_verdict v

(* ---------- event loop (§5.2, E7) ---------- *)

let test_event_loop_reentrant () =
  List.iter
    (fun (n, m) ->
      match Event_loop.verify_client (Event_loop.reentrant_client ~n ~m) with
      | Wp.Terminated (Shl.Ast.Unit, _, _) -> ()
      | v ->
        Alcotest.failf "client(%d,%d) unexpected: %a" n m Wp.pp_verdict v)
    [ (0, 0); (1, 5); (4, 3); (6, 6) ]

let test_event_loop_dynamic () =
  let u = parse "fun v -> 6 * 7" in
  (match Event_loop.verify_client (Event_loop.dynamic_client ~u) with
  | Wp.Terminated (Shl.Ast.Unit, _, _) -> ()
  | v -> Alcotest.failf "dynamic client unexpected: %a" Wp.pp_verdict v);
  (* a fixed finite budget chosen without knowing u's result fails *)
  match
    Event_loop.verify_client_finite ~budget:60 (Event_loop.dynamic_client ~u)
  with
  | Wp.Rejected (Wp.Gave_up, _) -> ()
  | v -> Alcotest.failf "finite budget unexpectedly: %a" Wp.pp_verdict v

(* ---------- properties ---------- *)

let theorem_5_1_prop =
  QCheck_alcotest.to_alcotest
    (Q.Test.make ~count:150
       ~name:"Theorem 5.1: accepted runs really terminate (replayed)"
       ~print:Gen.print_shl Gen.shl_expr
       (fun e ->
         match
           Wp.run ~credits:Ord.omega
             (Wp.adaptive ~fuel:2000 ())
             (Shl.Step.config e)
         with
         | Wp.Terminated (v, _, _) -> (
           (* independent replay reaches the same value *)
           match Shl.Interp.eval ~budget:(Budget.of_steps 5000) e with
           | Some v' -> v = v'
           | None -> false)
         | Wp.Rejected _ -> true))

let countdown_tight_prop =
  QCheck_alcotest.to_alcotest
    (Q.Test.make ~count:150
       ~name:"finite credits: n steps need exactly n credits"
       ~print:Gen.print_shl Gen.shl_expr
       (fun e ->
         match Shl.Interp.steps_to_value ~budget:(Budget.of_steps 2000) e with
         | None -> true
         | Some n ->
           let run k =
             match
               Wp.run ~credits:(Ord.of_int k) Wp.countdown (Shl.Step.config e)
             with
             | Wp.Terminated _ -> true
             | Wp.Rejected _ -> false
           in
           run n && ((n = 0) || not (run (n - 1)))))

(* The adaptive pre-run counts the rest of the run once; the checked run
   must take exactly the steps the machine needs, and spend the learned
   credit to 0. *)
let adaptive_counts_checked_prop =
  QCheck_alcotest.to_alcotest
    (Q.Test.make ~count:150
       ~name:"adaptive: counted steps = checked steps, credit spent"
       ~print:Gen.print_shl Gen.shl_expr
       (fun e ->
         match
           Wp.run ~credits:Ord.omega
             (Wp.adaptive ~fuel:2000 ())
             (Shl.Step.config e)
         with
         | Wp.Terminated (_, left, st) ->
           Shl.Machine.steps_to_value (Shl.Machine.config e) = Some st.Wp.steps
           && (st.Wp.steps = 0 || Ord.is_zero left)
         | Wp.Rejected _ -> true))

let suite =
  [
    Alcotest.test_case "countdown with exact credit" `Quick test_countdown_exact;
    Alcotest.test_case "countdown with insufficient credit" `Quick
      test_countdown_insufficient;
    Alcotest.test_case "$ω adaptive verifies fib" `Quick test_adaptive_omega;
    Alcotest.test_case "diverging programs never accepted" `Quick
      test_diverging_never_accepted;
    Alcotest.test_case "adaptive pre-run stops at the wall deadline" `Quick
      test_adaptive_wall_deadline;
    Alcotest.test_case "descent is validated" `Quick test_descent_validated;
    Alcotest.test_case "configurations built on demand" `Quick
      test_config_on_demand;
    Alcotest.test_case "stuck programs rejected" `Quick test_stuck_rejected;
    Alcotest.test_case "TSplit: e_two (§5.1)" `Quick test_e_two;
    Alcotest.test_case "TSplit: dynamic loop with $(ω ⊕ n_u)" `Quick
      test_dynamic_loop;
    Alcotest.test_case "TSplit: pots are isolated" `Quick
      test_split_pots_isolated;
    Alcotest.test_case "measured strategy: nested dynamic loops" `Quick
      test_nested_measured;
    Alcotest.test_case "measured strategy: zero rounds" `Quick
      test_nested_zero_rounds;
    Alcotest.test_case "measured strategy: bad measures rejected" `Quick
      test_measured_rejects_bad_measure;
    Alcotest.test_case "measured strategy: limit values required" `Quick
      test_measured_requires_limit_values;
    Alcotest.test_case "Ackermann with $ω^ω" `Slow test_ackermann;
    Alcotest.test_case "event loop: reentrant clients" `Slow
      test_event_loop_reentrant;
    Alcotest.test_case "event loop: dynamic reentrancy" `Quick
      test_event_loop_dynamic;
    theorem_5_1_prop;
    countdown_tight_prop;
    adaptive_counts_checked_prop;
  ]
