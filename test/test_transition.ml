(* Abstract simulations (§2): gfp vs step-indexed approximations on
   finite systems, adequacy against brute-force refinement checking, and
   the t∞ ⪯ s<∞ counterexample. *)

open Tfiris
module Q = QCheck2

(* A deterministic 3-step terminating system: 0 → 1 → 2 (= true). *)
let straight =
  Ts.make ~num_states:3 ~initial:0 ~edges:[ (0, 1); (1, 2) ]
    ~results:[ (2, true) ]

(* A looping system. *)
let looping = Ts.make ~num_states:1 ~initial:0 ~edges:[ (0, 0) ] ~results:[]

(* Nondeterministic: may terminate true or loop. *)
let maybe =
  Ts.make ~num_states:3 ~initial:0 ~edges:[ (0, 1); (0, 2); (2, 2) ]
    ~results:[ (1, true) ]

let test_ts_basics () =
  Alcotest.(check bool) "straight evaluates to true" true
    (Ts.evaluates_to straight true);
  Alcotest.(check bool) "straight does not diverge" false (Ts.diverges straight);
  Alcotest.(check bool) "looping diverges" true (Ts.diverges looping);
  Alcotest.(check bool) "maybe does both" true
    (Ts.evaluates_to maybe true && Ts.diverges maybe)

let test_refinement_checkers () =
  Alcotest.(check bool) "straight result-refines maybe" true
    (Ts.result_refinement ~target:straight ~source:maybe);
  Alcotest.(check bool) "looping TP-refines maybe" true
    (Ts.tp_refinement ~target:looping ~source:maybe);
  Alcotest.(check bool) "looping does NOT TP-refine straight" false
    (Ts.tp_refinement ~target:looping ~source:straight)

let test_simulation_basics () =
  Alcotest.(check bool) "straight ⪯ straight" true
    (Simulation.simulates ~target:straight ~source:straight);
  Alcotest.(check bool) "looping ⪯ looping" true
    (Simulation.simulates ~target:looping ~source:looping);
  Alcotest.(check bool) "looping ⪯ maybe (via the loop branch)" true
    (Simulation.simulates ~target:looping ~source:maybe);
  Alcotest.(check bool) "straight ⋠ looping (no result)" false
    (Simulation.simulates ~target:straight ~source:looping)

let test_approximations () =
  (* ⪯₀ is full; the chain is decreasing; it stabilizes at the gfp *)
  let r0 = Simulation.approx ~target:straight ~source:looping 0 in
  Alcotest.(check bool) "⪯₀ relates everything" true
    (Simulation.holds r0 straight looping);
  let gfp, stage = Simulation.gfp ~target:straight ~source:looping in
  Alcotest.(check bool) "stabilizes within |T|·|S| stages" true
    (stage <= 3 * 1);
  let at_stage = Simulation.approx ~target:straight ~source:looping stage in
  Alcotest.(check bool) "approx at stage = gfp" true
    (Simulation.rel_equal gfp at_stage);
  (* ordinal-indexed: ω gives the gfp on finite systems *)
  let at_omega = Simulation.approx_ord ~target:straight ~source:looping Ord.omega in
  Alcotest.(check bool) "⪯_ω = gfp" true (Simulation.rel_equal gfp at_omega)

let test_replay () =
  match Simulation.replay ~target:straight ~source:straight [ 0; 1; 2 ] with
  | Some run -> Alcotest.(check (list int)) "lockstep replay" [ 0; 1; 2 ] run
  | None -> Alcotest.fail "replay failed"

(* ---------- §2.3 counterexample ---------- *)

let test_counterexample () =
  let r = Counterexample.run ~indices:64 ~max_pick:256 () in
  Alcotest.(check bool) "t∞ ⪯ᵢ s<∞ for all finite i" true r.approx_all_hold;
  Alcotest.(check bool) "witnesses are incoherent" true r.witnesses_incoherent;
  Alcotest.(check bool) "s<∞ always terminates" true r.source_always_terminates

let test_counterexample_runs () =
  (* Pick, Run 5 … Run 0, Done: 8 states *)
  Alcotest.(check int) "run picking 5 has length 8"
    8 (Counterexample.run_length_of_pick 5);
  Alcotest.(check bool) "run lengths grow with the pick" true
    (Counterexample.run_length_of_pick 10 < Counterexample.run_length_of_pick 20);
  Alcotest.(check (option int)) "witness for i=8 picks 7" (Some 7)
    (Counterexample.first_pick (Counterexample.witness_run 8))

(* ---------- Lemma 2.3: measured systems (Goodstein, Hydra) ---------- *)

let test_measure_validate () =
  (* a correct countdown measure validates; an off-by-one one does not *)
  let countdown : int Measure.t =
    {
      Measure.state_pp = Format.pp_print_int;
      step = (fun n -> if n = 0 then [] else [ n - 1 ]);
      measure = (fun n -> Ord.of_int n);
    }
  in
  (match Measure.validate countdown 10 with
  | Ok None -> ()
  | Ok (Some _) -> Alcotest.fail "countdown measure wrongly refuted"
  | Error m -> Alcotest.fail m);
  let broken = { countdown with Measure.measure = (fun n -> Ord.of_int (n / 2)) } in
  match Measure.validate broken 10 with
  | Ok (Some v) ->
    Alcotest.(check bool) "violation reported with equal measures" true
      (Ord.equal v.Measure.from_measure v.Measure.to_measure)
  | Ok None -> Alcotest.fail "broken measure wrongly validated"
  | Error m -> Alcotest.fail m

let test_measure_run_rejects_cheat () =
  (* a system that does not decrease is stopped, not spun *)
  let cheat : int Measure.t =
    {
      Measure.state_pp = Format.pp_print_int;
      step = (fun n -> [ n + 1 ]);
      measure = (fun _ -> Ord.omega);
    }
  in
  match Measure.run cheat ~choose:List.hd 0 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "non-descending run accepted"

(* Exact chop counts: the benchmark's 14 bush shapes, where a depth-2
   bush of width w with regrowth r dies after w·f(w) chops under either
   strategy (f(0) = 1, f(k) = 1 + (r+1)·f(k−1)), and 2×3 with regrowth 1
   after its recorded 1202; plus a line whose chop regrows 5 heads. *)
let test_hydra_dies () =
  let bush2 ~width ~regrow =
    let rec f k = if k = 0 then 1 else 1 + ((regrow + 1) * f (k - 1)) in
    width * f width
  in
  let bushes =
    List.map
      (fun (width, depth, regrow, adversarial) ->
        ( Printf.sprintf "bush %dx%d, regrow %d%s" width depth regrow
            (if adversarial then ", adversarial" else ""),
          Hydra.bush ~width ~depth,
          regrow,
          (if adversarial then Hydra.choose_fattest else Hydra.choose_first),
          if depth = 2 then bush2 ~width ~regrow else 1202 ))
      [
        (3, 2, 4, true); (4, 2, 2, true); (5, 2, 1, true); (3, 2, 3, true);
        (4, 2, 3, false); (2, 3, 1, false); (3, 2, 2, true); (4, 2, 1, true);
        (2, 2, 4, true); (4, 2, 2, false); (3, 2, 4, false); (5, 2, 1, false);
        (3, 2, 3, false); (2, 2, 2, false);
      ]
  in
  List.iter
    (fun (name, h, regrow, choose, chops) ->
      match Hydra.play ~regrow ~choose h with
      | Ok n -> Alcotest.(check int) (name ^ ": chops") chops n
      | Error _ -> Alcotest.failf "%s: measure violation" name)
    (("line 1, regrow 5", Hydra.line 1, 5, Hydra.choose_fattest, 7) :: bushes)

(* The ordinal work of E11's heaviest game is pinned: each chop
   re-measures the rebuilt path only, and compares the cached measures
   of its two ends once. *)
let test_hydra_ordinal_counts () =
  let module Metrics = Obs.Metrics in
  Metrics.reset ();
  Metrics.set_enabled true;
  Fun.protect ~finally:(fun () ->
      Metrics.set_enabled false;
      Metrics.reset ())
  @@ fun () ->
  ignore
    (Hydra.play ~regrow:4 ~choose:Hydra.choose_fattest (Hydra.bush ~width:3 ~depth:2)
      : (int, Hydra.tree Measure.violation) result);
  let s = Metrics.snapshot () in
  Alcotest.(check (option int)) "ordinal.hsum" (Some 87921)
    (Metrics.counter_value s "ordinal.hsum");
  Alcotest.(check (option int)) "ordinal.compare" (Some 99432)
    (Metrics.counter_value s "ordinal.compare")

let test_hydra_measure () =
  Alcotest.(check string) "μ(bush 2x2) = ω²·2" "\xcf\x89^2\xc2\xb72"
    (Ord.to_string (Hydra.measure (Hydra.bush ~width:2 ~depth:2)));
  Alcotest.(check string) "μ(line 3) = ω^ω^ω" "\xcf\x89^\xcf\x89^\xcf\x89"
    (Ord.to_string (Hydra.measure (Hydra.line 3)));
  Alcotest.(check string) "μ(leaf) = 0" "0" (Ord.to_string (Hydra.measure Hydra.leaf))

(* Random hydras of depth ≤ [depth] and width ≤ [width] with regrowth
   0–4, under either strategy. *)
let hydra_prop ~count ~width ~depth name f =
  QCheck_alcotest.to_alcotest
    (Q.Test.make ~count ~name
       ~print:(fun (h, regrow, fattest) ->
         Printf.sprintf "%s, regrow %d, %s" (Gen.print_hydra h) regrow
           (if fattest then "fattest" else "first"))
       (Q.Gen.triple (Gen.hydra ~width ~depth) (Q.Gen.int_range 0 4) Q.Gen.bool)
       (fun (h, regrow, fattest) ->
         f h ~regrow (if fattest then Hydra.choose_fattest else Hydra.choose_first)))

let hydra_descent_prop =
  hydra_prop ~count:200 ~width:4 ~depth:4 "every chop strictly decreases μ"
    (fun h ~regrow _ ->
      let m = Hydra.measure h in
      List.for_all (fun h' -> Ord.lt (Hydra.measure h') m) (Hydra.chops ~regrow h))

(* The annotated game against the list-level one: [Measure.run] over
   [system], cut after [limit] states or at a hydra of more than [big]
   nodes (most games here are astronomically long), visits the states
   the trajectory starts with, each cached measure is [measure] of its
   state, and a game that ends uncut takes [play] as many chops. *)
let hydra_trajectory_prop =
  hydra_prop ~count:300 ~width:4 ~depth:4 "annotated play follows Measure.run"
    (fun h ~regrow strategy ->
      let limit = 200 and big = 200 in
      let sys = Hydra.system ~regrow and left = ref limit and cut = ref false in
      let step t =
        decr left;
        if !left <= 0 || Hydra.size t > big then (cut := true; []) else sys.step t
      in
      match Measure.run { sys with step } ~choose:(Hydra.pick strategy) h with
      | Error _ -> false
      | Ok states ->
        let n = List.length states in
        let annotated = List.of_seq (Seq.take n (Hydra.trajectory ~regrow ~choose:strategy h)) in
        List.map fst annotated = states
        && List.for_all (fun (t, m) -> Ord.equal m (Hydra.measure t)) annotated
        && (!cut || Hydra.play ~regrow ~choose:strategy h = Ok (n - 1)))

(* ---------- properties: simulation adequacy on random systems ---------- *)

let prop name f =
  QCheck_alcotest.to_alcotest
    (Q.Test.make ~count:400 ~name
       ~print:(fun (a, b) -> Gen.print_ts a ^ " vs " ^ Gen.print_ts b)
       (Q.Gen.pair Gen.finite_ts Gen.finite_ts)
       f)

let properties =
  [
    prop "Lemma 2.1: gfp simulation implies result refinement"
      (fun (target, source) ->
        (not (Simulation.simulates ~target ~source))
        || Ts.result_refinement ~target ~source);
    prop "Lemma 2.2 (finite case): gfp simulation implies TP refinement"
      (fun (target, source) ->
        (* On finite systems the coinductive simulation transfers
           divergence: replaying a lasso yields a source lasso. *)
        (not (Simulation.simulates ~target ~source))
        || Ts.tp_refinement ~target ~source);
    prop "approximation chain is decreasing" (fun (target, source) ->
        let r1 = Simulation.approx ~target ~source 1 in
        let r2 = Simulation.approx ~target ~source 2 in
        let r3 = Simulation.approx ~target ~source 3 in
        let included a b =
          (* b ⊆ a pointwise *)
          Array.for_all2
            (fun ra rb -> Array.for_all2 (fun x y -> (not y) || x) ra rb)
            a b
        in
        included r1 r2 && included r2 r3);
    prop "gfp = intersection of finite approximations (finite systems)"
      (fun (target, source) ->
        let gfp, stage = Simulation.gfp ~target ~source in
        Simulation.rel_equal gfp (Simulation.approx ~target ~source (stage + 5)));
    prop "gfp is a post-fixpoint" (fun (target, source) ->
        let gfp, _ = Simulation.gfp ~target ~source in
        Simulation.rel_equal gfp (Simulation.unfold ~target ~source gfp));
    prop "reflexivity of simulation (stuck-free systems)" (fun (target, _) ->
        (* a stuck non-value state simulates nothing, not even itself;
           reflexivity holds for systems without reachable stuck states *)
        let has_stuck =
          List.exists
            (fun s -> target.Ts.step s = [] && target.Ts.result s = None)
            (List.init target.Ts.num_states Fun.id)
        in
        has_stuck || Simulation.simulates ~target ~source:target);
  ]

let suite =
  [
    Alcotest.test_case "transition system basics" `Quick test_ts_basics;
    Alcotest.test_case "brute-force refinement checkers" `Quick
      test_refinement_checkers;
    Alcotest.test_case "simulation gfp basics" `Quick test_simulation_basics;
    Alcotest.test_case "step-indexed approximations" `Quick test_approximations;
    Alcotest.test_case "source run replay" `Quick test_replay;
    Alcotest.test_case "§2.3 counterexample report" `Quick test_counterexample;
    Alcotest.test_case "§2.3 counterexample runs" `Quick
      test_counterexample_runs;
    Alcotest.test_case "Lemma 2.3: measure validation" `Quick
      test_measure_validate;
    Alcotest.test_case "Lemma 2.3: descent enforced at run time" `Quick
      test_measure_run_rejects_cheat;
    Alcotest.test_case "hydra always dies" `Quick test_hydra_dies;
    Alcotest.test_case "hydra measures" `Quick test_hydra_measure;
    Alcotest.test_case "hydra ordinal work" `Quick test_hydra_ordinal_counts;
    hydra_descent_prop;
    hydra_trajectory_prop;
  ]
  @ properties
