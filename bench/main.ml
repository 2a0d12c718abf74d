(* The experiment harness: regenerates every figure/claim of the paper
   (the "tables"), records each experiment's work counters, wall time
   and allocation, and gates them against a saved baseline.

   The paper is a logic paper — its evaluation consists of
   counterexamples, theorems and case studies rather than performance
   tables; EXPERIMENTS.md maps each experiment id (E1–E15, E18) to
   the paper artifact or analyzer claim it reproduces and records the
   measured shapes.  Wall-time regressions of the verdicts users run are
   measured by bench/verdicts/, not here. *)

open Tfiris
module Shl = Tfiris.Shl
module Ref = Tfiris.Refinement
module Term = Tfiris.Termination
module Prom = Tfiris.Promises
module Obs = Tfiris.Obs
module Budget = Tfiris.Robust.Budget

let section title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

let row fmt = Printf.printf fmt

(* ------------------------------------------------------------------ *)
(* E1 — §2.7: the existential dilemma formula in both models           *)
(* ------------------------------------------------------------------ *)

let e1 () =
  section "E1  §2.7: ∃n. ▷ⁿ False — finite vs transfinite model";
  let fml = Dilemma.formula in
  row "  finite model:      valid = %b, height = %s\n"
    (Logic_semantics.valid_fin fml)
    (Fin_height.to_string (Logic_semantics.eval_fin fml));
  row "  transfinite model: valid = %b, height = %s\n"
    (Logic_semantics.valid_trans fml)
    (Height.to_string (Logic_semantics.eval_trans fml));
  row "  witness extraction (finite):      %s\n"
    (Format.asprintf "%a" Existential.pp_verdict
       (Existential.check_fin Formula.later_bot_family));
  row "  witness extraction (transfinite): %s\n"
    (Format.asprintf "%a" Existential.pp_verdict
       (Existential.check_trans Formula.later_bot_family))

(* ------------------------------------------------------------------ *)
(* E2 — §2.3: t∞ ⪯ᵢ s<∞ for every i, yet no refinement                 *)
(* ------------------------------------------------------------------ *)

let e2 () =
  section "E2  §2.3: t∞ vs s<∞ (countable nondeterminism)";
  let r = Counterexample.run ~indices:128 ~max_pick:512 () in
  row "  t∞ ⪯ᵢ s<∞ for i ≤ %d:         %b\n" r.approx_indices_checked
    r.approx_all_hold;
  row "  witnesses incoherent:          %b (picks: %s)\n"
    r.witnesses_incoherent
    (String.concat ", "
       (List.filter_map
          (fun i ->
            Option.map string_of_int
              (Counterexample.first_pick (Counterexample.witness_run i)))
          [ 2; 8; 32 ]));
  row "  s<∞ always terminates:         %b\n" r.source_always_terminates;
  row "  ⟹ no termination-preserving refinement despite all ⪯ᵢ\n"

(* ------------------------------------------------------------------ *)
(* E3 — Fig. 3 / Lemma 4.2: the loop refinement, and e_loop ⪯ skip     *)
(* ------------------------------------------------------------------ *)

let e3 () =
  section "E3  Fig. 3: rule systems on loop refinements";
  let parse = Shl.Parser.parse_exn in
  let loop_with f =
    Shl.Ast.App (Shl.Ast.App (Shl.Prog.loop, parse f), Shl.Ast.unit_)
  in
  let show name system g script_opt =
    match script_opt with
    | Some script ->
      let verdict =
        match Ref.Rules.check system g script with
        | Ok Ref.Rules.Proved -> "PROVED"
        | Ok (Ref.Rules.Open _) -> "open"
        | Error e -> Format.asprintf "rejected (%a)" Ref.Rules.pp_error e
      in
      row "  %-44s %s (script: %d rules)\n" name verdict (List.length script)
    | None -> row "  %-44s no script found\n" name
  in
  let g_term =
    Ref.Rules.goal ~target:(loop_with "fun u -> false")
      ~source:(loop_with "fun u -> false") ()
  in
  show "loop(λ_.false) ⪯ loop(λ_.false) [TP rules]" Ref.Rules.Refinement_tp
    g_term
    (Ref.Rules.lockstep_script g_term);
  let g_div =
    Ref.Rules.goal ~target:(loop_with "fun u -> true")
      ~source:(loop_with "fun u -> true") ()
  in
  show "loop(λ_.true) ⪯ loop(λ_.true) [TP, Löb]" Ref.Rules.Refinement_tp g_div
    (Ref.Rules.lockstep_script g_div);
  (* e_loop ⪯ skip: Iris result rules accept; TP rules reject *)
  let g_bad () =
    Ref.Rules.goal ~target:Shl.Prog.e_loop ~source:Shl.Prog.skip ()
  in
  let iris_script =
    (* step the target to its cycle, Löb around it, source untouched *)
    let rec find_entry t seen =
      if List.mem t seen then t
      else
        match Shl.Step.prim_step t with
        | Ok (t', _) -> find_entry t' (seen @ [ t ])
        | Error _ -> t
    in
    let t0 = Shl.Step.config Shl.Prog.e_loop in
    let entry = find_entry t0 [] in
    let rec cycle_steps t acc first =
      if (not first) && t = entry then List.rev acc
      else
        match Shl.Step.prim_step t with
        | Ok (t', _) -> cycle_steps t' (Ref.Rules.Pure_t :: acc) false
        | Error _ -> List.rev acc
    in
    let prefix =
      let rec go t acc =
        if t = entry then List.rev acc
        else
          match Shl.Step.prim_step t with
          | Ok (t', _) -> go t' (Ref.Rules.Pure_t :: acc)
          | Error _ -> List.rev acc
      in
      go t0 []
    in
    prefix
    @ [ Ref.Rules.Loeb "IH" ]
    @ cycle_steps entry [] true
    @ [ Ref.Rules.Use_hyp "IH" ]
  in
  show "e_loop ⪯ skip [Iris §4.1 rules]" Ref.Rules.Iris_result (g_bad ())
    (Some iris_script);
  let tp_attempt =
    List.concat_map
      (function
        | Ref.Rules.Pure_t -> [ Ref.Rules.Tp_stutter_t; Ref.Rules.Tp_pure_t ]
        | r -> [ r ])
      iris_script
  in
  show "e_loop ⪯ skip [RefinementSHL §4.2 rules]" Ref.Rules.Refinement_tp
    (g_bad ()) (Some tp_attempt);
  row "  (the §4.1 acceptance is the unsoundness the paper fixes)\n"

(* ------------------------------------------------------------------ *)
(* E4/E5 — §4.3: memoization refinements                                *)
(* ------------------------------------------------------------------ *)

let show_certificate (inst : Ref.Memo_spec.instance) =
  match Ref.Memo_spec.certify inst with
  | Some (Ref.Driver.Accepted (Ref.Driver.Terminated v, st)) ->
    row "  %-26s ACCEPTED: value %-6s tgt %7d / src %7d steps, %d stutters\n"
      inst.Ref.Memo_spec.label
      (Shl.Pretty.value_to_string v)
      st.Ref.Driver.target_steps st.Ref.Driver.source_steps
      st.Ref.Driver.stutters
  | Some v ->
    row "  %-26s %s\n" inst.Ref.Memo_spec.label
      (Format.asprintf "%a" Ref.Driver.pp_verdict v)
  | None -> row "  %-26s no certificate\n" inst.Ref.Memo_spec.label

let e4 () =
  section "E4  §4.3: memo_rec Fib — termination-preserving refinement";
  List.iter
    (fun n -> show_certificate (Ref.Memo_spec.fib_instance n))
    [ 5; 10; 15 ];
  row "  step counts (plain vs memoized fib):\n";
  List.iter
    (fun n ->
      let steps f =
        Option.get
          (Shl.Interp.steps_to_value ~budget:(Budget.of_steps 100_000_000)
             (Shl.Ast.App (f, Shl.Ast.int_ n)))
      in
      row "    n = %2d: rec %8d steps | memo %6d steps\n" n
        (steps (Shl.Prog.rec_of Shl.Prog.fib_template))
        (steps (Shl.Prog.memo_of Shl.Prog.fib_template)))
    [ 5; 10; 15; 20 ];
  row "  unbounded stuttering (lookup cost after filling the table):\n";
  List.iter
    (fun n ->
      match Ref.Memo_spec.lookup_cost n with
      | Some c ->
        row "    table to fib %2d: lookup of '1' takes %4d target-only steps\n"
          n c
      | None -> row "    table to fib %2d: (fuel)\n" n)
    [ 4; 8; 12; 16; 20 ];
  (* the §1 mutation; the pre-run stops at the first repeated
     configuration, so the large fuel bound costs nothing *)
  row "  broken template (t g x ↦ g x): %s\n"
    (match
       Ref.Memo_spec.certify ~fuel:200_000 (Ref.Memo_spec.broken_instance 3)
     with
    | None -> "no certificate exists (memoized version diverges)"
    | Some v -> Format.asprintf "%a" Ref.Driver.pp_verdict v)

let e5 () =
  section "E5  §4.3: nested memoized Levenshtein";
  List.iter show_certificate
    [
      Ref.Memo_spec.slen_instance "hello";
      Ref.Memo_spec.lev_instance "cat" "hat";
      Ref.Memo_spec.lev_instance "kitten" "sitting";
    ]

(* ------------------------------------------------------------------ *)
(* E6 — §5.1: time credits                                              *)
(* ------------------------------------------------------------------ *)

let e6 () =
  section "E6  §5.1: finite vs transfinite time credits";
  let parse = Shl.Parser.parse_exn in
  let f = parse "fun u -> 1 + 2 + 3" in
  let u = parse "fun v -> 7 * 4" in
  (match Term.Triple.e_two_spec f with
  | Some spec ->
    row "  e_two = f () + f ():    %-26s -> %s\n" spec.Term.Triple.label
      (Format.asprintf "%a" Term.Wp.pp_verdict (Term.Triple.verify spec))
  | None -> row "  e_two: no spec\n");
  (match Term.Triple.dynamic_spec ~u ~f with
  | Some spec ->
    row "  dynamic loop (k = u ()): %-25s -> %s\n" spec.Term.Triple.label
      (Format.asprintf "%a" Term.Wp.pp_verdict (Term.Triple.verify spec))
  | None -> row "  dynamic loop: no spec\n");
  List.iter
    (fun budget ->
      row "  dynamic loop, finite $%-6d                     -> %s\n" budget
        (Format.asprintf "%a" Term.Wp.pp_verdict
           (Term.Triple.dynamic_finite_attempt ~u ~f ~budget)))
    [ 50; 2000 ];
  row "  (no finite budget can be chosen from n_u alone: k is dynamic)\n";
  (* doubly-dynamic nested loops: lexicographic ω³ certificate, online *)
  let u2 = parse "fun v -> 2 * 3" in
  let f2 = parse "fun v -> 2 + 3" in
  row "  nested loops (both bounds dynamic), $ω³ measured -> %s\n"
    (Format.asprintf "%a" Term.Wp.pp_verdict (Term.Nested.verify ~u:u2 ~f:f2 ()));
  row "  nested loops, finite $100                        -> %s\n"
    (Format.asprintf "%a" Term.Wp.pp_verdict
       (Term.Nested.verify_finite ~budget:100 ~u:u2 ~f:f2 ()));
  (* Ackermann: lexicographic below ω^ω *)
  let ack m n = Shl.Ast.app2 Shl.Prog.ack (Shl.Ast.int_ m) (Shl.Ast.int_ n) in
  row "  ack 2 3, $ω^ω adaptive                           -> %s\n"
    (Format.asprintf "%a" Term.Wp.pp_verdict
       (Term.Wp.run
          ~credits:(Ord.omega_pow Ord.omega)
          (Term.Wp.adaptive ())
          (Shl.Step.config (ack 2 3))))

(* ------------------------------------------------------------------ *)
(* E7 — §5.2: reentrant event loop                                      *)
(* ------------------------------------------------------------------ *)

let e7 () =
  section "E7  §5.2: reentrant event loop termination";
  List.iter
    (fun (n, m) ->
      row "  client n=%d m=%d, $ω·2:  %s\n" n m
        (Format.asprintf "%a" Term.Wp.pp_verdict
           (Term.Event_loop.verify_client
              (Term.Event_loop.reentrant_client ~n ~m))))
    [ (2, 2); (4, 4); (8, 4) ];
  let u = Shl.Parser.parse_exn "fun v -> 6 * 7" in
  row "  dynamic client (k = 42), $ω·2: %s\n"
    (Format.asprintf "%a" Term.Wp.pp_verdict
       (Term.Event_loop.verify_client (Term.Event_loop.dynamic_client ~u)));
  row "  dynamic client, finite $60:    %s\n"
    (Format.asprintf "%a" Term.Wp.pp_verdict
       (Term.Event_loop.verify_client_finite ~budget:60
          (Term.Event_loop.dynamic_client ~u)))

(* ------------------------------------------------------------------ *)
(* E8 — §5.2: the linear async-channel language                         *)
(* ------------------------------------------------------------------ *)

let e8 () =
  section "E8  §5.2: linear async channels (promises)";
  List.iter
    (fun (name, e) ->
      let ty =
        match Prom.Typing.typecheck e with
        | Ok t -> Format.asprintf "%a" Prom.Syntax.pp_ty t
        | Error _ -> "ILL-TYPED"
      in
      row "  %-22s : %-16s %s\n" name ty
        (Format.asprintf "%a" (Term.Wp.pp_outcome Prom.Syntax.pp)
           (Prom.Termination.verify e)))
    [
      ("wait (post (1+2))", Prom.Termination.simple_promise);
      ("chain 20", Prom.Termination.chain 20);
      ("fan 16", Prom.Termination.fan 16);
      ("nested promise", Prom.Termination.nested);
      ("impredicative id", Prom.Termination.impredicative_self);
      ("promise of ∀-value", Prom.Termination.poly_promise);
    ];
  row "  untyped Ω:             %s / scheduler: %s\n"
    (match Prom.Typing.typecheck Prom.Termination.omega_untyped with
    | Ok _ -> "TYPED?!"
    | Error _ -> "rejected by the linear type system")
    (match Prom.Semantics.exec ~fuel:10_000 Prom.Termination.omega_untyped with
    | Prom.Semantics.Out_of_fuel -> "still spinning after 10000 steps"
    | _ -> "?")

(* ------------------------------------------------------------------ *)
(* E9 — Thm 7.1: the no-go theorem                                      *)
(* ------------------------------------------------------------------ *)

let e9 () =
  section "E9  Theorem 7.1: Löb + LaterExists + existential property = ⊥";
  Format.printf "%a@.@.%a@." Dilemma.pp_outcome
    (Dilemma.run Proof.Finite)
    Dilemma.pp_outcome
    (Dilemma.run Proof.Transfinite)

(* ------------------------------------------------------------------ *)
(* E10 — Thm 6.2/6.3: foundations spot checks                           *)
(* ------------------------------------------------------------------ *)

let e10 () =
  section "E10  foundations: Banach fixed points and consistency";
  let q = Height.of_ord Ord.omega in
  (match Height.fixpoint (fun p -> Height.conj q (Height.later p)) with
  | Some r ->
    row "  fixpoint of (λP. Q ∧ ▷P), h(Q)=ω:  %s (Thm 6.3)\n"
      (Height.to_string r)
  | None -> row "  fixpoint: NOT FOUND\n");
  row "  finite iterates from ⊥ (stall below ω): %s\n"
    (String.concat ", "
       (List.map Height.to_string
          (Height.iterates (fun p -> Height.conj q (Height.later p)) 5)));
  row "  consistency: ⊨ False? %b (Thm 6.4)\n"
    (Logic_semantics.valid_trans Formula.False);
  (* the G4ip prover: syntactic provability vs chain validity *)
  let a = Formula.Index_lt Ord.omega in
  let b = Formula.Index_lt (Ord.mul Ord.omega Ord.two) in
  let neg p = Formula.Impl (p, Formula.False) in
  let wem = neg (neg (Formula.Or (a, neg a))) in
  let gd = Formula.Or (Formula.Impl (a, b), Formula.Impl (b, a)) in
  row "  G4ip proves ¬¬(A∨¬A): %b (derivation re-checked: %b)\n"
    (Tauto.provable wem)
    (match Tauto.prove wem with
    | Some d -> Result.is_ok (Proof.check Proof.Transfinite d)
    | None -> false);
  row "  Gödel–Dummett: provable %b, but valid in the chain models %b\n"
    (Tauto.provable gd)
    (Logic_semantics.valid_trans gd && Logic_semantics.valid_fin gd)

(* ------------------------------------------------------------------ *)
(* E12 — queue refinement (a §4-style case study beyond the paper)      *)
(* ------------------------------------------------------------------ *)

let e12 () =
  section "E12  batched queue \xe2\xaa\xaf naive queue";
  let scripts =
    [
      Ref.Queue_spec.[ Push 1; Push 2; Pop; Pop ];
      Ref.Queue_spec.[ Pop; Push 5; Push 6; Pop; Push 7; Pop; Pop; Pop ];
      List.init 12 (fun i ->
          if i mod 3 = 2 then Ref.Queue_spec.Pop else Ref.Queue_spec.Push i);
    ]
  in
  List.iter
    (fun ops ->
      let inst = Ref.Queue_spec.instance ops in
      match Ref.Queue_spec.certify ops with
      | Some (Ref.Driver.Accepted (Ref.Driver.Terminated _, st)) ->
        row "  %-34s ACCEPTED (tgt %5d / src %5d steps, %d stutters)\n"
          inst.Ref.Memo_spec.label st.Ref.Driver.target_steps
          st.Ref.Driver.source_steps st.Ref.Driver.stutters
      | Some v ->
        row "  %-34s %s\n" inst.Ref.Memo_spec.label
          (Format.asprintf "%a" Ref.Driver.pp_verdict v)
      | None -> row "  %-34s no certificate\n" inst.Ref.Memo_spec.label)
    scripts;
  row "  (the reversal burst is target-side stuttering, like memo_rec's lookup)\n"

(* ------------------------------------------------------------------ *)
(* E11 — §2.6 / Lemma 2.3: termination by ordinal simulation            *)
(* ------------------------------------------------------------------ *)

let e11 () =
  section "E11  §2.6 / Lemma 2.3: Goodstein and the Hydra";
  row "  Goodstein G(3): %s\n"
    (String.concat " \xe2\x86\x92 "
       (List.map
          (fun (b, v) -> Printf.sprintf "%d@base%d" v b)
          (Goodstein.sequence 3)));
  row "  G(4) ordinal certificate: %s > ...\n"
    (String.concat " > "
       (List.map Ord.to_string (Goodstein.ordinal_trace ~max_len:4 4)));
  List.iter
    (fun (name, h, regrow, choose) ->
      match Hydra.play ~regrow ~choose h with
      | Ok n ->
        row "  hydra %-22s \xce\xbc = %-10s dead in %4d chops (regrow %d)\n"
          name
          (Ord.to_string (Hydra.measure h))
          n regrow
      | Error _ -> row "  hydra %s: MEASURE VIOLATION\n" name)
    [
      ("bush 2x2, greedy", Hydra.bush ~width:2 ~depth:2, 2, Hydra.choose_first);
      ("bush 3x2, adversarial", Hydra.bush ~width:3 ~depth:2, 2, Hydra.choose_fattest);
      ("bush 3x2, regrow 4", Hydra.bush ~width:3 ~depth:2, 4, Hydra.choose_fattest);
    ];
  row "  (measure of line-3 hydra: %s — finite but astronomical game)\n"
    (Ord.to_string (Hydra.measure (Hydra.line 3)))

(* ------------------------------------------------------------------ *)
(* E13 — the safety logic (Figure 1, "Safety")                          *)
(* ------------------------------------------------------------------ *)

let e13 () =
  section "E13  the safety logic: triples, frames, invariants, logrel";
  let module S = Tfiris.Safety in
  let show name t =
    row "  %-34s %s\n" name
      (Format.asprintf "%a" S.Triple.pp_verdict (S.Triple.check t))
  in
  show "{l1↦10 ∗ l2↦true} swap {swapped}"
    (S.Triple.swap_triple ~l1:0 ~l2:1 ~a:(Shl.Ast.Int 10)
       ~b:(Shl.Ast.Bool true));
  show "{l↦41} incr {l↦42}" (S.Triple.incr_triple ~l:0 ~n:41);
  show "{emp} ref 9 {∃l. l↦9}" (S.Triple.alloc_triple (Shl.Ast.Int 9));
  show "frame rule instance"
    (S.Triple.frame
       (S.Assertion.Points_to (7, Shl.Ast.Unit))
       (S.Triple.incr_triple ~l:0 ~n:5));
  row "  Landin's knot: well-typed at unit, safe at every fuel, diverges:\n";
  row "    ⟦unit⟧ at fuel 50k: %b;  runs ≥ 50k steps: %b\n"
    (S.Logrel.expr_ok ~fuel:50_000 S.Logrel.T_unit S.Logrel.landins_knot)
    (Shl.Interp.diverges_beyond 50_000 S.Logrel.landins_knot);
  let l, h = S.Logrel.knot_heap in
  row "    cyclic store in ⟦ref (unit→unit)⟧ at fuel 50: %b\n"
    (S.Logrel.member 50
       (S.Logrel.T_ref (S.Logrel.T_fun (S.Logrel.T_unit, S.Logrel.T_unit)))
       (Shl.Ast.Loc l) h)

(* ------------------------------------------------------------------ *)
(* E14 — concurrency (§3: inherited safety support)                     *)
(* ------------------------------------------------------------------ *)

let e14 () =
  section "E14  concurrent HeapLang: exhaustive interleaving safety";
  let module Conc = Shl.Conc in
  let show name e =
    let r = Conc.explore (Conc.init e) in
    row "  %-28s finals = {%s}%s  (%d states, %d stuck)\n" name
      (String.concat ", "
         (List.map
            (fun (v, _) -> Shl.Pretty.value_to_string v)
            r.Conc.final_values))
      (match r.Conc.exhausted with
         | Some res -> Printf.sprintf " CAPPED(%s)" (Tfiris.Robust.Budget.resource_name res)
         | None -> "")
      r.Conc.states
      (List.length r.Conc.stuck)
  in
  show "racy counter (2 writers)" Conc.racy_incr;
  show "CAS counter" Conc.locked_incr;
  show "spin lock, read under lock" Conc.spinlock_pair;
  show "spin lock, racy read" Conc.spinlock_pair_racy_read;
  row "  (the racy variants exhibit exactly the schedules a safety proof rules out)\n";
  (* future work (§3), bounded: per-scheduler TP-refinement, each
     certificate a Driver game on the interleaving its pre-run took *)
  let ok, bad =
    Ref.Conc_refine.certify_all_seeds ~seeds:12 ~target:Conc.locked_incr
      ~source:(Shl.Parser.parse_exn "1 + 1") ()
  in
  row "  CAS counter \xe2\xaa\xaf 2 over 12 seeded schedules: %d pass, %d fail\n"
    (List.length ok) (List.length bad);
  let ok2, bad2 =
    Ref.Conc_refine.certify_all_seeds ~seeds:12 ~target:Conc.racy_incr
      ~source:(Shl.Parser.parse_exn "1 + 1") ()
  in
  row "  racy counter \xe2\xaa\xaf 2 over 12 seeded schedules: %d pass, %d fail\n"
    (List.length ok2) (List.length bad2)

(* ------------------------------------------------------------------ *)
(* E15 — the static analyzer over the example corpus                    *)
(* ------------------------------------------------------------------ *)

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

(* The shipped example corpus, relative to the repository root; the
   entry point refuses to run without it. *)
let examples_dir = "examples/shl"

(* The corpus as (file, source) pairs sorted by file name. *)
let examples () =
  Sys.readdir examples_dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".shl")
  |> List.sort compare
  |> List.map (fun f -> (f, read_file (Filename.concat examples_dir f)))

(* [f ()] and its wall time in ms *)
let time f =
  let t0 = Obs.Trace.now_ns () in
  let x = f () in
  let t1 = Obs.Trace.now_ns () in
  (x, Int64.to_float (Int64.sub t1 t0) /. 1e6)

let e15 () =
  section "E15  static analysis: all passes over the examples";
  let module An = Tfiris.Analysis in
  let corpus =
    (* largest example last, so its per-pass split prints at the bottom
       of the section *)
    List.stable_sort
      (fun (_, a) (_, b) -> compare (String.length a) (String.length b))
      (examples ())
    |> List.map (fun (f, src) -> (f, Shl.Parser.parse_exn src))
  in
  List.iter
    (fun (name, e) ->
      let r = An.Analyzer.analyze ~label:name e in
      let count s = An.Finding.count_severity r.An.Analyzer.findings s in
      row "  %-22s %d errors, %d warnings, %d info\n" name
        (count An.Finding.Error) (count An.Finding.Warning)
        (count An.Finding.Info))
    corpus;
  (* per-pass wall time for the largest example *)
  match List.rev corpus with
  | (name, e) :: _ ->
    let r = An.Analyzer.analyze ~label:name e in
    row "  per-pass wall time, largest example (%s):\n" name;
    List.iter
      (fun t ->
        row "    %-10s %8.1f us  (%d findings)\n" t.An.Analyzer.t_pass
          (Int64.to_float t.An.Analyzer.t_ns /. 1e3)
          t.An.Analyzer.t_found)
      r.An.Analyzer.timings
  | [] -> ()

(* ------------------------------------------------------------------ *)
(* E18 — symbolic-heap analyzer: checker + summary fixpoint timings    *)
(* ------------------------------------------------------------------ *)

(* The bi-abductive pass runs two halves per program — the concrete
   safety/leak checker and the summary fixpoint — and both must stay
   cheap enough to sit inside `tfiris analyze` on every example.  This
   experiment times each half alone over the shipped corpus and reports
   the verdict, the checker's visited-node count, how many function
   summaries converged exactly vs were widened, and how many function
   analyses the fixpoint ran vs reused from the previous round, so a
   precision regression (more [approx], fewer exact) or lost reuse is as
   visible as a wall-time one. *)
let e18 () =
  section "E18  symbolic heaps: concrete checker and bi-abduced summaries";
  let module An = Tfiris.Analysis in
  let corpus =
    List.map (fun (f, src) -> (f, Shl.Parser.parse_exn src)) (examples ())
  in
  let counter snap name =
    Option.value ~default:0 (Obs.Metrics.counter_value snap name)
  in
  List.iter
    (fun (name, e) ->
      let r, t_check = time (fun () -> An.Biabd.concrete e) in
      let before = Obs.Metrics.snapshot () in
      let sums, t_sum = time (fun () -> An.Biabd.summaries e) in
      let after = Obs.Metrics.snapshot () in
      let delta c = counter after c - counter before c in
      let exact, widened =
        List.fold_left
          (fun (ex, ap) s ->
            if s.An.Biabd.s_exact then (ex + 1, ap) else (ex, ap + 1))
          (0, 0) sums
      in
      row
        "  %-18s %-7s %5d nodes | %d exact + %d widened summaries | %2d \
         analyses + %2d reused | check %6.2f ms | summaries %6.2f ms\n"
        name
        (An.Biabd.verdict_to_string r.An.Biabd.r_verdict)
        r.An.Biabd.r_steps exact widened
        (delta "analysis.symheap.fn_analyses")
        (delta "analysis.symheap.fn_reused")
        t_check t_sum)
    corpus

(* ------------------------------------------------------------------ *)
(* The driver: run every experiment under the metrics registry for     *)
(* three trials, capture per-experiment counter deltas, the median     *)
(* wall time and a GC/allocation delta, drop the record as             *)
(* BENCH_obs.json (schema tfiris-bench-obs/5, see EXPERIMENTS.md), and *)
(* optionally gate against a saved baseline — exactly on work          *)
(* counters, loosely on median time and on allocated words.            *)
(* ------------------------------------------------------------------ *)

(* Every experiment runs this many times; one slow trial (a GC pause, a
   preempted run) does not move the median of three. *)
let trials = 3

type obs_record = {
  rec_name : string;
  rec_trials_ns : int64 list;  (** wall time of every trial, run order *)
  rec_counters : (string * int) list;
  rec_hist_sums : (string * float) list;
      (** histogram totals — e.g. the per-pass analyzer wall times
          under [analysis.pass.*.wall_ns] *)
  rec_mem : Obs.Telemetry.mem;
      (** GC delta over the first (counter) trial, so allocation
          accounting and counters describe the same run *)
}

let median_ns r =
  Int64.to_float (List.nth (List.sort compare r.rec_trials_ns) (trials / 2))

(* ---------- running the experiments ---------- *)

(* Re-run trials print the same tables again; silence stdout for them
   so the harness output stays one copy of each experiment. *)
let with_quiet f =
  flush stdout;
  let saved = Unix.dup Unix.stdout in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  Unix.dup2 devnull Unix.stdout;
  Unix.close devnull;
  Fun.protect
    ~finally:(fun () ->
      flush stdout;
      Unix.dup2 saved Unix.stdout;
      Unix.close saved)
    f

(* [--mem-handicap=EXP:WORDS] allocates WORDS extra words inside one
   experiment — the deterministic "leaky build" used to test the memory
   gate end-to-end. *)
let mem_handicap : (string * int) option ref = ref None

let alloc_words (words : int) =
  (* A float array of n elements occupies n+1 words; chunk so huge
     handicaps don't need one huge array. *)
  let rec go left =
    if left > 1 then begin
      let n = Stdlib.min left 1_000_000 - 1 in
      ignore (Sys.opaque_identity (Array.make n 0.));
      go (left - (n + 1))
    end
  in
  go words

(* Run one experiment with metrics on for [trials] runs.  The counter
   deltas come from the first trial (the registry is reset before each
   run, so they are per-run, not accumulated); the later trials measure
   wall time only, with stdout silenced. *)
let observe name (f : unit -> unit) : obs_record =
  let run_once () =
    Obs.Metrics.reset ();
    Obs.Metrics.set_enabled true;
    let t0 = Obs.Trace.now_ns () in
    (match !mem_handicap with
    | Some (e, words) when e = name -> alloc_words words
    | _ -> ());
    f ();
    let t1 = Obs.Trace.now_ns () in
    Obs.Metrics.set_enabled false;
    Int64.sub t1 t0
  in
  let gc_before = Obs.Telemetry.sample () in
  let w1 = run_once () in
  let mem =
    Obs.Telemetry.measure ~before:gc_before ~after:(Obs.Telemetry.sample ())
  in
  let snap = Obs.Metrics.snapshot () in
  let counters =
    List.filter_map
      (function
        | Obs.Metrics.Counter_v (n, c) when c > 0 -> Some (n, c)
        | _ -> None)
      snap
  in
  let hist_sums =
    List.filter_map
      (function
        | Obs.Metrics.Histogram_v (n, h) when h.Obs.Metrics.count > 0 ->
          Some (n, h.Obs.Metrics.sum)
        | _ -> None)
      snap
  in
  let rest = List.init (trials - 1) (fun _ -> with_quiet run_once) in
  {
    rec_name = name;
    rec_trials_ns = w1 :: rest;
    rec_counters = counters;
    rec_hist_sums = hist_sums;
    rec_mem = mem;
  }

(* ---------- the JSON record (schema tfiris-bench-obs/5) ---------- *)

let schema = "tfiris-bench-obs/5"

let json_of_record r =
  Obs.Json.(
    Obj
      ([
         ("name", Str r.rec_name);
         ("trials_ns", List (List.map (fun w -> Int (Int64.to_int w)) r.rec_trials_ns));
         ("median_ns", Float (median_ns r));
         ("counters", Obj (List.map (fun (n, c) -> (n, Int c)) r.rec_counters));
         ("mem", Obs.Telemetry.to_json r.rec_mem);
       ]
      @
      if r.rec_hist_sums = [] then []
      else
        [
          ( "hist_sums",
            Obj (List.map (fun (n, s) -> (n, Float s)) r.rec_hist_sums) );
        ]))

let obs_doc records =
  Obs.Json.(
    Obj
      [
        ("schema", Str schema);
        ("engine", Str "shl.machine");
        ("version", Str Tfiris.version);
        ("trials", Int trials);
        ("experiments", List (List.map json_of_record records));
      ])

(* [oc] comes from [open_output], which does not truncate *)
let write_json oc doc =
  Unix.ftruncate (Unix.descr_of_out_channel oc) 0;
  output_string oc (Obs.Json.to_string doc);
  output_char oc '\n';
  close_out oc

(* ---------- bad input: refused before any experiment runs ---------- *)

let refuse path reason =
  Printf.eprintf "bench: %s: %s\n" path reason;
  exit 2

(* [Sys_error] messages repeat the path; keep only the reason *)
let sys_reason path m =
  let prefix = path ^ ": " in
  if String.starts_with ~prefix m then
    String.sub m (String.length prefix) (String.length m - String.length prefix)
  else m

(* ---------- the baseline ---------- *)

type baseline = {
  b_name : string;
  b_median_ns : float;
  b_words : int;
  b_counters : (string * int) list;
}

(* Read and check a --compare baseline before any experiment runs, so a
   missing or malformed file fails in milliseconds and a baseline with
   nothing in it cannot pass the gates vacuously. *)
let load_baseline path : (baseline list, string) result =
  let ( let* ) = Result.bind in
  let* src =
    if not (Sys.file_exists path) then Error "no such file"
    else try Ok (read_file path) with Sys_error m -> Error (sys_reason path m)
  in
  let* doc =
    Result.map_error (fun m -> "not JSON: " ^ m) (Obs.Json.of_string src)
  in
  let* () =
    match Option.bind (Obs.Json.member "schema" doc) Obs.Json.to_str with
    | Some s when s = schema -> Ok ()
    | Some s -> Error (Printf.sprintf "schema %S, expected %S" s schema)
    | None -> Error (Printf.sprintf "no schema, expected %S" schema)
  in
  let* exps =
    Option.to_result ~none:"no experiments list"
      (Option.bind (Obs.Json.member "experiments" doc) Obs.Json.to_list)
  in
  let entry i e =
    let field name conv =
      Option.to_result
        ~none:(Printf.sprintf "experiment %d: missing or ill-typed %S" i name)
        (Option.bind (Obs.Json.member name e) conv)
    in
    let* b_name = field "name" Obs.Json.to_str in
    let* b_median_ns = field "median_ns" Obs.Json.to_float in
    let* b_words =
      field "mem" (fun m ->
          Option.bind (Obs.Json.member "allocated_words" m) Obs.Json.to_int)
    in
    let* b_counters =
      field "counters" (function
        | Obs.Json.Obj kvs ->
          let cs =
            List.filter_map
              (fun (n, v) -> Option.map (fun c -> (n, c)) (Obs.Json.to_int v))
              kvs
          in
          if List.length cs = List.length kvs then Some cs else None
        | _ -> None)
    in
    Ok { b_name; b_median_ns; b_words; b_counters }
  in
  let rec entries i = function
    | [] -> Ok []
    | e :: es ->
      let* b = entry i e in
      let* bs = entries (i + 1) es in
      Ok (b :: bs)
  in
  entries 0 exps

(* ---------- the regression gates ---------- *)

(* Experiments present on only one side are reported but never fail a
   gate (the set evolves across changes). *)
let find_baseline baseline name =
  List.find_opt (fun b -> b.b_name = name) baseline

(* The counter gate: work counters (steps, ordinal operations,
   refinement moves, symheap analyses) are deterministic for a fixed
   input, so any difference — a changed value, or a counter on one side
   only — is a behaviour change, not noise.  Returns one message per
   differing counter. *)
let compare_counters baseline records : string list =
  section "Counter gate (every work counter equals its baseline)";
  List.concat_map
    (fun r ->
      match find_baseline baseline r.rec_name with
      | None ->
        row "  %-6s (no baseline entry; skipped)\n" r.rec_name;
        []
      | Some b ->
        let show = function Some c -> string_of_int c | None -> "absent" in
        let diffs =
          List.sort_uniq compare
            (List.map fst r.rec_counters @ List.map fst b.b_counters)
          |> List.filter_map (fun n ->
                 let cur = List.assoc_opt n r.rec_counters in
                 let base = List.assoc_opt n b.b_counters in
                 if cur = base then None
                 else
                   Some
                     (Printf.sprintf "%s %s: %s vs baseline %s" r.rec_name n
                        (show cur) (show base)))
        in
        row "  %-6s %3d counters  %s\n" r.rec_name
          (List.length r.rec_counters)
          (if diffs = [] then "ok" else "COUNTER CHANGE");
        List.iter (row "    %s\n") diffs;
        diffs)
    records

(* The time gate.  The committed baseline is usually recorded on a
   different machine, so a slowdown is a regression only when it is both
   relative (median > [time_threshold] x baseline median) and absolute
   (at least [min_delta_ms] slower) — sub-20ms experiments jitter by
   factors on a loaded machine without meaning anything. *)
let time_threshold = 4.
let min_delta_ms = 20.

(* Compare current records against a baseline; returns the regressed
   experiment names. *)
let compare_against baseline records : string list =
  section
    (Printf.sprintf "Regression gate (median > %.0fx baseline and +%.0fms)"
       time_threshold min_delta_ms);
  let regressions = ref [] in
  List.iter
    (fun r ->
      let cur = median_ns r in
      match find_baseline baseline r.rec_name with
      | None -> row "  %-6s %10.1fms  (no baseline entry; skipped)\n" r.rec_name (cur /. 1e6)
      | Some { b_median_ns = base; _ } ->
        let ratio = if base > 0. then cur /. base else infinity in
        let slow =
          cur > time_threshold *. base && cur -. base > min_delta_ms *. 1e6
        in
        if slow then regressions := r.rec_name :: !regressions;
        row "  %-6s %10.1fms vs %10.1fms  (%5.2fx)  %s\n" r.rec_name
          (cur /. 1e6) (base /. 1e6) ratio
          (if slow then "REGRESSION" else "ok"))
    records;
  List.iter
    (fun b ->
      if not (List.exists (fun r -> r.rec_name = b.b_name) records) then
        row "  %-6s (baseline only; skipped)\n" b.b_name)
    baseline;
  List.rev !regressions

(* The memory gate: allocated words vs the baseline, through the shared
   {!Obs.Telemetry.regressions} comparator, with the same loose ratio as
   the time gate.  100k words (~0.8 MB) is the absolute noise floor —
   allocation is deterministic, but the metrics registry itself
   allocates a little. *)
let mem_threshold = 4.
let mem_min_delta_w = 100_000

let compare_mem baseline records : string list =
  section
    (Printf.sprintf "Memory gate (allocated > %.0fx baseline and +%dk words)"
       mem_threshold (mem_min_delta_w / 1000));
  let baseline_mem = List.map (fun b -> (b.b_name, b.b_words)) baseline in
  let current =
    List.map
      (fun r -> (r.rec_name, r.rec_mem.Obs.Telemetry.allocated_words))
      records
  in
  let regs =
    Obs.Telemetry.regressions ~threshold:mem_threshold
      ~min_delta_w:mem_min_delta_w ~baseline:baseline_mem current
  in
  List.iter
    (fun (name, cur) ->
      match List.assoc_opt name baseline_mem with
      | None -> row "  %-6s %12d words  (no baseline mem; skipped)\n" name cur
      | Some base ->
        let regressed =
          List.exists (fun g -> g.Obs.Telemetry.r_name = name) regs
        in
        row "  %-6s %12d words vs %12d words  (%5.2fx)  %s\n" name cur base
          (if base > 0 then float_of_int cur /. float_of_int base else infinity)
          (if regressed then "MEM REGRESSION" else "ok"))
    current;
  List.map (fun g -> g.Obs.Telemetry.r_name) regs

(* ---------- entry point ---------- *)

let () =
  let out = ref "BENCH_obs.json" in
  let compare_path = ref None in
  let save_baseline = ref None in
  let usage () =
    Printf.eprintf
      "usage: %s [--out=FILE] [--compare=BASE.json] [--save-baseline=FILE] \
       [--mem-handicap=EXP:WORDS]\n"
      Sys.argv.(0);
    exit 2
  in
  let opt_val arg prefix =
    let n = String.length prefix in
    if String.length arg > n && String.sub arg 0 n = prefix then
      Some (String.sub arg n (String.length arg - n))
    else None
  in
  let handlers =
    [
      ("--out=", fun v -> out := v);
      ("--compare=", fun v -> compare_path := Some v);
      ("--save-baseline=", fun v -> save_baseline := Some v);
      ( "--mem-handicap=",
        fun v ->
          match String.index_opt v ':' with
          | Some i -> (
            match
              int_of_string_opt (String.sub v (i + 1) (String.length v - i - 1))
            with
            | Some w when w >= 0 -> mem_handicap := Some (String.sub v 0 i, w)
            | None | Some _ -> usage ())
          | None -> usage () );
    ]
  in
  Array.iteri
    (fun i arg ->
      if i > 0 then
        match
          List.find_map
            (fun (prefix, handle) -> Option.map handle (opt_val arg prefix))
            handlers
        with
        | Some () -> ()
        | None -> usage ())
    Sys.argv;
  (* every input is checked before the first experiment: E15 and E18
     read the example corpus, and a run that cannot be compared or
     written is not worth running *)
  if not (Sys.file_exists examples_dir && Sys.is_directory examples_dir) then
    refuse examples_dir "not found (run from the repository root)";
  let baseline =
    Option.map
      (fun path ->
        match load_baseline path with
        | Ok b -> b
        | Error reason -> refuse path reason)
      !compare_path
  in
  (* opened after the baseline is read, so a run may overwrite the
     baseline it compares against, and without truncating, so a refused
     run leaves an existing file as it was *)
  let open_output path =
    try open_out_gen [ Open_wronly; Open_creat ] 0o644 path
    with Sys_error m -> refuse path (sys_reason path m)
  in
  let out_oc = open_output !out in
  let save_oc = Option.map (fun p -> (p, open_output p)) !save_baseline in
  row "Transfinite Iris, executable — experiment harness (see EXPERIMENTS.md)\n";
  let experiments =
    [
      ("e1", e1); ("e2", e2); ("e3", e3); ("e4", e4); ("e5", e5);
      ("e6", e6); ("e7", e7); ("e8", e8); ("e9", e9); ("e10", e10);
      ("e11", e11); ("e12", e12); ("e13", e13); ("e14", e14);
      ("e15", e15); ("e18", e18);
    ]
  in
  let records = List.map (fun (name, f) -> observe name f) experiments in
  let doc = obs_doc records in
  write_json out_oc doc;
  row "\nWrote %s (%d experiments x %d trials).\n" !out (List.length records)
    trials;
  Option.iter
    (fun (path, oc) ->
      write_json oc doc;
      row "Saved baseline %s.\n" path)
    save_oc;
  let failures =
    match baseline with
    | None -> []
    | Some baseline ->
      let counter_diffs = compare_counters baseline records in
      let time_regs = compare_against baseline records in
      let mem_regs = compare_mem baseline records in
      List.map (fun d -> "work counter changed: " ^ d) counter_diffs
      @ (if time_regs = [] then []
         else
           [ "performance regression in: " ^ String.concat ", " time_regs ])
      @
      if mem_regs = [] then []
      else [ "allocation regression in: " ^ String.concat ", " mem_regs ]
  in
  row "\nAll experiments executed.\n";
  if failures <> [] then begin
    List.iter (Printf.eprintf "bench: %s\n") failures;
    exit 3
  end
