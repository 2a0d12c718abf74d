(* The frame-stack machine (Shl.Machine): differential properties
   against the reference stepper Step.prim_step, goldens for the
   concurrency redexes, the simultaneous substitution used by its
   named-rec β step, the heap's O(1) allocation counter, and the
   cycle-checked pre-run against a plain fuel-bounded loop. *)

module Q = QCheck2
module Budget = Tfiris.Robust.Budget
open Tfiris
open Shl

let parse = Parser.parse_exn

let prop ?(count = 200) name gen print fn =
  QCheck_alcotest.to_alcotest (Q.Test.make ~count ~name ~print gen fn)

(* ---------- the differential property ---------- *)

(* The machine is observationally identical to Step.prim_step — same
   step count, same per-step kind, same intermediate heaps and plugged
   expressions, same outcome (value+heap / stuck redex / out of fuel) —
   on random closed programs covering every constructor, including ones
   that get stuck or run out of fuel. *)
let lockstep_agrees =
  prop ~count:1200 "machine ≡ reference stepper (lockstep)" Gen.shl_expr
    Gen.print_shl (fun e ->
      match Machine.lockstep ~budget:(Budget.of_steps 300) e with
      | Machine.Agree_value _ | Machine.Agree_stuck _
      | Machine.Agree_out_of_fuel _ ->
        true
      | Machine.Disagree m ->
        Q.Test.fail_reportf "disagree at step %d on %s" m.Machine.at_step
          m.Machine.what)

(* inject computes the reference decomposition: plugging it back is the
   identity, and the focus of a non-value is exactly the redex
   Ctx.decompose finds. *)
let inject_plug_id =
  prop ~count:500 "plug (inject e) = e" Gen.shl_expr Gen.print_shl (fun e ->
      Machine.plug (Machine.inject e) = e)

let inject_matches_decompose =
  prop ~count:500 "inject agrees with Ctx.decompose" Gen.shl_expr Gen.print_shl
    (fun e ->
      let st = Machine.inject e in
      match (Ctx.decompose e, Machine.view st) with
      | None, Machine.V_value _ -> true
      | Some (k, r), Machine.V_redex r' ->
        r = r' && st.Machine.ctx = k
      | None, Machine.V_redex _ | Some _, Machine.V_value _ -> false)

(* ---------- simultaneous substitution ---------- *)

(* Closed values (Rec_fun bodies mention only their own binders), so the
   subst2 ≡ sequential-composition equation applies. *)
let closed_value : Ast.value Q.Gen.t =
  let open Q.Gen in
  let base =
    oneof
      [
        return Ast.Unit;
        map (fun b -> Ast.Bool b) bool;
        map (fun n -> Ast.Int n) (int_range (-9) 9);
        map (fun l -> Ast.Loc l) (int_bound 5);
      ]
  in
  let rec_fun =
    let* f = oneofl [ None; Some "f"; Some "x"; Some "g" ] in
    let* x = oneofl [ "x"; "y"; "f" ] in
    let* body =
      oneofl
        (Ast.Var x :: Ast.Val Ast.Unit
        :: (match f with Some f -> [ Ast.Var f ] | None -> []))
    in
    return (Ast.Rec_fun (f, x, body))
  in
  let rec go depth =
    if depth = 0 then base
    else
      let sub = go (depth - 1) in
      oneof
        [
          base;
          map2 (fun a b -> Ast.Pair (a, b)) sub sub;
          map (fun a -> Ast.Inj_l a) sub;
          map (fun a -> Ast.Inj_r a) sub;
          rec_fun;
        ]
  in
  go 2

(* Punch free occurrences of x and f into a closed expression: replace
   some integer literals by variables.  Some land under binders named x
   or f — deliberately, to exercise the shadowing branches. *)
let rec punch (e : Ast.expr) : Ast.expr =
  let open Ast in
  match e with
  | Val (Int n) when n >= 0 && n mod 4 = 0 -> Var "x"
  | Val (Int n) when n >= 0 && n mod 4 = 1 -> Var "f"
  | Val _ | Var _ -> e
  | Rec (g, y, b) -> Rec (g, y, punch b)
  | App (a, b) -> App (punch a, punch b)
  | Un_op (op, a) -> Un_op (op, punch a)
  | Bin_op (op, a, b) -> Bin_op (op, punch a, punch b)
  | If (a, b, c) -> If (punch a, punch b, punch c)
  | Pair_e (a, b) -> Pair_e (punch a, punch b)
  | Fst a -> Fst (punch a)
  | Snd a -> Snd (punch a)
  | Inj_l_e a -> Inj_l_e (punch a)
  | Inj_r_e a -> Inj_r_e (punch a)
  | Case (a, (y, b), (z, c)) -> Case (punch a, (y, punch b), (z, punch c))
  | Ref a -> Ref (punch a)
  | Load a -> Load (punch a)
  | Store (a, b) -> Store (punch a, punch b)
  | Let (y, a, b) -> Let (y, punch a, punch b)
  | Seq (a, b) -> Seq (punch a, punch b)
  | Fork a -> Fork (punch a)
  | Cas (a, b, c) -> Cas (punch a, punch b, punch c)

let subst2_gen : (Ast.expr * Ast.value * Ast.value) Q.Gen.t =
  let open Q.Gen in
  let* e = Gen.shl_expr in
  let* vx = closed_value in
  let* vf = closed_value in
  return (punch e, vx, vf)

let print_subst2 (e, vx, vf) =
  Printf.sprintf "e = %s\nvx = %s\nvf = %s" (Gen.print_shl e)
    (Pretty.value_to_string vx)
    (Pretty.value_to_string vf)

(* The one-pass simultaneous substitution of the machine's named-rec β
   step agrees with the two sequential passes it replaced. *)
let subst2_sequential =
  prop ~count:800 "subst2 = sequential composition" subst2_gen print_subst2
    (fun (e, vx, vf) ->
      Ast.subst2 ("x", vx) ("f", vf) e
      = Ast.subst "f" vf (Ast.subst "x" vx e))

let subst2_same_name =
  prop ~count:300 "subst2 with equal names: left wins" subst2_gen print_subst2
    (fun (e, vx, vf) ->
      Ast.subst2 ("x", vx) ("x", vf) e = Ast.subst "x" vx e)

(* The same equation on the binder-collision slice, where every inner
   binder is named x or f: the shadowing branches, which fall back to a
   single-binding [subst], are where a one-pass substitution goes wrong
   (a swapped fallback passes the property above but not this one). *)
let binder_gen : (Ast.expr * Ast.value * Ast.value) Q.Gen.t =
  let open Q.Gen in
  let* e = Gen.shl_binder_collisions in
  let* vx = closed_value in
  let* vf = closed_value in
  return (e, vx, vf)

let subst2_binders =
  prop ~count:800 "subst2 = sequential composition under x/f binders"
    binder_gen print_subst2 (fun (e, vx, vf) ->
      Ast.subst2 ("x", vx) ("f", vf) e
      = Ast.subst "f" vf (Ast.subst "x" vx e))

(* The binders [subst2 ("x", _) ("f", _)] meets before any of them
   shadows one of its two variables — the ones that take a shadowing
   branch — named by the binding form and what they shadow. *)
let shadowings (e : Ast.expr) : string list =
  let open Ast in
  let shadow form xs =
    match List.mem "x" xs, List.mem "f" xs with
    | true, true -> [ form ^ " shadows both" ]
    | true, false -> [ form ^ " shadows x" ]
    | false, true -> [ form ^ " shadows f" ]
    | false, false -> []
  in
  let binders g y = y :: Option.to_list g in
  let rec expr acc = function
    | Val w -> value acc w
    | Var _ -> acc
    | Rec (g, y, b) -> under acc "rec" (binders g y) b
    | Un_op (_, a) | Fst a | Snd a | Inj_l_e a | Inj_r_e a | Ref a | Load a
    | Fork a ->
      expr acc a
    | App (a, b) | Bin_op (_, a, b) | Pair_e (a, b) | Store (a, b) | Seq (a, b)
      ->
      expr (expr acc a) b
    | If (a, b, c) | Cas (a, b, c) -> expr (expr (expr acc a) b) c
    | Case (a, (y, b), (z, c)) ->
      under (under (expr acc a) "left arm" [ y ] b) "right arm" [ z ] c
    | Let (y, a, b) -> under (expr acc a) "let" [ y ] b
  and value acc = function
    | Unit | Bool _ | Int _ | Loc _ -> acc
    | Pair (v, w) -> value (value acc v) w
    | Inj_l v | Inj_r v -> value acc v
    | Rec_fun (g, y, b) -> under acc "closure" (binders g y) b
  and under acc form xs b =
    match shadow form xs with [] -> expr acc b | s -> s @ acc
  in
  expr [] e

(* A fixed-seed sample of the slice reaches every shadowing branch of
   [subst2]'s helpers: each binding form shadowing x, f or both ([let]
   and the arms bind one name, so "both" needs a two-binder form). *)
let test_binder_slice_coverage () =
  let rand = Random.State.make [| 28 |] in
  let seen = Hashtbl.create 16 in
  for _ = 1 to 800 do
    List.iter
      (fun s -> Hashtbl.replace seen s ())
      (shadowings (Q.Gen.generate1 ~rand Gen.shl_binder_collisions))
  done;
  List.iter
    (fun s ->
      Alcotest.(check bool) (s ^ " reached") true (Hashtbl.mem seen s))
    (List.concat_map
       (fun (form, both) ->
         [ form ^ " shadows x"; form ^ " shadows f" ]
         @ if both then [ form ^ " shadows both" ] else [])
       [
         ("rec", true);
         ("closure", true);
         ("let", false);
         ("left arm", false);
         ("right arm", false);
       ])

(* ---------- what a substitution allocates ---------- *)

(* Minor words [f ()] allocates (less what the measurement itself
   costs), and its result. *)
let allocated f =
  let measure f =
    let w0 = Gc.minor_words () in
    let r = f () in
    let w1 = Gc.minor_words () in
    (w1 -. w0, r)
  in
  let idle, () = measure (fun () -> ()) in
  let words, r = measure f in
  (words -. idle, r)

(* A substitution allocates the nodes it builds and nothing else, and
   those nodes are reachable from its result — so it allocates at most
   the result's reachable words.  A closure per visited node (a partial
   application, a local helper) breaks the bound several times over:
   on fib's body the closure-building [subst2] allocated 284 words for
   a result of 118 reachable words; the nodes themselves are 44. *)
let over_reachable words r =
  let reach = Obj.reachable_words (Obj.repr r) in
  if words > float_of_int reach then
    Some (Printf.sprintf "allocated %.0f words, result reaches %d" words reach)
  else None

let test_subst2_fib_alloc () =
  match parse "rec fib n. if n < 2 then n else fib (n - 1) + fib (n - 2)" with
  | Ast.Rec ((Some f as g), x, body) -> (
    let bx = (x, Ast.Int 15) and bf = (f, Ast.Rec_fun (g, x, body)) in
    let words, r = allocated (fun () -> Ast.subst2 bx bf body) in
    match over_reachable words r with
    | Some m -> Alcotest.fail ("subst2 " ^ m)
    | None -> ())
  | _ -> Alcotest.fail "fib is not a named rec"

let subst_alloc_bound =
  prop "subst2 and subst allocate within their result" subst2_gen print_subst2
    (fun (e, vx, vf) ->
      let bx = ("x", vx) and bf = ("f", vf) in
      let w2, r2 = allocated (fun () -> Ast.subst2 bx bf e) in
      let w1, r1 = allocated (fun () -> Ast.subst "x" vx e) in
      match over_reachable w2 r2, over_reachable w1 r1 with
      | Some m, _ -> Q.Test.fail_reportf "subst2 %s" m
      | None, Some m -> Q.Test.fail_reportf "subst %s" m
      | None, None -> true)

(* ---------- goldens: machine stepping of cas and fork ---------- *)

let kinds_and_outcome ?(fuel = 100) (e : Ast.expr) =
  let rec go c kinds n =
    if n = 0 then (List.rev kinds, Error None)
    else
      match Machine.prim_step c with
      | Ok (c', k) -> go c' (k :: kinds) (n - 1)
      | Error Step.Finished -> (
        match Machine.view c.Machine.thread with
        | Machine.V_value v -> (List.rev kinds, Ok (v, c.Machine.heap))
        | Machine.V_redex _ -> assert false)
      | Error (Step.Stuck r) -> (List.rev kinds, Error (Some r))
  in
  go (Machine.config e) [] fuel

let pp_kind ppf = function
  | Step.Pure -> Format.pp_print_string ppf "pure"
  | Step.Alloc l -> Format.fprintf ppf "alloc %d" l
  | Step.Load_of l -> Format.fprintf ppf "load %d" l
  | Step.Store_to l -> Format.fprintf ppf "store %d" l

let kind = Alcotest.testable pp_kind Machine.kind_eq

let test_cas_success () =
  let kinds, outcome = kinds_and_outcome (parse "let l = ref 0 in cas l 0 7") in
  Alcotest.(check (list kind))
    "alloc, bind, then an atomic store"
    [ Step.Alloc 0; Step.Pure; Step.Store_to 0 ]
    kinds;
  match outcome with
  | Ok (Ast.Bool true, h) ->
    Alcotest.(check bool) "heap updated" true
      (Heap.lookup 0 h = Some (Ast.Int 7))
  | _ -> Alcotest.fail "expected cas to succeed with true"

let test_cas_failure () =
  let kinds, outcome = kinds_and_outcome (parse "let l = ref 0 in cas l 5 7") in
  Alcotest.(check (list kind))
    "a failing cas is observationally a load"
    [ Step.Alloc 0; Step.Pure; Step.Load_of 0 ]
    kinds;
  match outcome with
  | Ok (Ast.Bool false, h) ->
    Alcotest.(check bool) "heap untouched" true
      (Heap.lookup 0 h = Some (Ast.Int 0))
  | _ -> Alcotest.fail "expected cas to fail with false"

let test_fork_machine () =
  (* fork is not a sequential head step: the sequential machine is stuck
     on it, and only step_fork (the Conc scheduler's hook) consumes it. *)
  let e = parse "fork (1 + 1); 42" in
  let st = Machine.inject e in
  (match Machine.view st with
  | Machine.V_redex (Ast.Fork _) -> ()
  | _ -> Alcotest.fail "fork should be the focused redex");
  (match Machine.step Heap.empty st with
  | Machine.Stuck_redex (Ast.Fork _) -> ()
  | _ -> Alcotest.fail "sequential step must refuse a fork");
  match Machine.step_fork st with
  | None -> Alcotest.fail "step_fork must consume the fork redex"
  | Some (spawned, parent) ->
    Alcotest.(check bool) "spawned body" true (spawned = parse "1 + 1");
    Alcotest.(check bool) "parent resumes with unit in the hole" true
      (Machine.plug parent = parse "(); 42");
    (* and through the scheduler, the whole program finishes *)
    (match Conc.run ~sched:Conc.round_robin (Conc.init e) with
    | Conc.All_done (Ast.Int 42, _) -> ()
    | _ -> Alcotest.fail "round-robin run should finish with 42")

(* ---------- goldens: lockstep outcomes ---------- *)

let test_lockstep_outcomes () =
  (match Machine.lockstep (parse "let r = ref 1 in r := !r + 1; !r") with
  | Machine.Agree_value (Ast.Int 2, h, steps) ->
    Alcotest.(check bool) "final heap" true (Heap.lookup 0 h = Some (Ast.Int 2));
    Alcotest.(check bool) "took steps" true (steps > 0)
  | o ->
    Alcotest.failf "expected agreement on 2, got %a" Machine.pp_lockstep o);
  (match Machine.lockstep (parse "1 + true") with
  | Machine.Agree_stuck (Ast.Bin_op (Ast.Add, _, _), 0) -> ()
  | o -> Alcotest.failf "expected stuck at step 0, got %a" Machine.pp_lockstep o);
  match Machine.lockstep ~budget:(Budget.of_steps 50) (parse "(rec f x. f x) 0") with
  | Machine.Agree_out_of_fuel 50 -> ()
  | o ->
    Alcotest.failf "expected out of fuel at 50, got %a" Machine.pp_lockstep o

(* ---------- the heap's allocation counter ---------- *)

let test_heap_counter () =
  Alcotest.(check int) "fresh of empty" 0 (Heap.fresh Heap.empty);
  let l0, h = Heap.alloc (Ast.Int 1) Heap.empty in
  Alcotest.(check int) "first alloc at 0" 0 l0;
  Alcotest.(check int) "fresh after alloc" 1 (Heap.fresh h);
  let h2 = Heap.store 10 Ast.Unit h in
  Alcotest.(check int) "store raises the counter past its location" 11
    (Heap.fresh h2);
  let h3 = Heap.store 3 Ast.Unit h2 in
  Alcotest.(check int) "store below the counter does not lower it" 11
    (Heap.fresh h3);
  let l, h4 = Heap.alloc (Ast.Bool true) h3 in
  Alcotest.(check int) "alloc lands on the counter" 11 l;
  Alcotest.(check bool) "and is fresh" true
    (Heap.lookup 11 h4 = Some (Ast.Bool true))

(* ---------- the cycle-checked pre-run ---------- *)

(* The plain fuel-bounded loop [Machine.prerun] replaces: count steps
   to a value, at most [fuel] of them. *)
let reference_prerun ~fuel (c : Machine.config) =
  let rec go c n k =
    match Machine.prim_step c with
    | Error Step.Finished -> `Value k
    | Error (Step.Stuck _) -> `Stuck k
    | Ok (c', _) -> if n = 0 then `Out_of_fuel else go c' (n - 1) (k + 1)
  in
  go c fuel 0

let prerun_fuels = [ 0; 1; 2; 3; 5; 17; 64; 300; 2_000 ]

(* Same answer as the reference at every fuel — a cycle is only ever
   reported where the reference runs out of fuel — and [steps_to_value]
   is its projection. *)
let prerun_matches_reference e =
  let c = Machine.config e in
  List.for_all
    (fun fuel ->
      let r = reference_prerun ~fuel c in
      let agree =
        match (Machine.prerun ~fuel c, r) with
        | Machine.Value_in k, `Value k' | Machine.Stuck_in k, `Stuck k' ->
          k = k'
        | (Machine.Cycle_in _ | Machine.Cut Robust.Budget.Steps), `Out_of_fuel
          ->
          true
        | _ -> false
      in
      let projected =
        Machine.steps_to_value ~fuel c
        = match r with `Value k -> Some k | `Stuck _ | `Out_of_fuel -> None
      in
      agree && projected
      || Q.Test.fail_reportf "fuel %d: pre-run disagrees with the plain loop"
           fuel)
    prerun_fuels

let prerun_differential =
  prop ~count:600 "pre-run ≡ fuel-bounded loop (random programs)" Gen.shl_expr
    Gen.print_shl prerun_matches_reference

let prerun_differential_loops =
  prop ~count:300 "pre-run ≡ fuel-bounded loop (loops)"
    (Q.Gen.oneof [ Gen.shl_cycling; Gen.shl_growing; Gen.shl_counting ])
    Gen.print_shl prerun_matches_reference

(* Cycling programs are cut at their first detected repeat, far below
   the fuel; growing ones never repeat and run out of fuel. *)
let prerun_cuts_cycles =
  prop ~count:300 "pre-run cuts cycling programs" Gen.shl_cycling Gen.print_shl
    (fun e ->
      match Machine.prerun ~fuel:1_000_000 (Machine.config e) with
      | Machine.Cycle_in k -> k <= 1_000
      | _ -> false)

let prerun_runs_growing_out =
  prop ~count:200 "pre-run never cuts a growing run" Gen.shl_growing
    Gen.print_shl (fun e ->
      Machine.prerun ~fuel:5_000 (Machine.config e)
      = Machine.Cut Robust.Budget.Steps)

let test_prerun_paper_loops () =
  (* the two divergent examples of §5 and §4.1 *)
  List.iter
    (fun (name, e) ->
      match Machine.prerun (Machine.config e) with
      | Machine.Cycle_in k ->
        if k > 64 then Alcotest.failf "%s cut only after %d steps" name k
      | _ -> Alcotest.failf "%s: no cycle found" name)
    [ ("rec f x. f x", parse "(rec f x. f x) 0"); ("e_loop", Prog.e_loop) ];
  Alcotest.(check (option int)) "terminating pre-run counts its steps"
    (Some 260)
    (Machine.steps_to_value
       (Machine.config (parse "(rec f n. if n = 0 then 0 else f (n - 1)) 64")))

let test_prerun_wall_deadline () =
  (* a meter only bounds the pre-run's wall clock: its steps are never
     charged, and a past deadline stops it at the next poll *)
  let m =
    Robust.Budget.(meter { unlimited with steps = Some 1; wall_ms = Some 0 })
  in
  Unix.sleepf 0.002;
  let growing = Machine.config (parse "(rec f x. f (x + 1)) 0") in
  (match Machine.prerun ~meter:m growing with
  | Machine.Cut Robust.Budget.Wall_ms -> ()
  | _ -> Alcotest.fail "expected the pre-run to stop at the deadline");
  Alcotest.(check int) "no step charged" 0 (Robust.Budget.steps_used m);
  Alcotest.(check bool) "meter tripped on the wall" true
    (Robust.Budget.exhausted m = Some Robust.Budget.Wall_ms);
  (* no deadline: the meter's step bound does not cut the pre-run *)
  let m = Robust.Budget.(meter (of_steps 1)) in
  Alcotest.(check (option int)) "step limit not applied" (Some 260)
    (Machine.steps_to_value ~meter:m
       (Machine.config (parse "(rec f n. if n = 0 then 0 else f (n - 1)) 64")))

let suite =
  [
    lockstep_agrees;
    inject_plug_id;
    inject_matches_decompose;
    subst2_sequential;
    subst2_same_name;
    subst2_binders;
    Alcotest.test_case "binder slice reaches every shadowing branch" `Quick
      test_binder_slice_coverage;
    Alcotest.test_case "subst2 on fib's body allocates only its nodes" `Quick
      test_subst2_fib_alloc;
    subst_alloc_bound;
    Alcotest.test_case "cas success: alloc/pure/store golden" `Quick
      test_cas_success;
    Alcotest.test_case "cas failure: alloc/pure/load golden" `Quick
      test_cas_failure;
    Alcotest.test_case "fork: machine refuses, step_fork consumes" `Quick
      test_fork_machine;
    Alcotest.test_case "lockstep outcome goldens" `Quick test_lockstep_outcomes;
    Alcotest.test_case "heap allocation counter is O(1) and monotone" `Quick
      test_heap_counter;
    prerun_differential;
    prerun_differential_loops;
    prerun_cuts_cycles;
    prerun_runs_growing_out;
    Alcotest.test_case "pre-run cuts the paper's loops within 64 steps" `Quick
      test_prerun_paper_loops;
    Alcotest.test_case "pre-run stops at the wall deadline, charges nothing"
      `Quick test_prerun_wall_deadline;
  ]
