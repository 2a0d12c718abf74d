(* Concurrent HeapLang: the thread-pool semantics, schedulers, and the
   exhaustive interleaving explorer (the substrate for the concurrent
   safety reasoning Transfinite Iris inherits, §3). *)

module Q = QCheck2
module Shl = Tfiris.Shl
module Conc = Tfiris_shl.Conc
module Budget = Tfiris_robust.Budget

let parse = Shl.Parser.parse_exn

let final_ints (r : Conc.exploration) =
  List.filter_map
    (fun (v, _) -> match v with Shl.Ast.Int n -> Some n | _ -> None)
    r.Conc.final_values
  |> List.sort compare

let test_racy_counter () =
  let r = Conc.explore (Conc.init Conc.racy_incr) in
  Alcotest.(check (list int)) "both outcomes reachable" [ 1; 2 ] (final_ints r);
  Alcotest.(check int) "no stuck thread" 0 (List.length r.Conc.stuck);
  Alcotest.(check bool) "exploration complete" false (r.Conc.exhausted <> None)

let test_locked_counter () =
  let r = Conc.explore (Conc.init Conc.locked_incr) in
  Alcotest.(check (list int)) "CAS loop: only 2" [ 2 ] (final_ints r);
  Alcotest.(check bool) "complete" false (r.Conc.exhausted <> None)

let test_spinlock () =
  let r = Conc.explore (Conc.init Conc.spinlock_pair) in
  Alcotest.(check int) "single outcome" 1 (List.length r.Conc.final_values);
  (match r.Conc.final_values with
  | [ (Shl.Ast.Pair (Shl.Ast.Int 2, Shl.Ast.Int 2), _) ] -> ()
  | _ -> Alcotest.fail "expected (2, 2)");
  (* the racy-read variant observes a mid-critical-section state *)
  let r' = Conc.explore (Conc.init Conc.spinlock_pair_racy_read) in
  Alcotest.(check bool) "racy read sees (2,1) on some schedule" true
    (List.exists
       (fun (v, _) -> v = Shl.Ast.Pair (Shl.Ast.Int 2, Shl.Ast.Int 1))
       r'.Conc.final_values)

let test_schedulers_agree_with_exploration () =
  let r = Conc.explore (Conc.init Conc.racy_incr) in
  let observed = final_ints r in
  List.iter
    (fun sched ->
      match
        Conc.run ~budget:(Budget.of_steps 100_000) ~sched
          (Conc.init Conc.racy_incr)
      with
      | Conc.All_done (Shl.Ast.Int n, _) ->
        Alcotest.(check bool) "scheduled outcome was explored" true
          (List.mem n observed)
      | _ -> Alcotest.fail "scheduler run did not finish")
    [ Conc.round_robin; Conc.seeded 1; Conc.seeded 7; Conc.seeded 99 ]

let test_seeded_determinism () =
  (* a seeded scheduler is a pure function of its seed: the same seed
     must reproduce both the outcome and the exact step count, while
     over a racy program different seeds should exhibit at least two
     distinct schedules *)
  let describe = function
    | Conc.All_done (v, _) -> "done " ^ Shl.Pretty.value_to_string v
    | Conc.Thread_stuck (i, _) -> Printf.sprintf "stuck %d" i
    | Conc.Out_of_fuel _ -> "fuel"
  in
  let seeds = [ 0; 1; 7; 42; 99; 1234 ] in
  let runs =
    List.map
      (fun seed ->
        let run () =
          let o, steps =
            Conc.run_stats ~budget:(Budget.of_steps 100_000) ~sched:(Conc.seeded seed)
              (Conc.init Conc.racy_incr)
          in
          (describe o, steps)
        in
        let o1, n1 = run () in
        let o2, n2 = run () in
        Alcotest.(check string)
          (Printf.sprintf "seed %d outcome reproducible" seed)
          o1 o2;
        Alcotest.(check int)
          (Printf.sprintf "seed %d step count reproducible" seed)
          n1 n2;
        (o1, n1))
      seeds
  in
  let distinct = List.sort_uniq compare runs in
  Alcotest.(check bool) "different seeds explore different schedules" true
    (List.length distinct > 1)

let test_fork_semantics () =
  (* fork returns unit immediately; the child's effect lands later *)
  let e = parse "let r = ref 0 in fork (r := 1); !r" in
  let rr = Conc.explore (Conc.init e) in
  Alcotest.(check (list int)) "0 or 1" [ 0; 1 ] (final_ints rr);
  (* sequentially, fork is stuck *)
  match Shl.Interp.exec e with
  | Shl.Interp.Stuck _, _ -> ()
  | _ -> Alcotest.fail "fork should be stuck sequentially"

let test_cas_sequential () =
  (* cas works (and is typed) in the sequential fragment *)
  (match Shl.Interp.eval (parse "let r = ref 5 in (cas r 5 9, !r)") with
  | Some (Shl.Ast.Pair (Shl.Ast.Bool true, Shl.Ast.Int 9)) -> ()
  | _ -> Alcotest.fail "successful cas");
  (match Shl.Interp.eval (parse "let r = ref 5 in (cas r 4 9, !r)") with
  | Some (Shl.Ast.Pair (Shl.Ast.Bool false, Shl.Ast.Int 5)) -> ()
  | _ -> Alcotest.fail "failed cas");
  match Shl.Types.infer (parse "fun r -> cas r 0 1") with
  | Ok t ->
    Alcotest.(check string) "cas type" "(ref int -> bool)"
      (Shl.Types.ty_to_string t)
  | Error m -> Alcotest.failf "cas untyped: %s" m

let test_fork_untyped () =
  match Shl.Types.infer (parse "fork ()") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "fork must be outside the typed fragment"

let test_stuck_thread_reported () =
  let e = parse "fork (1 + true); 0" in
  let r = Conc.explore (Conc.init e) in
  Alcotest.(check bool) "stuck child reported" true (List.length r.Conc.stuck > 0)

let test_roundtrip_conc_syntax () =
  List.iter
    (fun src ->
      let e = parse src in
      let printed = Shl.Pretty.expr_to_string e in
      Alcotest.(check bool) (src ^ " roundtrips") true (parse printed = e))
    [ "fork (x := 1)"; "cas r 0 1"; "if cas l 0 1 then () else ()" ]

let locked_always_two_prop =
  QCheck_alcotest.to_alcotest
    (Q.Test.make ~count:60 ~name:"CAS counter: every seeded schedule gives 2"
       ~print:string_of_int (Q.Gen.int_bound 10_000)
       (fun seed ->
         match
           Conc.run ~budget:(Budget.of_steps 200_000) ~sched:(Conc.seeded seed)
             (Conc.init Conc.locked_incr)
         with
         | Conc.All_done (Shl.Ast.Int 2, _) -> true
         | _ -> false))

(* ---------- concurrent TP-refinement (the paper's future work,
   bounded to per-scheduler certificates) ---------- *)

module CR = Tfiris_refinement.Conc_refine
module Driver = Tfiris_refinement.Driver

let accepted = function
  | Some (Driver.Accepted (Driver.Terminated _, _)) -> true
  | Some (Driver.Accepted (Driver.Fuel_exhausted _, _) | Driver.Rejected _)
  | None ->
    false

let test_conc_refinement_locked () =
  (* the CAS counter refines the sequential "2" under every schedule *)
  let ok, bad =
    CR.certify_all_seeds ~seeds:10 ~target:Conc.locked_incr
      ~source:(parse "1 + 1") ()
  in
  Alcotest.(check int) "all seeds pass" 10 (List.length ok);
  Alcotest.(check int) "none fail" 0 (List.length bad)

(* Against a 5-step source, seed 11's game once ran a different
   interleaving (43 steps) from the one its pre-run counted (25), both
   drawn from one stateful scheduler, and was rejected with the source
   stuck mid-game. *)
let test_conc_refinement_long_source () =
  let ok, bad =
    CR.certify_all_seeds ~seeds:12 ~target:Conc.locked_incr
      ~source:(parse "let a = 1 in let b = a in let c = b in let d = c in d + 1")
      ()
  in
  Alcotest.(check (list int)) "no seed fails" [] bad;
  Alcotest.(check int) "all 12 seeds pass" 12 (List.length ok)

let test_conc_refinement_racy () =
  (* under each schedule the racy counter deterministically yields 1 or
     2; it refines exactly one of the two sequential constants *)
  List.iter
    (fun seed ->
      let against src =
        accepted
          (CR.certify ~tgt_sched:(Conc.seeded (seed * 37))
             ~target:Conc.racy_incr ~source:(parse src) ())
      in
      let one = against "0 + 1" and two = against "1 + 1" in
      Alcotest.(check bool)
        (Printf.sprintf "seed %d refines exactly one constant" seed)
        true
        (one <> two))
    [ 0; 1; 2; 3; 4 ]

(* A certificate under a seeded schedule is a statement about the run a
   fresh scheduler with that seed makes: it accepts the literal [v]
   exactly when that run returns [v]. *)
let certify_matches_run_prop =
  let budget = Budget.of_steps 20_000 in
  QCheck_alcotest.to_alcotest
    (Q.Test.make ~count:150
       ~name:"conc certificate accepts v iff the seeded run returns v"
       ~print:(fun (e, seed, k) ->
         Printf.sprintf "%s  seed=%d  v=%d" (Gen.print_shl e) seed k)
       (Q.Gen.triple
          (Q.Gen.oneof
             [
               Q.Gen.return Conc.racy_incr;
               Q.Gen.return Conc.locked_incr;
               Gen.conc_expr;
             ])
          (Q.Gen.int_bound 10_000) (Q.Gen.int_bound 8))
       (fun (e, seed, k) ->
         let ran =
           match Conc.run ~budget ~sched:(Conc.seeded seed) (Conc.init e) with
           | Conc.All_done (v, _) -> Some v
           | Conc.Thread_stuck _ | Conc.Out_of_fuel _ -> None
         in
         (* the literal [k], and whatever the run returned *)
         let literals =
           Shl.Ast.Int k
           :: (match ran with Some (Shl.Ast.Int n) -> [ Shl.Ast.Int n ] | _ -> [])
         in
         List.for_all
           (fun v ->
             let certified =
               accepted
                 (CR.certify ~budget ~tgt_sched:(Conc.seeded seed) ~target:e
                    ~source:(Shl.Ast.Val v) ())
             in
             certified = (ran = Some v))
           literals))

let test_conc_refinement_divergence_rejected () =
  (* a diverging concurrent target can never be certified against a
     terminating source *)
  let spin = parse "let r = ref 0 in fork (r := 1); (rec w u. w u) ()" in
  Alcotest.(check bool) "diverging target not certified" false
    (accepted
       (CR.certify ~budget:(Budget.of_steps 50_000) ~tgt_sched:Conc.round_robin
          ~target:spin ~source:(parse "1 + 1") ()))

(* ---------- the canonical visited-set key ---------- *)

(* explore's visited set must key on a canonical form (plugged threads
   + sorted heap bindings), not on raw configurations: Heap.t is an AVL
   map, so equal heaps built in different insertion orders are
   different trees and hash/compare unequal.  This test demonstrates
   the raw-keying failure directly, then checks the explorer is immune:
   the same program explored from the two representations of one heap
   sees the same state space. *)
let test_canonical_visited_key () =
  let open Shl in
  let build order =
    List.fold_left (fun h l -> Heap.store l (Ast.Int l) h) Heap.empty order
  in
  let keys = [ 0; 1; 2; 3 ] in
  let h_asc = build keys and h_desc = build (List.rev keys) in
  Alcotest.(check bool) "same bindings" true
    (Heap.bindings h_asc = Heap.bindings h_desc);
  Alcotest.(check bool) "observationally equal" true (Heap.equal h_asc h_desc);
  Alcotest.(check bool) "structurally distinct trees" true (h_asc <> h_desc);
  let raw_keyed = Hashtbl.create 8 in
  Hashtbl.replace raw_keyed h_asc ();
  Alcotest.(check bool) "a raw-keyed table misses the equal heap" false
    (Hashtbl.mem raw_keyed h_desc);
  let store l n = Ast.Store (Ast.Val (Ast.Loc l), Ast.Val (Ast.Int n)) in
  let prog = Ast.Seq (Ast.Fork (store 0 10), Ast.Seq (store 3 13, store 1 11)) in
  let r_asc = Conc.explore (Conc.init ~heap:h_asc prog)
  and r_desc = Conc.explore (Conc.init ~heap:h_desc prog) in
  Alcotest.(check int) "same distinct-state count" r_asc.Conc.states
    r_desc.Conc.states;
  Alcotest.(check int) "same outcomes" 1 (List.length r_asc.Conc.final_values);
  match (r_asc.Conc.final_values, r_desc.Conc.final_values) with
  | [ (_, ha) ], [ (_, hd) ] ->
    Alcotest.(check bool) "same final heap" true
      (Shl.Heap.bindings ha = Shl.Heap.bindings hd)
  | _ -> Alcotest.fail "expected a unique final heap on both sides"

let test_interleaving_diamond_dedup () =
  (* two threads store into distinct pre-existing cells: both orders
     reach the same configuration, which must be visited once — the
     state space is the 7-state diamond, not a tree of schedules *)
  let open Shl in
  let h0 = Heap.store 1 (Ast.Int 0) (Heap.store 0 (Ast.Int 0) Heap.empty) in
  let store l n = Ast.Store (Ast.Val (Ast.Loc l), Ast.Val (Ast.Int n)) in
  let prog = Ast.Seq (Ast.Fork (store 0 1), store 1 2) in
  let r = Conc.explore_all (Conc.init ~heap:h0 prog) in
  Alcotest.(check int) "one deduplicated final" 1
    (List.length r.Conc.final_values);
  (match r.Conc.final_values with
  | [ (Ast.Unit, h) ] ->
    Alcotest.(check bool) "both writes landed" true
      (Heap.bindings h = [ (0, Ast.Int 1); (1, Ast.Int 2) ])
  | _ -> Alcotest.fail "expected main to finish with ()");
  Alcotest.(check int) "diamond, not a schedule tree" 7 r.Conc.states

(* ---------- the parallel explorer (PR 9) ---------- *)

(* The full observable signature of an exploration, as a comparable
   value: state count, sorted final (value, heap) pairs, sorted stuck
   redexes, and which resource (if any) ran out.  The work-stealing
   engine must reproduce the sequential engine's signature exactly —
   only traversal order may differ. *)
let signature (r : Conc.exploration) =
  ( r.Conc.states,
    List.sort compare
      (List.map
         (fun (v, h) ->
           (Shl.Pretty.value_to_string v, Tfiris_shl.Heap.bindings h))
         r.Conc.final_values),
    List.sort compare
      (List.map
         (fun (tid, redex) -> (tid, Shl.Pretty.expr_to_string redex))
         r.Conc.stuck),
    r.Conc.exhausted )

let par_differential_prop =
  QCheck_alcotest.to_alcotest
    (Q.Test.make ~count:500
       ~name:"parallel explore ≡ sequential at 1/2/4 domains"
       ~print:Gen.print_shl Gen.conc_expr
       (fun e ->
         let budget = Budget.of_states 4_000 in
         let seq_r = Conc.explore ~budget ~domains:1 (Conc.init e) in
         let seq = signature seq_r in
         List.for_all
           (fun d ->
             let par_r =
               Conc.Par_explore.explore ~budget ~domains:d (Conc.init e)
             in
             match seq_r.Conc.exhausted with
             | None -> signature par_r = seq
             | Some res ->
               (* a tripped states cap still admits exactly min(cap,
                  |reachable|) states at every domain count, but *which*
                  finals were collected while draining depends on
                  traversal order — only count and verdict are
                  deterministic *)
               par_r.Conc.states = seq_r.Conc.states
               && par_r.Conc.exhausted = Some res)
           [ 1; 2; 4 ]))

let test_par_budget_steps_exhaustion () =
  (* a steps budget must exhaust globally and name the right resource
     at every domain count *)
  List.iter
    (fun d ->
      let r =
        Conc.explore ~budget:(Budget.of_steps 40) ~domains:d
          (Conc.init Conc.locked_incr)
      in
      Alcotest.(check bool)
        (Printf.sprintf "steps named at %d domains" d)
        true
        (r.Conc.exhausted = Some Budget.Steps))
    [ 1; 2; 4 ]

let test_par_budget_states_prefix () =
  (* a states cap admits exactly min(cap, |reachable|) visited states —
     deterministic at every domain count, because membership + charge +
     insert happen under one shard lock *)
  let full =
    (Conc.explore ~domains:1 (Conc.init Conc.locked_incr)).Conc.states
  in
  List.iter
    (fun cap ->
      List.iter
        (fun d ->
          let r =
            Conc.explore ~budget:(Budget.of_states cap) ~domains:d
              (Conc.init Conc.locked_incr)
          in
          Alcotest.(check int)
            (Printf.sprintf "states at cap %d, %d domains" cap d)
            (Stdlib.min cap full) r.Conc.states;
          Alcotest.(check bool)
            (Printf.sprintf "verdict at cap %d, %d domains" cap d)
            (cap < full)
            (r.Conc.exhausted = Some Budget.States))
        [ 1; 2; 4 ])
    [ 1; 10; full - 1; full; full + 50 ]

let test_par_worker_stats () =
  (* the parallel engine reports one stat per domain and the dequeue
     total covers the whole visited set; the sequential engine reports
     none *)
  let seq = Conc.explore ~domains:1 (Conc.init Conc.spinlock_pair) in
  Alcotest.(check int) "sequential: no worker stats" 0
    (List.length seq.Conc.workers);
  let par = Conc.Par_explore.explore ~domains:3 (Conc.init Conc.spinlock_pair) in
  Alcotest.(check int) "one stat per domain" 3 (List.length par.Conc.workers);
  Alcotest.(check int) "dequeues cover the state space" par.Conc.states
    (List.fold_left
       (fun acc w -> acc + w.Conc.w_dequeued)
       0 par.Conc.workers)

let test_par_races_oracle_agrees () =
  (* the dynamic race oracle rides the shared explorer's frontier
     callback: its findings must not depend on the domain count *)
  let module Races = Tfiris.Analysis.Races in
  let seq = Races.dynamic_races ~domains:1 Conc.spinlock_pair_racy_read in
  Alcotest.(check bool) "oracle finds races sequentially" true (seq <> []);
  List.iter
    (fun d ->
      let par = Races.dynamic_races ~domains:d Conc.spinlock_pair_racy_read in
      Alcotest.(check bool)
        (Printf.sprintf "oracle identical at %d domains" d)
        true (par = seq))
    [ 2; 4 ]

(* ---------- interned keys against the reference key ---------- *)

(* A plain BFS keyed on the canonical form itself — plugged thread
   programs plus sorted heap bindings — under the same states-cap rule
   as the explorer (the root is admitted unconditionally, a capped run
   drains what it enqueued).  The interned-id keys must induce exactly
   this equivalence on configurations. *)
module Canon = Hashtbl.Make (struct
  type t = Shl.Ast.expr list * (Shl.Ast.loc * Shl.Ast.value) list

  let equal = ( = )
  let hash = Hashtbl.hash_param 100 1000
end)

let reference_explore ~cap (c0 : Conc.cfg) : Conc.exploration =
  let key c = (Conc.thread_exprs c, Tfiris_shl.Heap.bindings c.Conc.heap) in
  let seen = Canon.create 1024 in
  let queue = Queue.create () in
  let finals = ref [] and stucks = ref [] and capped = ref false in
  Canon.replace seen (key c0) ();
  Queue.add c0 queue;
  while not (Queue.is_empty queue) do
    let c = Queue.pop queue in
    match Conc.runnable c with
    | [] -> (
      match Conc.main_value c with
      | Some v ->
        if
          not
            (List.exists
               (fun (v', h') -> v = v' && Tfiris_shl.Heap.equal c.Conc.heap h')
               !finals)
        then finals := (v, c.Conc.heap) :: !finals
      | None -> ())
    | rs ->
      List.iter
        (fun i ->
          match Conc.step_thread c i with
          | Conc.T_progress c' ->
            let k = key c' in
            if not (Canon.mem seen k) then
              if Canon.length seen >= cap then capped := true
              else begin
                Canon.replace seen k ();
                Queue.add c' queue
              end
          | Conc.T_value -> ()
          | Conc.T_stuck redex ->
            if not (List.mem (i, redex) !stucks) then
              stucks := (i, redex) :: !stucks)
        rs
  done;
  {
    Conc.final_values = !finals;
    stuck = !stucks;
    exhausted = (if !capped then Some Budget.States else None);
    states = Canon.length seen;
    workers = [];
  }

(* Sequential and parallel (1/2/4 domains) interned-key exploration of
   the full graph against the reference: the full signature when the
   reference ran to completion, count and verdict when the cap
   tripped. *)
let agrees_with_reference ~cap e =
  let reference = reference_explore ~cap (Conc.init e) in
  let budget = Budget.of_states cap in
  let agree (r : Conc.exploration) =
    match reference.Conc.exhausted with
    | None -> signature r = signature reference
    | Some _ ->
      r.Conc.states = reference.Conc.states
      && r.Conc.exhausted = reference.Conc.exhausted
  in
  agree (Conc.explore_all ~budget ~domains:1 (Conc.init e))
  && List.for_all
       (fun d ->
         agree (Conc.Par_explore.explore_all ~budget ~domains:d (Conc.init e)))
       [ 1; 2; 4 ]

let interned_key_prop =
  QCheck_alcotest.to_alcotest
    (Q.Test.make ~count:200
       ~name:"interned-key explore ≡ canonical-key BFS (seq, 1/2/4 domains)"
       ~print:Gen.print_shl Gen.conc_expr
       (agrees_with_reference ~cap:4_000))

let test_interned_keys_fork_heavy () =
  (* forked threads fork again, so successors append threads at several
     pool positions, from threads other than main *)
  let e =
    parse
      "let r = ref 0 in fork (fork (r := !r + 1); r := !r + 2); fork (fork \
       (r := 4); r := !r + 8); !r"
  in
  let r = Conc.explore_all ~domains:1 (Conc.init e) in
  Alcotest.(check int) "states" 15_453 r.Conc.states;
  let reduced = Conc.explore ~domains:1 (Conc.init e) in
  Alcotest.(check int) "reduced states" 6015 reduced.Conc.states;
  Alcotest.(check bool) "more than one outcome" true
    (List.length (final_ints r) > 1);
  Alcotest.(check bool) "matches the canonical-key BFS" true
    (agrees_with_reference ~cap:200_000 e)

(* ---------- the drivers workload's counters ---------- *)

(* [k] forked threads bump a counter — through a CAS retry loop, or by
   an unlocked read-then-write — and count themselves done with a CAS;
   main waits for all [k] and reads the counter.  The same programs as
   the time-to-verdict benchmark's [run --domains=2] jobs. *)
let counter_program ~cas k =
  let bump =
    if cas then "inc (); finish ()"
    else "let v = !c in c := v + 1; finish ()"
  in
  parse
    (Printf.sprintf
       "let c = ref 0 in let d = ref 0 in let inc = rec retry u. let v = !c \
        in if cas c v (v + 1) then () else retry u in let finish = rec retry \
        u. let w = !d in if cas d w (w + 1) then () else retry u in %s (rec \
        wait u. if !d = %d then !c else wait u) ()"
       (String.concat " " (List.init k (fun _ -> "fork (" ^ bump ^ ");")))
       k)

(* The full graph's count, and the reduced graph's, pinned at every
   domain count; both graphs must reach exactly [finals]. *)
let test_counter_pinned ~cas k ~full ~reduced ~finals () =
  let e = counter_program ~cas k in
  List.iter
    (fun d ->
      List.iter
        (fun (graph, explore, states) ->
          let r : Conc.exploration = explore ~domains:d (Conc.init e) in
          let what =
            Printf.sprintf "%d-thread %s, %s graph, %d domains" k
              (if cas then "CAS" else "racy")
              graph d
          in
          Alcotest.(check int) (what ^ ": states") states r.Conc.states;
          Alcotest.(check (list int)) (what ^ ": finals") finals (final_ints r);
          Alcotest.(check bool) (what ^ ": complete") true
            (r.Conc.exhausted = None && r.Conc.stuck = []))
        [
          ("full", (fun ~domains c -> Conc.explore_all ~domains c), full);
          ("reduced", (fun ~domains c -> Conc.explore ~domains c), reduced);
        ])
    [ 1; 2; 4 ]

(* ---------- the reduced graph against the full one ---------- *)

(* What both graphs must agree on: the sorted final (value, heap) pairs
   and the sorted stuck threads. *)
let outcomes (r : Conc.exploration) =
  let _, finals, stuck, _ = signature r in
  (finals, stuck)

(* On a program the full graph explores to the end, the reduced graph
   must end too, with the same outcomes at 1/2/4 domains and one state
   count at all three. *)
let reduced_agrees_with_full ?(cap = 4_000) e =
  let budget = Budget.of_states cap in
  let full = Conc.explore_all ~budget ~domains:1 (Conc.init e) in
  let reduced =
    List.map
      (fun d -> Conc.explore ~budget ~domains:d (Conc.init e))
      [ 1; 2; 4 ]
  in
  let states = (List.hd reduced).Conc.states in
  List.for_all (fun (r : Conc.exploration) -> r.Conc.states = states) reduced
  && (full.Conc.exhausted <> None
     || List.for_all
          (fun (r : Conc.exploration) ->
            r.Conc.exhausted = None && outcomes r = outcomes full)
          reduced)

(* Straight-line programs, and programs whose threads loop, spin-wait
   and get stuck. *)
let reduced_differential_prop =
  QCheck_alcotest.to_alcotest
    (Q.Test.make ~count:800
       ~name:"reduced explore ≡ explore_all on finals and stuck (1/2/4 domains)"
       ~print:Gen.print_shl
       (Q.Gen.oneof [ Gen.conc_expr; Gen.conc_loop_expr ])
       (fun e -> reduced_agrees_with_full e))

(* A pure local loop whose stack swings 36 frames deep at every β-step
   but the loop's own call, and the three lead-in applications put that
   call at β-counts 3 mod 7, never a power of two mod 7: the chain's
   cycle check never saves a shallow configuration, so it misses the
   repeat and only the chain-length limit ends the chain. *)
let deep_local_loop =
  let nest =
    String.concat "" (List.init 35 (fun _ -> "1 + ("))
    ^ "(rec g n. if n = 0 then 0 else g (n - 1)) 5"
    ^ String.make 35 ')'
  in
  parse
    (Printf.sprintf
       "fork ((fun a -> (fun b -> (fun c -> (rec f x. let d = %s in f 0) 0) \
        0) 0) 0); 1 + true"
       nest)

(* Programs with loops: spin-waits, CAS retries, a thread whose pure
   loop never ends next to a stuck one. *)
let looping_programs =
  [
    ("2-thread CAS counter", counter_program ~cas:true 2);
    ("2-thread racy counter", counter_program ~cas:false 2);
    ("3-thread CAS counter", counter_program ~cas:true 3);
    ("3-thread racy counter", counter_program ~cas:false 3);
    ("racy_incr", Conc.racy_incr);
    ("locked_incr", Conc.locked_incr);
    ("spinlock_pair", Conc.spinlock_pair);
    ("spinlock_pair_racy_read", Conc.spinlock_pair_racy_read);
    ( "local loop next to a stuck thread",
      parse "fork ((rec f x. f x) 0); 1 + true" );
    ("local loop 36 frames deep next to a stuck thread", deep_local_loop);
  ]

let test_reduced_agrees_on_loops () =
  List.iter
    (fun (name, e) ->
      Alcotest.(check bool) name true (reduced_agrees_with_full ~cap:200_000 e))
    looping_programs

let test_reduced_divergent_chain_budget () =
  (* the child counts up forever without repeating a state: the chain's
     steps exhaust [steps:], and under [states:] alone the chain-length
     limit interns new states, so neither budget hangs; the stuck main
     thread is still found *)
  let e = parse "fork ((rec f x. f (x + 1)) 0); 1 + true" in
  let _, stuck =
    outcomes
      (Conc.explore_all ~budget:(Budget.of_states 1000) ~domains:1
         (Conc.init e))
  in
  List.iter
    (fun d ->
      List.iter
        (fun (what, budget, resource) ->
          let r = Conc.explore ~budget ~domains:d (Conc.init e) in
          let what = Printf.sprintf "%s at %d domains" what d in
          Alcotest.(check bool)
            (what ^ ": resource named")
            true
            (r.Conc.exhausted = Some resource);
          if resource = Budget.States then
            Alcotest.(check bool) (what ^ ": stuck main thread") true
              (snd (outcomes r) = stuck))
        [
          ("steps:1000", Budget.of_steps 1000, Budget.Steps);
          ("states:1000", Budget.of_states 1000, Budget.States);
        ])
    [ 1; 2; 4 ]

let test_shard_buckets_spread () =
  (* The shard index and the bucket index must come from different bits
     of the key hash.  Taken from the same low bits, every key of a shard
     falls into one bucket of its 64 (about 29 keys per shard here);
     spread, no chain should pass 8. *)
  let visited, interned =
    Conc.Par_explore.shard_stats ~domains:1
      (Conc.init (counter_program ~cas:true 2))
  in
  let longest =
    List.fold_left (fun acc s -> max acc s.Hashtbl.max_bucket_length) 0
  in
  Alcotest.(check int) "every visited state in some shard" 1841
    (List.fold_left (fun acc s -> acc + s.Hashtbl.num_bindings) 0 visited);
  Alcotest.(check bool)
    (Printf.sprintf "visited chains short (longest %d)" (longest visited))
    true
    (longest visited <= 8);
  Alcotest.(check bool)
    (Printf.sprintf "intern chains short (longest %d)" (longest interned))
    true
    (longest interned <= 8)

let suite =
  [
    Alcotest.test_case "racy counter loses updates" `Quick test_racy_counter;
    Alcotest.test_case "CAS counter is correct on all schedules" `Quick
      test_locked_counter;
    Alcotest.test_case "spin lock protects its invariant" `Slow test_spinlock;
    Alcotest.test_case "schedulers ⊆ exploration" `Quick
      test_schedulers_agree_with_exploration;
    Alcotest.test_case "seeded scheduler is deterministic" `Quick
      test_seeded_determinism;
    Alcotest.test_case "fork semantics" `Quick test_fork_semantics;
    Alcotest.test_case "cas sequentially (and typed)" `Quick
      test_cas_sequential;
    Alcotest.test_case "fork is untyped" `Quick test_fork_untyped;
    Alcotest.test_case "stuck threads reported" `Quick
      test_stuck_thread_reported;
    Alcotest.test_case "concurrent syntax roundtrips" `Quick
      test_roundtrip_conc_syntax;
    locked_always_two_prop;
    Alcotest.test_case "conc TP-refinement: CAS counter ⪯ 2" `Quick
      test_conc_refinement_locked;
    Alcotest.test_case "conc TP-refinement: CAS counter ⪯ a 5-step source"
      `Quick test_conc_refinement_long_source;
    Alcotest.test_case "conc TP-refinement: racy counter per-schedule" `Quick
      test_conc_refinement_racy;
    certify_matches_run_prop;
    Alcotest.test_case "conc TP-refinement: divergence rejected" `Quick
      test_conc_refinement_divergence_rejected;
    Alcotest.test_case "explore keys states canonically" `Quick
      test_canonical_visited_key;
    Alcotest.test_case "explore dedups commuting interleavings" `Quick
      test_interleaving_diamond_dedup;
    par_differential_prop;
    Alcotest.test_case "parallel explore: steps budget exhausts globally"
      `Quick test_par_budget_steps_exhaustion;
    Alcotest.test_case "parallel explore: states cap is a deterministic prefix"
      `Quick test_par_budget_states_prefix;
    Alcotest.test_case "parallel explore: per-worker accounting" `Quick
      test_par_worker_stats;
    Alcotest.test_case "race oracle is domain-count independent" `Quick
      test_par_races_oracle_agrees;
    interned_key_prop;
    Alcotest.test_case "interned keys: fork-heavy program" `Quick
      test_interned_keys_fork_heavy;
    Alcotest.test_case "drivers counter: 2-thread CAS" `Quick
      (test_counter_pinned ~cas:true 2 ~full:1841 ~reduced:146 ~finals:[ 2 ]);
    Alcotest.test_case "drivers counter: 2-thread racy" `Quick
      (test_counter_pinned ~cas:false 2 ~full:1909 ~reduced:178
         ~finals:[ 1; 2 ]);
    Alcotest.test_case "drivers counter: 3-thread CAS" `Slow
      (test_counter_pinned ~cas:true 3 ~full:46_367 ~reduced:1311
         ~finals:[ 3 ]);
    Alcotest.test_case "drivers counter: 3-thread racy" `Slow
      (test_counter_pinned ~cas:false 3 ~full:55_791 ~reduced:2068
         ~finals:[ 1; 2; 3 ]);
    reduced_differential_prop;
    Alcotest.test_case "reduced explore ≡ explore_all on looping programs"
      `Slow test_reduced_agrees_on_loops;
    Alcotest.test_case "reduced explore: a divergent chain exhausts steps"
      `Quick test_reduced_divergent_chain_budget;
    Alcotest.test_case "parallel explore: shard and bucket bits differ" `Quick
      test_shard_buckets_spread;
  ]
