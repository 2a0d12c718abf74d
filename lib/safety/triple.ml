(** Hoare triples for safety, checked by exhaustive execution.

    [{P} e {v. Q v}] is checked by running [e] from {e every} model of
    [P], extended with {e every} test frame: the run must not get stuck
    (safety), must terminate within the budget (this is the safety logic:
    non-termination within it is reported separately, not accepted),
    and must end in a value [v] and final heap decomposing as
    [model-of-(Q v)] ⊎ frame — so the {b frame rule is validated by
    execution}, not assumed: SHL's step relation is local, and the
    checker observes that locality on every run.

    Postconditions are assertion-valued functions of the result (the
    binder [v.] of the paper's triples). *)

open Tfiris_shl

type t = {
  pre : Assertion.t;
  expr : Ast.expr;
  post : Ast.value -> Assertion.t;
}

type failure =
  | No_models  (** the precondition is unsatisfiable: vacuous *)
  | Stuck_run of Heap.t * Ast.expr
  | Fuel_exhausted of Heap.t
  | Post_failed of Heap.t * Ast.value * Heap.t
      (** initial fragment, result, final fragment *)
  | Frame_violated of Heap.t * Heap.t
      (** the run modified or consumed the frame *)

let pp_failure ppf = function
  | No_models -> Format.pp_print_string ppf "unsatisfiable precondition"
  | Stuck_run (_, e) ->
    Format.fprintf ppf "stuck on %s" (Pretty.expr_to_string e)
  | Fuel_exhausted _ -> Format.pp_print_string ppf "fuel exhausted"
  | Post_failed (_, v, _) ->
    Format.fprintf ppf "postcondition failed for result %a" Pretty.pp_value v
  | Frame_violated _ -> Format.pp_print_string ppf "frame modified"

type verdict =
  | Valid of int  (** number of (model, frame) runs performed *)
  | Invalid of failure

let pp_verdict ppf = function
  | Valid n -> Format.fprintf ppf "valid (%d runs)" n
  | Invalid f -> Format.fprintf ppf "invalid: %a" pp_failure f

(** Default test frames: empty, a far-away singleton, two cells. *)
let default_frames =
  [
    Heap.empty;
    Heap.store 1000 (Ast.Int 7) Heap.empty;
    Heap.store 1000 (Ast.Bool true) (Heap.store 1001 Ast.Unit Heap.empty);
  ]

let check ?(budget = Tfiris_robust.Budget.of_steps 1_000_000)
    ?(frames = default_frames) ?(vacuous_ok = false) (t : t) : verdict =
  let ms = Assertion.models t.pre in
  if ms = [] && not vacuous_ok then Invalid No_models
  else
    let runs = ref 0 in
    let rec run_all = function
      | [] -> Valid !runs
      | (h0, frame) :: rest -> (
        match Heap.disjoint_union h0 frame with
        | None -> run_all rest (* incompatible combination: skip *)
        | Some h -> (
          incr runs;
          match Interp.exec ~budget ~heap:h t.expr with
          | Interp.Stuck (_, redex), _ -> Invalid (Stuck_run (h0, redex))
          | Interp.Out_of_fuel _, _ -> Invalid (Fuel_exhausted h0)
          | Interp.Value (v, h_final), _ ->
            (* the frame must survive untouched *)
            if not (Heap.subheap frame h_final) then
              Invalid (Frame_violated (h0, frame))
            else
              let local = Heap.diff h_final frame in
              if Assertion.sat (t.post v) local then run_all rest
              else Invalid (Post_failed (h0, v, local))))
    in
    run_all (List.concat_map (fun m -> List.map (fun f -> (m, f)) frames) ms)

let valid ?budget ?frames t =
  match check ?budget ?frames t with Valid _ -> true | Invalid _ -> false

(** {1 Rule-shaped facts}

    The structural rules of the logic, as checked transformations: each
    takes an already-checked triple and produces the derived one, which
    the test-suite re-checks.  (These are theorems about the checker
    validated by the checker — the executable analogue of deriving the
    rules in the logic.) *)

(** Frame rule: [{P} e {Q}  ⟹  {P ∗ R} e {Q ∗ R}]. *)
let frame (r : Assertion.t) (t : t) : t =
  {
    pre = Star (t.pre, r);
    expr = t.expr;
    post = (fun v -> Assertion.Star (t.post v, r));
  }

(** Consequence: strengthen the precondition / weaken the
    postcondition.  The entailments are checked on the spot. *)
let consequence ~(pre' : Assertion.t) ~(post' : Ast.value -> Assertion.t)
    ~(post_candidates : Ast.value list) (t : t) : t option =
  if
    Assertion.entails pre' t.pre
    && List.for_all
         (fun v -> Assertion.entails (t.post v) (post' v))
         post_candidates
  then Some { pre = pre'; expr = t.expr; post = post' }
  else None

(** {1 Classic verified programs} *)

(** [{ℓ₁ ↦ a ∗ ℓ₂ ↦ b} swap ℓ₁ ℓ₂ {ℓ₁ ↦ b ∗ ℓ₂ ↦ a}]. *)
let swap_triple ~(l1 : Ast.loc) ~(l2 : Ast.loc) ~(a : Ast.value)
    ~(b : Ast.value) : t =
  let open Ast in
  let swap =
    Parser.parse_exn
      "fun x y -> let t = !x in x := !y; y := t"
  in
  {
    pre = Star (Points_to (l1, a), Points_to (l2, b));
    expr = app2 swap (Val (Loc l1)) (Val (Loc l2));
    post =
      (fun v ->
        if v = Unit then Star (Points_to (l1, b), Points_to (l2, a))
        else Pure false);
  }

(** [{ℓ ↦ n} incr ℓ {ℓ ↦ n+1}]. *)
let incr_triple ~(l : Ast.loc) ~(n : int) : t =
  let open Ast in
  {
    pre = Points_to (l, Int n);
    expr = App (Parser.parse_exn "fun x -> x := !x + 1", Val (Loc l));
    post =
      (fun v ->
        if v = Unit then Points_to (l, Int (n + 1)) else Pure false);
  }

(** Allocation: [{emp} ref v {∃ℓ. ℓ ↦ v}] — the fresh location is
    whatever the allocator picked; the postcondition checks the single
    new cell holds [v]. *)
let alloc_triple (v0 : Ast.value) : t =
  {
    pre = Emp;
    expr = Ast.Ref (Ast.Val v0);
    post =
      (fun v ->
        match v with
        | Ast.Loc l -> Points_to (l, v0)
        | _ -> Pure false);
  }
