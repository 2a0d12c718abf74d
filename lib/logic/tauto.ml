(** A contraction-free intuitionistic prover emitting checked derivations.

    [prove goal] searches for a proof of [⊢ goal] in the
    {e propositional, later-free} fragment (True, False, atoms, ∧, ∨, ⇒)
    using Dyckhoff's contraction-free calculus {b G4ip}, whose left
    implication rules are decomposed by the shape of the implication's
    antecedent so that backward search terminates without loop checking.
    The result is not a yes/no answer but a {!Proof.t} derivation tree,
    re-checkable by {!Proof.check} in either system — the prover cannot
    be wrong, only incomplete.

    Two deliberate gaps, both tested:

    - the later modality is out of scope (G4ip is for pure intuitionistic
      logic; the step-indexed rules live in {!Proof} and {!Derived});
    - the truth-height models are {e linear} Heyting algebras, which
      validate Gödel–Dummett's axiom [(P ⇒ Q) ∨ (Q ⇒ P)] — semantically
      valid here, yet not intuitionistically provable.  The prover is
      sound for the models but (correctly) fails on such formulas:
      syntactic provability is strictly stronger evidence than validity
      in these particular models.

    Sequents are [Γ ⊢ G] with the context embedded as a right-nested
    conjunction [⟦x₁,…,xₙ⟧ = And(…And(True, x₁)…, xₙ)], so that
    [Impl_intro] applies directly when the newest hypothesis is used. *)

module F = Formula
module Metrics = Tfiris_obs.Metrics
module Trace = Tfiris_obs.Trace
module Span = Tfiris_obs.Span

(* Proof-search instrumentation: one counter bump per sequent visited
   and per caught [Fail] (a backtrack point), so the cost of G4ip
   search is visible in the metrics snapshot. *)
let c_nodes = Metrics.counter "logic.tauto.search_nodes"
let c_backtracks = Metrics.counter "logic.tauto.backtracks"
let c_proved = Metrics.counter "logic.tauto.proved"
let c_failed = Metrics.counter "logic.tauto.failed"

(* ---------- context plumbing ---------- *)

(* ⟦Γ⟧: newest hypothesis outermost-right. *)
let rec embed (gamma : F.t list) : F.t =
  match gamma with [] -> F.True | a :: rest -> F.And (embed rest, a)

(* d_proj gamma i : ⟦Γ⟧ ⊢ Γᵢ (0 = newest). *)
let d_proj (gamma : F.t list) (i : int) : Proof.t =
  let rec go gamma i =
    match gamma with
    | [] -> invalid_arg "Tauto.d_proj"
    | a :: rest ->
      if i = 0 then Proof.And_elim_r (embed rest, a)
      else Proof.Cut (Proof.And_elim_l (embed rest, a), go rest (i - 1))
  in
  go gamma i

(* d_restructure gamma gamma' : ⟦Γ⟧ ⊢ ⟦Γ'⟧, where every member of Γ'
   must be {e derivable} from ⟦Γ⟧ via the supplied map (index into Γ or
   a ready-made derivation). *)
let d_of_hyps (gamma : F.t list) (needed : (F.t * Proof.t) list) : Proof.t =
  (* needed: newest first, with derivations ⟦Γ⟧ ⊢ formula *)
  let rec go = function
    | [] -> Proof.True_intro (embed gamma)
    | (_, d) :: rest -> Proof.And_intro (go rest, d)
  in
  go needed

(* ---------- derivation templates for the G4ip left rules ----------

   Each template is the proof-term content of one left-rule step:
   from a derivation of the transformed sequent, produce one of the
   original.  They all follow the same pattern: Cut with a
   restructuring derivation ⟦Γ⟧ ⊢ ⟦Γ'⟧. *)

(* From ⟦Γ'⟧ ⊢ G and a hypothesis map producing each Γ'ᵢ from ⟦Γ⟧,
   conclude ⟦Γ⟧ ⊢ G. *)
let via (gamma : F.t list) (gamma' : F.t list)
    (hyps : (F.t * Proof.t) list) (d : Proof.t) : Proof.t =
  ignore gamma';
  Proof.Cut (d_of_hyps gamma hyps, d)

(* internal modus ponens template: ⟦Γ⟧ ⊢ A⇒B and ⟦Γ⟧ ⊢ A give ⟦Γ⟧ ⊢ B *)
let mp (d_imp : Proof.t) (d_arg : Proof.t) : Proof.t =
  Proof.Impl_elim (d_imp, d_arg)

(* ---------- the prover ---------- *)

exception Fail

(* The search works on (Γ as list, goal); it returns a derivation of
   ⟦Γ⟧ ⊢ G.  Atoms are Index_lt formulas (and anything else opaque). *)
let rec search (gamma : F.t list) (goal : F.t) : Proof.t =
  Metrics.incr c_nodes;
  (* 1. axiom / absurdity *)
  match find_axiom gamma goal with
  | Some d -> d
  | None -> (
    (* 2. invertible left rules: decompose the first reducible
       hypothesis *)
    match decompose_left gamma goal with
    | Some d -> d
    | None -> (
      (* 3. invertible right rules *)
      match goal with
      | F.True -> Proof.True_intro (embed gamma)
      | F.And (a, b) -> Proof.And_intro (search gamma a, search gamma b)
      | F.Impl (a, b) ->
        (* ⟦Γ⟧, a ⊢ b then Impl_intro: lhs is And(⟦Γ⟧, a) by our
           embedding *)
        Proof.Impl_intro (search (a :: gamma) b)
      | F.Or _ | F.False | F.Index_lt _ | F.Later _ | F.Exists_fin _
      | F.Forall_fin _ | F.Exists_nat _ | F.Forall_nat _ ->
        (* 4. non-invertible: try the disjunction sides, then fail *)
        attempt_noninvertible gamma goal))

and find_axiom gamma goal =
  let rec idx i = function
    | [] -> None
    | a :: rest ->
      if F.equal a goal then Some (d_proj gamma i)
      else if F.equal a F.False then
        Some (Proof.Cut (d_proj gamma i, Proof.False_elim goal))
      else idx (i + 1) rest
  in
  if F.equal goal F.True then Some (Proof.True_intro (embed gamma)) else idx 0 gamma

and decompose_left gamma goal = decompose_left_at gamma goal 0

and decompose_left_at gamma goal i =
  match List.nth_opt gamma i with
  | None -> None
  | Some hyp -> (
    let rest_without = List.filteri (fun j _ -> j <> i) gamma in
    let keep_rest_hyps skipped =
      (* hypotheses of Γ minus position i, newest first, each derived by
         projection from ⟦Γ⟧ *)
      ignore skipped;
      List.filteri (fun j _ -> j <> i) gamma
      |> List.mapi (fun j' a ->
             (* index in the original gamma *)
             let orig = if j' < i then j' else j' + 1 in
             (a, d_proj gamma orig))
    in
    match hyp with
    | F.True ->
      (* drop it *)
      let gamma' = rest_without in
      let d = search gamma' goal in
      Some (via gamma gamma' (keep_rest_hyps i) d)
    | F.And (a, b) ->
      let gamma' = a :: b :: rest_without in
      let d = search gamma' goal in
      let hyp_a = (a, Proof.Cut (d_proj gamma i, Proof.And_elim_l (a, b))) in
      let hyp_b = (b, Proof.Cut (d_proj gamma i, Proof.And_elim_r (a, b))) in
      Some (via gamma gamma' (hyp_a :: hyp_b :: keep_rest_hyps i) d)
    | F.Or (a, b) ->
      (* branch: Γ,a ⊢ G and Γ,b ⊢ G; assemble via the implication
         dance (see module comment of Derived) *)
      let da = search (a :: rest_without) goal in
      let db = search (b :: rest_without) goal in
      Some (assemble_or_elim gamma i a b da db goal)
    | F.Impl (ant, b) -> (
      match ant with
      | F.True ->
        (* (⊤⇒B) ↦ B *)
        let gamma' = b :: rest_without in
        let d = search gamma' goal in
        let hyp_b =
          (b, mp (d_proj gamma i) (Proof.True_intro (embed gamma)))
        in
        Some (via gamma gamma' (hyp_b :: keep_rest_hyps i) d)
      | F.False ->
        (* (⊥⇒B) is useless: drop it *)
        let gamma' = rest_without in
        let d = search gamma' goal in
        Some (via gamma gamma' (keep_rest_hyps i) d)
      | F.And (c, dd) ->
        (* ((C∧D)⇒B) ↦ (C⇒(D⇒B)) *)
        let curried = F.Impl (c, F.Impl (dd, b)) in
        let gamma' = curried :: rest_without in
        let d = search gamma' goal in
        let d_curried =
          (* ⟦Γ⟧ ⊢ C⇒(D⇒B) from ⟦Γ⟧ ⊢ (C∧D)⇒B *)
          Proof.Impl_intro
            (Proof.Impl_intro
               (let g2 = F.And (F.And (embed gamma, c), dd) in
                let d_cd =
                  Proof.And_intro
                    ( Proof.Cut
                        ( Proof.And_elim_l (F.And (embed gamma, c), dd),
                          Proof.And_elim_r (embed gamma, c) ),
                      Proof.And_elim_r (F.And (embed gamma, c), dd) )
                in
                let d_imp =
                  Proof.Cut
                    ( Proof.Cut
                        ( Proof.And_elim_l (F.And (embed gamma, c), dd),
                          Proof.And_elim_l (embed gamma, c) ),
                      d_proj gamma i )
                in
                ignore g2;
                mp d_imp d_cd))
        in
        Some (via gamma gamma' ((curried, d_curried) :: keep_rest_hyps i) d)
      | F.Or (c, dd) ->
        (* ((C∨D)⇒B) ↦ (C⇒B), (D⇒B) *)
        let ic = F.Impl (c, b) and id = F.Impl (dd, b) in
        let gamma' = ic :: id :: rest_without in
        let d = search gamma' goal in
        let mk_side side =
          (* ⟦Γ⟧ ⊢ C⇒B:  Impl_intro over And(⟦Γ⟧, C) ⊢ B, which is
             mp of the original implication applied to inl C *)
          let arg, inj =
            match side with
            | `L -> (c, Proof.Cut (Proof.And_elim_r (embed gamma, c), Proof.Or_intro_l (c, dd)))
            | `R -> (dd, Proof.Cut (Proof.And_elim_r (embed gamma, dd), Proof.Or_intro_r (c, dd)))
          in
          Proof.Impl_intro
            (mp
               (Proof.Cut (Proof.And_elim_l (embed gamma, arg), d_proj gamma i))
               inj)
        in
        Some
          (via gamma gamma'
             ((ic, mk_side `L) :: (id, mk_side `R) :: keep_rest_hyps i)
             d)
      | F.Impl (c, dd) ->
        (* ((C⇒D)⇒B): prove Γ, D⇒B ⊢ C⇒D and Γ, B ⊢ G *)
        let id_b = F.Impl (dd, b) in
        let d1 =
          try Some (search (id_b :: rest_without) (F.Impl (c, dd)))
          with Fail ->
            Metrics.incr c_backtracks;
            None
        in
        (match d1 with
        | None -> decompose_left_at gamma goal (i + 1)
        | Some d1 ->
          let d2 = search (b :: rest_without) goal in
          (* assemble: ⟦Γ⟧ ⊢ B by applying the hypothesis to the C⇒D
             we just proved (which itself uses D⇒B, derivable from the
             hypothesis by composition) *)
          let d_db =
            (* ⟦Γ⟧ ⊢ D⇒B: λd. hyp (λ_. d) *)
            Proof.Impl_intro
              (mp
                 (Proof.Cut (Proof.And_elim_l (embed gamma, dd), d_proj gamma i))
                 (Proof.Impl_intro
                    (Proof.Cut
                       ( Proof.And_elim_l (F.And (embed gamma, dd), c),
                         Proof.And_elim_r (embed gamma, dd) ))))
          in
          let d_cd =
            (* ⟦Γ⟧ ⊢ C⇒D via d1 lifted: d1 is ⟦D⇒B :: rest⟧ ⊢ C⇒D *)
            Proof.Cut
              ( d_of_hyps gamma
                  ((id_b, d_db) :: keep_rest_hyps i),
                d1 )
          in
          let d_b = mp (d_proj gamma i) d_cd in
          Some
            (via gamma (b :: rest_without)
               ((b, d_b) :: keep_rest_hyps i)
               d2))
      | F.Index_lt _ | F.Later _ | F.Exists_fin _ | F.Forall_fin _
      | F.Exists_nat _ | F.Forall_nat _ ->
        (* atomic antecedent: G4ip fires only if it is in Γ *)
        (match
           List.find_index (fun h -> F.equal h ant) gamma
         with
        | Some j ->
          let gamma' = b :: rest_without in
          let d = search gamma' goal in
          let hyp_b = (b, mp (d_proj gamma i) (d_proj gamma j)) in
          Some (via gamma gamma' (hyp_b :: keep_rest_hyps i) d)
        | None -> decompose_left_at gamma goal (i + 1)))
    | F.False | F.Index_lt _ | F.Later _ | F.Exists_fin _ | F.Forall_fin _
    | F.Exists_nat _ | F.Forall_nat _ ->
      decompose_left_at gamma goal (i + 1))

and assemble_or_elim gamma i a b da db goal =
  (* da : ⟦a :: Γ∖i⟧ ⊢ G, db likewise.  Lift to implications over
     ⟦Γ⟧, then eliminate through the hypothesis at i. *)
  let rest_without = List.filteri (fun j _ -> j <> i) gamma in
  let keep j' = if j' < i then j' else j' + 1 in
  let lift (x : F.t) (d : Proof.t) : Proof.t =
    (* ⟦Γ⟧ ⊢ x ⇒ G *)
    Proof.Impl_intro
      (Proof.Cut
         ( d_of_hyps (x :: gamma)
             ((x, Proof.And_elim_r (embed gamma, x))
             :: List.mapi
                  (fun j' h ->
                    ( h,
                      Proof.Cut
                        ( Proof.And_elim_l (embed gamma, x),
                          d_proj gamma (keep j') ) ))
                  rest_without),
           d ))
  in
  let d_ag = lift a da and d_bg = lift b db in
  (* A∨B ⊢ ((A⇒G)∧(B⇒G)) ⇒ G *)
  let case x other side =
    ignore other;
    Proof.Impl_intro
      (let ctx = F.And (x, F.And (F.Impl (a, goal), F.Impl (b, goal))) in
       ignore ctx;
       mp
         (Proof.Cut
            ( Proof.And_elim_r (x, F.And (F.Impl (a, goal), F.Impl (b, goal))),
              match side with
              | `L -> Proof.And_elim_l (F.Impl (a, goal), F.Impl (b, goal))
              | `R -> Proof.And_elim_r (F.Impl (a, goal), F.Impl (b, goal)) ))
         (Proof.And_elim_l (x, F.And (F.Impl (a, goal), F.Impl (b, goal)))))
  in
  let elim =
    Proof.Or_elim (case a b `L, case b a `R)
    (* : A∨B ⊢ ((A⇒G)∧(B⇒G)) ⇒ G *)
  in
  Proof.Impl_elim
    (Proof.Cut (d_proj gamma i, elim), Proof.And_intro (d_ag, d_bg))

and attempt_noninvertible gamma goal =
  (* right disjunction, then give up *)
  match goal with
  | F.Or (a, b) -> (
    match
      try Some (search gamma a)
      with Fail ->
        Metrics.incr c_backtracks;
        None
    with
    | Some d -> Proof.Cut (d, Proof.Or_intro_l (a, b))
    | None -> (
      match
        try Some (search gamma b)
        with Fail ->
          Metrics.incr c_backtracks;
          None
      with
      | Some d -> Proof.Cut (d, Proof.Or_intro_r (a, b))
      | None -> raise Fail))
  | F.True | F.False | F.And _ | F.Impl _ | F.Index_lt _ | F.Later _
  | F.Exists_fin _ | F.Forall_fin _ | F.Exists_nat _ | F.Forall_nat _ ->
    raise Fail

(** [prove goal]: a checked derivation of [⊢ goal], or [None].  The
    returned derivation has conclusion [True ⊢ goal] (and re-checks in
    both systems: the fragment uses no step-indexed rules). *)
let prove (goal : F.t) : Proof.t option =
  Span.run ~name:"tauto.prove"
    ~attrs:(fun () -> [ ("goal", Trace.S (F.to_string goal)) ])
    (fun _ ->
      match search [] goal with
      | d ->
        Metrics.incr c_proved;
        Some d
      | exception Fail ->
        Metrics.incr c_failed;
        None)

(** [provable goal]. *)
let provable goal = Option.is_some (prove goal)

(** [entails p q]: search for a derivation of [p ⊢ q].  The result
    concludes [⟦[p]⟧ ⊢ q = And (True, p) ⊢ q]; [entails_seq] wraps it
    into a [p ⊢ q] derivation with a restructuring cut. *)
let entails (p : F.t) (q : F.t) : Proof.t option =
  match search [ p ] q with
  | d ->
    (* p ⊢ And (True, p), then cut *)
    Some (Proof.Cut (Proof.And_intro (Proof.True_intro p, Proof.Refl p), d))
  | exception Fail -> None
