(** Uniform predicates: the model of [iProp].

    §6.2 of the paper models Transfinite Iris propositions as monotone,
    step-indexed predicates over resources: [iProp ≈ F(iProp) →mon SProp].
    Our executable counterpart fixes a (discrete) resource algebra [R] and
    represents a proposition as a function [R.t → Height.t].  The smart
    constructors below all produce predicates that are monotone in
    resource extension; [of_fun] is the unchecked escape hatch and
    {!monotone_on} the corresponding test-time checker.

    Separating conjunction is computed by enumerating the (finitely many)
    decompositions of the resource — note that it is an {e existential}
    over splits, which is why the paper loses the commuting rule
    [▷(P ∗ Q) ⊢ ▷P ∗ ▷Q] along with [LaterExists] (§7). *)

module Ord = Tfiris_ordinal.Ord

module Make (R : Resource.S) = struct
  type t = R.t -> Height.t

  let holds (p : t) r alpha = Height.holds_at (p r) alpha
  let of_fun f : t = f

  (* r0 ≼ r iff some decomposition of r has r0 on the left. *)
  let included r0 r =
    List.exists (fun (a, _) -> R.equal a r0) (R.splits r)

  let pure h : t = fun _ -> h
  let tt = pure Height.tt
  let ff = pure Height.ff
  let embed b = pure (if b then Height.tt else Height.ff)

  (** [own r0]: ownership of at least the resource [r0]. *)
  let own r0 : t = fun r -> if included r0 r then Height.tt else Height.ff

  let conj p q : t = fun r -> Height.conj (p r) (q r)
  let disj p q : t = fun r -> Height.disj (p r) (q r)
  let later p : t = fun r -> Height.later (p r)
  let later_n n p : t = fun r -> Height.later_n n (p r)

  (** The persistence modality: [□P] holds of [r] when [P] holds of the
      duplicable part of [r].  Validates [□P ⊢ P] (via [core r ≼ r] and
      monotonicity), [□P ⊢ □□P] (core idempotence) and [□P ⊢ □P ∗ □P]
      (cores are duplicable) — all property-tested. *)
  let box p : t = fun r -> p (R.core r)

  (** (P ∗ Q) r = sup over r = r1 ⋅ r2 of min (P r1) (Q r2). *)
  let sep p q : t =
   fun r ->
    Height.exists_fin
      (List.map (fun (r1, r2) -> Height.conj (p r1) (q r2)) (R.splits r))

  let sep_list ps = List.fold_left sep (own R.unit) ps

  (** Magic wand restricted to a finite candidate frame set:
      (P -∗ Q) r = inf over composable r' of (P r' ⇒ Q (r ⋅ r')). *)
  let wand_over candidates p q : t =
   fun r ->
    Height.forall_fin
      (List.filter_map
         (fun r' ->
           match R.compose r r' with
           | None -> None
           | Some rr -> Some (Height.impl (p r') (q rr)))
         candidates)

  let exists_fin ps : t = fun r -> Height.exists_fin (List.map (fun p -> p r) ps)
  let forall_fin ps : t = fun r -> Height.forall_fin (List.map (fun p -> p r) ps)

  (** Validity and entailment, checked over a finite set of resources
      (the executable stand-in for quantification over all resources). *)
  let valid_on rs p = List.for_all (fun r -> Height.valid (p r)) rs

  let entails_on rs p q =
    List.for_all (fun r -> Height.le (p r) (q r)) rs

  (** Monotonicity in resource extension, checked over candidate frames:
      for every [r] and composable [r'], [P r ⊨ P (r ⋅ r')]. *)
  let monotone_on rs p =
    List.for_all
      (fun r ->
        List.for_all
          (fun r' ->
            match R.compose r r' with
            | None -> true
            | Some rr -> Height.le (p r) (p rr))
          rs)
      rs

  (** Pointwise Banach fixed point over a finite resource carrier: the
      executable face of the recursive-domain-equation construction of
      §6.2, restricted to contractive operators on predicates.  [fuel]
      bounds the iterations, not a program run. *)
  let fixpoint_on ?(fuel = 1024) rs (f : t -> t) : t option =
    let table = Hashtbl.create 16 in
    let solve r =
      match Hashtbl.find_opt table r with
      | Some h -> Some h
      | None ->
        (* Solve the height equation at resource r by iterating the whole
           operator but observing it at r only. *)
        let rec iter p n =
          if n = 0 then None
          else
            let p' = f p in
            if List.for_all (fun r0 -> Height.equal (p r0) (p' r0)) rs then
              Some (p r)
            else iter p' (n - 1)
        in
        let res =
          match iter (fun _ -> Height.tt) fuel with
          | Some h -> Some h
          | None -> iter (fun _ -> Height.ff) fuel
        in
        (match res with Some h -> Hashtbl.add table r h | None -> ());
        res
    in
    let solved = List.map (fun r -> (r, solve r)) rs in
    if List.for_all (fun (_, h) -> h <> None) solved then
      Some
        (fun r ->
          match List.find_opt (fun (r0, _) -> R.equal r0 r) solved with
          | Some (_, Some h) -> h
          | Some (_, None) | None -> Height.ff)
    else None
end
