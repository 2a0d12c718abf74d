(** Step-indexed propositions as truth heights ("cuts").

    A step-indexed proposition over an index domain [I] is a {e down-closed}
    family [P : I.t → Prop] (Definition 6.1 in the paper: if [P α] and
    [β ≤ α] then [P β]).  Over a linearly ordered index domain, a
    down-closed set is determined by the least index at which it fails —
    its {e truth height}.  So

    {v  SProp  ≅  I.t ⊎ {⊤}  v}

    and every connective of step-indexed logic becomes a total, computable
    function on heights.  This makes the paper's semantic model {e exact}
    in OCaml: validity, entailment, the later modality, Löb induction and
    the existential property are all decidable on this representation.

    [H a] denotes the proposition that holds at exactly the indices
    [β < a]; [Top] holds everywhere. *)

(** The interface of a cut model; see the function comments in {!Make}
    for the semantics of each operation. *)
module type S = sig
  type index

  type t =
    | H of index  (** holds at exactly the indices [β < a] *)
    | Top  (** holds everywhere *)

  val ff : t
  val tt : t
  val of_index : index -> t
  val holds_at : t -> index -> bool
  val valid : t -> bool
  val equal : t -> t -> bool
  val le : t -> t -> bool
  val entails : t -> t -> bool
  val compare : t -> t -> int
  val conj : t -> t -> t
  val disj : t -> t -> t
  val impl : t -> t -> t
  val iff : t -> t -> t
  val neg : t -> t
  val later : t -> t
  val later_n : int -> t -> t
  val conj_list : t list -> t
  val disj_list : t list -> t
  val exists_fin : t list -> t
  val forall_fin : t list -> t
  val pp : Format.formatter -> t -> unit
  val to_string : t -> string
  val dist : index -> t -> t -> bool
  val agree_below : index -> t -> t -> bool
  val contractive_at : index -> (t -> t) -> t -> t -> bool
  val fixpoint : ?fuel:int -> (t -> t) -> t option
  (** [fuel] bounds the iterations, not a program run. *)

  val iterates : (t -> t) -> int -> t list
end

module Make (I : Index.S) : S with type index = I.t = struct
  type index = I.t

  type t =
    | H of I.t
    | Top

  let ff = H I.zero
  let tt = Top
  let of_index a = H a

  let holds_at p beta =
    match p with Top -> true | H a -> I.compare beta a < 0

  let valid p = match p with Top -> true | H _ -> false

  let equal p q =
    match p, q with
    | Top, Top -> true
    | H a, H b -> I.equal a b
    | Top, H _ | H _, Top -> false

  (** The height order: [le p q] iff [p] entails [q] (holds at fewer
      indices).  This is semantic entailment [p ⊨ q]. *)
  let le p q =
    match p, q with
    | _, Top -> true
    | Top, H _ -> false
    | H a, H b -> I.compare a b <= 0

  let entails = le

  let compare p q =
    match p, q with
    | Top, Top -> 0
    | Top, H _ -> 1
    | H _, Top -> -1
    | H a, H b -> I.compare a b

  (* Lattice structure: ∧ is pointwise "and", which on cuts is min;
     ∨ is max. *)
  let conj p q = if le p q then p else q
  let disj p q = if le p q then q else p

  (* (P ⇒ Q) α  ≜  ∀β ≤ α. P β ⇒ Q β.  On cuts: ⊤ if h P ≤ h Q,
     otherwise exactly h Q (the implication first fails at the least β
     where P holds but Q does not, which is h Q). *)
  let impl p q = if le p q then Top else q

  let iff p q = conj (impl p q) (impl q p)
  let neg p = impl p ff

  (* (▷ P) α ≜ ∀β < α. P β: holds at α iff α ≤ h P, so h (▷P) = h P + 1.
     On ⊤ the quantification is vacuous at every index. *)
  let later p = match p with Top -> Top | H a -> H (I.succ a)

  let rec later_n n p = if n <= 0 then p else later_n (n - 1) (later p)

  let conj_list = List.fold_left conj tt
  let disj_list = List.fold_left disj ff

  (* Finite quantifiers: ∃ over a finite family is the sup of heights,
     ∀ the inf. *)
  let exists_fin ps = disj_list ps
  let forall_fin ps = conj_list ps

  let pp ppf = function
    | Top -> Format.pp_print_string ppf "\xe2\x8a\xa4"
    | H a -> Format.fprintf ppf "<%a" I.pp a

  let to_string p = Format.asprintf "%a" pp p

  (** {1 OFE structure (§6.2)}

      [SProp] is an ordered family of equivalences: [dist α p q] is the
      α-level equality [p ≡α q ≜ ∀β ≤ α, (p β ↔ q β)].  The relations
      coarsen as [α] decreases, as required. *)

  let dist alpha p q = equal p q || (holds_at p alpha && holds_at q alpha)

  (** [contractive_at alpha f p q]: one sampled instance of the
      contractiveness condition of Theorem 6.3 —
      if [∀β < α. p ≡β q] then [f p ≡α f q].
      On cuts, [∀β < α. p ≡β q] is equivalent to [dist] at every
      predecessor; we use the direct characterization: [p] and [q] agree
      strictly below [alpha]. *)
  let agree_below alpha p q =
    equal p q
    || ((not (holds_at p alpha)) && not (holds_at q alpha))
    ||
    (* both hold at all β < alpha: heights ≥ alpha *)
    (match p, q with
    | Top, Top -> true
    | H a, H b -> I.compare alpha a <= 0 && I.compare alpha b <= 0
    | Top, H b -> I.compare alpha b <= 0
    | H a, Top -> I.compare alpha a <= 0)

  let contractive_at alpha f p q =
    (not (agree_below alpha p q)) || dist alpha (f p) (f q)

  (** Banach fixed point (Theorem 6.3): a contractive [f] has a unique
      fixed point.  Finite iteration from ⊥ stalls at limit indices
      (that is the whole point of transfinite step-indexing), but
      iteration from ⊤ converges for contractive maps on cuts; we try
      both and verify the fixed-point equation on the result. *)
  let fixpoint ?(fuel = 1024) f =
    let rec iter x n =
      if n = 0 then None
      else
        let y = f x in
        if equal x y then Some x else iter y (n - 1)
    in
    match iter Top fuel with Some r -> Some r | None -> iter ff fuel

  (** The finite approximation chain [⊥, f ⊥, f² ⊥, …] — used by tests to
      exhibit how finite iteration approaches but does not reach limit
      fixed points. *)
  let iterates f n =
    let rec go x k acc = if k = 0 then List.rev acc else go (f x) (k - 1) (x :: acc) in
    go ff n []
end
