(** A fuel-indexed logical relation for SHL — the executable face of the
    §5.2 type interpretations and the "type-world circularity".

    Following a reference consumes a unit of fuel, so cyclic stores
    (Landin's knot) have a well-defined approximation at every index;
    running out of fuel counts as "safe so far" — the finite-prefix
    reading of safety.  Divergent well-typed programs are accepted;
    stuck programs are refuted. *)

open Tfiris_shl

type ty =
  | T_unit
  | T_bool
  | T_int
  | T_prod of ty * ty
  | T_sum of ty * ty
  | T_fun of ty * ty
  | T_ref of ty

val pp_ty : Format.formatter -> ty -> unit

val samples : ty -> Ast.value list
(** Canonical inhabitants used to probe function values ([T_ref] has
    none: references cannot be conjured without a heap). *)

val member : int -> ty -> Ast.value -> Heap.t -> bool
(** The fuel-indexed value relation [v ∈ ⟦τ⟧ₖ] in a heap. *)

val expr_member : int -> ty -> Ast.expr -> Heap.t -> bool
val expr_ok : ?fuel:int -> ty -> Ast.expr -> bool
(** Semantic typing from the empty heap at step index [fuel] (default
    10⁵) — the relation's index, not a run budget, so it stays an int. *)

val landins_knot : Ast.expr
(** Recursion through the store: typed at [unit], never stuck,
    diverges — the program that forces [ref τ] to be step-indexed. *)

val knot_heap : Ast.loc * Heap.t
(** A cyclic store value in [⟦ref (unit → unit)⟧] at every index. *)

val of_shl_ty : Types.ty -> ty option
(** Bridge from inferred syntactic types (no unification variables). *)

val fundamental : ?fuel:int -> Ast.expr -> bool
(** The fundamental theorem, executably: if {!Types.infer} succeeds the
    program is semantically safe at its type (vacuously true
    otherwise).  [fuel] is {!expr_ok}'s step index. *)
