(** Abstract syntax of Sequential HeapLang (SHL, Figure 2).

    SHL is the sequential fragment of Iris's default language HeapLang:
    an untyped call-by-value functional language with recursive
    functions, pairs, sums, and ML-style higher-order references.  We
    additionally support location offsets ([ℓ +ₗ n], present in Iris's
    HeapLang) because the paper's Levenshtein case study stores strings
    as null-terminated arrays and walks them by pointer increment
    (Figure 4: [slen (s + 1)]).

    Evaluation is left-to-right call-by-value.  [Let] and [Seq] are kept
    primitive (rather than desugared to β-redexes) so that traces and
    step-counts read naturally; each costs one pure step, exactly like
    the β-redex it abbreviates. *)

type loc = int

type un_op =
  | Neg  (** boolean negation *)
  | Minus  (** integer negation *)

type bin_op =
  | Add
  | Sub
  | Mul
  | Quot
  | Rem
  | Lt
  | Le
  | Eq
  | Ptr_add  (** [ℓ +ₗ n]: location offset *)

type value =
  | Unit
  | Bool of bool
  | Int of int
  | Loc of loc
  | Pair of value * value
  | Inj_l of value
  | Inj_r of value
  | Rec_fun of string option * string * expr
      (** [rec f x. e]; anonymous functions have no [f]. *)

and expr =
  | Val of value
  | Var of string
  | Rec of string option * string * expr
  | App of expr * expr
  | Un_op of un_op * expr
  | Bin_op of bin_op * expr * expr
  | If of expr * expr * expr
  | Pair_e of expr * expr
  | Fst of expr
  | Snd of expr
  | Inj_l_e of expr
  | Inj_r_e of expr
  | Case of expr * (string * expr) * (string * expr)
      (** [match e with inl x -> e1 | inr y -> e2] *)
  | Ref of expr
  | Load of expr
  | Store of expr * expr
  | Let of string * expr * expr
  | Seq of expr * expr
  | Fork of expr
      (** spawn a thread evaluating the expression (for its effects);
          the fork itself returns [()].  A redex for the {e concurrent}
          scheduler ({!Conc}); the sequential stepper treats it as
          stuck, and it is outside the typed fragment. *)
  | Cas of expr * expr * expr
      (** [cas ℓ old new]: atomic compare-and-set, returning a Boolean.
          Meaningful (and typed) sequentially too; atomic under the
          concurrent scheduler. *)

(** {1 Sugar} *)

let lam x e = Rec (None, x, e)
let lam_v x e = Rec_fun (None, x, e)
let unit_ = Val Unit
let int_ n = Val (Int n)
let var x = Var x
let app2 f a b = App (App (f, a), b)
let app3 f a b c = App (App (App (f, a), b), c)

(** [lets [(x1, e1); …] body] is nested [let]s. *)
let lets bindings body =
  List.fold_right (fun (x, e) acc -> Let (x, e, acc)) bindings body

(** Option encoding used throughout the paper's examples:
    [None = inl ()], [Some v = inr v]. *)
let none_ = Inj_l_e unit_

(** [match_opt e none (y, some)]: case analysis on an encoded option. *)
let match_opt e ~none ~some:(y, some_branch) =
  Case (e, ("_", none), (y, some_branch))

let is_value = function
  | Val _ -> true
  | Rec _ -> false
  | Var _ | App _ | Un_op _ | Bin_op _ | If _ | Pair_e _ | Fst _ | Snd _
  | Inj_l_e _ | Inj_r_e _ | Case _ | Ref _ | Load _ | Store _ | Let _ | Seq _
  | Fork _ | Cas _ ->
    false

(** Structural equality of values, defined only on comparable values
    (no closures) — mirrors HeapLang's [=].  Returns [None] when either
    side contains a closure. *)
let rec value_eq v1 v2 =
  match v1, v2 with
  | Rec_fun _, _ | _, Rec_fun _ -> None
  | Unit, Unit -> Some true
  | Bool a, Bool b -> Some (a = b)
  | Int a, Int b -> Some (a = b)
  | Loc a, Loc b -> Some (a = b)
  | Pair (a1, b1), Pair (a2, b2) -> (
    match value_eq a1 a2 with
    | Some true -> value_eq b1 b2
    | (Some false | None) as r -> r)
  | Inj_l a, Inj_l b | Inj_r a, Inj_r b -> value_eq a b
  | (Unit | Bool _ | Int _ | Loc _ | Pair _ | Inj_l _ | Inj_r _), _ ->
    Some false

(** {1 Free variables and substitution} *)

module Sset = Set.Make (String)

let rec free_vars_expr bound acc = function
  | Val v -> free_vars_value bound acc v
  | Var x -> if Sset.mem x bound then acc else Sset.add x acc
  | Rec (f, x, e) ->
    let bound = Sset.add x bound in
    let bound = match f with None -> bound | Some f -> Sset.add f bound in
    free_vars_expr bound acc e
  | App (e1, e2) | Bin_op (_, e1, e2) | Pair_e (e1, e2) | Store (e1, e2)
  | Seq (e1, e2) ->
    free_vars_expr bound (free_vars_expr bound acc e1) e2
  | Un_op (_, e) | Fst e | Snd e | Inj_l_e e | Inj_r_e e | Ref e | Load e ->
    free_vars_expr bound acc e
  | If (e1, e2, e3) ->
    free_vars_expr bound
      (free_vars_expr bound (free_vars_expr bound acc e1) e2)
      e3
  | Case (e, (x, e1), (y, e2)) ->
    let acc = free_vars_expr bound acc e in
    let acc = free_vars_expr (Sset.add x bound) acc e1 in
    free_vars_expr (Sset.add y bound) acc e2
  | Let (x, e1, e2) ->
    free_vars_expr (Sset.add x bound) (free_vars_expr bound acc e1) e2
  | Fork e -> free_vars_expr bound acc e
  | Cas (e1, e2, e3) ->
    free_vars_expr bound
      (free_vars_expr bound (free_vars_expr bound acc e1) e2)
      e3

and free_vars_value bound acc = function
  | Unit | Bool _ | Int _ | Loc _ -> acc
  | Pair (v1, v2) -> free_vars_value bound (free_vars_value bound acc v1) v2
  | Inj_l v | Inj_r v -> free_vars_value bound acc v
  | Rec_fun (f, x, e) ->
    let bound = Sset.add x bound in
    let bound = match f with None -> bound | Some f -> Sset.add f bound in
    free_vars_expr bound acc e

let free_vars e = free_vars_expr Sset.empty Sset.empty e
let is_closed e = Sset.is_empty (free_vars e)

(** [subst x v e]: substitute the value [v] for [x] in [e].  [v] is
    required to be closed (always the case in CBV evaluation of closed
    programs), so substitution never captures. *)
let rec subst x v (e : expr) : expr =
  match e with
  (* value literals can contain open closure bodies (the generator and
     parser both build them), and [free_vars] counts those occurrences —
     substitution must reach them or a step on [let] leaks a free
     variable *)
  | Val w -> Val (subst_value x v w)
  | Var y -> if String.equal x y then Val v else e
  | Rec (f, y, body) ->
    if String.equal x y || f = Some x then e else Rec (f, y, subst x v body)
  | App (e1, e2) -> App (subst x v e1, subst x v e2)
  | Un_op (op, e1) -> Un_op (op, subst x v e1)
  | Bin_op (op, e1, e2) -> Bin_op (op, subst x v e1, subst x v e2)
  | If (e1, e2, e3) -> If (subst x v e1, subst x v e2, subst x v e3)
  | Pair_e (e1, e2) -> Pair_e (subst x v e1, subst x v e2)
  | Fst e1 -> Fst (subst x v e1)
  | Snd e1 -> Snd (subst x v e1)
  | Inj_l_e e1 -> Inj_l_e (subst x v e1)
  | Inj_r_e e1 -> Inj_r_e (subst x v e1)
  | Case (e0, (y, e1), (z, e2)) ->
    Case
      ( subst x v e0,
        (y, if String.equal x y then e1 else subst x v e1),
        (z, if String.equal x z then e2 else subst x v e2) )
  | Ref e1 -> Ref (subst x v e1)
  | Load e1 -> Load (subst x v e1)
  | Store (e1, e2) -> Store (subst x v e1, subst x v e2)
  | Let (y, e1, e2) ->
    Let (y, subst x v e1, if String.equal x y then e2 else subst x v e2)
  | Seq (e1, e2) -> Seq (subst x v e1, subst x v e2)
  | Fork e1 -> Fork (subst x v e1)
  | Cas (e1, e2, e3) -> Cas (subst x v e1, subst x v e2, subst x v e3)

and subst_value x v (w : value) : value =
  match w with
  | Unit | Bool _ | Int _ | Loc _ -> w
  | Pair (v1, v2) -> Pair (subst_value x v v1, subst_value x v v2)
  | Inj_l v1 -> Inj_l (subst_value x v v1)
  | Inj_r v1 -> Inj_r (subst_value x v v1)
  | Rec_fun (f, y, body) ->
    if String.equal x y || f = Some x then w
    else Rec_fun (f, y, subst x v body)

(* [g = Some x] without allocating the [Some] *)
let names (g : string option) (x : string) : bool =
  match g with Some g -> String.equal g x | None -> false

(* The simultaneous pass of {!subst2} over [x ↦ vx] and [f ↦ vf], with
   the four passed as plain arguments. *)
let rec sub2 x vx f vf (e : expr) : expr =
  match e with
  | Val w -> Val (sub2_value x vx f vf w)
  | Var y ->
    if String.equal x y then Val vx else if String.equal f y then Val vf else e
  | Rec (g, y, body) -> Rec (g, y, sub2_rec x vx f vf g y body)
  | App (e1, e2) -> App (sub2 x vx f vf e1, sub2 x vx f vf e2)
  | Un_op (op, e1) -> Un_op (op, sub2 x vx f vf e1)
  | Bin_op (op, e1, e2) -> Bin_op (op, sub2 x vx f vf e1, sub2 x vx f vf e2)
  | If (e1, e2, e3) ->
    If (sub2 x vx f vf e1, sub2 x vx f vf e2, sub2 x vx f vf e3)
  | Pair_e (e1, e2) -> Pair_e (sub2 x vx f vf e1, sub2 x vx f vf e2)
  | Fst e1 -> Fst (sub2 x vx f vf e1)
  | Snd e1 -> Snd (sub2 x vx f vf e1)
  | Inj_l_e e1 -> Inj_l_e (sub2 x vx f vf e1)
  | Inj_r_e e1 -> Inj_r_e (sub2 x vx f vf e1)
  | Case (e0, (y, e1), (z, e2)) ->
    Case
      ( sub2 x vx f vf e0,
        (y, sub2_under x vx f vf y e1),
        (z, sub2_under x vx f vf z e2) )
  | Ref e1 -> Ref (sub2 x vx f vf e1)
  | Load e1 -> Load (sub2 x vx f vf e1)
  | Store (e1, e2) -> Store (sub2 x vx f vf e1, sub2 x vx f vf e2)
  | Let (y, e1, e2) -> Let (y, sub2 x vx f vf e1, sub2_under x vx f vf y e2)
  | Seq (e1, e2) -> Seq (sub2 x vx f vf e1, sub2 x vx f vf e2)
  | Fork e1 -> Fork (sub2 x vx f vf e1)
  | Cas (e1, e2, e3) ->
    Cas (sub2 x vx f vf e1, sub2 x vx f vf e2, sub2 x vx f vf e3)

and sub2_value x vx f vf (w : value) : value =
  match w with
  | Unit | Bool _ | Int _ | Loc _ -> w
  | Pair (v1, v2) -> Pair (sub2_value x vx f vf v1, sub2_value x vx f vf v2)
  | Inj_l v1 -> Inj_l (sub2_value x vx f vf v1)
  | Inj_r v1 -> Inj_r (sub2_value x vx f vf v1)
  | Rec_fun (g, y, body) -> Rec_fun (g, y, sub2_rec x vx f vf g y body)

(* Binders shadow bindings one at a time; when only one of the two
   survives, fall back to the single-binding substitution. *)
and sub2_under x vx f vf (bound : string) (e : expr) : expr =
  if String.equal bound x then
    if String.equal bound f then e else subst f vf e
  else if String.equal bound f then subst x vx e
  else sub2 x vx f vf e

(* The body of [rec g y. body]: both [g] and [y] bind. *)
and sub2_rec x vx f vf (g : string option) (y : string) (body : expr) : expr =
  if String.equal y x || names g x then
    if String.equal y f || names g f then body else subst f vf body
  else if String.equal y f || names g f then subst x vx body
  else sub2 x vx f vf body

(** [subst2 (x, vx) (f, vf) e]: simultaneous substitution of two closed
    values in a single traversal, with [x] taking precedence when
    [x = f].  For closed [vx] (so no free [f] inside it), this agrees
    with the sequential composition [subst f vf (subst x vx e)]
    (property-tested) — but does one pass over [e] instead of two.

    This is the β-rule for named recursive functions: one application
    step substitutes both the argument and the function itself, and that
    double traversal dominates the per-step cost of every loop written
    with [rec].  Its recursion ([sub2] and its helpers) passes [x, vx,
    f, vf] as plain arguments and allocates no closure: non-flambda
    [ocamlopt] would allocate a partial application or a local closure
    on every call that built one, several times the words of the nodes
    the substitution builds (DESIGN.md, "What a β-step allocates"). *)
let subst2 ((x, vx) : string * value) ((f, vf) : string * value)
    (e : expr) : expr =
  sub2 x vx f vf e

(** {1 Locations mentioned by a term}

    The footprint helpers of the symbolic-heap analyzer
    ({!Tfiris_analysis}) and the leak differential in the test suite
    need the set of locations a value can reach {e syntactically}:
    every [Loc] literal, including those embedded in closure bodies
    (substitution copies bound locations into [Rec_fun] bodies, so a
    returned closure keeps the cells it captured alive). *)

module Iset = Set.Make (Int)

let rec locs_expr_acc acc = function
  | Val v -> locs_value_acc acc v
  | Var _ -> acc
  | Rec (_, _, e) | Un_op (_, e) | Fst e | Snd e | Inj_l_e e | Inj_r_e e
  | Ref e | Load e | Fork e ->
    locs_expr_acc acc e
  | App (e1, e2) | Bin_op (_, e1, e2) | Pair_e (e1, e2) | Store (e1, e2)
  | Let (_, e1, e2) | Seq (e1, e2) ->
    locs_expr_acc (locs_expr_acc acc e1) e2
  | If (e1, e2, e3) | Cas (e1, e2, e3) ->
    locs_expr_acc (locs_expr_acc (locs_expr_acc acc e1) e2) e3
  | Case (e, (_, e1), (_, e2)) ->
    locs_expr_acc (locs_expr_acc (locs_expr_acc acc e) e1) e2

and locs_value_acc acc = function
  | Unit | Bool _ | Int _ -> acc
  | Loc l -> Iset.add l acc
  | Pair (v1, v2) -> locs_value_acc (locs_value_acc acc v1) v2
  | Inj_l v | Inj_r v -> locs_value_acc acc v
  | Rec_fun (_, _, e) -> locs_expr_acc acc e

(** Sorted list of distinct locations occurring in a value. *)
let locs_value v = Iset.elements (locs_value_acc Iset.empty v)

(** Sorted list of distinct locations occurring in an expression. *)
let locs_expr e = Iset.elements (locs_expr_acc Iset.empty e)

(** Size of an expression (number of AST nodes) — used by tests and
    benchmarks. *)
let rec size_expr = function
  | Val v -> size_value v
  | Var _ -> 1
  | Rec (_, _, e) | Un_op (_, e) | Fst e | Snd e | Inj_l_e e | Inj_r_e e
  | Ref e | Load e ->
    1 + size_expr e
  | App (e1, e2) | Bin_op (_, e1, e2) | Pair_e (e1, e2) | Store (e1, e2)
  | Let (_, e1, e2) | Seq (e1, e2) ->
    1 + size_expr e1 + size_expr e2
  | If (e1, e2, e3) | Cas (e1, e2, e3) ->
    1 + size_expr e1 + size_expr e2 + size_expr e3
  | Case (e, (_, e1), (_, e2)) -> 1 + size_expr e + size_expr e1 + size_expr e2
  | Fork e -> 1 + size_expr e

and size_value = function
  | Unit | Bool _ | Int _ | Loc _ -> 1
  | Pair (v1, v2) -> 1 + size_value v1 + size_value v2
  | Inj_l v | Inj_r v -> 1 + size_value v
  | Rec_fun (_, _, e) -> 1 + size_expr e
