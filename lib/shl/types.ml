(** Simple types for SHL, with unification-based inference.

    The typed fragment is the ML core: unit/bool/int, products, sums,
    (monomorphic) functions and ML-style references.  Inference is
    classical algorithm-W-without-generalization: SHL terms carry no
    annotations, so lambda parameters get fresh unification variables.
    [let] is {e not} generalized — the fragment is monomorphic
    (documented restriction, like location literals and pointer
    arithmetic, which are untypeable here: [ℓ +ₗ n] deliberately escapes
    the type system, as it does in the paper's Levenshtein example where
    correctness is argued in the logic instead).

    The point of the checker in this repository is the {b fundamental
    theorem} of the safety logical relation, stated executably and
    property-tested: if [infer e = Ok τ] then [e] is semantically safe
    at [τ] — it never gets stuck, at any fuel (see the test suite). *)

type ty =
  | T_unit
  | T_bool
  | T_int
  | T_prod of ty * ty
  | T_sum of ty * ty
  | T_fun of ty * ty
  | T_ref of ty
  | T_var of int  (** unification variable (resolved types contain none) *)

let rec pp_ty ppf = function
  | T_unit -> Format.pp_print_string ppf "unit"
  | T_bool -> Format.pp_print_string ppf "bool"
  | T_int -> Format.pp_print_string ppf "int"
  | T_prod (a, b) -> Format.fprintf ppf "(%a * %a)" pp_ty a pp_ty b
  | T_sum (a, b) -> Format.fprintf ppf "(%a + %a)" pp_ty a pp_ty b
  | T_fun (a, b) -> Format.fprintf ppf "(%a -> %a)" pp_ty a pp_ty b
  | T_ref a -> Format.fprintf ppf "ref %a" pp_ty a
  | T_var n -> Format.fprintf ppf "'a%d" n

let ty_to_string t = Format.asprintf "%a" pp_ty t

type error = string

exception Type_error of error

(* Union-find-free substitution-based unifier: a growable store of
   variable bindings. *)
type state = {
  mutable bindings : (int * ty) list;
  mutable next : int;
}

let fresh st =
  let n = st.next in
  st.next <- n + 1;
  T_var n

let rec resolve st (t : ty) : ty =
  match t with
  | T_var n -> (
    match List.assoc_opt n st.bindings with
    | Some t' -> resolve st t'
    | None -> t)
  | T_unit | T_bool | T_int | T_prod _ | T_sum _ | T_fun _ | T_ref _ -> t

let rec occurs st n (t : ty) : bool =
  match resolve st t with
  | T_var m -> m = n
  | T_prod (a, b) | T_sum (a, b) | T_fun (a, b) ->
    occurs st n a || occurs st n b
  | T_ref a -> occurs st n a
  | T_unit | T_bool | T_int -> false

let rec unify st (t1 : ty) (t2 : ty) : unit =
  let t1 = resolve st t1 and t2 = resolve st t2 in
  match t1, t2 with
  | T_unit, T_unit | T_bool, T_bool | T_int, T_int -> ()
  | T_var n, T_var m when n = m -> ()
  | T_var n, t | t, T_var n ->
    if occurs st n t then
      raise (Type_error "occurs check: recursive type required")
    else st.bindings <- (n, t) :: st.bindings
  | T_prod (a1, b1), T_prod (a2, b2)
  | T_sum (a1, b1), T_sum (a2, b2)
  | T_fun (a1, b1), T_fun (a2, b2) ->
    unify st a1 a2;
    unify st b1 b2
  | T_ref a, T_ref b -> unify st a b
  | (T_unit | T_bool | T_int | T_prod _ | T_sum _ | T_fun _ | T_ref _), _ ->
    raise
      (Type_error
         (Format.asprintf "cannot unify %a with %a" pp_ty t1 pp_ty t2))

(* Fully apply the substitution; leftover variables are defaulted to
   [unit] (they are unconstrained, so any instance is fine — the
   executable analogue of "choose any type"). *)
let rec zonk st (t : ty) : ty =
  match resolve st t with
  | T_var _ -> T_unit
  | T_unit | T_bool | T_int -> resolve st t
  | T_prod (a, b) -> T_prod (zonk st a, zonk st b)
  | T_sum (a, b) -> T_sum (zonk st a, zonk st b)
  | T_fun (a, b) -> T_fun (zonk st a, zonk st b)
  | T_ref a -> T_ref (zonk st a)

let rec infer_expr st (env : (string * ty) list) (e : Ast.expr) : ty =
  match e with
  | Ast.Val v -> infer_value st env v
  | Ast.Var x -> (
    match List.assoc_opt x env with
    | Some t -> t
    | None -> raise (Type_error ("unbound variable " ^ x)))
  | Ast.Rec (f, x, body) ->
    let a = fresh st and b = fresh st in
    (* [x] shadows [f] in [rec f x. body], as in [Step]'s substitution *)
    let env' = match f with None -> env | Some f -> (f, T_fun (a, b)) :: env in
    let tb = infer_expr st ((x, a) :: env') body in
    unify st b tb;
    T_fun (a, b)
  | Ast.App (e1, e2) ->
    let t1 = infer_expr st env e1 in
    let t2 = infer_expr st env e2 in
    let b = fresh st in
    unify st t1 (T_fun (t2, b));
    b
  | Ast.Un_op (Ast.Neg, e1) ->
    unify st (infer_expr st env e1) T_bool;
    T_bool
  | Ast.Un_op (Ast.Minus, e1) ->
    unify st (infer_expr st env e1) T_int;
    T_int
  | Ast.Bin_op (op, e1, e2) -> (
    let t1 = infer_expr st env e1 in
    let t2 = infer_expr st env e2 in
    match op with
    | Ast.Add | Ast.Sub | Ast.Mul | Ast.Quot | Ast.Rem ->
      unify st t1 T_int;
      unify st t2 T_int;
      T_int
    | Ast.Lt | Ast.Le ->
      unify st t1 T_int;
      unify st t2 T_int;
      T_bool
    | Ast.Eq ->
      (* comparable values only: we conservatively require int *)
      unify st t1 T_int;
      unify st t2 T_int;
      T_bool
    | Ast.Ptr_add ->
      raise (Type_error "pointer arithmetic is outside the typed fragment"))
  | Ast.If (c, e1, e2) ->
    unify st (infer_expr st env c) T_bool;
    let t1 = infer_expr st env e1 in
    let t2 = infer_expr st env e2 in
    unify st t1 t2;
    t1
  | Ast.Pair_e (e1, e2) ->
    T_prod (infer_expr st env e1, infer_expr st env e2)
  | Ast.Fst e1 ->
    let a = fresh st and b = fresh st in
    unify st (infer_expr st env e1) (T_prod (a, b));
    a
  | Ast.Snd e1 ->
    let a = fresh st and b = fresh st in
    unify st (infer_expr st env e1) (T_prod (a, b));
    b
  | Ast.Inj_l_e e1 -> T_sum (infer_expr st env e1, fresh st)
  | Ast.Inj_r_e e1 -> T_sum (fresh st, infer_expr st env e1)
  | Ast.Case (e0, (x, e1), (y, e2)) ->
    let a = fresh st and b = fresh st in
    unify st (infer_expr st env e0) (T_sum (a, b));
    let t1 = infer_expr st ((x, a) :: env) e1 in
    let t2 = infer_expr st ((y, b) :: env) e2 in
    unify st t1 t2;
    t1
  | Ast.Ref e1 -> T_ref (infer_expr st env e1)
  | Ast.Load e1 ->
    let a = fresh st in
    unify st (infer_expr st env e1) (T_ref a);
    a
  | Ast.Store (e1, e2) ->
    let a = fresh st in
    unify st (infer_expr st env e1) (T_ref a);
    unify st (infer_expr st env e2) a;
    T_unit
  | Ast.Let (x, e1, e2) ->
    let t1 = infer_expr st env e1 in
    infer_expr st ((x, t1) :: env) e2
  | Ast.Seq (e1, e2) ->
    (* the first component may have any type; its value is dropped *)
    let _ = infer_expr st env e1 in
    infer_expr st env e2
  | Ast.Cas (e1, e2, e3) ->
    (* atomic compare-and-set on integer cells *)
    unify st (infer_expr st env e1) (T_ref T_int);
    unify st (infer_expr st env e2) T_int;
    unify st (infer_expr st env e3) T_int;
    T_bool
  | Ast.Fork _ ->
    raise (Type_error "fork is outside the (sequential) typed fragment")

and infer_value st env (v : Ast.value) : ty =
  match v with
  | Ast.Unit -> T_unit
  | Ast.Bool _ -> T_bool
  | Ast.Int _ -> T_int
  | Ast.Loc _ ->
    raise (Type_error "location literals are outside the typed fragment")
  | Ast.Pair (v1, v2) -> T_prod (infer_value st env v1, infer_value st env v2)
  | Ast.Inj_l v1 -> T_sum (infer_value st env v1, fresh st)
  | Ast.Inj_r v1 -> T_sum (fresh st, infer_value st env v1)
  | Ast.Rec_fun (f, x, body) -> infer_expr st env (Ast.Rec (f, x, body))

(** [infer e]: the (zonked) principal type of the closed expression
    [e], with unconstrained variables defaulted to [unit]. *)
let infer (e : Ast.expr) : (ty, error) result =
  let st = { bindings = []; next = 0 } in
  match infer_expr st [] e with
  | t -> Ok (zonk st t)
  | exception Type_error msg -> Error msg

let well_typed e = Result.is_ok (infer e)
