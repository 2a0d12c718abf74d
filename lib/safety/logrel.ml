(** A fuel-indexed logical relation for SHL — the executable face of the
    §5.2 discussion of type interpretations.

    The paper explains how a type [τ] is interpreted as an Iris
    predicate, with [ref (τ)] interpreted via an (impredicative)
    invariant: the stored value satisfies [⟦τ⟧] at all times.  This is
    the famous "type-world circularity": the world (heap typing) and the
    type interpretation refer to each other, and step-indexing breaks
    the circle.

    Here the circle is broken the same way, executably: {!member} is
    indexed by fuel, and following a reference {e consumes} one unit —
    so a cyclic store (Landin's knot!) gets a well-defined, monotone
    approximation at every index instead of an infinite regress.
    Safety-style semantic typing ({!expr_ok}) treats running out of fuel
    as "safe so far" — precisely the finite-prefix reading of safety
    properties from the paper's introduction — so the knot's well-typed
    divergence is {e accepted} while genuinely ill-typed programs get
    stuck and are rejected. *)

open Tfiris_shl

type ty =
  | T_unit
  | T_bool
  | T_int
  | T_prod of ty * ty
  | T_sum of ty * ty
  | T_fun of ty * ty
  | T_ref of ty

let rec pp_ty ppf = function
  | T_unit -> Format.pp_print_string ppf "unit"
  | T_bool -> Format.pp_print_string ppf "bool"
  | T_int -> Format.pp_print_string ppf "int"
  | T_prod (a, b) -> Format.fprintf ppf "(%a * %a)" pp_ty a pp_ty b
  | T_sum (a, b) -> Format.fprintf ppf "(%a + %a)" pp_ty a pp_ty b
  | T_fun (a, b) -> Format.fprintf ppf "(%a -> %a)" pp_ty a pp_ty b
  | T_ref a -> Format.fprintf ppf "ref %a" pp_ty a

(** Canonical inhabitants used to test function values.  References
    cannot be conjured without a heap, so [T_ref] yields no samples —
    functions over references are tested only through their uses in the
    program itself. *)
let rec samples (t : ty) : Ast.value list =
  match t with
  | T_unit -> [ Ast.Unit ]
  | T_bool -> [ Ast.Bool true; Ast.Bool false ]
  | T_int -> [ Ast.Int 0; Ast.Int 1; Ast.Int (-3) ]
  | T_prod (a, b) ->
    List.concat_map
      (fun va -> List.map (fun vb -> Ast.Pair (va, vb)) (samples b))
      (samples a)
  | T_sum (a, b) ->
    List.map (fun v -> Ast.Inj_l v) (samples a)
    @ List.map (fun v -> Ast.Inj_r v) (samples b)
  | T_fun (_, b) -> (
    (* constant functions on a sample result *)
    match samples b with
    | [] -> []
    | vb :: _ -> [ Ast.lam_v "_x" (Ast.Val vb) ])
  | T_ref _ -> []

(** [member fuel τ v h]: the fuel-indexed value relation [v ∈ ⟦τ⟧ₖ]
    in heap [h].  Monotone in [fuel] decreasing (anti-monotone in the
    approximation order): a smaller index accepts more. *)
let rec member (fuel : int) (t : ty) (v : Ast.value) (h : Heap.t) : bool =
  match t, v with
  | T_unit, Ast.Unit | T_bool, Ast.Bool _ | T_int, Ast.Int _ -> true
  | T_prod (a, b), Ast.Pair (va, vb) -> member fuel a va h && member fuel b vb h
  | T_sum (a, _), Ast.Inj_l va -> member fuel a va h
  | T_sum (_, b), Ast.Inj_r vb -> member fuel b vb h
  | T_fun (a, b), Ast.Rec_fun _ ->
    (* test the closure on canonical arguments *)
    fuel = 0
    || List.for_all
         (fun arg ->
           expr_member (fuel - 1) b (Ast.App (Ast.Val v, Ast.Val arg)) h)
         (samples a)
  | T_ref a, Ast.Loc l -> (
    (* the invariant reading: the cell currently stores a ⟦a⟧ value;
       following the reference consumes fuel, which is what makes
       cyclic stores (Landin's knot) well-defined *)
    fuel = 0
    ||
    match Heap.lookup l h with
    | Some stored -> member (fuel - 1) a stored h
    | None -> false)
  | ( ( T_unit | T_bool | T_int | T_prod _ | T_sum _ | T_fun _ | T_ref _ ),
      _ ) ->
    false

(** [expr_member fuel τ e h]: the expression relation — run [e] in [h];
    getting stuck refutes, running out of fuel is "safe so far", and a
    value must be in the value relation (in the {e final} heap). *)
and expr_member (fuel : int) (t : ty) (e : Ast.expr) (h : Heap.t) : bool =
  match
    Interp.exec ~budget:(Tfiris_robust.Budget.of_steps (max fuel 1)) ~heap:h e
  with
  | Interp.Value (v, h'), _ -> member fuel t v h'
  | Interp.Out_of_fuel _, _ -> true
  | Interp.Stuck _, _ -> false

(** Semantic typing of a closed program, from the empty heap. *)
let expr_ok ?(fuel = 100_000) (t : ty) (e : Ast.expr) : bool =
  expr_member fuel t e Heap.empty

(** {1 Landin's knot}

    Recursion through the store: a [ref (unit -> unit)] is backpatched
    with a function that reads and calls it.  Well-typed (at type
    [unit]), never stuck, diverges — the program that forces [ref (τ)]'s
    interpretation to be step-indexed. *)
let landins_knot : Ast.expr =
  Parser.parse_exn
    {|
let r = ref (fun u -> ()) in
r := (fun u -> (!r) u);
(!r) ()
|}

(** A typed cyclic {e value} store: a cell containing a function that
    mentions the cell.  [member] at every finite fuel accepts it;
    an unindexed reading would regress forever. *)
let knot_heap : Ast.loc * Heap.t =
  let f = Ast.lam_v "u" (Ast.App (Ast.Load (Ast.Val (Ast.Loc 0)), Ast.unit_)) in
  (0, Heap.store 0 f Heap.empty)

(** {1 The fundamental theorem, executably}

    Connects {!Types} (syntactic inference) with the logical relation:
    a closed expression with an inferred type is semantically safe at
    that type.  [fundamental] is trivially true for ill-typed programs
    (nothing is claimed); the test suite property-checks it over
    generated programs and a handwritten corpus. *)

let rec of_shl_ty (t : Types.ty) : ty option =
  let both a b k =
    match of_shl_ty a, of_shl_ty b with
    | Some a, Some b -> Some (k a b)
    | _, _ -> None
  in
  match t with
  | Types.T_unit -> Some T_unit
  | Types.T_bool -> Some T_bool
  | Types.T_int -> Some T_int
  | Types.T_prod (a, b) -> both a b (fun a b -> T_prod (a, b))
  | Types.T_sum (a, b) -> both a b (fun a b -> T_sum (a, b))
  | Types.T_fun (a, b) -> both a b (fun a b -> T_fun (a, b))
  | Types.T_ref a -> Option.map (fun a -> T_ref a) (of_shl_ty a)
  | Types.T_var _ -> None

let fundamental ?fuel (e : Ast.expr) : bool =
  match Types.infer e with
  | Error _ -> true
  | Ok t -> (
    match of_shl_ty t with
    | None -> true
    | Some tau -> expr_ok ?fuel tau e)
