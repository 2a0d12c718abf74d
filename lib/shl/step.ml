(** Small-step operational semantics of SHL.

    SHL is deterministic, so the step relation [{tgt] is a partial
    function on configurations.  Head steps are classified as {e pure}
    (independent of the heap — the [e { e'] of the paper's PureT/PureS
    rules) or {e heap} steps (alloc/load/store), which is the distinction
    the program logics' rules key on (Figure 3). *)

open Ast

type config = {
  expr : expr;
  heap : Heap.t;
}

let config ?(heap = Heap.empty) expr = { expr; heap }

type kind =
  | Pure  (** a [{] step: β, if, case, projections, arithmetic, … *)
  | Alloc of loc
  | Load_of of loc
  | Store_to of loc

let kind_is_pure = function
  | Pure -> true
  | Alloc _ | Load_of _ | Store_to _ -> false

type error =
  | Stuck of expr  (** the head redex cannot step *)
  | Finished  (** the expression is already a value *)

let pp_error ppf = function
  | Stuck e -> Format.fprintf ppf "stuck redex (size %d)" (size_expr e)
  | Finished -> Format.pp_print_string ppf "already a value"

let eval_un_op op v =
  match op, v with
  | Neg, Bool b -> Some (Bool (not b))
  | Minus, Int n -> Some (Int (-n))
  | (Neg | Minus), _ -> None

let eval_bin_op op v1 v2 =
  match op, v1, v2 with
  | Add, Int a, Int b -> Some (Int (a + b))
  | Sub, Int a, Int b -> Some (Int (a - b))
  | Mul, Int a, Int b -> Some (Int (a * b))
  (* total, as HeapLang's [Z.quot]/[Z.rem]: [n quot 0 = 0], [n rem 0 = n];
     OCaml's [/] and [mod] truncate the same way otherwise *)
  | Quot, Int a, Int b -> Some (Int (if b = 0 then 0 else a / b))
  | Rem, Int a, Int b -> Some (Int (if b = 0 then a else a mod b))
  | Lt, Int a, Int b -> Some (Bool (a < b))
  | Le, Int a, Int b -> Some (Bool (a <= b))
  | Eq, a, b -> Option.map (fun r -> Bool r) (value_eq a b)
  | Ptr_add, Loc l, Int n -> Some (Loc (l + n))
  | (Add | Sub | Mul | Quot | Rem | Lt | Le | Ptr_add), _, _ -> None

(** One head step of the redex [e] in heap [h]. *)
let head_step (h : Heap.t) (e : expr) : (expr * Heap.t * kind) option =
  let pure e' = Some (e', h, Pure) in
  match e with
  | Rec (f, x, body) -> pure (Val (Rec_fun (f, x, body)))
  | App (Val (Rec_fun (f, x, body) as fv), Val v) ->
    (* One simultaneous pass for named recursion instead of two
       sequential ones — β is the hot path of every [rec] loop. *)
    let body =
      match f with
      | None -> subst x v body
      | Some fname -> subst2 (x, v) (fname, fv) body
    in
    pure body
  | Un_op (op, Val v) ->
    Option.bind (eval_un_op op v) (fun v' -> pure (Val v'))
  | Bin_op (op, Val v1, Val v2) ->
    Option.bind (eval_bin_op op v1 v2) (fun v' -> pure (Val v'))
  | If (Val (Bool true), e1, _) -> pure e1
  | If (Val (Bool false), _, e2) -> pure e2
  | Pair_e (Val v1, Val v2) -> pure (Val (Pair (v1, v2)))
  | Fst (Val (Pair (v1, _))) -> pure (Val v1)
  | Snd (Val (Pair (_, v2))) -> pure (Val v2)
  | Inj_l_e (Val v) -> pure (Val (Inj_l v))
  | Inj_r_e (Val v) -> pure (Val (Inj_r v))
  | Case (Val (Inj_l v), (x, e1), _) -> pure (subst x v e1)
  | Case (Val (Inj_r v), _, (y, e2)) -> pure (subst y v e2)
  | Let (x, Val v, e2) -> pure (subst x v e2)
  | Seq (Val _, e2) -> pure e2
  | Ref (Val v) ->
    let l, h' = Heap.alloc v h in
    Some (Val (Loc l), h', Alloc l)
  | Load (Val (Loc l)) ->
    Option.map (fun v -> (Val v, h, Load_of l)) (Heap.lookup l h)
  | Store (Val (Loc l), Val v) ->
    if Heap.mem l h then Some (Val Unit, Heap.store l v h, Store_to l)
    else None
  | Cas (Val (Loc l), Val expected, Val desired) -> (
    match Heap.lookup l h with
    | None -> None
    | Some current -> (
      match value_eq current expected with
      | None -> None (* incomparable values *)
      | Some true -> Some (Val (Bool true), Heap.store l desired h, Store_to l)
      | Some false -> Some (Val (Bool false), h, Load_of l)))
  | Val _ | Var _ | App _ | Un_op _ | Bin_op _ | If _ | Pair_e _ | Fst _
  | Snd _ | Inj_l_e _ | Inj_r_e _ | Case _ | Ref _ | Load _ | Store _
  | Let _ | Seq _ | Cas _ ->
    None
  | Fork _ ->
    (* a concurrent redex: only the scheduler of {!Conc} can step it *)
    None

(** One step of a whole configuration: decompose, head-step, refill. *)
let prim_step ({ expr; heap } : config) : (config * kind, error) result =
  match Ctx.decompose expr with
  | None -> Error Finished
  | Some (k, redex) -> (
    match head_step heap redex with
    | None -> Error (Stuck redex)
    | Some (e', h', kind) -> Ok ({ expr = Ctx.fill k e'; heap = h' }, kind))

(** [pure_step e]: the paper's [e { e']: a whole-program step whose head
    step is pure (so it neither reads nor writes the heap). *)
let pure_step (e : expr) : expr option =
  match prim_step (config e) with
  | Ok ({ expr; _ }, Pure) -> Some expr
  | Ok (_, (Alloc _ | Load_of _ | Store_to _)) | Error _ -> None

(** [pure_steps e e']: [e {* e'] using only pure steps, with a fuel
    bound; used by rule checkers that must validate a [{] side
    condition. *)
let pure_steps ?(fuel = 10_000) e e' =
  let rec go e n =
    if e = e' then true
    else if n = 0 then false
    else match pure_step e with None -> false | Some e2 -> go e2 (n - 1)
  in
  go e fuel
