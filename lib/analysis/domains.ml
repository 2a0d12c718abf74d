(** Instantiations of the {!Dataflow} engine.

    - {!Const}: constant propagation.  Abstract values are [⊥ ⊑
      «exactly this literal» ⊑ ⊤]; transfer functions reuse the
      operational semantics' own [eval_un_op]/[eval_bin_op], so the
      abstraction agrees with execution by construction.  Reports
      unreachable branches ([constprop/unreachable-branch]) and
      operator applications that are stuck on known constants
      ([constprop/stuck-op]).

    - {!Interval}: a classic integer-interval domain (with a separate
      boolean power-set component so comparisons can decide branches).
      Warns of division by zero ([interval/div-by-zero]: the divisor
      is exactly zero, or a {e known} interval contains zero; division
      is total, so neither gets stuck) and reports negative [+l]
      pointer offsets ([interval/ptr-offset]).  Wholly unknown divisors/offsets (⊤) are
      deliberately not flagged — the pass only speaks when it has
      evidence, see DESIGN.md. *)

open Tfiris_shl
module F = Finding

(* ------------------------------------------------------------------ *)
(* Constant propagation                                                *)
(* ------------------------------------------------------------------ *)

module Const : Dataflow.VALUE_DOMAIN = struct
  type t =
    | Bot
    | Known of Ast.value  (** closure-free literal *)
    | Top

  let name = "constprop"
  let top = Top

  let equal a b = a = b

  let join a b =
    match (a, b) with
    | Bot, x | x, Bot -> x
    | Known u, Known v when u = v -> a
    | _ -> Top

  let lattice : t Dataflow.lattice =
    (* height-2 lattice: join is already a widening *)
    { name; bottom = Bot; equal; join; widen = join }

  let const v = Known v
  let loc = Top (* allocation addresses are runtime data *)

  let un_op op = function
    | Known v -> (
      match Step.eval_un_op op v with Some r -> Known r | None -> Top)
    | x -> if x = Bot then Bot else Top

  let bin_op op a b =
    match (a, b) with
    | Known u, Known v -> (
      match Step.eval_bin_op op u v with Some r -> Known r | None -> Top)
    | _ -> Top

  let truth = function Known (Ast.Bool b) -> Some b | _ -> None

  let case_split = function
    | Known (Ast.Inj_l v) -> (Some (Known v), None)
    | Known (Ast.Inj_r v) -> (None, Some (Known v))
    | Known _ -> (Some Top, Some Top) (* stuck, but not our finding *)
    | _ -> (Some Top, Some Top)

  let pair a b =
    match (a, b) with
    | Known u, Known v -> Known (Ast.Pair (u, v))
    | _ -> Top

  let fst_ = function Known (Ast.Pair (u, _)) -> Known u | _ -> Top
  let snd_ = function Known (Ast.Pair (_, v)) -> Known v | _ -> Top
  let inj_l = function Known v -> Known (Ast.Inj_l v) | _ -> Top
  let inj_r = function Known v -> Known (Ast.Inj_r v) | _ -> Top

  let op_sym = function
    | Ast.Add -> "+" | Ast.Sub -> "-" | Ast.Mul -> "*"
    | Ast.Quot -> "quot" | Ast.Rem -> "rem" | Ast.Lt -> "<"
    | Ast.Le -> "<=" | Ast.Eq -> "=" | Ast.Ptr_add -> "+l"

  let check op a b =
    match (a, b) with
    | Known u, Known v -> (
      match Step.eval_bin_op op u v with
      | Some _ -> []
      | None ->
        (* division is total, so a zero divisor never lands here: it
           is the interval pass's warning *)
        [
          ( "stuck-op",
            F.Error,
            Printf.sprintf "%s is stuck on these constant operands"
              (op_sym op) );
        ])
    | _ -> []

  let to_string = function
    | Bot -> "_|_"
    | Known v -> Format.asprintf "%a" Pretty.pp_value v
    | Top -> "T"
end

(* ------------------------------------------------------------------ *)
(* Intervals                                                           *)
(* ------------------------------------------------------------------ *)

module Interval : Dataflow.VALUE_DOMAIN = struct
  (* A bound of [None] is the infinity of its side. *)
  type bound = int option

  type t =
    | Bot
    | Iv of bound * bound  (** integers in [lo, hi] *)
    | Bools of bool * bool  (** (can be true, can be false) *)
    | Top  (** any value, including non-scalars *)

  let name = "interval"
  let top = Top

  let any_int = Iv (None, None)

  let equal a b = a = b

  let le_lo a b =
    (* lo-bound order: None (-inf) is least *)
    match (a, b) with
    | None, _ -> true
    | _, None -> false
    | Some x, Some y -> x <= y

  let le_hi a b =
    (* hi-bound order: None (+inf) is greatest *)
    match (a, b) with
    | _, None -> true
    | None, _ -> false
    | Some x, Some y -> x <= y

  let join a b =
    match (a, b) with
    | Bot, x | x, Bot -> x
    | Iv (l1, h1), Iv (l2, h2) ->
      Iv ((if le_lo l1 l2 then l1 else l2), if le_hi h1 h2 then h2 else h1)
    | Bools (t1, f1), Bools (t2, f2) -> Bools (t1 || t2, f1 || f2)
    | _ -> Top

  (* keep stable bounds, drop moving ones to infinity *)
  let widen a b =
    match (a, b) with
    | Bot, x | x, Bot -> x
    | Iv (l1, h1), Iv (l2, h2) ->
      Iv ((if le_lo l1 l2 then l1 else None),
          if le_hi h2 h1 then h1 else None)
    | Bools _, Bools _ -> join a b
    | _ -> Top

  let lattice : t Dataflow.lattice = { name; bottom = Bot; equal; join; widen }

  let const = function
    | Ast.Int n -> Iv (Some n, Some n)
    | Ast.Bool b -> Bools (b, not b)
    | _ -> Top

  let loc = Top

  let add_b a b =
    match (a, b) with Some x, Some y -> Some (x + y) | _ -> None

  let neg_b = Option.map (fun x -> -x)

  let un_op op v =
    match (op, v) with
    | Ast.Minus, Iv (lo, hi) -> Iv (neg_b hi, neg_b lo)
    | Ast.Neg, Bools (t, f) -> Bools (f, t)
    | _, Bot -> Bot
    | _ -> Top

  (* definite comparisons on intervals *)
  let lt (l1, h1) (l2, h2) =
    match (h1, l2, l1, h2) with
    | Some h1, Some l2, _, _ when h1 < l2 -> Some true
    | _, _, Some l1, Some h2 when l1 >= h2 -> Some false
    | _ -> None

  let le (l1, h1) (l2, h2) =
    match (h1, l2, l1, h2) with
    | Some h1, Some l2, _, _ when h1 <= l2 -> Some true
    | _, _, Some l1, Some h2 when l1 > h2 -> Some false
    | _ -> None

  let eq (l1, h1) (l2, h2) =
    match (l1, h1, l2, h2) with
    | Some a, Some b, Some c, Some d when a = b && c = d -> Some (a = c)
    | _ -> (
      (* disjoint ranges are definitely unequal *)
      match lt (l1, h1) (l2, h2) with
      | Some true -> Some false
      | _ -> (
        match lt (l2, h2) (l1, h1) with
        | Some true -> Some false
        | _ -> None))

  let of_cmp = function
    | Some true -> Bools (true, false)
    | Some false -> Bools (false, true)
    | None -> Bools (true, true)

  let mul_iv (l1, h1) (l2, h2) =
    match (l1, h1, l2, h2) with
    | Some l1, Some h1, Some l2, Some h2 ->
      let ps = [ l1 * l2; l1 * h2; h1 * l2; h1 * h2 ] in
      Iv (Some (List.fold_left min max_int ps),
          Some (List.fold_left max min_int ps))
    | _ -> any_int

  let bin_op op a b =
    match (a, b) with
    | Bot, _ | _, Bot -> Bot
    | Iv (l1, h1), Iv (l2, h2) -> (
      match op with
      | Ast.Add -> Iv (add_b l1 l2, add_b h1 h2)
      | Ast.Sub -> Iv (add_b l1 (neg_b h2), add_b h1 (neg_b l2))
      | Ast.Mul -> mul_iv (l1, h1) (l2, h2)
      | Ast.Quot | Ast.Rem -> any_int
      | Ast.Lt -> of_cmp (lt (l1, h1) (l2, h2))
      | Ast.Le -> of_cmp (le (l1, h1) (l2, h2))
      | Ast.Eq -> of_cmp (eq (l1, h1) (l2, h2))
      | Ast.Ptr_add -> Top)
    | _ -> (
      match op with
      | Ast.Lt | Ast.Le | Ast.Eq -> Bools (true, true)
      | Ast.Add | Ast.Sub | Ast.Mul | Ast.Quot | Ast.Rem -> any_int
      | Ast.Ptr_add -> Top)

  let truth = function
    | Bools (true, false) -> Some true
    | Bools (false, true) -> Some false
    | _ -> None

  let case_split = function
    | Bot -> (Some Top, Some Top)
    | _ -> (Some Top, Some Top)

  let pair _ _ = Top
  let fst_ _ = Top
  let snd_ _ = Top
  let inj_l _ = Top
  let inj_r _ = Top

  let contains_zero (lo, hi) = le_lo lo (Some 0) && le_hi (Some 0) hi

  let check op _a b =
    match op with
    | Ast.Quot | Ast.Rem -> (
      match b with
      | Iv (Some 0, Some 0) ->
        (* total division ([n quot 0 = 0], [n rem 0 = n]) does not get
           stuck, but the answer is rarely the one meant *)
        [ ("div-by-zero", F.Warning, "divisor is always zero") ]
      | Iv (lo, hi) when (lo, hi) <> (None, None) && contains_zero (lo, hi)
        ->
        [ ("div-by-zero", F.Warning, "divisor may be zero") ]
      | _ -> [])
    | Ast.Ptr_add -> (
      match b with
      | Iv (_, Some hi) when hi < 0 ->
        [ ("ptr-offset", F.Error, "pointer offset is always negative") ]
      | Iv (Some lo, hi) when lo < 0 && (Some lo, hi) <> (None, None) ->
        [ ("ptr-offset", F.Warning, "pointer offset may be negative") ]
      | _ -> [])
    | _ -> []

  let bound_to_string inf = function Some n -> string_of_int n | None -> inf

  let to_string = function
    | Bot -> "_|_"
    | Iv (lo, hi) ->
      Printf.sprintf "[%s, %s]" (bound_to_string "-inf" lo)
        (bound_to_string "+inf" hi)
    | Bools (true, true) -> "bool"
    | Bools (true, false) -> "true"
    | Bools (false, true) -> "false"
    | Bools (false, false) -> "_|_b"
    | Top -> "T"
end

module Const_engine = Dataflow.Engine (Const)
module Interval_engine = Dataflow.Engine (Interval)

(** The two dataflow passes, ready to run. *)
let constprop (e : Ast.expr) : F.t list = Const_engine.analyze e

let interval (e : Ast.expr) : F.t list = Interval_engine.analyze e
