(* The format-string printer that [Shl.Pretty] replaced, kept only as
   the oracle of the byte-equality property in [Test_shl]: every box,
   break hint and literal of [Pretty] must print exactly what these
   format strings print.  Not used anywhere else. *)

open Tfiris.Shl.Ast

let bin_op_info = function
  | Add -> ("+", 5)
  | Sub -> ("-", 5)
  | Ptr_add -> ("+l", 5)
  | Mul -> ("*", 6)
  | Quot -> ("quot", 6)
  | Rem -> ("rem", 6)
  | Lt -> ("<", 4)
  | Le -> ("<=", 4)
  | Eq -> ("=", 4)

let rec pp_value ppf (v : value) =
  match v with
  | Unit -> Format.pp_print_string ppf "()"
  | Bool b -> Format.pp_print_bool ppf b
  | Int n -> Format.pp_print_int ppf n
  | Loc l -> Format.fprintf ppf "#%d" l
  | Pair (v1, v2) -> Format.fprintf ppf "(%a, %a)" pp_value v1 pp_value v2
  | Inj_l v -> Format.fprintf ppf "inl %a" pp_atomic_value v
  | Inj_r v -> Format.fprintf ppf "inr %a" pp_atomic_value v
  | Rec_fun (f, x, e) -> pp_rec ppf (f, x, e)

and pp_atomic_value ppf v =
  match v with
  | Unit | Bool _ | Loc _ | Pair _ -> pp_value ppf v
  | Int n when n >= 0 -> pp_value ppf v
  | Int _ | Inj_l _ | Inj_r _ | Rec_fun _ ->
    Format.fprintf ppf "(%a)" pp_value v

and pp_rec ppf (f, x, e) =
  match f with
  | Some f -> Format.fprintf ppf "@[<hov 2>rec %s %s.@ %a@]" f x (pp_prec 0) e
  | None -> Format.fprintf ppf "@[<hov 2>fun %s ->@ %a@]" x (pp_prec 0) e

and pp_prec prec ppf (e : expr) =
  let paren p body =
    if prec > p then Format.fprintf ppf "(%t)" body else body ppf
  in
  match e with
  | Val v -> pp_value_as_expr prec ppf v
  | Var x -> Format.pp_print_string ppf x
  | Rec (f, x, body) -> paren 0 (fun ppf -> pp_rec ppf (f, x, body))
  | App (e1, e2) ->
    paren 7 (fun ppf ->
        Format.fprintf ppf "@[<hov 2>%a@ %a@]" (pp_prec 7) e1 (pp_prec 8) e2)
  | Un_op (Neg, e1) -> paren 6 (fun ppf -> Format.fprintf ppf "not %a" (pp_prec 7) e1)
  | Un_op (Minus, e1) ->
    (* the parser folds [- <int literal>] into a negative literal, so a
       bare literal operand — including the head of an application
       spine, as in [- (0 ())] — must be parenthesized to stay a
       [Un_op] redex *)
    let rec starts_with_int_literal = function
      | Val (Int n) -> n >= 0
      | App (e, _) -> starts_with_int_literal e
      | _ -> false
    in
    if starts_with_int_literal e1 then
      paren 6 (fun ppf -> Format.fprintf ppf "-(%a)" (pp_prec 0) e1)
    else paren 6 (fun ppf -> Format.fprintf ppf "-%a" (pp_prec 7) e1)
  | Bin_op (op, e1, e2) ->
    let sym, p = bin_op_info op in
    (* comparisons are non-associative in the grammar: parenthesize a
       comparison operand on either side *)
    let lp =
      match op with Lt | Le | Eq -> p + 1 | Add | Sub | Mul | Quot | Rem | Ptr_add -> p
    in
    paren p (fun ppf ->
        Format.fprintf ppf "@[<hov>%a %s@ %a@]" (pp_prec lp) e1 sym
          (pp_prec (p + 1)) e2)
  | If (c, e1, e2) ->
    paren 0 (fun ppf ->
        Format.fprintf ppf "@[<hv>if %a@ then %a@ else %a@]" (pp_prec 1) c
          (pp_prec 1) e1 (pp_prec 1) e2)
  | Pair_e (e1, e2) ->
    Format.fprintf ppf "(%a, %a)" (pp_prec 0) e1 (pp_prec 0) e2
  | Fst e1 -> paren 7 (fun ppf -> Format.fprintf ppf "fst %a" (pp_prec 8) e1)
  | Snd e1 -> paren 7 (fun ppf -> Format.fprintf ppf "snd %a" (pp_prec 8) e1)
  | Inj_l_e e1 -> paren 7 (fun ppf -> Format.fprintf ppf "inl %a" (pp_prec 8) e1)
  | Inj_r_e e1 -> paren 7 (fun ppf -> Format.fprintf ppf "inr %a" (pp_prec 8) e1)
  | Case (e0, (x, e1), (y, e2)) ->
    paren 0 (fun ppf ->
        Format.fprintf ppf
          "@[<hv>match %a with@ | inl %s -> %a@ | inr %s -> %a@ end@]"
          (pp_prec 0) e0 x (pp_prec 1) e1 y (pp_prec 1) e2)
  | Ref e1 -> paren 7 (fun ppf -> Format.fprintf ppf "ref %a" (pp_prec 8) e1)
  | Load e1 -> Format.fprintf ppf "!%a" (pp_prec 8) e1
  | Store (e1, e2) ->
    paren 1 (fun ppf ->
        Format.fprintf ppf "@[<hov 2>%a :=@ %a@]" (pp_prec 2) e1 (pp_prec 2) e2)
  | Let (x, e1, e2) ->
    paren 0 (fun ppf ->
        Format.fprintf ppf "@[<v>@[<hov 2>let %s =@ %a in@]@ %a@]" x
          (pp_prec 0) e1 (pp_prec 0) e2)
  | Seq (e1, e2) ->
    paren 0 (fun ppf ->
        Format.fprintf ppf "@[<v>%a;@ %a@]" (pp_prec 1) e1 (pp_prec 0) e2)
  | Fork e1 -> paren 7 (fun ppf -> Format.fprintf ppf "fork %a" (pp_prec 8) e1)
  | Cas (e1, e2, e3) ->
    paren 7 (fun ppf ->
        Format.fprintf ppf "@[<hov 2>cas %a@ %a@ %a@]" (pp_prec 8) e1
          (pp_prec 8) e2 (pp_prec 8) e3)

and pp_value_as_expr prec ppf v =
  match v with
  | Rec_fun (f, x, e) ->
    if prec > 0 then Format.fprintf ppf "(%a)" pp_rec (f, x, e)
    else pp_rec ppf (f, x, e)
  | Inj_l _ | Inj_r _ ->
    if prec > 7 then Format.fprintf ppf "(%a)" pp_value v else pp_value ppf v
  | Int n when n < 0 ->
    (* [-n] re-parses at the unary level (6), not as an atom *)
    if prec > 6 then Format.fprintf ppf "(%a)" pp_value v else pp_value ppf v
  | Unit | Bool _ | Int _ | Loc _ | Pair _ -> pp_value ppf v

let expr_to_string e = Format.asprintf "%a" (pp_prec 0) e
