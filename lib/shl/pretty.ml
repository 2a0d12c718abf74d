(** Pretty-printing SHL terms in the concrete syntax accepted by
    {!Parser} (round-trip tested). *)

open Ast

(* Precedence levels, loosest to tightest:
   0 let / rec / fun / match / if / sequencing
   1 := (store)
   2 || ; 3 && ; 4 comparisons ; 5 + - +l ; 6 * quot rem and unary not/-
   7 application ; 8 atoms (!e, constants, parens)

   The grammar's [unary] sits between [mul] and [app]: a unary operator
   is a legal [mul] operand but not a legal application head or
   argument, so [Un_op] prints at level 6 with its operand at 7. *)

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

(* Every box, break hint and literal is a direct [Format] call, not a
   format string, which [fprintf] would re-read with its box specs on
   every node.  The calls are what the format strings of the reference
   printer under [test/] expand to — [@[<hov 2>] is
   [pp_open_hovbox ppf 2], [@ ] is [pp_print_space], [@]] is
   [pp_close_box] — so the two print the same bytes. *)

let str = Format.pp_print_string
let space ppf = Format.pp_print_space ppf ()
let close ppf = Format.pp_close_box ppf ()

(* The level of an expression's outermost construct: printed where a
   tighter level [prec] is expected ([prec > level e]), it is
   parenthesized.  Atoms never are (no [prec] exceeds 8); a value
   literal's parentheses depend on the value, see [pp_value_as_expr]. *)
let level (e : expr) =
  match e with
  | Val _ | Var _ | Pair_e _ | Load _ -> 8
  | App _ | Fst _ | Snd _ | Inj_l_e _ | Inj_r_e _ | Ref _ | Fork _ | Cas _ -> 7
  | Un_op _ -> 6
  | Bin_op (op, _, _) -> snd (bin_op_info op)
  | Store _ -> 1
  | Rec _ | If _ | Case _ | Let _ | Seq _ -> 0

let open_paren ppf b = if b then str ppf "("
let close_paren ppf b = if b then str ppf ")"

let rec pp_value ppf (v : value) =
  match v with
  | Unit -> str ppf "()"
  | Bool b -> Format.pp_print_bool ppf b
  | Int n -> Format.pp_print_int ppf n
  | Loc l ->
    str ppf "#";
    Format.pp_print_int ppf l
  | Pair (v1, v2) ->
    str ppf "(";
    pp_value ppf v1;
    str ppf ", ";
    pp_value ppf v2;
    str ppf ")"
  | Inj_l v ->
    str ppf "inl ";
    pp_atomic_value ppf v
  | Inj_r v ->
    str ppf "inr ";
    pp_atomic_value ppf v
  | Rec_fun (f, x, e) -> pp_rec ppf f x e

and pp_atomic_value ppf v =
  let b =
    match v with
    | Unit | Bool _ | Loc _ | Pair _ -> false
    | Int n -> n < 0
    | Inj_l _ | Inj_r _ | Rec_fun _ -> true
  in
  open_paren ppf b;
  pp_value ppf v;
  close_paren ppf b

and pp_rec ppf f x e =
  Format.pp_open_hovbox ppf 2;
  (match f with
  | Some f ->
    str ppf "rec ";
    str ppf f;
    str ppf " ";
    str ppf x;
    str ppf "."
  | None ->
    str ppf "fun ";
    str ppf x;
    str ppf " ->");
  space ppf;
  pp_prec 0 ppf e;
  close ppf

(* [word ppf kw p e] prints [kw e] with [e] at precedence [p]. *)
and word ppf kw p e =
  str ppf kw;
  pp_prec p ppf e

and pp_prec prec ppf (e : expr) =
  let b = prec > level e in
  open_paren ppf b;
  (match e with
  | Val v -> pp_value_as_expr prec ppf v
  | Var x -> str ppf x
  | Rec (f, x, body) -> pp_rec ppf f x body
  | App (e1, e2) ->
    Format.pp_open_hovbox ppf 2;
    pp_prec 7 ppf e1;
    space ppf;
    pp_prec 8 ppf e2;
    close ppf
  | Un_op (Neg, e1) -> word ppf "not " 7 e1
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
    if starts_with_int_literal e1 then begin
      word ppf "-(" 0 e1;
      str ppf ")"
    end
    else word ppf "-" 7 e1
  | Bin_op (op, e1, e2) ->
    let sym, p = bin_op_info op in
    (* comparisons are non-associative in the grammar: parenthesize a
       comparison operand on either side *)
    let lp =
      match op with Lt | Le | Eq -> p + 1 | Add | Sub | Mul | Quot | Rem | Ptr_add -> p
    in
    Format.pp_open_hovbox ppf 0;
    pp_prec lp ppf e1;
    str ppf " ";
    str ppf sym;
    space ppf;
    pp_prec (p + 1) ppf e2;
    close ppf
  | If (c, e1, e2) ->
    Format.pp_open_hvbox ppf 0;
    word ppf "if " 1 c;
    space ppf;
    word ppf "then " 1 e1;
    space ppf;
    word ppf "else " 1 e2;
    close ppf
  | Pair_e (e1, e2) ->
    word ppf "(" 0 e1;
    word ppf ", " 0 e2;
    str ppf ")"
  | Fst e1 -> word ppf "fst " 8 e1
  | Snd e1 -> word ppf "snd " 8 e1
  | Inj_l_e e1 -> word ppf "inl " 8 e1
  | Inj_r_e e1 -> word ppf "inr " 8 e1
  | Case (e0, (x, e1), (y, e2)) ->
    Format.pp_open_hvbox ppf 0;
    word ppf "match " 0 e0;
    str ppf " with";
    space ppf;
    str ppf "| inl ";
    str ppf x;
    word ppf " -> " 1 e1;
    space ppf;
    str ppf "| inr ";
    str ppf y;
    word ppf " -> " 1 e2;
    space ppf;
    str ppf "end";
    close ppf
  | Ref e1 -> word ppf "ref " 8 e1
  | Load e1 -> word ppf "!" 8 e1
  | Store (e1, e2) ->
    Format.pp_open_hovbox ppf 2;
    pp_prec 2 ppf e1;
    str ppf " :=";
    space ppf;
    pp_prec 2 ppf e2;
    close ppf
  | Let (x, e1, e2) ->
    Format.pp_open_vbox ppf 0;
    Format.pp_open_hovbox ppf 2;
    str ppf "let ";
    str ppf x;
    str ppf " =";
    space ppf;
    pp_prec 0 ppf e1;
    str ppf " in";
    close ppf;
    space ppf;
    pp_prec 0 ppf e2;
    close ppf
  | Seq (e1, e2) ->
    Format.pp_open_vbox ppf 0;
    pp_prec 1 ppf e1;
    str ppf ";";
    space ppf;
    pp_prec 0 ppf e2;
    close ppf
  | Fork e1 -> word ppf "fork " 8 e1
  | Cas (e1, e2, e3) ->
    Format.pp_open_hovbox ppf 2;
    word ppf "cas " 8 e1;
    space ppf;
    pp_prec 8 ppf e2;
    space ppf;
    pp_prec 8 ppf e3;
    close ppf);
  close_paren ppf b

(* A value literal in an expression: its level depends on the value. *)
and pp_value_as_expr prec ppf v =
  let level =
    match v with
    | Rec_fun _ -> 0
    | Inj_l _ | Inj_r _ -> 7
    (* [-n] re-parses at the unary level (6), not as an atom *)
    | Int n when n < 0 -> 6
    | Unit | Bool _ | Int _ | Loc _ | Pair _ -> 8
  in
  let b = prec > level in
  open_paren ppf b;
  pp_value ppf v;
  close_paren ppf b

let pp_expr ppf e = pp_prec 0 ppf e
let expr_to_string e = Format.asprintf "%a" pp_expr e
let value_to_string v = Format.asprintf "%a" pp_value v
