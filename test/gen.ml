(* QCheck generators shared by the property-test suites. *)

open Tfiris
module Q = QCheck2.Gen

(* ---------- ordinals ---------- *)

(* Random CNF ordinal of bounded tower depth: a sum of ω^e·c with
   exponents generated recursively. *)
let rec ord_sized (depth : int) : Ord.t Q.t =
  let open Q in
  if depth = 0 then map Ord.of_int (int_bound 9)
  else
    let* nterms = int_bound 3 in
    let* terms =
      list_repeat nterms
        (let* e = ord_sized (depth - 1) in
         let* c = int_range 1 5 in
         return (Ord.hprod (Ord.omega_pow e) (Ord.of_int c)))
    in
    let* fin = int_bound 9 in
    return (Ord.hsum_list (Ord.of_int fin :: terms))

let ord : Ord.t Q.t = ord_sized 2
let small_ord : Ord.t Q.t = ord_sized 1

let print_ord = Ord.to_string

(* ---------- heights ---------- *)

let height : Height.t Q.t =
  Q.bind (Q.int_bound 10) (fun k ->
      if k = 0 then Q.return Height.Top
      else Q.map (fun a -> Height.H a) ord)

let print_height = Height.to_string

let fin_height : Fin_height.t Q.t =
  Q.bind (Q.int_bound 10) (fun k ->
      if k = 0 then Q.return Fin_height.Top
      else Q.map (fun n -> Fin_height.H n) (Q.int_bound 30))

(* ---------- formulas ---------- *)

let rec formula_sized (depth : int) : Formula.t Q.t =
  let open Q in
  if depth = 0 then
    oneof
      [
        return Formula.True;
        return Formula.False;
        map (fun a -> Formula.Index_lt a) small_ord;
      ]
  else
    let sub = formula_sized (depth - 1) in
    oneof
      [
        map2 (fun a b -> Formula.And (a, b)) sub sub;
        map2 (fun a b -> Formula.Or (a, b)) sub sub;
        map2 (fun a b -> Formula.Impl (a, b)) sub sub;
        map (fun a -> Formula.Later a) sub;
        map (fun l -> Formula.Exists_fin l) (list_size (int_range 0 3) sub);
        map (fun l -> Formula.Forall_fin l) (list_size (int_range 0 3) sub);
      ]

let formula : Formula.t Q.t = formula_sized 3
let print_formula = Formula.to_string

(* ---------- finite transition systems ---------- *)

(* A random finite TS: some terminal boolean states, random edges from
   the non-terminal states (possibly none: stuck states exist). *)
let finite_ts : Ts.t Q.t =
  let open Q in
  let* n = int_range 1 6 in
  let* results =
    list_repeat n
      (oneof [ return None; return (Some true); return (Some false) ])
  in
  let results = List.mapi (fun i r -> (i, r)) results in
  let terminal = List.filter_map (fun (i, r) -> Option.map (fun b -> (i, b)) r) results in
  let nonterminal = List.filter_map (fun (i, r) -> if r = None then Some i else None) results in
  let* edges =
    flatten_l
      (List.map
         (fun s ->
           let* k = int_bound 2 in
           list_repeat k (map (fun t -> (s, t)) (int_bound (n - 1))))
         nonterminal)
  in
  let* initial = int_bound (n - 1) in
  return (Ts.make ~num_states:n ~initial ~edges:(List.concat edges) ~results:terminal)

let print_ts (ts : Ts.t) =
  let b = Buffer.create 64 in
  Printf.bprintf b "TS(n=%d, init=%d;" ts.Ts.num_states ts.Ts.initial;
  for s = 0 to ts.Ts.num_states - 1 do
    Printf.bprintf b " %d->[%s]%s" s
      (String.concat "," (List.map string_of_int (ts.Ts.step s)))
      (match ts.Ts.result s with
      | Some true -> "=T"
      | Some false -> "=F"
      | None -> "")
  done;
  Buffer.add_char b ')';
  Buffer.contents b

(* ---------- hydras ---------- *)

(* A random hydra of depth at most [depth]: every node has at most
   [width] children, each of a random smaller depth. *)
let rec hydra ~width ~depth : Hydra.tree Q.t =
  let open Q in
  if depth = 0 then return Hydra.leaf
  else
    let* n = int_bound width in
    let* ts = list_repeat n (int_bound (depth - 1) >>= fun depth -> hydra ~width ~depth) in
    return (Hydra.Node ts)

let print_hydra h = Format.asprintf "%a" Hydra.pp h

(* ---------- SHL expressions ---------- *)

(* Closed, well-scoped expressions over a variable environment; built to
   exercise the parser/printer roundtrip and the interpreter's
   determinism rather than to always terminate.  Every constructor of
   the AST is reachable — all nine binary operators, both unary
   operators, named and anonymous [rec], [fork]/[cas], negative integer
   literals, and value literals (pairs, injections, locations and
   closures) — so the roundtrip property covers the whole grammar. *)
let shl_expr : Shl.Ast.expr Q.t =
  let open Q in
  let open Shl.Ast in
  let var_name = oneofl [ "x"; "y"; "z"; "f"; "g" ] in
  let all_bin_ops =
    oneofl [ Add; Sub; Mul; Quot; Rem; Lt; Le; Eq; Ptr_add ]
  in
  let rec value env depth =
    let base =
      [
        return Unit;
        map (fun b -> Bool b) bool;
        map (fun n -> Int n) (int_range (-20) 20);
        map (fun l -> Loc l) (int_bound 9);
      ]
    in
    if depth = 0 then oneof base
    else
      let subv = value env (depth - 1) in
      oneof
        (base
        @ [
            map2 (fun a b -> Pair (a, b)) subv subv;
            map (fun a -> Inj_l a) subv;
            map (fun a -> Inj_r a) subv;
            (let* f = oneof [ return None; map Option.some var_name ] in
             let* x = var_name in
             let env' =
               x :: (match f with Some f -> f :: env | None -> env)
             in
             let* body = go env' (depth - 1) in
             return (Rec_fun (f, x, body)));
          ])
  and go env depth =
    let atom =
      let consts = [ map (fun v -> Val v) (value env 0) ] in
      let vars = if env = [] then [] else [ map var (oneofl env) ] in
      oneof (consts @ vars)
    in
    if depth = 0 then atom
    else
      let sub = go env (depth - 1) in
      let bind1 k =
        let* x = var_name in
        let* e1 = sub in
        let* e2 = go (x :: env) (depth - 1) in
        return (k x e1 e2)
      in
      oneof
        [
          atom;
          map (fun v -> Val v) (value env (depth - 1));
          map2 (fun a b -> App (a, b)) sub sub;
          (let* op = all_bin_ops in
           map2 (fun a b -> Bin_op (op, a, b)) sub sub);
          map (fun a -> Un_op (Neg, a)) sub;
          map (fun a -> Un_op (Minus, a)) sub;
          map3 (fun a b c -> If (a, b, c)) sub sub sub;
          map2 (fun a b -> Pair_e (a, b)) sub sub;
          map (fun a -> Fst a) sub;
          map (fun a -> Snd a) sub;
          map (fun a -> Inj_l_e a) sub;
          map (fun a -> Inj_r_e a) sub;
          map (fun a -> Ref a) sub;
          map (fun a -> Load a) sub;
          map2 (fun a b -> Store (a, b)) sub sub;
          map2 (fun a b -> Seq (a, b)) sub sub;
          map (fun a -> Fork a) sub;
          map3 (fun a b c -> Cas (a, b, c)) sub sub sub;
          bind1 (fun x e1 e2 -> Let (x, e1, e2));
          (let* x = var_name in
           let* body = go (x :: env) (depth - 1) in
           return (lam x body));
          (let* f = var_name in
           let* x = var_name in
           let* body = go (x :: f :: env) (depth - 1) in
           return (Rec (Some f, x, body)));
          (let* c = sub in
           let* x = var_name in
           let* e1 = go (x :: env) (depth - 1) in
           let* y = var_name in
           let* e2 = go (y :: env) (depth - 1) in
           return (Case (c, (x, e1), (y, e2))));
        ]
  in
  Q.sized_size (Q.int_bound 4) (fun d -> go [] (Stdlib.min d 4))

let print_shl e = Shl.Pretty.expr_to_string e

(* Binder collisions: SHL expressions whose inner binders are all named
   [x] or [f] — [rec] self and parameter, [let], both [match] arms and
   [Rec_fun] literals (bare, and inside pairs and injections) — over
   free occurrences of [x], [f] and [y].  Each binder shadows one or
   both of the two variables a named-rec β-step substitutes, so every
   shadowing branch of [Ast.subst2] runs.  The terms are open and need
   not be well formed: only substitution reads them. *)
let shl_binder_collisions : Shl.Ast.expr Q.t =
  let open Q in
  let open Shl.Ast in
  let name = oneofl [ "x"; "f" ] in
  let self = oneofl [ None; Some "x"; Some "f" ] in
  let atom =
    oneof
      [
        map var (oneofl [ "x"; "f"; "y" ]);
        map (fun n -> Val (Int n)) (int_bound 9);
      ]
  in
  let rec go depth =
    if depth = 0 then atom
    else
      let sub = go (depth - 1) in
      let closure = map3 (fun g y b -> Rec_fun (g, y, b)) self name sub in
      oneof
        [
          atom;
          map2 (fun a b -> App (a, b)) sub sub;
          map2 (fun a b -> Pair_e (a, b)) sub sub;
          map3 (fun g y b -> Rec (g, y, b)) self name sub;
          map (fun v -> Val v) closure;
          map2 (fun v w -> Val (Pair (Inj_l v, Inj_r w))) closure closure;
          map3 (fun y a b -> Let (y, a, b)) name sub sub;
          (let* c = sub in
           let* y = name in
           let* e1 = sub in
           let* z = name in
           let* e2 = sub in
           return (Case (c, (y, e1), (z, e2))));
        ]
  in
  sized_size (int_bound 4) (fun d -> go (Stdlib.min d 4))

(* Wide SHL expressions: long identifiers and deep [let]/[match]/[if]/
   application nesting, so that the printed form overruns the 78-column
   margin and every box kind (the hov boxes of application, operators,
   [:=], [cas] and functions; the hv boxes of [if] and [match]; the
   vertical boxes of [let] and [;]) has to break.  Scoping is ignored:
   these terms are only printed. *)
let shl_wide : Shl.Ast.expr Q.t =
  let open Q in
  let open Shl.Ast in
  let name =
    oneofl
      [
        "remaining_budget"; "accumulator_of_the_left_spine"; "queue_head";
        "next_cell_pointer"; "x"; "memo_table_for_fibonacci";
        "continuation_after_the_loop";
      ]
  in
  let leaf =
    oneof
      [
        map var name;
        map (fun n -> Val (Int n)) (int_range (-99999) 99999);
        return (Val Unit);
        map (fun l -> Val (Loc l)) (int_bound 999);
      ]
  in
  let rec go depth =
    if depth = 0 then leaf
    else
      let sub = go (depth - 1) in
      frequency
        [
          (1, leaf);
          (3, map3 (fun x a b -> Let (x, a, b)) name sub sub);
          ( 3,
            let* c = sub in
            let* x = name in
            let* a = sub in
            let* y = name in
            let* b = sub in
            return (Case (c, (x, a), (y, b))) );
          (3, map3 (fun c a b -> If (c, a, b)) sub sub sub);
          (3, map2 (fun a b -> App (a, b)) sub sub);
          ( 2,
            let* op = oneofl [ Add; Sub; Mul; Quot; Rem; Lt; Le; Eq; Ptr_add ] in
            map2 (fun a b -> Bin_op (op, a, b)) sub sub );
          (2, map2 (fun a b -> Seq (a, b)) sub sub);
          (1, map2 (fun a b -> Store (a, b)) sub sub);
          (1, map3 (fun a b c -> Cas (a, b, c)) sub sub sub);
          (1, map2 (fun x b -> lam x b) name sub);
          (1, map3 (fun f x b -> Rec (Some f, x, b)) name name sub);
          (1, map3 (fun f x b -> Val (Rec_fun (Some f, x, b))) name name sub);
          (1, map2 (fun a b -> Pair_e (a, b)) sub sub);
          (1, map (fun a -> Un_op (Minus, a)) sub);
          (1, map (fun a -> Un_op (Neg, a)) sub);
          (1, map (fun a -> Load a) sub);
          (1, map (fun a -> Inj_r_e a) sub);
        ]
  in
  Q.sized_size (Q.int_range 3 5) go

(* ---------- well-typed SHL expressions (int-typed, by construction) ---------- *)

(* Mirrors the typing rules, so every generated term must pass
   Types.infer (tested) and, by the fundamental theorem, run safely. *)
let typed_shl_int : Shl.Ast.expr Q.t =
  let open Q in
  let open Shl.Ast in
  let fresh =
    let c = ref 0 in
    fun () ->
      incr c;
      Printf.sprintf "t%d" !c
  in
  (* int_env: variables of type int; ref_env: variables of type ref int *)
  let rec int_term depth int_env ref_env =
    let leaves =
      [ map int_ (int_bound 9) ]
      @ (if int_env = [] then [] else [ map var (oneofl int_env) ])
      @
      if ref_env = [] then []
      else [ map (fun r -> Load (Var r)) (oneofl ref_env) ]
    in
    if depth = 0 then oneof leaves
    else
      let sub = int_term (depth - 1) int_env ref_env in
      oneof
        (leaves
        @ [
            map2 (fun a b -> Bin_op (Add, a, b)) sub sub;
            map2 (fun a b -> Bin_op (Mul, a, b)) sub sub;
            map3
              (fun a b c -> If (Bin_op (Lt, a, int_ 5), b, c))
              sub sub sub;
            (* let-bound int *)
            (let* e1 = sub in
             let x = fresh () in
             let* e2 = int_term (depth - 1) (x :: int_env) ref_env in
             return (Let (x, e1, e2)));
            (* let-bound ref, used via loads/stores *)
            (let* e1 = sub in
             let r = fresh () in
             let* e2 = int_term (depth - 1) int_env (r :: ref_env) in
             return (Let (r, Ref e1, e2)));
            (* store then continue *)
            (if ref_env = [] then map Fun.id sub
             else
               let* r = oneofl ref_env in
               let* e1 = sub in
               let* e2 = sub in
               return (Seq (Store (Var r, e1), e2)));
            (* beta redex at int -> int *)
            (let* a = sub in
             let x = fresh () in
             let* body = int_term (depth - 1) (x :: int_env) ref_env in
             return (App (lam x body, a)));
            (* case on an int sum *)
            (let* scrut = sub in
             let* inl_side = bool in
             let x = fresh () and y = fresh () in
             let* e1 = int_term (depth - 1) (x :: int_env) ref_env in
             let* e2 = int_term (depth - 1) (y :: int_env) ref_env in
             return
               (Case
                  ( (if inl_side then Inj_l_e scrut else Inj_r_e scrut),
                    (x, e1),
                    (y, e2) )));
          ])
  in
  Q.sized_size (Q.int_bound 4) (fun d -> int_term (Stdlib.min d 4) [] [])

(* ---------- let-chains of named functions ---------- *)

(* ints, cells holding an int, and cells holding a list node *)
type sort = S_int | S_ref | S_list

(* Programs that bind several named functions in a row, for the
   symbolic-heap summary fixpoint ([shl_expr] rarely names one).  Each
   [let f<i> = …] is a plain, curried or self-recursive ([rec]) function
   of one or two parameters.  Its body is sorted so most paths finish:
   it allocates, loads and stores, walks lists with
   [match !l with inl/inr], and calls itself and the earlier functions,
   fully applied or through a partial application.  The chain ends by
   calling the last function. *)
let shl_fn_chain : Shl.Ast.expr Q.t =
  let open Q in
  let open Shl.Ast in
  let app f args = List.fold_left (fun acc a -> App (acc, a)) (Var f) args in
  let nil = Ref (Inj_l_e unit_) in
  let cons h t = Ref (Inj_r_e (Pair_e (h, t))) in
  (* [env]: variables and projections in scope, with their sorts;
     [fns]: name, parameter sorts and result sort of each callable *)
  let rec gen sort env fns depth =
    let leaf =
      match sort with
      | S_int -> map int_ (int_bound 3)
      | S_ref -> map (fun n -> Ref (int_ n)) (int_bound 3)
      | S_list -> oneofl [ nil; cons (int_ 1) nil ]
    in
    let leaves =
      match List.filter (fun (_, s) -> s = sort) env with
      | [] -> [ leaf ]
      | atoms -> [ leaf; map fst (oneofl atoms) ]
    in
    if depth = 0 then oneof leaves
    else
      let sub s = gen s env fns (depth - 1) in
      let v = Printf.sprintf "v%d" depth in
      let returning = List.filter (fun (_, _, r) -> r = sort) fns in
      let calls =
        if returning = [] then []
        else
          [
            (let* f, params, _ = oneofl returning in
             map (app f) (flatten_l (List.map sub params)));
          ]
      in
      let partial =
        match List.filter (fun (_, ps, _) -> List.length ps = 2) returning with
        | [] -> []
        | two ->
          [
            (let* f, ps, _ = oneofl two in
             let* a = sub (List.nth ps 0) in
             let* b = sub (List.nth ps 1) in
             let p = "p" ^ v in
             return (Let (p, App (Var f, a), App (Var p, b))));
          ]
      in
      let own =
        match sort with
        | S_int ->
          [
            map2 (fun a b -> Bin_op (Add, a, b)) (sub S_int) (sub S_int);
            map (fun c -> Load c) (sub S_ref);
            map3
              (fun a b c -> If (Bin_op (Eq, a, int_ 0), b, c))
              (sub S_int) (sub S_int) (sub S_int);
          ]
        | S_ref -> [ map (fun a -> Ref a) (sub S_int) ]
        | S_list -> [ map2 cons (sub S_int) (sub S_list) ]
      in
      let store =
        oneof
          [
            map2 (fun c x -> Store (c, x)) (sub S_ref) (sub S_int);
            map2
              (fun c l -> Store (c, Load l))
              (sub S_list) (sub S_list);
          ]
      in
      oneof
        (leaves @ calls @ calls @ partial @ own
        @ [
            map2 (fun st k -> Seq (st, k)) store (sub sort);
            (let* s' = oneofl [ S_int; S_ref; S_list ] in
             let* e = sub s' in
             map
               (fun k -> Let (v, e, k))
               (gen sort ((Var v, s') :: env) fns (depth - 1)));
            (* the list walk *)
            (let* l = sub S_list in
             let* on_nil = sub sort in
             let* on_cons =
               gen sort
                 ((Fst (Var v), S_int) :: (Snd (Var v), S_list) :: env)
                 fns (depth - 1)
             in
             return (Case (Load l, (v, on_nil), (v, on_cons))));
          ])
  in
  let sort = oneofl [ S_int; S_ref; S_list ] in
  let rec chain i fns n =
    let name = Printf.sprintf "f%d" i in
    let* params =
      oneof [ map (fun s -> [ s ]) sort; map2 (fun a b -> [ a; b ]) sort sort ]
    in
    let* result = sort in
    let* recursive = bool in
    let names = List.filteri (fun j _ -> j < List.length params) [ "x"; "y" ] in
    let self = (name, params, result) in
    let* body =
      gen result
        (List.map2 (fun n s -> (Var n, s)) names params)
        (if recursive then self :: fns else fns)
        3
    in
    let self_name = if recursive then Some name else None in
    let fn =
      match names with
      | [ x ] -> Rec (self_name, x, body)
      | _ -> Rec (self_name, "x", lam "y" body)
    in
    let* rest =
      if i + 1 < n then chain (i + 1) (self :: fns) n
      else
        return
          (app name
             (List.map
                (function
                  | S_int -> int_ 1
                  | S_ref -> Ref (int_ 1)
                  | S_list -> cons (int_ 1) (cons (int_ 2) nil))
                params))
    in
    return (Let (name, fn, rest))
  in
  let* n = int_range 1 4 in
  chain 0 [] n

(* ---------- looping SHL programs (pre-run cycle detection) ---------- *)

(* A pure, terminating lead-in of 0–5 [let]s, so a loop is entered
   after a random number of steps. *)
let lead_in : string Q.t =
  let open Q in
  let* n = int_bound 5 in
  let* xs = list_size (return n) (pair (int_bound 9) (int_bound 9)) in
  return
    (String.concat ""
       (List.mapi
          (fun i (a, b) -> Printf.sprintf "let a%d = %d * %d in " i a b)
          xs))

let small_value : string Q.t =
  Q.oneof
    [
      Q.return "()";
      Q.map string_of_int (Q.int_bound 9);
      Q.oneofl [ "true"; "false" ];
    ]

(* Programs whose deterministic run revisits a configuration: the
   paper's [rec f x. f x] and self-application, spin loops on a heap
   they never change, loops whose heap or argument walks a finite
   cycle, and [e_loop] (§4.1) with constant guards. *)
let shl_cycling : Shl.Ast.expr Q.t =
  let open Q in
  let sp = Printf.sprintf in
  let* lead = lead_in in
  let* v = small_value in
  let* n = int_bound 9 in
  let* k = int_range 1 6 in
  let* body =
    oneofl
      [
        sp "(rec f x. f x) %s" v;
        "(fun x -> x x) (fun x -> x x)";
        sp
          "let r = ref %d in (rec spin u. if !r = %d then spin u else ()) %s"
          n n v;
        "let r = ref true in (rec t u. r := not !r; t u) ()";
        sp "let r = ref 0 in (rec t u. r := (!r + 1) rem %d; t u) ()" k;
        sp "(rec f x. f ((x + 1) rem %d)) %d" k n;
        sp "(rec loop f x. if f () then loop f x else ()) (fun u -> true) %s" v;
        sp
          "let r = ref %d in (rec loop f x. if f () then loop f x else ()) \
           (fun u -> !r = %d) %s"
          n n v;
      ]
  in
  return (Shl.Parser.parse_exn (lead ^ body))

(* Diverging programs that never repeat a configuration: each round
   allocates (so the allocation counter grows, even when the new cell
   is garbage at once), or changes a heap cell or argument without
   bound. *)
let shl_growing : Shl.Ast.expr Q.t =
  let open Q in
  let sp = Printf.sprintf in
  let* lead = lead_in in
  let* v = small_value in
  let* body =
    oneofl
      [
        sp "(rec f x. f (ref x)) %s" v;
        "(rec f l. f (ref (inr (1, l)))) (ref (inl ()))";
        sp "(rec f u. let c = ref u in f u) %s" v;
        "let r = ref 0 in (rec f u. r := !r + 1; f u) ()";
        "(rec f x. f (x + 1)) 0";
      ]
  in
  return (Shl.Parser.parse_exn (lead ^ body))

(* Bounded loops whose thread program recurs while the heap or an
   argument counts: a cycle check that looked at the program alone
   would cut them wrongly. *)
let shl_counting : Shl.Ast.expr Q.t =
  let open Q in
  let sp = Printf.sprintf in
  let* lead = lead_in in
  let* n = int_bound 40 in
  let* body =
    oneofl
      [
        sp
          "let r = ref 0 in (rec f u. if !r = %d then !r else (r := !r + 1; \
           f u)) ()"
          n;
        sp "(rec f x. if x = 0 then 0 else f (x - 1)) %d" n;
        sp
          "let r = ref true in (rec t i. if i = %d then !r else (r := not !r; \
           t (i + 1))) 0"
          n;
      ]
  in
  return (Shl.Parser.parse_exn (lead ^ body))

(* ---------- queue operation scripts ---------- *)

let queue_ops : Refinement.Queue_spec.op list Q.t =
  let open Q in
  list_size (int_range 0 14)
    (oneof
       [
         map (fun n -> Refinement.Queue_spec.Push n) (int_bound 99);
         return Refinement.Queue_spec.Pop;
       ])

let print_queue_ops ops =
  Format.asprintf "[%a]" Refinement.Queue_spec.pp_script ops

(* ---------- well-typed promise-language terms ---------- *)

(* Generate a well-typed term of a requested type; the generator mirrors
   the typing rules, so generated terms must typecheck (tested) and —
   the paper's theorem — must terminate. Linear variables are threaded
   so that each is used exactly once. *)
let promise_term : Promises.Syntax.term Q.t =
  let open Q in
  let open Promises.Syntax in
  (* int-typed terms over an environment of available int vars (shared
     freely) and linear channel-of-int vars (each to be consumed exactly
     once by the subterm that receives it). *)
  let fresh =
    let c = ref 0 in
    fun () ->
      incr c;
      Printf.sprintf "v%d" !c
  in
  let rec int_term depth (chans : string list) : term Q.t =
    (* every channel handed to us must be consumed *)
    match chans with
    | c :: rest ->
      (* consume the first channel in one of a few ways *)
      let* body = int_term depth rest in
      oneof
        [
          return (Bin (Add, Wait (Var c), body));
          return (Let ("w", Wait (Var c), Bin (Add, Var "w", body)));
        ]
    | [] ->
      if depth = 0 then map (fun n -> Int n) (int_bound 9)
      else
        let sub = int_term (depth - 1) [] in
        oneof
          [
            map (fun n -> Int n) (int_bound 9);
            map2 (fun a b -> Bin (Add, a, b)) sub sub;
            map2 (fun a b -> Bin (Mul, a, b)) sub sub;
            (let* a = sub in
             let* b = sub in
             let* c = sub in
             return (If (Bin (Lt, a, Int 5), b, c)));
            (* β-redex *)
            (let* a = sub in
             let* b = sub in
             let x = fresh () in
             return (App (Lam (x, T_int, Bin (Add, Var x, a)), b)));
            (* spawn a task and wait for it *)
            (let* a = int_term (depth - 1) [] in
             let* k = int_term (depth - 1) [] in
             let c = fresh () in
             return (Let (c, Post a, Bin (Add, Wait (Var c), k))));
            (* spawn, pass the channel into a deeper consumer *)
            (let* a = int_term (depth - 1) [] in
             let c = fresh () in
             let* body = int_term (depth - 1) [ c ] in
             return (Let (c, Post a, body)));
            (* polymorphic identity applied at int *)
            (let* a = sub in
             return
               (App
                  ( Ty_app
                      (Ty_lam ("t", Lam ("x", T_var "t", Var "x")), T_int),
                    a )));
          ]
  in
  Q.sized_size (Q.int_bound 3) (fun d -> int_term (Stdlib.min d 3) [])

let print_promise t = Promises.Syntax.to_string t

(* ---------- fork-heavy concurrent SHL programs ---------- *)

(* Closed programs for the explorer's differential properties: 1–2
   shared cells allocated up front, 1–3 forked threads plus the main
   thread, each a short straight line of loads / stores / cas over
   those cells.  No loops and no recursion, so every interleaving
   terminates and the reachable state space is finite (typically tens
   to a few hundred configurations) — small enough to explore
   exhaustively hundreds of times per test run, contended enough that
   distinct schedules meet in shared states. *)
let conc_expr : Shl.Ast.expr Q.t =
  let open Q in
  let open Shl.Ast in
  let rname i = Printf.sprintf "r%d" i in
  let cell nrefs = map rname (int_bound (nrefs - 1)) in
  (* int-valued atoms: constants, loads, load-plus-constant *)
  let aexp nrefs =
    let ld = map (fun r -> Load (Var r)) (cell nrefs) in
    oneof
      [
        map int_ (int_bound 5);
        ld;
        (let* a = ld in
         let* n = int_range 1 3 in
         return (Bin_op (Add, a, int_ n)));
      ]
  in
  (* one effectful statement; cas's bool result is discarded by Seq *)
  let stmt nrefs =
    oneof
      [
        (let* r = cell nrefs in
         let* a = aexp nrefs in
         return (Store (Var r, a)));
        (let* r = cell nrefs in
         let* a = aexp nrefs in
         let* b = aexp nrefs in
         return (Cas (Var r, a, b)));
      ]
  in
  let straight_line nrefs len =
    let* n = int_range 1 len in
    let* stmts = list_repeat n (stmt nrefs) in
    return
      (match stmts with
      | [] -> Val Unit
      | s :: rest -> List.fold_left (fun acc s' -> Seq (acc, s')) s rest)
  in
  let* nrefs = int_range 1 2 in
  let* nforks = int_range 1 3 in
  let* forks = list_repeat nforks (straight_line nrefs 2) in
  let* main_work = straight_line nrefs 2 in
  let* observe = cell nrefs in
  let body =
    List.fold_right
      (fun f acc -> Seq (Fork f, acc))
      forks
      (Seq (main_work, Load (Var observe)))
  in
  return
    (List.fold_left
       (fun acc i -> Let (rname (nrefs - 1 - i), Ref (int_ 0), acc))
       body
       (List.init nrefs Fun.id))

(* Concurrent programs with loops, for the reduced explorer's
   differential property: 1–2 shared cells, 1–2 forked threads plus the
   main thread, each a sequence of 1–2 fragments.  Fragments are
   shared-cell stores and CAS, pure local loops (counting down to an
   exit, or cycling forever), CAS and load spin-waits, stuck pure
   redexes, and now and then a closed {!shl_expr} (whose location
   literals may alias the shared cells or name unallocated ones).  The
   loops that never exit cycle through finitely many states, so the
   full graph stays finite. *)
let conc_loop_expr : Shl.Ast.expr Q.t =
  let open Q in
  let sp = Printf.sprintf in
  let* nrefs = int_range 1 2 in
  let cell = map (sp "r%d") (int_bound (nrefs - 1)) in
  let fragment =
    frequency
      [
        ( 3,
          let* r = cell in
          let* n = int_bound 2 in
          return (sp "%s := %d" r n) );
        ( 2,
          let* r = cell in
          let* a = int_bound 2 in
          let* b = int_bound 2 in
          return (sp "cas %s %d %d" r a b) );
        ( 2,
          let* n = int_bound 6 in
          return (sp "(rec f x. if x = 0 then () else f (x - 1)) %d" n) );
        ( 1,
          let* k = int_range 1 3 in
          return (sp "(rec f x. f ((x + 1) rem %d)) 0" k) );
        (1, return "(rec f x. f x) ()");
        ( 2,
          let* r = cell in
          let* a = int_bound 2 in
          let* b = int_bound 2 in
          return (sp "(rec w u. if cas %s %d %d then () else w u) ()" r a b) );
        ( 2,
          let* r = cell in
          let* a = int_bound 2 in
          return (sp "(rec w u. if !%s = %d then () else w u) ()" r a) );
        (2, oneofl [ "1 + true"; "() ()"; "fst 1"; "if 3 then () else ()" ]);
        (1, map (fun e -> "(" ^ print_shl e ^ ")") shl_expr);
      ]
  in
  let thread =
    let* n = int_range 1 2 in
    let* fs = list_repeat n fragment in
    return (String.concat "; " fs)
  in
  let* nforks = int_range 1 2 in
  let* forks = list_repeat nforks thread in
  let* main = thread in
  let* observe = cell in
  let lets =
    String.concat "" (List.init nrefs (fun i -> sp "let r%d = ref 0 in " i))
  in
  let body =
    String.concat ""
      (List.map (fun t -> sp "fork (%s); " t) forks)
    ^ sp "(%s); !%s" main observe
  in
  return (Shl.Parser.parse_exn (lets ^ body))

(* Concurrent programs whose only forks sit inside function bodies: 1–2
   shared cells, and a [fun] or [rec] whose body forks a short
   straight line of stores / cas / increments, called once (directly,
   through a let, through a returned closure, or at a [rec]'s base case)
   or never; then the main thread touches the cells.  {!conc_expr}
   forks only at the top level of the main thread. *)
let conc_fork_in_fn : Shl.Ast.expr Q.t =
  let open Q in
  let sp = Printf.sprintf in
  let* nrefs = int_range 1 2 in
  let cell = map (sp "r%d") (int_bound (nrefs - 1)) in
  let stmt =
    oneof
      [
        (let* r = cell in
         let* n = int_bound 3 in
         return (sp "%s := %d" r n));
        (let* r = cell in
         let* a = int_bound 2 in
         let* b = int_bound 2 in
         return (sp "cas %s %d %d" r a b));
        map (fun r -> sp "%s := !%s + 1" r r) cell;
      ]
  in
  let* forked = stmt in
  let* main = stmt in
  let* observe = cell in
  let* k = int_bound 3 in
  let fork = sp "fork (%s)" forked in
  let* call =
    oneofl
      [
        sp "(fun u -> %s) ()" fork;
        sp "let g = fun u -> %s; () in g ()" fork;
        sp "let g = fun u -> fun v -> %s in (g ()) ()" fork;
        sp "(rec f n. if n = 0 then %s else f (n - 1)) %d" fork k;
        sp "let g = fun u -> %s in ()" fork;
      ]
  in
  let lets =
    String.concat "" (List.init nrefs (fun i -> sp "let r%d = ref 0 in " i))
  in
  return (Shl.Parser.parse_exn (sp "%s(%s); %s; !%s" lets call main observe))

(* ---------- JSON documents ---------- *)

(* Strings rich in what the reader must unescape: quotes, backslashes,
   slashes, the named control characters, other control characters
   (printed as \u00XX) and raw UTF-8 bytes. *)
let json_string : string Q.t =
  let open Q in
  string_size
    ~gen:
      (frequency
         [
           (3, printable);
           ( 2,
             oneofl
               [ '"'; '\\'; '/'; '\n'; '\r'; '\t'; '\000'; '\031'; 'u'; '\xc3'; '\xa9' ]
           );
         ])
    (int_bound 12)

let rec json_sized depth : Obs.Json.t Q.t =
  let open Q in
  let open Obs.Json in
  let base =
    [
      return Null;
      map (fun b -> Bool b) bool;
      map (fun n -> Int n) int;
      map (fun n -> Int n) (int_range (-1000) 1000);
      map (fun f -> Float f) float;
      map (fun n -> Float (float_of_int n)) (int_range (-1000) 1000);
      map (fun s -> Str s) json_string;
    ]
  in
  if depth = 0 then oneof base
  else
    let sub = json_sized (depth - 1) in
    oneof
      (base
      @ [
          map (fun l -> List l) (list_size (int_bound 4) sub);
          map (fun kvs -> Obj kvs) (list_size (int_bound 4) (pair json_string sub));
        ])

let json : Obs.Json.t Q.t = json_sized 3

(* A printed document with one to three byte mutations: a byte
   replaced, inserted or deleted, or the document cut short.  The bytes
   put in are mostly JSON's own punctuation, escapes and digits, so the
   mutants reach every error of the reader. *)
let json_mutant : string Q.t =
  let open Q in
  let byte =
    frequency
      [
        ( 4,
          oneofl
            [ '"'; '\\'; 'u'; '0'; '9'; 'a'; 'x'; ','; ':'; '['; ']'; '{'; '}'; ' ';
              '\n'; 'n'; 't'; 'f'; '-'; '+'; 'e'; '.' ] );
        (1, char);
      ]
  in
  let mutate s =
    let* k = int_bound 3 in
    let* at = int_bound (String.length s) in
    let* c = byte in
    let n = String.length s in
    let before = String.sub s 0 at in
    return
      (match k with
      | 0 when at < n -> before ^ String.make 1 c ^ String.sub s (at + 1) (n - at - 1)
      | 1 -> before ^ String.make 1 c ^ String.sub s at (n - at)
      | 2 when at < n -> before ^ String.sub s (at + 1) (n - at - 1)
      | _ -> before)
  in
  let* doc = map Obs.Json.to_string json in
  let* rounds = int_range 1 3 in
  let rec go s r = if r = 0 then return s else mutate s >>= fun s -> go s (r - 1) in
  go doc rounds
