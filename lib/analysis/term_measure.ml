(** Pass 3: termination-measure inference.

    For every recursive function the pass classifies each recursive
    call site by how its arguments relate to the parameters, using a
    small symbolic language of derivations (literal subtraction,
    case-payload descent, [+l] pointer walks, pairs and projections).
    Call sites are compared {e lexicographically} over the curried
    parameter spine, so Ackermann-style recursion is recognized.

    From the per-site classifications the pass synthesizes a candidate
    {e ranking measure} in the ordinal vocabulary of the paper (§4):

    - [nat] — every call strictly decreases a non-negative integer or
      the size of a sum structure: finite credits suffice pointwise;
    - [omega] — a pointer walk over a null-terminated heap block (the
      [Slen] of Figure 4): the bound exists but is read off the heap,
      so the uniform credit is ω;
    - [omega*a + b] — a lexicographic pair (Ackermann) or a pair of
      pointer walks (the Levenshtein [Lev] of Figure 4);
    - [omega^2] — a lexicographic combination that itself involves a
      heap walk (nested memoized recursion).

    Findings: [term/candidate-measure] (info) when every recursive call
    decreases; [term/non-decreasing] (warning) at every call site that
    does not visibly decrease — this is where [rec w u. w u]-style
    spin loops and the §4.1 counterexample's [loop] surface;
    [term/escaping-recursion] (info) when the self-reference escapes
    call position (template-style recursion à la [memo_rec], where no
    syntactic measure exists); [term/template-measure] (info) when a
    {e parameter} is recursively applied with decreasing arguments —
    the Figure 4 templates report their measures this way before any
    fixpoint is taken.

    The candidates are heuristic upper bounds, cross-validated in the
    test suite by running {!Tfiris_termination.Wp} with the
    corresponding credits. *)

open Tfiris_shl
open Ast
module F = Finding
module Smap = Map.Make (String)

(* ------------------------------------------------------------------ *)
(* Candidate measures                                                  *)
(* ------------------------------------------------------------------ *)

type measure =
  | M_nat
  | M_omega
  | M_omega_ab  (** ω·a + b *)
  | M_omega_sq  (** ω² *)

let measure_to_string = function
  | M_nat -> "nat"
  | M_omega -> "omega"
  | M_omega_ab -> "omega*a + b"
  | M_omega_sq -> "omega^2"

let measure_rank = function
  | M_nat -> 0
  | M_omega -> 1
  | M_omega_ab -> 2
  | M_omega_sq -> 3

let measure_join a b = if measure_rank a >= measure_rank b then a else b

type verdict =
  | Decreasing of measure
  | Non_decreasing of Path.t list  (** offending call sites *)
  | Escaping  (** self-reference used outside call position *)

type fn_report = {
  fn_path : Path.t;
  fn_name : string option;
  verdict : verdict;
}

(* ------------------------------------------------------------------ *)
(* Symbolic derivations of arguments from parameters                   *)
(* ------------------------------------------------------------------ *)

type sym =
  | P of int  (** the i-th parameter of the spine *)
  | Proj of bool * sym  (** [false] = fst, [true] = snd *)
  | Payload of sym  (** case payload: strictly below its scrutinee *)
  | Sub_k of sym * int  (** s - k, k ≥ 1 *)
  | Add_ptr of sym * int  (** s +l k, k ≥ 1 *)
  | Pair_s of sym * sym
  | Opaque

let sub_k s k =
  match s with
  | Opaque -> Opaque
  | Sub_k (s', k') -> if k + k' >= 1 then Sub_k (s', k + k') else Opaque
  | _ -> if k >= 1 then Sub_k (s, k) else Opaque

let add_ptr s k =
  match s with
  | Opaque -> Opaque
  | Add_ptr (s', k') -> if k + k' >= 1 then Add_ptr (s', k + k') else Opaque
  | _ -> if k >= 1 then Add_ptr (s, k) else Opaque

type entry =
  | Self  (** the recursion variable *)
  | S of sym

let sym_of_var env v =
  match Smap.find_opt v env with Some (S s) -> s | _ -> Opaque

let rec sym_of env (e : expr) : sym =
  match e with
  | Var v -> sym_of_var env v
  | Fst e1 -> (
    match sym_of env e1 with
    | Pair_s (a, _) -> a
    | Opaque -> Opaque
    | s -> Proj (false, s))
  | Snd e1 -> (
    match sym_of env e1 with
    | Pair_s (_, b) -> b
    | Opaque -> Opaque
    | s -> Proj (true, s))
  | Pair_e (e1, e2) -> (
    match (sym_of env e1, sym_of env e2) with
    | Opaque, Opaque -> Opaque
    | a, b -> Pair_s (a, b))
  | Bin_op (Sub, e1, Val (Int k)) -> sub_k (sym_of env e1) k
  | Bin_op (Add, e1, Val (Int k)) when k < 0 -> sub_k (sym_of env e1) (-k)
  | Bin_op (Ptr_add, e1, Val (Int k)) -> add_ptr (sym_of env e1) k
  | _ -> Opaque

let rec root = function
  | P i -> Some i
  | Proj (_, s) | Payload s | Sub_k (s, _) | Add_ptr (s, _) -> root s
  | Pair_s _ | Opaque -> None

let rec has_payload = function
  | Payload _ -> true
  | Proj (_, s) | Sub_k (s, _) | Add_ptr (s, _) -> has_payload s
  | P _ | Pair_s _ | Opaque -> false

(* ------------------------------------------------------------------ *)
(* Per-position classification                                         *)
(* ------------------------------------------------------------------ *)

type kind =
  | K_nat  (** integer countdown or structural descent *)
  | K_heap  (** single pointer walk *)
  | K_heap_pair  (** componentwise pointer walks on a pair *)

type cls =
  | Equal
  | Strict of kind * string
  | Unknown

(* How does a component of a pair argument relate to the matching
   projection of the parameter?  [Some true] = strict walk, [Some
   false] = unchanged, [None] = unrelated. *)
let pair_component (s : sym) (want : sym) : bool option =
  if s = want then Some false
  else
    match s with
    | Add_ptr (base, _) when base = want -> Some true
    | _ -> None

let classify (s : sym) (i : int) : cls =
  if s = P i then Equal
  else if s = Pair_s (Proj (false, P i), Proj (true, P i)) then Equal
  else if has_payload s && root s = Some i then
    Strict (K_nat, "structural descent")
  else
    match s with
    | Sub_k (base, k) when base = P i ->
      Strict (K_nat, Printf.sprintf "argument decreases by %d" k)
    | Add_ptr (base, k) when base = P i ->
      Strict (K_heap, Printf.sprintf "pointer walk by +l %d" k)
    | Pair_s (a, b) -> (
      match
        ( pair_component a (Proj (false, P i)),
          pair_component b (Proj (true, P i)) )
      with
      | Some wa, Some wb when wa || wb ->
        Strict (K_heap_pair, "componentwise pointer walk")
      | Some false, Some false -> Equal
      | _ -> Unknown)
    | _ -> Unknown

(* ------------------------------------------------------------------ *)
(* Collecting recursion edges                                          *)
(* ------------------------------------------------------------------ *)

type target =
  | T_self
  | T_hook of int  (** an applied parameter, by spine position *)

type edge = {
  tgt : target;
  args : sym list;
  site : Path.t;
}

type collected = {
  mutable edges : edge list;
  mutable escapes : Path.t list;
}

let rec app_spine e acc =
  match e with App (f, a) -> app_spine f (a :: acc) | _ -> (e, acc)

(* Walk a function body, recording recursion edges and escaping uses
   of the self variable.  [env] carries the symbolic meaning of every
   variable in scope; nested functions are entered (their binders
   become opaque) so that closures recursing on the outer self are
   seen. *)
let collect (self : string option) (params : string list) (body : expr)
    (body_rev_p : Path.step list) : collected =
  let acc = { edges = []; escapes = [] } in
  let env0 =
    let env =
      List.mapi (fun i x -> (x, S (P i))) params
      |> List.to_seq |> Smap.of_seq
    in
    match self with Some f -> Smap.add f Self env | None -> env
  in
  let target_of env v =
    match Smap.find_opt v env with
    | Some Self -> Some T_self
    | Some (S (P i)) -> Some (T_hook i)
    | _ -> None
  in
  let rec walk env rev_p e =
    match e with
    | Var v -> (
      match Smap.find_opt v env with
      | Some Self -> acc.escapes <- List.rev rev_p :: acc.escapes
      | _ -> ())
    | App _ -> (
      let head, args = app_spine e [] in
      match head with
      | Var v when target_of env v <> None ->
        let tgt = Option.get (target_of env v) in
        acc.edges <-
          {
            tgt;
            args = List.map (sym_of env) args;
            site = List.rev rev_p;
          }
          :: acc.edges;
        (* visit the argument subtrees (nested recursive calls), but
           not the spine head chain, so the edge is recorded once *)
        let n = List.length args in
        List.iteri
          (fun i a ->
            let rec funs k rp =
              if k = 0 then rp else funs (k - 1) (Path.App_fun :: rp)
            in
            walk env (Path.App_arg :: funs (n - 1 - i) rev_p) a)
          args
      | _ ->
        List.iter
          (fun (s, child) -> walk env (s :: rev_p) child)
          (Path.children e))
    | Let (x, e1, e2) ->
      walk env (Path.Let_bound :: rev_p) e1;
      walk (Smap.add x (S (sym_of env e1)) env) (Path.Let_body :: rev_p) e2
    | Case (e0, (x, e1), (y, e2)) ->
      walk env (Path.Case_scrut :: rev_p) e0;
      let payload = Payload (sym_of env e0) in
      walk (Smap.add x (S payload) env) (Path.Case_inl :: rev_p) e1;
      walk (Smap.add y (S payload) env) (Path.Case_inr :: rev_p) e2
    | Rec (f, x, b) ->
      let env =
        match f with Some f -> Smap.add f (S Opaque) env | None -> env
      in
      walk (Smap.add x (S Opaque) env) (Path.Rec_body :: rev_p) b
    | Val (Rec_fun (f, x, b)) ->
      let env =
        match f with Some f -> Smap.add f (S Opaque) env | None -> env
      in
      walk (Smap.add x (S Opaque) env) (Path.Val_body :: rev_p) b
    | _ ->
      List.iter
        (fun (s, child) -> walk env (s :: rev_p) child)
        (Path.children e)
  in
  walk env0 body_rev_p body;
  acc

(* ------------------------------------------------------------------ *)
(* Per-function analysis                                               *)
(* ------------------------------------------------------------------ *)

(* Lexicographic scan of one call site: positions before the first
   strict descent must be unchanged. *)
type site_cls =
  | Site_strict of int * kind * string  (** position, kind, description *)
  | Site_equal  (** every argument unchanged: a visible loop *)
  | Site_unknown

let classify_site (args : sym list) (offset : int) (n_params : int) :
    site_cls =
  let rec go pos = function
    | [] -> Site_equal
    | a :: rest ->
      if pos >= n_params then Site_unknown
      else (
        match classify a pos with
        | Equal -> go (pos + 1) rest
        | Strict (k, d) -> Site_strict (pos, k, d)
        | Unknown -> Site_unknown)
  in
  go offset args

let measure_of_sites (sites : site_cls list) : measure option =
  let strict =
    List.filter_map
      (function Site_strict (p, k, _) -> Some (p, k) | _ -> None)
      sites
  in
  if List.length strict <> List.length sites || strict = [] then None
  else
    let positions = List.sort_uniq compare (List.map fst strict) in
    let kind_measure = function
      | K_nat -> M_nat
      | K_heap -> M_omega
      | K_heap_pair -> M_omega_ab
    in
    let base =
      List.fold_left
        (fun m (_, k) -> measure_join m (kind_measure k))
        M_nat strict
    in
    if List.length positions <= 1 then Some base
    else
      (* a genuine lexicographic combination *)
      Some (if base = M_nat then M_omega_ab else M_omega_sq)

(* Spine of curried parameters: [rec f x. fun y -> ...] has spine
   [x; y].  Returns the spine and the body below it, with the body's
   reversed path, and marks the inner lambdas as part of this function
   in [consumed]. *)
let rec spine_of consumed (x : string) (body : expr) rev_p =
  let inner y b step =
    Hashtbl.replace consumed (List.rev rev_p) ();
    let xs, b', rp = spine_of consumed y b (step :: rev_p) in
    (x :: xs, b', rp)
  in
  match body with
  | Rec (None, y, b) -> inner y b Path.Rec_body
  | Val (Rec_fun (None, y, b)) -> inner y b Path.Val_body
  | _ -> ([ x ], body, rev_p)

type analysis = {
  reports : fn_report list;
  findings : F.t list;
}

let analyze_expr (e : expr) : analysis =
  let reports = ref [] in
  let findings = ref [] in
  let add f = findings := f :: !findings in
  let consumed = Hashtbl.create 16 in
  Path.iter
    (fun path sub ->
      let fn =
        match sub with
        | Rec (f, x, b) -> Some (f, x, b, Path.Rec_body)
        | Val (Rec_fun (f, x, b)) -> Some (f, x, b, Path.Val_body)
        | _ -> None
      in
      match fn with
      | Some (f, x, b, step) when not (Hashtbl.mem consumed path) ->
        let rev_fn = List.rev path in
        let params, body, body_rev_p =
          spine_of consumed x b (step :: rev_fn)
        in
        let c = collect f params body body_rev_p in
        let n = List.length params in
        let name_str = match f with Some f -> f | None -> "<fun>" in
        (* --- self recursion --- *)
        let self_edges =
          List.filter (fun ed -> ed.tgt = T_self) (List.rev c.edges)
        in
        if c.escapes <> [] && f <> None then begin
          reports :=
            { fn_path = path; fn_name = f; verdict = Escaping } :: !reports;
          add
            (F.makef ~id:"term/escaping-recursion" ~severity:F.Info ~path
               "self-reference %s escapes call position; no syntactic \
                measure (template-style recursion)"
               name_str)
        end
        else if self_edges <> [] then begin
          let sites =
            List.map (fun ed -> classify_site ed.args 0 n) self_edges
          in
          match measure_of_sites sites with
          | Some m ->
            reports :=
              { fn_path = path; fn_name = f; verdict = Decreasing m }
              :: !reports;
            add
              (F.makef ~id:"term/candidate-measure" ~severity:F.Info ~path
                 "recursive %s decreases at every call; candidate measure: \
                  %s"
                 name_str (measure_to_string m))
          | None ->
            let bad =
              List.filter_map
                (fun (ed, s) ->
                  match s with
                  | Site_strict _ -> None
                  | _ -> Some ed.site)
                (List.combine self_edges sites)
            in
            reports :=
              { fn_path = path; fn_name = f; verdict = Non_decreasing bad }
              :: !reports;
            List.iter
              (fun site ->
                add
                  (F.makef ~id:"term/non-decreasing" ~severity:F.Warning
                     ~path:site
                     "recursive call to %s does not visibly decrease its \
                      argument"
                     name_str))
              bad
        end;
        (* --- template hooks: applied parameters --- *)
        List.iteri
          (fun i p ->
            let hook_edges =
              List.filter (fun ed -> ed.tgt = T_hook i) c.edges
            in
            if hook_edges <> [] && i + 1 < n then begin
              let sites =
                List.map
                  (fun ed -> classify_site ed.args (i + 1) n)
                  hook_edges
              in
              match measure_of_sites sites with
              | Some m ->
                add
                  (F.makef ~id:"term/template-measure" ~severity:F.Info
                     ~path
                     "template parameter %s recurses with decreasing \
                      arguments; candidate measure: %s"
                     p (measure_to_string m))
              | None -> ()
            end)
          params
      | _ -> ())
    e;
  { reports = List.rev !reports; findings = List.sort F.compare !findings }

let infer (e : expr) : fn_report list = (analyze_expr e).reports
let run (e : expr) : F.t list = (analyze_expr e).findings
