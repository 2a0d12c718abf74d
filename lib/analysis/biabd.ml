(** The symbolic-heap separation-logic analyzer: bi-abductive footprint
    inference over {!Symheap}, plus an exact whole-program checker.

    The pass has two cooperating halves.

    {b The concrete half} is an environment-based big-step evaluator
    that mirrors {!Tfiris_shl.Step.head_step} decision for decision
    (same left-to-right order, same stuck conditions, same
    deterministic allocator), so its verdicts are ground truth for
    closed programs: [Unsafe] means the frame-stack machine provably
    gets stuck, [Safe] means it runs to a value — and the analyzer's
    leaked-cell set equals {!Tfiris_shl.Heap.unreachable_from} of the
    machine's final state.  That equation is the differential property
    the test suite checks on random programs, the same way the race
    detector is validated against the dynamic interleaving oracle.

    {b The symbolic half} infers compositional [{pre} f {post}]
    candidate summaries for every named or let-bound function, by
    symbolic execution over {!Symheap} with {e bi-abduction} at deref
    sites: a load or store whose cell is not in the current symbolic
    heap is added to {e both} the state and the inferred precondition
    (the anti-frame).  Calls go through the callee's summary from the
    previous fixpoint round ({!Symheap.subtract} computes the frame and
    any further missing footprint); {!Symheap.abstract_atoms} collapses
    points-to chains into list segments at summary boundaries, which is
    the widening that makes the rounds converge — the classic
    compositional shape-analysis recipe, instantiated for SHL's
    adjacency-linked (null-terminated block) lists. *)

module Ast = Tfiris_shl.Ast
module Path = Tfiris_shl.Path
module Heap = Tfiris_shl.Heap
module Sh = Symheap
module F = Finding
module Json = Tfiris_obs.Json
module Metrics = Tfiris_obs.Metrics
module Iset = Set.Make (Int)
module Imap = Map.Make (Int)

type verdict =
  | Safe  (** ran to a value; no stuck state is reachable *)
  | Unsafe  (** a definite memory/type error is reached *)
  | Unknown  (** fork, open program, or budget exhausted *)

let verdict_to_string = function
  | Safe -> "safe"
  | Unsafe -> "unsafe"
  | Unknown -> "unknown"

(* ================================================================== *)
(* Concrete whole-program checking                                     *)
(* ================================================================== *)

(* Runtime values of the environment-based evaluator.  Closures carry
   their environment restricted to their free variables, so the
   locations a closure keeps reachable agree exactly with the
   substitution semantics (where captured values are copied into the
   body). *)
type rval =
  | R_unit
  | R_bool of bool
  | R_int of int
  | R_loc of int
  | R_pair of rval * rval
  | R_inj_l of rval
  | R_inj_r of rval
  | R_clo of string option * string * Ast.expr * (string * rval) list

(* Mirrors {!Ast.value_eq}: [None] whenever a closure is reached. *)
let rec rval_eq (a : rval) (b : rval) : bool option =
  match (a, b) with
  | R_clo _, _ | _, R_clo _ -> None
  | R_unit, R_unit -> Some true
  | R_bool x, R_bool y -> Some (x = y)
  | R_int x, R_int y -> Some (x = y)
  | R_loc x, R_loc y -> Some (x = y)
  | R_pair (a1, b1), R_pair (a2, b2) -> (
    match rval_eq a1 a2 with
    | Some true -> rval_eq b1 b2
    | (Some false | None) as r -> r)
  | R_inj_l x, R_inj_l y | R_inj_r x, R_inj_r y -> rval_eq x y
  | (R_unit | R_bool _ | R_int _ | R_loc _ | R_pair _ | R_inj_l _ | R_inj_r _), _
    ->
    Some false

(* The locations a runtime value keeps alive: every [R_loc], plus — for
   closures — the location literals of the body and everything the
   captured environment reaches. *)
let rec rval_locs_acc acc = function
  | R_unit | R_bool _ | R_int _ -> acc
  | R_loc l -> Iset.add l acc
  | R_pair (a, b) -> rval_locs_acc (rval_locs_acc acc a) b
  | R_inj_l a | R_inj_r a -> rval_locs_acc acc a
  | R_clo (_, _, body, env) ->
    let acc =
      List.fold_left (fun acc l -> Iset.add l acc) acc (Ast.locs_expr body)
    in
    List.fold_left (fun acc (_, v) -> rval_locs_acc acc v) acc env

exception Cstuck  (** a definite error; the finding is already recorded *)

exception Cunknown  (** fork / budget: the checker cannot decide *)

type cstate = {
  mutable cells : rval Imap.t;
  mutable cnext : int;  (** deterministic allocator, as in {!Heap} *)
  mutable fuel : int;
  mutable visited : int;
  sites : (int, Path.t) Hashtbl.t;  (** location → allocation site *)
  mutable findings : F.t list;
}

let cstuck st ~id ~path fmt =
  Format.kasprintf
    (fun message ->
      st.findings <- F.make ~id ~severity:F.Error ~path message :: st.findings;
      raise Cstuck)
    fmt

let restrict_env (env : (string * rval) list) (fv : Ast.Sset.t) =
  List.filter (fun (n, _) -> Ast.Sset.mem n fv) env

(* Value literals can embed closure bodies with free variables (bound by
   enclosing binders); closing over [env] here is what the machine's
   substitution-into-values achieves. *)
let rec rval_of_value env (v : Ast.value) : rval =
  match v with
  | Ast.Unit -> R_unit
  | Ast.Bool b -> R_bool b
  | Ast.Int n -> R_int n
  | Ast.Loc l -> R_loc l
  | Ast.Pair (a, b) -> R_pair (rval_of_value env a, rval_of_value env b)
  | Ast.Inj_l a -> R_inj_l (rval_of_value env a)
  | Ast.Inj_r a -> R_inj_r (rval_of_value env a)
  | Ast.Rec_fun (f, x, body) ->
    R_clo (f, x, body, restrict_env env (Ast.free_vars (Ast.Rec (f, x, body))))

let rec ceval (st : cstate) (env : (string * rval) list)
    (rev_p : Path.step list) (e : Ast.expr) : rval =
  st.fuel <- st.fuel - 1;
  st.visited <- st.visited + 1;
  if st.fuel <= 0 then raise Cunknown;
  let path () = List.rev rev_p in
  match e with
  | Ast.Val v -> rval_of_value env v
  | Ast.Var x -> (
    match List.assoc_opt x env with
    | Some v -> v
    | None ->
      cstuck st ~id:"symheap/stuck-op" ~path:(path ()) "unbound variable %s" x)
  | Ast.Rec (f, x, body) ->
    R_clo (f, x, body, restrict_env env (Ast.free_vars e))
  | Ast.App (e1, e2) -> (
    let vf = ceval st env (Path.App_fun :: rev_p) e1 in
    let va = ceval st env (Path.App_arg :: rev_p) e2 in
    match vf with
    | R_clo (f, x, body, cenv) ->
      let env' =
        (x, va)
        :: (match f with None -> cenv | Some f -> (f, vf) :: cenv)
      in
      ceval st env' rev_p body
    | _ ->
      cstuck st ~id:"symheap/app-non-function" ~path:(path ())
        "application of a non-function value")
  | Ast.Un_op (op, e1) -> (
    let v = ceval st env (Path.Un_arg :: rev_p) e1 in
    match (op, v) with
    | Ast.Neg, R_bool b -> R_bool (not b)
    | Ast.Minus, R_int n -> R_int (-n)
    | (Ast.Neg | Ast.Minus), _ ->
      cstuck st ~id:"symheap/stuck-op" ~path:(path ())
        "unary operator applied to a value of the wrong shape")
  | Ast.Bin_op (op, e1, e2) -> (
    let v1 = ceval st env (Path.Bin_l :: rev_p) e1 in
    let v2 = ceval st env (Path.Bin_r :: rev_p) e2 in
    match (op, v1, v2) with
    | Ast.Add, R_int a, R_int b -> R_int (a + b)
    | Ast.Sub, R_int a, R_int b -> R_int (a - b)
    | Ast.Mul, R_int a, R_int b -> R_int (a * b)
    | Ast.Quot, R_int a, R_int b -> R_int (if b = 0 then 0 else a / b)
    | Ast.Rem, R_int a, R_int b -> R_int (if b = 0 then a else a mod b)
    | Ast.Lt, R_int a, R_int b -> R_bool (a < b)
    | Ast.Le, R_int a, R_int b -> R_bool (a <= b)
    | Ast.Eq, a, b -> (
      match rval_eq a b with
      | Some r -> R_bool r
      | None ->
        cstuck st ~id:"symheap/stuck-op" ~path:(path ())
          "equality test on a closure")
    | Ast.Ptr_add, R_loc l, R_int n -> R_loc (l + n)
    | (Ast.Add | Ast.Sub | Ast.Mul | Ast.Quot | Ast.Rem | Ast.Lt | Ast.Le
      | Ast.Ptr_add), _, _ ->
      cstuck st ~id:"symheap/stuck-op" ~path:(path ())
        "binary operator applied to values of the wrong shape")
  | Ast.If (c, e1, e2) -> (
    match ceval st env (Path.If_cond :: rev_p) c with
    | R_bool true -> ceval st env (Path.If_then :: rev_p) e1
    | R_bool false -> ceval st env (Path.If_else :: rev_p) e2
    | _ ->
      cstuck st ~id:"symheap/stuck-op" ~path:(path ())
        "conditional on a non-boolean")
  | Ast.Pair_e (e1, e2) ->
    let v1 = ceval st env (Path.Pair_l :: rev_p) e1 in
    let v2 = ceval st env (Path.Pair_r :: rev_p) e2 in
    R_pair (v1, v2)
  | Ast.Fst e1 -> (
    match ceval st env (Path.Fst_arg :: rev_p) e1 with
    | R_pair (a, _) -> a
    | _ ->
      cstuck st ~id:"symheap/stuck-op" ~path:(path ())
        "first projection of a non-pair")
  | Ast.Snd e1 -> (
    match ceval st env (Path.Snd_arg :: rev_p) e1 with
    | R_pair (_, b) -> b
    | _ ->
      cstuck st ~id:"symheap/stuck-op" ~path:(path ())
        "second projection of a non-pair")
  | Ast.Inj_l_e e1 -> R_inj_l (ceval st env (Path.Inj_arg :: rev_p) e1)
  | Ast.Inj_r_e e1 -> R_inj_r (ceval st env (Path.Inj_arg :: rev_p) e1)
  | Ast.Case (e0, (x, e1), (y, e2)) -> (
    match ceval st env (Path.Case_scrut :: rev_p) e0 with
    | R_inj_l v -> ceval st ((x, v) :: env) (Path.Case_inl :: rev_p) e1
    | R_inj_r v -> ceval st ((y, v) :: env) (Path.Case_inr :: rev_p) e2
    | _ ->
      cstuck st ~id:"symheap/stuck-op" ~path:(path ())
        "case analysis on a non-sum value")
  | Ast.Ref e1 ->
    let v = ceval st env (Path.Ref_arg :: rev_p) e1 in
    let l = st.cnext in
    st.cells <- Imap.add l v st.cells;
    st.cnext <- l + 1;
    Hashtbl.replace st.sites l (path ());
    R_loc l
  | Ast.Load e1 -> (
    match ceval st env (Path.Load_arg :: rev_p) e1 with
    | R_loc l -> (
      match Imap.find_opt l st.cells with
      | Some v -> v
      | None ->
        cstuck st ~id:"symheap/deref-unalloc" ~path:(path ())
          "load from unallocated location %d" l)
    | _ ->
      cstuck st ~id:"symheap/deref-non-location" ~path:(path ())
        "load from a non-location value")
  | Ast.Store (e1, e2) -> (
    let vl = ceval st env (Path.Store_l :: rev_p) e1 in
    let v = ceval st env (Path.Store_r :: rev_p) e2 in
    match vl with
    | R_loc l ->
      if Imap.mem l st.cells then begin
        st.cells <- Imap.add l v st.cells;
        R_unit
      end
      else
        cstuck st ~id:"symheap/deref-unalloc" ~path:(path ())
          "store to unallocated location %d" l
    | _ ->
      cstuck st ~id:"symheap/deref-non-location" ~path:(path ())
        "store to a non-location value")
  | Ast.Let (x, e1, e2) ->
    let v = ceval st env (Path.Let_bound :: rev_p) e1 in
    ceval st ((x, v) :: env) (Path.Let_body :: rev_p) e2
  | Ast.Seq (e1, e2) ->
    ignore (ceval st env (Path.Seq_l :: rev_p) e1);
    ceval st env (Path.Seq_r :: rev_p) e2
  | Ast.Fork _ ->
    (* a concurrent redex: sound only under the scheduler of Conc, so
       the sequential checker gives up rather than call it stuck *)
    raise Cunknown
  | Ast.Cas (e1, e2, e3) -> (
    let vl = ceval st env (Path.Cas_loc :: rev_p) e1 in
    let old_v = ceval st env (Path.Cas_old :: rev_p) e2 in
    let new_v = ceval st env (Path.Cas_new :: rev_p) e3 in
    match vl with
    | R_loc l -> (
      match Imap.find_opt l st.cells with
      | None ->
        cstuck st ~id:"symheap/deref-unalloc" ~path:(path ())
          "CAS on unallocated location %d" l
      | Some current -> (
        match rval_eq current old_v with
        | None ->
          cstuck st ~id:"symheap/stuck-op" ~path:(path ())
            "CAS comparison on a closure"
        | Some true ->
          st.cells <- Imap.add l new_v st.cells;
          R_bool true
        | Some false -> R_bool false))
    | _ ->
      cstuck st ~id:"symheap/deref-non-location" ~path:(path ())
        "CAS on a non-location value")

(* ================================================================== *)
(* Symbolic summary inference                                          *)
(* ================================================================== *)

(* A discovered function: any [Rec] node that is named or let-bound,
   with up to two further leading anonymous parameters peeled off
   (the curried [rec f x. fun y -> …] idiom). *)
type fn = {
  f_name : string;
  f_path : Path.t;  (** of the [Rec] node *)
  f_params : string list;
  f_self : string option;
  f_body : Ast.expr;
  f_rev_body : Path.step list;  (** reversed path of the analyzed body *)
}

(* A summary disjunct in canonical form: variables and bases renumbered
   by first occurrence over params → pre → ret → post, so disjuncts
   compare structurally across fixpoint rounds. *)
type disjunct = {
  d_nvar : int;
  d_nbase : int;
  d_neqs : (Sh.sval * Sh.sval) list;  (** sorted *)
  d_params : Sh.sval list;
  d_pre : Sh.atom list;
  d_ret : Sh.sval;
  d_post : Sh.atom list;
}

type summary = {
  s_name : string;
  s_path : Path.t;
  s_params : string list;
  s_exact : bool;
      (** no budget/branch/havoc truncation and the fixpoint converged *)
  s_disjuncts : disjunct list;
}

(* Closure tokens: [S_fun 0] is opaque; [S_fun (fid+1)] for
   [fid < nfns] is a known function; higher tokens are per-round
   dynamic closures (partial applications and local lambdas). *)
type dyn =
  | D_partial of int * Sh.sval list
  | D_lam of string option * string * Ast.expr * (string * Sh.sval) list

type sctx = {
  fns : fn array;
  names : (string, int) Hashtbl.t;  (** unambiguous name → fn index *)
  cand : disjunct list array;  (** summaries of the previous round *)
  mutable reads : Iset.t;  (** functions whose [cand] this analysis read *)
  mutable budget : int;
  mutable approx : bool;
  dyn : (int, dyn) Hashtbl.t;
  mutable ndyn : int;
}

(* Per-path symbolic state: the heap, the abduced precondition (reverse
   order), and the bases allocated on this path (which must never be
   abduced — their absence is definite). *)
type sst = {
  sh : Sh.t;
  pre : Sh.atom list;
  local : Iset.t;
}

let branch_cap = 16
let disjunct_cap = 4

let rec take n = function
  | [] -> []
  | x :: r -> if n <= 0 then [] else x :: take (n - 1) r

let cap ctx l =
  if List.length l > branch_cap then begin
    ctx.approx <- true;
    take branch_cap l
  end
  else l

let rec contains_fun = function
  | Sh.S_fun _ -> true
  | Sh.S_pair (a, b) -> contains_fun a || contains_fun b
  | Sh.S_inj_l a | Sh.S_inj_r a -> contains_fun a
  | Sh.S_var _ | Sh.S_unit | Sh.S_bool _ | Sh.S_int _ | Sh.S_loc _ -> false

let mk_dyn ctx d =
  let k = ctx.ndyn in
  ctx.ndyn <- k + 1;
  Hashtbl.replace ctx.dyn k d;
  Sh.S_fun k

let mk_lam ctx env f x body =
  let fv = Ast.free_vars (Ast.Rec (f, x, body)) in
  let cenv = List.filter (fun (n, _) -> Ast.Sset.mem n fv) env in
  mk_dyn ctx (D_lam (f, x, body, cenv))

let rec sval_of_value ctx env (v : Ast.value) : Sh.sval =
  match v with
  | Ast.Unit -> Sh.S_unit
  | Ast.Bool b -> Sh.S_bool b
  | Ast.Int n -> Sh.S_int n
  | Ast.Loc l -> Sh.S_loc { Sh.base = Sh.conc_base; off = l }
  | Ast.Pair (a, b) ->
    Sh.S_pair (sval_of_value ctx env a, sval_of_value ctx env b)
  | Ast.Inj_l a -> Sh.S_inj_l (sval_of_value ctx env a)
  | Ast.Inj_r a -> Sh.S_inj_r (sval_of_value ctx env a)
  | Ast.Rec_fun (f, x, body) -> mk_lam ctx env f x body

(* assume the symbolic value is a location, coercing variables *)
let resolve_addr (st : sst) (v : Sh.sval) : (sst * Sh.addr) list =
  match Sh.norm st.sh v with
  | Sh.S_loc a -> [ (st, a) ]
  | Sh.S_var _ as v' -> (
    let sh, b = Sh.fresh_base st.sh in
    match Sh.unify sh v' (Sh.S_loc b) with
    | Some sh -> [ ({ st with sh }, b) ]
    | None -> [])
  | _ -> []

(* Read the cell at [a]: from a points-to atom, by unrolling a segment
   (empty/non-empty case split), through junk, or — the bi-abduction
   step — by growing the precondition when the footprint is missing and
   the base is not path-local. *)
let read_cell ctx (st : sst) (a : Sh.addr) : (sst * Sh.sval) list =
  let a = Sh.norm_addr st.sh a in
  match Sh.find_pts st.sh a with
  | Some (v, sh') -> [ ({ st with sh = Sh.add_atom sh' (Sh.Pts (a, v)) }, v) ]
  | None -> (
    match Sh.find_lseg st.sh a with
    | Some (term, sh') ->
      let empty_case =
        [ ({ st with sh = Sh.add_atom sh' (Sh.Pts (a, term)) }, term) ]
      in
      let nonempty_case =
        let sh, c = Sh.fresh_var sh' in
        match Sh.add_neq sh c (Sh.S_int 0) with
        | None -> []
        | Some sh ->
          let sh =
            Sh.add_atom
              (Sh.add_atom sh (Sh.Pts (a, c)))
              (Sh.Lseg (Sh.addr_shift a 1, term))
          in
          [ ({ st with sh }, c) ]
      in
      empty_case @ nonempty_case
    | None ->
      if Sh.has_junk st.sh then begin
        ctx.approx <- true;
        let sh, v = Sh.fresh_var st.sh in
        [ ({ st with sh }, v) ]
      end
      else if Iset.mem a.Sh.base st.local || a.Sh.base = Sh.conc_base then []
      else
        let sh, v = Sh.fresh_var st.sh in
        let atom = Sh.Pts (a, v) in
        [ ({ st with sh = Sh.add_atom sh atom; pre = atom :: st.pre }, v) ])

let write_cell ctx (st : sst) (a : Sh.addr) (v : Sh.sval) : sst list =
  let a = Sh.norm_addr st.sh a in
  match Sh.find_pts st.sh a with
  | Some (_, sh') -> [ { st with sh = Sh.add_atom sh' (Sh.Pts (a, v)) } ]
  | None -> (
    match Sh.find_lseg st.sh a with
    | Some (term, sh') ->
      let empty_case =
        [ { st with sh = Sh.add_atom sh' (Sh.Pts (a, v)) } ]
      in
      let nonempty_case =
        let sh =
          Sh.add_atom
            (Sh.add_atom sh' (Sh.Pts (a, v)))
            (Sh.Lseg (Sh.addr_shift a 1, term))
        in
        [ { st with sh } ]
      in
      empty_case @ nonempty_case
    | None ->
      if Sh.has_junk st.sh then begin
        ctx.approx <- true;
        [ st ]
      end
      else if Iset.mem a.Sh.base st.local || a.Sh.base = Sh.conc_base then []
      else
        let sh, w = Sh.fresh_var st.sh in
        let missing = Sh.Pts (a, w) in
        let sh = Sh.add_atom sh (Sh.Pts (a, v)) in
        [ { st with sh; pre = missing :: st.pre } ])

let eq_branches (st : sst) (a : Sh.sval) (b : Sh.sval) :
    (sst * Sh.sval) list =
  let a = Sh.norm st.sh a and b = Sh.norm st.sh b in
  if contains_fun a || contains_fun b then []
  else if a = b then [ (st, Sh.S_bool true) ]
  else
    let eqb =
      match Sh.unify st.sh a b with
      | Some sh -> [ ({ st with sh }, Sh.S_bool true) ]
      | None -> []
    in
    let neb =
      match Sh.add_neq st.sh a b with
      | Some sh -> [ ({ st with sh }, Sh.S_bool false) ]
      | None -> []
    in
    eqb @ neb

(* ---------- canonicalization, join, widening ---------- *)

(* Renumber variables and bases by first occurrence over
   params → neqs-free spec order (pre, ret, post, neqs); sort the
   disequalities.  Canonical disjuncts compare structurally. *)
let canon (d : disjunct) : disjunct =
  let vmap = Hashtbl.create 8 and bmap = Hashtbl.create 8 in
  let nv = ref 0 and nb = ref 0 in
  let touch_b (a : Sh.addr) =
    if a.Sh.base <> Sh.conc_base && not (Hashtbl.mem bmap a.Sh.base) then begin
      Hashtbl.add bmap a.Sh.base !nb;
      incr nb
    end
  in
  let rec touch (v : Sh.sval) =
    match v with
    | Sh.S_var i ->
      if not (Hashtbl.mem vmap i) then begin
        Hashtbl.add vmap i !nv;
        incr nv
      end
    | Sh.S_loc a -> touch_b a
    | Sh.S_pair (x, y) ->
      touch x;
      touch y
    | Sh.S_inj_l x | Sh.S_inj_r x -> touch x
    | Sh.S_unit | Sh.S_bool _ | Sh.S_int _ | Sh.S_fun _ -> ()
  in
  let touch_atom = function
    | Sh.Pts (x, v) | Sh.Lseg (x, v) ->
      touch_b x;
      touch v
    | Sh.Junk -> ()
  in
  List.iter touch d.d_params;
  List.iter touch_atom d.d_pre;
  touch d.d_ret;
  List.iter touch_atom d.d_post;
  List.iter
    (fun (a, b) ->
      touch a;
      touch b)
    d.d_neqs;
  let fv i = Hashtbl.find vmap i and fb b = Hashtbl.find bmap b in
  let rn = Sh.map_ids fv fb and rna = Sh.map_atom fv fb in
  {
    d_nvar = !nv;
    d_nbase = !nb;
    d_neqs =
      List.sort_uniq compare
        (List.map
           (fun (a, b) ->
             let a = rn a and b = rn b in
             if a <= b then (a, b) else (b, a))
           d.d_neqs);
    d_params = List.map rn d.d_params;
    d_pre = List.map rna d.d_pre;
    d_ret = rn d.d_ret;
    d_post = List.map rna d.d_post;
  }

let rec squash_funs nfns (v : Sh.sval) : Sh.sval =
  match v with
  | Sh.S_fun k when k > nfns -> Sh.S_fun 0
  | Sh.S_pair (a, b) -> Sh.S_pair (squash_funs nfns a, squash_funs nfns b)
  | Sh.S_inj_l a -> Sh.S_inj_l (squash_funs nfns a)
  | Sh.S_inj_r a -> Sh.S_inj_r (squash_funs nfns a)
  | _ -> v

(* Constructor-depth bound on pure values in a finished disjunct
   (k-limiting): deeper pair/sum structure is widened to a fresh
   variable.  Without this, recursion over sum-encoded lists unrolls a
   new, deeper disjunct every round and the fixpoint never closes —
   this is the pure-value counterpart of the heap-chain abstraction. *)
let depth_cap = 4

(* Turn one finished symbolic path into a canonical disjunct. *)
let finalize ctx (params : Sh.sval list) ((st, ret) : sst * Sh.sval) :
    disjunct =
  let sh = st.sh in
  let nfns = Array.length ctx.fns in
  let counter = ref sh.Sh.nvar in
  let rec widen d (v : Sh.sval) =
    match v with
    | Sh.S_pair _ | Sh.S_inj_l _ | Sh.S_inj_r _ when d <= 0 ->
      let i = !counter in
      incr counter;
      Sh.S_var i
    | Sh.S_pair (a, b) -> Sh.S_pair (widen (d - 1) a, widen (d - 1) b)
    | Sh.S_inj_l a -> Sh.S_inj_l (widen (d - 1) a)
    | Sh.S_inj_r a -> Sh.S_inj_r (widen (d - 1) a)
    | _ -> v
  in
  let sq v = widen depth_cap (squash_funs nfns (Sh.norm sh v)) in
  let sq_atom a =
    match Sh.norm_atom sh a with
    | Sh.Pts (x, v) -> Sh.Pts (x, sq v)
    | Sh.Lseg (x, v) -> Sh.Lseg (x, sq v)
    | Sh.Junk -> Sh.Junk
  in
  let pre = Sh.abstract_atoms sh (List.rev_map sq_atom st.pre) in
  let post = Sh.abstract_atoms sh (List.map sq_atom sh.Sh.spatial) in
  let params = List.map sq params in
  let ret = sq ret in
  (* prune pure facts to those entirely about the spec's footprint *)
  let rec vids ((vs, bs) as acc) = function
    | Sh.S_var i -> (Iset.add i vs, bs)
    | Sh.S_loc a ->
      (vs, if a.Sh.base = Sh.conc_base then bs else Iset.add a.Sh.base bs)
    | Sh.S_pair (x, y) -> vids (vids acc x) y
    | Sh.S_inj_l x | Sh.S_inj_r x -> vids acc x
    | Sh.S_unit | Sh.S_bool _ | Sh.S_int _ | Sh.S_fun _ -> acc
  in
  let aids acc = function
    | Sh.Pts (x, v) | Sh.Lseg (x, v) ->
      let vs, bs = vids acc v in
      (vs, if x.Sh.base = Sh.conc_base then bs else Iset.add x.Sh.base bs)
    | Sh.Junk -> acc
  in
  let ids = List.fold_left vids (Iset.empty, Iset.empty) (ret :: params) in
  let ids = List.fold_left aids ids pre in
  let vs, bs = List.fold_left aids ids post in
  let neqs =
    List.filter_map
      (fun { Sh.l = a; r = b; _ } ->
        let a = sq a and b = sq b in
        if Sh.apart a b then None (* trivially true after normalization *)
        else
          let nvs, nbs = vids (vids (Iset.empty, Iset.empty) a) b in
          if Iset.subset nvs vs && Iset.subset nbs bs then Some (a, b)
          else None)
      sh.Sh.neqs
  in
  canon
    {
      d_nvar = sh.Sh.nvar;
      d_nbase = sh.Sh.nbase;
      d_neqs = neqs;
      d_params = params;
      d_pre = pre;
      d_ret = ret;
      d_post = post;
    }

(* Join the disjuncts of one round: group by everything but the return
   value, widen differing returns to a fresh variable, dedupe, cap. *)
let join ctx (ds : disjunct list) : disjunct list =
  let tbl = Hashtbl.create 8 and order = ref [] in
  List.iter
    (fun d ->
      let k = (d.d_params, d.d_pre, d.d_post, d.d_neqs) in
      match Hashtbl.find_opt tbl k with
      | None ->
        Hashtbl.add tbl k [ d ];
        order := k :: !order
      | Some g -> Hashtbl.replace tbl k (d :: g))
    ds;
  let merged =
    List.rev_map
      (fun k ->
        match List.rev (Hashtbl.find tbl k) with
        | [] -> assert false
        | [ d ] -> d
        | d :: rest ->
          if List.for_all (fun d' -> d'.d_ret = d.d_ret) rest then d
          else canon { d with d_ret = Sh.S_var max_int })
      !order
  in
  let seen = Hashtbl.create 8 in
  let merged =
    List.filter
      (fun d ->
        if Hashtbl.mem seen d then false
        else begin
          Hashtbl.add seen d ();
          true
        end)
      merged
  in
  if List.length merged > disjunct_cap then begin
    ctx.approx <- true;
    take disjunct_cap merged
  end
  else merged

(* ---------- the symbolic executor ---------- *)

let rec sexec ctx (st : sst) (env : (string * Sh.sval) list) rev_p
    (e : Ast.expr) : (sst * Sh.sval) list =
  if ctx.budget <= 0 then begin
    ctx.approx <- true;
    []
  end
  else begin
    ctx.budget <- ctx.budget - 1;
    match e with
    | Ast.Val v -> [ (st, sval_of_value ctx env v) ]
    | Ast.Var x -> (
      match List.assoc_opt x env with
      | Some v -> [ (st, v) ]
      | None -> (
        match Hashtbl.find_opt ctx.names x with
        | Some fid -> [ (st, Sh.S_fun (fid + 1)) ]
        | None ->
          (* an outer-scope variable the discovery missed: opaque *)
          let sh, v = Sh.fresh_var st.sh in
          [ ({ st with sh }, v) ]))
    | Ast.Rec (f, x, body) -> [ (st, mk_lam ctx env f x body) ]
    | Ast.App (e1, e2) ->
      cap ctx
        (sexec ctx st env (Path.App_fun :: rev_p) e1
        |> List.concat_map (fun (st, vf) ->
               sexec ctx st env (Path.App_arg :: rev_p) e2
               |> List.concat_map (fun (st, va) -> apply ctx st vf va)))
    | Ast.Un_op (op, e1) ->
      cap ctx
        (sexec ctx st env (Path.Un_arg :: rev_p) e1
        |> List.concat_map (fun (st, v) ->
               match (op, Sh.norm st.sh v) with
               | Ast.Neg, Sh.S_bool b -> [ (st, Sh.S_bool (not b)) ]
               | Ast.Neg, (Sh.S_var _ as v') ->
                 List.filter_map
                   (fun b ->
                     Option.map
                       (fun sh -> ({ st with sh }, Sh.S_bool (not b)))
                       (Sh.unify st.sh v' (Sh.S_bool b)))
                   [ true; false ]
               | Ast.Minus, Sh.S_int n -> [ (st, Sh.S_int (-n)) ]
               | Ast.Minus, Sh.S_var _ ->
                 let sh, w = Sh.fresh_var st.sh in
                 [ ({ st with sh }, w) ]
               | _ -> []))
    | Ast.Bin_op (op, e1, e2) ->
      cap ctx
        (sexec ctx st env (Path.Bin_l :: rev_p) e1
        |> List.concat_map (fun (st, v1) ->
               sexec ctx st env (Path.Bin_r :: rev_p) e2
               |> List.concat_map (fun (st, v2) -> binop ctx st op v1 v2)))
    | Ast.If (c, e1, e2) ->
      cap ctx
        (sexec ctx st env (Path.If_cond :: rev_p) c
        |> List.concat_map (fun (st, v) ->
               let then_ st = sexec ctx st env (Path.If_then :: rev_p) e1 in
               let else_ st = sexec ctx st env (Path.If_else :: rev_p) e2 in
               match Sh.norm st.sh v with
               | Sh.S_bool true -> then_ st
               | Sh.S_bool false -> else_ st
               | Sh.S_var _ as v' ->
                 let taken b k =
                   match Sh.unify st.sh v' (Sh.S_bool b) with
                   | Some sh -> k { st with sh }
                   | None -> []
                 in
                 taken true then_ @ taken false else_
               | _ -> []))
    | Ast.Pair_e (e1, e2) ->
      cap ctx
        (sexec ctx st env (Path.Pair_l :: rev_p) e1
        |> List.concat_map (fun (st, v1) ->
               sexec ctx st env (Path.Pair_r :: rev_p) e2
               |> List.map (fun (st, v2) -> (st, Sh.S_pair (v1, v2)))))
    | Ast.Fst e1 -> cap ctx (proj ctx st env rev_p Path.Fst_arg e1 true)
    | Ast.Snd e1 -> cap ctx (proj ctx st env rev_p Path.Snd_arg e1 false)
    | Ast.Inj_l_e e1 ->
      List.map
        (fun (st, v) -> (st, Sh.S_inj_l v))
        (sexec ctx st env (Path.Inj_arg :: rev_p) e1)
    | Ast.Inj_r_e e1 ->
      List.map
        (fun (st, v) -> (st, Sh.S_inj_r v))
        (sexec ctx st env (Path.Inj_arg :: rev_p) e1)
    | Ast.Case (e0, (x, e1), (y, e2)) ->
      cap ctx
        (sexec ctx st env (Path.Case_scrut :: rev_p) e0
        |> List.concat_map (fun (st, v) ->
               let inl st w =
                 sexec ctx st ((x, w) :: env) (Path.Case_inl :: rev_p) e1
               in
               let inr st w =
                 sexec ctx st ((y, w) :: env) (Path.Case_inr :: rev_p) e2
               in
               match Sh.norm st.sh v with
               | Sh.S_inj_l w -> inl st w
               | Sh.S_inj_r w -> inr st w
               | Sh.S_var _ as v' ->
                 let split mk k =
                   let sh, w = Sh.fresh_var st.sh in
                   match Sh.unify sh v' (mk w) with
                   | Some sh -> k { st with sh } w
                   | None -> []
                 in
                 split (fun w -> Sh.S_inj_l w) inl
                 @ split (fun w -> Sh.S_inj_r w) inr
               | _ -> []))
    | Ast.Ref e1 ->
      sexec ctx st env (Path.Ref_arg :: rev_p) e1
      |> List.map (fun (st, v) ->
             let sh, a = Sh.fresh_base st.sh in
             let sh = Sh.add_atom sh (Sh.Pts (a, v)) in
             ( { st with sh; local = Iset.add a.Sh.base st.local },
               Sh.S_loc a ))
    | Ast.Load e1 ->
      cap ctx
        (sexec ctx st env (Path.Load_arg :: rev_p) e1
        |> List.concat_map (fun (st, v) ->
               resolve_addr st v
               |> List.concat_map (fun (st, a) -> read_cell ctx st a)))
    | Ast.Store (e1, e2) ->
      cap ctx
        (sexec ctx st env (Path.Store_l :: rev_p) e1
        |> List.concat_map (fun (st, vl) ->
               sexec ctx st env (Path.Store_r :: rev_p) e2
               |> List.concat_map (fun (st, v) ->
                      resolve_addr st vl
                      |> List.concat_map (fun (st, a) ->
                             List.map
                               (fun st -> (st, Sh.S_unit))
                               (write_cell ctx st a v)))))
    | Ast.Let (x, e1, e2) ->
      cap ctx
        (sexec ctx st env (Path.Let_bound :: rev_p) e1
        |> List.concat_map (fun (st, v) ->
               sexec ctx st ((x, v) :: env) (Path.Let_body :: rev_p) e2))
    | Ast.Seq (e1, e2) ->
      cap ctx
        (sexec ctx st env (Path.Seq_l :: rev_p) e1
        |> List.concat_map (fun (st, _) ->
               sexec ctx st env (Path.Seq_r :: rev_p) e2))
    | Ast.Fork _ ->
      (* the spawned thread may touch anything we own *)
      ctx.approx <- true;
      [ ({ st with sh = Sh.havoc st.sh }, Sh.S_unit) ]
    | Ast.Cas (e1, e2, e3) ->
      cap ctx
        (sexec ctx st env (Path.Cas_loc :: rev_p) e1
        |> List.concat_map (fun (st, vl) ->
               sexec ctx st env (Path.Cas_old :: rev_p) e2
               |> List.concat_map (fun (st, old_v) ->
                      sexec ctx st env (Path.Cas_new :: rev_p) e3
                      |> List.concat_map (fun (st, new_v) ->
                             resolve_addr st vl
                             |> List.concat_map (fun (st, a) ->
                                    cas_cell ctx st a old_v new_v)))))
  end

and proj ctx st env rev_p step e1 first =
  sexec ctx st env (step :: rev_p) e1
  |> List.concat_map (fun ((st, v) : sst * Sh.sval) ->
         match Sh.norm st.sh v with
         | Sh.S_pair (a, b) -> [ (st, if first then a else b) ]
         | Sh.S_var _ as v' -> (
           let sh, a = Sh.fresh_var st.sh in
           let sh, b = Sh.fresh_var sh in
           match Sh.unify sh v' (Sh.S_pair (a, b)) with
           | Some sh -> [ ({ st with sh }, if first then a else b) ]
           | None -> [])
         | _ -> [])

and binop ctx (st : sst) op (v1 : Sh.sval) (v2 : Sh.sval) :
    (sst * Sh.sval) list =
  let n1 = Sh.norm st.sh v1 and n2 = Sh.norm st.sh v2 in
  let fresh () =
    let sh, w = Sh.fresh_var st.sh in
    [ ({ st with sh }, w) ]
  in
  match op with
  | Ast.Add | Ast.Sub | Ast.Mul -> (
    match (n1, n2) with
    | Sh.S_int a, Sh.S_int b ->
      let r =
        match op with Ast.Add -> a + b | Ast.Sub -> a - b | _ -> a * b
      in
      [ (st, Sh.S_int r) ]
    | (Sh.S_var _ | Sh.S_int _), (Sh.S_var _ | Sh.S_int _) -> fresh ()
    | _ -> [])
  | Ast.Quot | Ast.Rem -> (
    match (n1, n2) with
    | (Sh.S_var _ | Sh.S_int _), Sh.S_int 0 ->
      (* total, as [Step]: [n quot 0 = 0], [n rem 0 = n] *)
      [ (st, match op with Ast.Quot -> Sh.S_int 0 | _ -> n1) ]
    | Sh.S_int a, Sh.S_int b ->
      [ (st, Sh.S_int (match op with Ast.Quot -> a / b | _ -> a mod b)) ]
    | (Sh.S_var _ | Sh.S_int _), (Sh.S_var _ | Sh.S_int _) -> fresh ()
    | _ -> [])
  | Ast.Lt | Ast.Le -> (
    match (n1, n2) with
    | Sh.S_int a, Sh.S_int b ->
      [ (st, Sh.S_bool (match op with Ast.Lt -> a < b | _ -> a <= b)) ]
    | (Sh.S_var _ | Sh.S_int _), (Sh.S_var _ | Sh.S_int _) -> fresh ()
    | _ -> [])
  | Ast.Eq -> eq_branches st n1 n2
  | Ast.Ptr_add -> (
    match (n1, n2) with
    | Sh.S_loc a, Sh.S_int n -> [ (st, Sh.S_loc (Sh.addr_shift a n)) ]
    | (Sh.S_var _ as v'), Sh.S_int n ->
      resolve_addr st v'
      |> List.map (fun ((st, a) : sst * Sh.addr) ->
             (st, Sh.S_loc (Sh.addr_shift a n)))
    | (Sh.S_var _ | Sh.S_loc _), Sh.S_var _ ->
      ctx.approx <- true;
      fresh ()
    | _ -> [])

and apply ctx (st : sst) (vf : Sh.sval) (va : Sh.sval) :
    (sst * Sh.sval) list =
  match Sh.norm st.sh vf with
  | Sh.S_fun 0 -> opaque_call ctx st
  | Sh.S_fun k when k <= Array.length ctx.fns -> push_arg ctx st (k - 1) [] va
  | Sh.S_fun k -> (
    match Hashtbl.find_opt ctx.dyn k with
    | Some (D_partial (fid, args)) -> push_arg ctx st fid args va
    | Some (D_lam (f, x, body, cenv)) ->
      let env =
        (x, va)
        :: (match f with None -> cenv | Some f -> (f, Sh.S_fun k) :: cenv)
      in
      sexec ctx st env [] body
    | None -> opaque_call ctx st)
  | Sh.S_var _ -> opaque_call ctx st
  | _ -> []

and push_arg ctx st fid args va =
  let args = args @ [ va ] in
  if List.length args >= List.length ctx.fns.(fid).f_params then
    call_summary ctx st fid args
  else [ (st, mk_dyn ctx (D_partial (fid, args))) ]

and opaque_call ctx st =
  ctx.approx <- true;
  let sh, v = Sh.fresh_var (Sh.havoc st.sh) in
  [ ({ st with sh }, v) ]

and cas_cell ctx st a old_v new_v =
  read_cell ctx st a
  |> List.concat_map (fun ((st, cur) : sst * Sh.sval) ->
         let cur = Sh.norm st.sh cur and old_v = Sh.norm st.sh old_v in
         if contains_fun cur || contains_fun old_v then []
         else
           let eq_case =
             match Sh.unify st.sh cur old_v with
             | None -> []
             | Some sh ->
               List.map
                 (fun st -> (st, Sh.S_bool true))
                 (write_cell ctx { st with sh } a new_v)
           in
           let ne_case =
             match Sh.add_neq st.sh cur old_v with
             | None -> []
             | Some sh -> [ ({ st with sh }, Sh.S_bool false) ]
           in
           eq_case @ ne_case)

(* Apply one summary disjunct of the callee at a call site: import the
   disjunct with fresh identifiers, unify formals with actuals,
   subtract the precondition (anti-frame goes to our own precondition —
   bi-abduction composes), then conjoin the postcondition. *)
and call_summary ctx (st : sst) fid (args : Sh.sval list) :
    (sst * Sh.sval) list =
  ctx.reads <- Iset.add fid ctx.reads;
  let disjs = ctx.cand.(fid) in
  if disjs = [] then begin
    (* no candidate yet (first round of a recursive cycle): cut *)
    ctx.approx <- true;
    []
  end
  else
    List.concat_map
      (fun d ->
        let sh0 = st.sh in
        let fv i = i + sh0.Sh.nvar and fb b = b + sh0.Sh.nbase in
        let mval = Sh.map_ids fv fb and matom = Sh.map_atom fv fb in
        let sh =
          {
            sh0 with
            Sh.nvar = sh0.Sh.nvar + d.d_nvar;
            nbase = sh0.Sh.nbase + d.d_nbase;
          }
        in
        let sh_opt =
          List.fold_left
            (fun acc (a, b) ->
              Option.bind acc (fun sh -> Sh.add_neq sh (mval a) (mval b)))
            (Some sh) d.d_neqs
        in
        let sh_opt =
          List.fold_left2
            (fun acc p a -> Option.bind acc (fun sh -> Sh.unify sh (mval p) a))
            sh_opt d.d_params args
        in
        match sh_opt with
        | None -> []
        | Some sh -> (
          match Sh.subtract sh (List.map matom d.d_pre) with
          | None -> []
          | Some (sh, missing) ->
            let abducible = function
              | Sh.Pts (x, _) | Sh.Lseg (x, _) ->
                let b = (Sh.norm_addr sh x).Sh.base in
                (not (Iset.mem b st.local)) && b <> Sh.conc_base
              | Sh.Junk -> false
            in
            if not (List.for_all abducible missing) then []
            else
              let st =
                { st with sh; pre = List.rev_append missing st.pre }
              in
              let sh =
                List.fold_left
                  (fun sh a -> Sh.add_atom sh (matom a))
                  st.sh d.d_post
              in
              [ ({ st with sh }, Sh.norm sh (mval d.d_ret)) ]))
      disjs

(* ---------- function discovery and the fixpoint ---------- *)

let max_params = 3

let discover (prog : Ast.expr) : fn list =
  List.rev
    (Path.fold
       (fun acc p e ->
         match e with
         | Ast.Rec (self, x, body) -> (
           let let_name =
             match List.rev p with
             | Path.Let_bound :: rev_parent -> (
               match Path.get prog (List.rev rev_parent) with
               | Some (Ast.Let (n, _, _)) -> Some n
               | _ -> None)
             | _ -> None
           in
           match (match let_name with Some _ -> let_name | None -> self) with
           | None -> acc
           | Some name ->
             let rec peel params body rev_body n =
               match body with
               | Ast.Rec (None, y, inner) when n < max_params ->
                 peel (params @ [ y ]) inner
                   (Path.Rec_body :: rev_body)
                   (n + 1)
               | _ -> (params, body, rev_body)
             in
             let params, fbody, rev_body =
               peel [ x ] body (Path.Rec_body :: List.rev p) 1
             in
             {
               f_name = name;
               f_path = p;
               f_params = params;
               f_self = self;
               f_body = fbody;
               f_rev_body = rev_body;
             }
             :: acc)
         | _ -> acc)
       [] prog)

let names_of (fns : fn list) : (string, int) Hashtbl.t =
  let tbl = Hashtbl.create 8 and bad = Hashtbl.create 8 in
  List.iteri
    (fun i (f : fn) ->
      let add n =
        if Hashtbl.mem bad n then ()
        else if Hashtbl.mem tbl n then begin
          Hashtbl.remove tbl n;
          Hashtbl.replace bad n ()
        end
        else Hashtbl.replace tbl n i
      in
      add f.f_name;
      match f.f_self with
      | Some s when s <> f.f_name -> add s
      | _ -> ())
    fns;
  tbl

let context (fns : fn array) : sctx =
  let n = Array.length fns in
  {
    fns;
    names = names_of (Array.to_list fns);
    cand = Array.make n [];
    reads = Iset.empty;
    budget = 0;
    approx = false;
    dyn = Hashtbl.create 16;
    ndyn = n + 1;
  }

(* One analysis of one function against [ctx.cand].  Every other piece
   of [ctx] it touches is reset first, so the result (and [ctx.approx],
   [ctx.reads] afterwards) depends only on the [cand] entries it reads:
   the same reads give the same run. *)
let analyze_fn ctx ~budget fid : disjunct list =
  ctx.reads <- Iset.empty;
  ctx.approx <- false;
  ctx.budget <- budget;
  Hashtbl.reset ctx.dyn;
  ctx.ndyn <- Array.length ctx.fns + 1;
  let f = ctx.fns.(fid) in
  let sh, param_vs =
    List.fold_left
      (fun (sh, acc) _ ->
        let sh, v = Sh.fresh_var sh in
        (sh, v :: acc))
      (Sh.empty, []) f.f_params
  in
  let param_vs = List.rev param_vs in
  (* captured variables get one stable symbolic value each *)
  let bound =
    f.f_params @ (match f.f_self with Some s -> [ s ] | None -> [])
  in
  let captured =
    Ast.Sset.elements
      (List.fold_left
         (fun s x -> Ast.Sset.remove x s)
         (Ast.free_vars f.f_body) bound)
  in
  let sh, env_cap =
    List.fold_left
      (fun (sh, acc) n ->
        if Hashtbl.mem ctx.names n then (sh, acc)
        else
          let sh, v = Sh.fresh_var sh in
          (sh, (n, v) :: acc))
      (sh, []) captured
  in
  let env =
    List.combine f.f_params param_vs
    @ (match f.f_self with
      | Some s -> [ (s, Sh.S_fun (fid + 1)) ]
      | None -> [])
    @ env_cap
  in
  let st0 = { sh; pre = []; local = Iset.empty } in
  let finished = sexec ctx st0 env f.f_rev_body f.f_body in
  join ctx (List.map (finalize ctx param_vs) finished)

let fix_rounds = 6
let fn_budget = 2000
let m_analyses = Metrics.counter "analysis.symheap.fn_analyses"
let m_reused = Metrics.counter "analysis.symheap.fn_reused"

(** Infer candidate summaries for every discovered function by
    round-robin fixpoint iteration (Jacobi: each round reads the
    previous round's summaries).  From the second round on, a function
    is re-analyzed only when a summary its last analysis read changed
    in the previous round; otherwise {!analyze_fn} would repeat that
    run, so its result is kept and counts as stable. *)
let summaries (prog : Ast.expr) : summary list =
  let fns = Array.of_list (discover prog) in
  let n = Array.length fns in
  if n = 0 then []
  else begin
    let ctx = context fns in
    let exact = Array.make n true in
    let stable = Array.make n false in
    (* the read set of each function's last analysis; None before it *)
    let reads = Array.make n None in
    let analyses = ref 0 and reused = ref 0 in
    (try
       for _round = 1 to fix_rounds do
         (* last round's stability bits, fixed for this round (Jacobi) *)
         let was_stable = Array.copy stable in
         let next = Array.make n [] in
         for fid = 0 to n - 1 do
           match reads.(fid) with
           | Some r when Iset.for_all (Array.get was_stable) r ->
             incr reused;
             stable.(fid) <- true;
             next.(fid) <- ctx.cand.(fid)
           | _ ->
             incr analyses;
             let ds = analyze_fn ctx ~budget:fn_budget fid in
             reads.(fid) <- Some ctx.reads;
             exact.(fid) <- not ctx.approx;
             stable.(fid) <- ds = ctx.cand.(fid);
             next.(fid) <- ds
         done;
         Array.blit next 0 ctx.cand 0 n;
         if Array.for_all (fun b -> b) stable then raise Exit
       done
     with Exit -> ());
    Metrics.add m_analyses !analyses;
    Metrics.add m_reused !reused;
    List.mapi
      (fun fid (f : fn) ->
        {
          s_name = f.f_name;
          s_path = f.f_path;
          s_params = f.f_params;
          s_exact = exact.(fid) && stable.(fid);
          s_disjuncts = ctx.cand.(fid);
        })
      (Array.to_list fns)
  end

(* ---------- rendering summaries ---------- *)

let disjunct_to_string ~(name : string) ~(params : string list)
    (d : disjunct) : string =
  let pnames =
    List.concat
      (List.map2
         (fun sv n -> match sv with Sh.S_var i -> [ (i, n) ] | _ -> [])
         d.d_params params)
  in
  let var_name i = List.assoc_opt i pnames in
  let sval = Sh.string_of_sval ~var_name and atom = Sh.string_of_atom ~var_name in
  let pures =
    List.map
      (fun (a, b) -> Printf.sprintf "%s != %s" (sval a) (sval b))
      d.d_neqs
  in
  let pre_parts = pures @ List.map atom d.d_pre in
  let pre = match pre_parts with [] -> "emp" | l -> String.concat " * " l in
  let post_parts =
    Printf.sprintf "ret=%s" (sval d.d_ret) :: List.map atom d.d_post
  in
  Printf.sprintf "{%s} %s(%s) {%s}" pre name
    (String.concat ", " (List.map sval d.d_params))
    (String.concat " * " post_parts)

let summary_to_string (s : summary) : string =
  match s.s_disjuncts with
  | [] ->
    Printf.sprintf "%s: no summary (no finished path within bounds)" s.s_name
  | ds ->
    let body =
      String.concat " \\/ "
        (List.map (disjunct_to_string ~name:s.s_name ~params:s.s_params) ds)
    in
    if s.s_exact then body else "[approx] " ^ body

(* ================================================================== *)
(* The pass                                                            *)
(* ================================================================== *)

type result = {
  r_verdict : verdict;
  r_findings : F.t list;  (** concrete errors and leaks, unsorted *)
  r_leaked : (int * Path.t) list;  (** leaked location and its alloc site *)
  r_steps : int;  (** nodes the concrete checker visited *)
  r_summaries : summary list;
}

let default_budget = 4000

(** The concrete half alone: verdict, findings, leaks and node count of
    the whole-program checker; [r_summaries] is empty. *)
let concrete (e : Ast.expr) : result =
  let st =
    {
      cells = Imap.empty;
      cnext = 0;
      fuel = default_budget;
      visited = 0;
      sites = Hashtbl.create 16;
      findings = [];
    }
  in
  let verdict, leaked =
    match ceval st [] [] e with
    | v ->
      (* completed: find unreachable allocations (leaks) *)
      let roots = rval_locs_acc Iset.empty v in
      let seen = Hashtbl.create 16 in
      let rec visit l =
        if not (Hashtbl.mem seen l) then begin
          Hashtbl.add seen l ();
          match Imap.find_opt l st.cells with
          | None -> ()
          | Some w -> Iset.iter visit (rval_locs_acc Iset.empty w)
        end
      in
      Iset.iter visit roots;
      let leaked =
        Imap.fold
          (fun l _ acc ->
            if Hashtbl.mem seen l then acc
            else
              match Hashtbl.find_opt st.sites l with
              | Some site -> (l, site) :: acc
              | None -> acc)
          st.cells []
      in
      let leaked = List.rev leaked in
      let site_seen = Hashtbl.create 8 in
      List.iter
        (fun (_, site) ->
          if not (Hashtbl.mem site_seen site) then begin
            Hashtbl.add site_seen site ();
            st.findings <-
              F.make ~id:"symheap/leak" ~severity:F.Info ~path:site
                "allocation is unreachable from the final value (leak)"
              :: st.findings
          end)
        leaked;
      (Safe, leaked)
    | exception Cstuck -> (Unsafe, [])
    | exception Cunknown -> (Unknown, [])
  in
  {
    r_verdict = verdict;
    r_findings = List.rev st.findings;
    r_leaked = leaked;
    r_steps = st.visited;
    r_summaries = [];
  }

(** Run both halves of the analyzer on a whole program. *)
let check (e : Ast.expr) : result =
  { (concrete e) with r_summaries = summaries e }

(** The analyzer-pass entry point: concrete errors and leaks, plus one
    [Info] finding per inferred function summary. *)
let run (e : Ast.expr) : F.t list =
  let r = check e in
  let summary_findings =
    List.map
      (fun s ->
        F.makef ~id:"symheap/summary" ~severity:F.Info ~path:s.s_path
          "%s" (summary_to_string s))
      r.r_summaries
  in
  r.r_findings @ summary_findings

(* ---------- stable JSON (tfiris-symheap/1) ---------- *)

let atom_json a = Json.Str (Sh.string_of_atom a)

let disjunct_to_json (d : disjunct) : Json.t =
  Json.Obj
    [
      ( "pure",
        Json.List
          (List.map
             (fun (a, b) ->
               Json.Str
                 (Printf.sprintf "%s != %s" (Sh.string_of_sval a)
                    (Sh.string_of_sval b)))
             d.d_neqs) );
      ("pre", Json.List (List.map atom_json d.d_pre));
      ( "params",
        Json.List
          (List.map (fun v -> Json.Str (Sh.string_of_sval v)) d.d_params) );
      ("ret", Json.Str (Sh.string_of_sval d.d_ret));
      ("post", Json.List (List.map atom_json d.d_post));
    ]

let summary_to_json (s : summary) : Json.t =
  Json.Obj
    [
      ("name", Json.Str s.s_name);
      ("path", Json.Str (Path.to_string s.s_path));
      ("params", Json.List (List.map (fun p -> Json.Str p) s.s_params));
      ("exact", Json.Bool s.s_exact);
      ("rendered", Json.Str (summary_to_string s));
      ("specs", Json.List (List.map disjunct_to_json s.s_disjuncts));
    ]

let to_json ~(label : string) (r : result) : Json.t =
  Json.Obj
    [
      ("schema", Json.Str "tfiris-symheap/1");
      ("program", Json.Str label);
      ("verdict", Json.Str (verdict_to_string r.r_verdict));
      ("steps", Json.Int r.r_steps);
      ( "leaks",
        Json.List
          (List.map
             (fun (l, site) ->
               Json.Obj
                 [
                   ("loc", Json.Int l);
                   ("site", Json.Str (Path.to_string site));
                 ])
             r.r_leaked) );
      ("functions", Json.List (List.map summary_to_json r.r_summaries));
    ]
