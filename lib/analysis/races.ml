(** Pass 4: a static race detector for concurrent SHL ([Shl.Conc]).

    A flow-insensitive, Andersen-style points-to analysis assigns every
    expression a set of {e atoms} — allocation sites and function
    nodes, both named by {!Tfiris_shl.Path} — and propagates them
    through variables, the heap, and function summaries to a fixpoint.
    Every [!]/[:=]/[cas] is then recorded as an {e access} together
    with the {e thread context} that performs it: the main thread, or
    the thread spawned at a given [fork] site (the escape analysis is
    implicit: a site is shared exactly when its accesses span more than
    one context).

    A {e race} is a pair of accesses to the same allocation site from
    distinct contexts of which at least one is a plain (non-[cas])
    write.  [cas] is the synchronization primitive, so cas/cas and
    cas/read pairs are not races, but a plain write racing a [cas] is
    ([race/write-write]) — which is why a spin lock whose release is a
    plain store is still flagged: the release store really does race
    with the other thread's acquiring [cas] in the interleaved
    semantics.

    Soundness caveats (documented in DESIGN.md): contexts are keyed by
    fork {e site}, so two dynamic threads spawned by re-executing the
    same [fork] are identified — races among them are missed; variables
    are merged by name across scopes, which only adds imprecision, not
    unsoundness.  All findings are warnings: the analysis
    over-approximates reachability and branch feasibility.

    {!dynamic_races} is the validation oracle: a breadth-first
    enumeration of every interleaving (as in {!Tfiris_shl.Conc.explore_all})
    that reports the conflicting next-redex pairs it actually observes.
    The test suite checks that every dynamically observed race is
    statically reported. *)

open Tfiris_shl
open Ast
module F = Finding
module Smap = Map.Make (String)

(* ------------------------------------------------------------------ *)
(* Atoms, contexts, accesses                                           *)
(* ------------------------------------------------------------------ *)

type atom =
  | A_site of Path.t  (** the cell(s) allocated at this [ref] *)
  | A_fn of Path.t

module Aset = Set.Make (struct
  type t = atom

  let compare = compare
end)

type ctx =
  | C_main
  | C_forked of Path.t  (** the thread spawned at this [fork] site *)

let ctx_to_string = function
  | C_main -> "main thread"
  | C_forked p -> "thread forked at " ^ Path.to_string p

type akind =
  | Read
  | Write
  | Cas_write

let akind_to_string = function
  | Read -> "read"
  | Write -> "write"
  | Cas_write -> "cas"

type access = {
  actx : ctx;
  kind : akind;
  site : Path.t;  (** allocation site accessed *)
  at : Path.t;  (** program point of the access *)
}

type race = {
  r_site : Path.t;
  a : access;
  b : access;
}

type result = {
  accesses : access list;
  shared : Path.t list;  (** sites accessed from more than one context *)
  races : race list;
}

(* ------------------------------------------------------------------ *)
(* The points-to fixpoint                                              *)
(* ------------------------------------------------------------------ *)

type fn_info = {
  param : string;
  body : expr;
  body_rev : Path.step list;
  mutable result : Aset.t;
  mutable ctxs : ctx list;  (** contexts the function is called from *)
}

type state = {
  pts : (string, Aset.t) Hashtbl.t;
  heap : (Path.t, Aset.t) Hashtbl.t;
  fns : fn_info Fixpoint.t;
  mutable dirty : bool;
  mutable recording : bool;
  mutable accesses : access list;
}

let create () =
  {
    pts = Hashtbl.create 32;
    heap = Hashtbl.create 32;
    fns = Fixpoint.create ();
    dirty = false;
    recording = false;
    accesses = [];
  }

let get_set tbl k = Option.value ~default:Aset.empty (Hashtbl.find_opt tbl k)

let add_set st tbl k v =
  let old = get_set tbl k in
  if not (Aset.subset v old) then begin
    st.dirty <- true;
    Hashtbl.replace tbl k (Aset.union old v)
  end

let record st acc = if st.recording then st.accesses <- acc :: st.accesses

let register_fn st path self param body body_rev =
  ignore
    (Fixpoint.register st.fns path
       { param; body; body_rev; result = Aset.empty; ctxs = [] });
  (match self with
  | Some f -> add_set st st.pts f (Aset.singleton (A_fn path))
  | None -> ());
  Aset.singleton (A_fn path)

(* Record and perform a write of [v] through the sites among [l]. *)
let write st c kind at l v =
  Aset.iter
    (function
      | A_site s ->
        record st { actx = c; kind; site = s; at = at () };
        add_set st st.heap s v
      | A_fn _ -> ())
    l

let rec eval st (c : ctx) (rev_p : Path.step list) (e : expr) : Aset.t =
  let path () = List.rev rev_p in
  let sub step e' = eval st c (step :: rev_p) e' in
  let union_children () =
    List.fold_left
      (fun acc (step, child) -> Aset.union acc (sub step child))
      Aset.empty (Path.children e)
  in
  match e with
  | Val (Rec_fun (f, x, body)) ->
    register_fn st (path ()) f x body (Path.Val_body :: rev_p)
  | Rec (f, x, body) ->
    register_fn st (path ()) f x body (Path.Rec_body :: rev_p)
  | Val _ -> Aset.empty
  | Var x -> get_set st.pts x
  | App (e1, e2) ->
    let af = sub Path.App_fun e1 in
    let aa = sub Path.App_arg e2 in
    (* the result conservatively includes the argument's atoms, which
       also covers opaque callees returning their argument *)
    Aset.fold
      (fun atom acc ->
        match atom with
        | A_fn p -> (
          match Fixpoint.find st.fns p with
          | None -> acc
          | Some fi ->
            add_set st st.pts fi.param aa;
            if not (List.mem c fi.ctxs) then begin
              fi.ctxs <- c :: fi.ctxs;
              st.dirty <- true
            end;
            Aset.union acc fi.result)
        | A_site _ -> acc)
      af aa
  | Ref e1 ->
    let v = sub Path.Ref_arg e1 in
    let site = path () in
    add_set st st.heap site v;
    Aset.singleton (A_site site)
  | Load e1 ->
    let a = sub Path.Load_arg e1 in
    Aset.fold
      (fun atom acc ->
        match atom with
        | A_site s ->
          record st { actx = c; kind = Read; site = s; at = path () };
          Aset.union acc (get_set st.heap s)
        | A_fn _ -> acc)
      a Aset.empty
  | Store (e1, e2) ->
    let l = sub Path.Store_l e1 in
    write st c Write path l (sub Path.Store_r e2);
    Aset.empty
  | Cas (e1, e2, e3) ->
    let l = sub Path.Cas_loc e1 in
    let _ = sub Path.Cas_old e2 in
    write st c Cas_write path l (sub Path.Cas_new e3);
    Aset.empty
  | Fork e1 ->
    ignore (eval st (C_forked (path ())) (Path.Fork_body :: rev_p) e1);
    Aset.empty
  | Let (x, e1, e2) ->
    add_set st st.pts x (sub Path.Let_bound e1);
    sub Path.Let_body e2
  | Case (e0, (x, e1), (y, e2)) ->
    let a0 = sub Path.Case_scrut e0 in
    add_set st st.pts x a0;
    add_set st st.pts y a0;
    Aset.union (sub Path.Case_inl e1) (sub Path.Case_inr e2)
  | _ -> union_children ()

(* One whole-program sweep: the root in the main context, then every
   function body, in registration order, in every context it is called
   from.  It says whether it moved a table or met a new function. *)
let sweep st e =
  let known = Fixpoint.length st.fns in
  st.dirty <- false;
  ignore (eval st C_main [] e);
  Fixpoint.iter
    (fun fi ->
      List.iter
        (fun c ->
          let r = eval st c fi.body_rev fi.body in
          if not (Aset.subset r fi.result) then begin
            fi.result <- Aset.union fi.result r;
            st.dirty <- true
          end)
        fi.ctxs)
    st.fns;
  st.dirty || Fixpoint.length st.fns > known

(** The most points-to sweeps {!analyze} runs before recording. *)
let max_rounds = 100

(* Two accesses to one site from distinct contexts. *)
let shares (a : access) (b : access) =
  Path.equal a.site b.site && a.actx <> b.actx

let conflicting a b = shares a b && (a.kind = Write || b.kind = Write)

(* The recording sweep over the points-to tables [st] holds, and the
   accesses, shared sites and races it finds. *)
let recorded st e : result =
  st.recording <- true;
  ignore (sweep st e);
  (* dedup accesses (the recording sweep visits shared bodies once per
     calling context, but identical records can still repeat) *)
  let accesses = List.sort_uniq compare st.accesses in
  let rec pairs = function
    | [] -> []
    | a :: rest ->
      List.filter_map
        (fun b ->
          if conflicting a b then Some { r_site = a.site; a; b } else None)
        rest
      @ pairs rest
  in
  let shared =
    List.sort_uniq Path.compare
      (List.filter_map
         (fun a ->
           if List.exists (shares a) accesses then Some a.site else None)
         accesses)
  in
  { accesses; shared; races = pairs accesses }

(* The union only grows and nothing widens, so the least fixpoint does
   not depend on the sweep order, and a clean sweep hands the next one
   the same tables. *)
let analyze (e : expr) : result =
  let st = create () in
  ignore (Fixpoint.loop ~cap:max_rounds (fun () -> sweep st e) : int * bool);
  recorded st e

(* Whether a [fork] is reachable through {!Path.children}, the walk
   {!eval} makes (function bodies included).  Contexts other than
   [C_main] are created only at a [Fork], and {!conflicting} needs two
   contexts, so a program with no fork has no race and {!run} skips the
   points-to fixpoint.  [findings (analyze e)] is its oracle. *)
let rec has_fork (e : expr) =
  match e with
  | Fork _ -> true
  | _ -> List.exists (fun (_, child) -> has_fork child) (Path.children e)

(** The findings of a full analysis: one warning per race. *)
let findings (r : result) : F.t list =
  List.map
    (fun { r_site; a; b } ->
      let both_write k = k = Write || k = Cas_write in
      let id =
        if both_write a.kind && both_write b.kind then "race/write-write"
        else "race/read-write"
      in
      F.makef ~id ~severity:F.Warning ~path:a.at
        "possible data race on the cell allocated at %s: %s at %s (%s) vs \
         %s at %s (%s)"
        (Path.to_string r_site) (akind_to_string a.kind)
        (Path.to_string a.at) (ctx_to_string a.actx)
        (akind_to_string b.kind) (Path.to_string b.at)
        (ctx_to_string b.actx))
    r.races
  |> List.sort F.compare

let run (e : expr) : F.t list = if has_fork e then findings (analyze e) else []

(* ------------------------------------------------------------------ *)
(* The dynamic oracle                                                  *)
(* ------------------------------------------------------------------ *)

type dyn_kind =
  | D_read
  | D_write
  | D_cas

type dyn_race = {
  d_loc : Ast.loc;
  k1 : dyn_kind;
  k2 : dyn_kind;
}

(* The machine keeps each thread focused on its head redex, so the
   next access is an O(1) view instead of a decompose per thread per
   explored state. *)
let redex_access (th : Machine.t) : (Ast.loc * dyn_kind) option =
  match Machine.view th with
  | Machine.V_value _ -> None
  | Machine.V_redex redex -> (
    match redex with
    | Load (Val (Loc l)) -> Some (l, D_read)
    | Store (Val (Loc l), Val _) -> Some (l, D_write)
    | Cas (Val (Loc l), Val _, Val _) -> Some (l, D_cas)
    | _ -> None)

(* The state cap of the dynamic oracle's exploration. *)
let dynamic_states = 20_000

(** Report every pair of {e simultaneously enabled} conflicting
    next-redexes: same location, distinct threads, at least one plain
    write.  Returns deduplicated (location, kind, kind) triples.

    The enumeration rides {!Conc.explore_all}'s frontier callback
    instead of a private BFS, so the oracle and the exhaustive checker
    can never diverge on reachability again.  It needs the full
    interleaving graph: {!Conc.explore}'s reduction keeps the terminal
    outcomes, not every reachable state, and a co-enabled pair is a
    property of one state. *)
let dynamic_races (e : expr) : dyn_race list =
  let out = Hashtbl.create 16 in
  let scan (c : Conc.cfg) =
    let accs =
      List.filteri (fun i _ -> List.mem i (Conc.runnable c))
        (List.mapi (fun i t -> (i, redex_access t)) c.Conc.threads)
    in
    let accs = List.filter_map (fun (i, a) -> Option.map (fun a -> (i, a)) a) accs in
    let rec pairs = function
      | [] -> ()
      | (i, (l1, k1)) :: rest ->
        List.iter
          (fun (j, (l2, k2)) ->
            if i <> j && l1 = l2 && (k1 = D_write || k2 = D_write) then
              Hashtbl.replace out (l1, min k1 k2, max k1 k2) ())
          rest;
        pairs rest
    in
    pairs accs
  in
  let (_ : Conc.exploration) =
    Conc.explore_all
      ~budget:(Tfiris_robust.Budget.of_states dynamic_states)
      ~on_state:scan (Conc.init e)
  in
  Hashtbl.fold (fun (l, k1, k2) () acc -> { d_loc = l; k1; k2 } :: acc) out []
  |> List.sort compare
