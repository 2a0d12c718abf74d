(** Pass 2: a generic monotone dataflow / abstract-interpretation
    engine over the SHL AST.

    The engine is parametric in a {e value domain} — a join-semilattice
    of abstract values with transfer functions for SHL's operators and
    a widening hook ({!VALUE_DOMAIN}).  {!Engine} interprets a whole
    program abstractly:

    - environments are flow-sensitive maps from variables to abstract
      values;
    - every function ([rec]/[fun]) gets a {e summary} keyed by its
      {!Tfiris_shl.Path}: the join of all argument abstractions it has
      been applied to, its captured environment, and the join of its
      results.  Calls evaluate the callee's body under the summary
      parameter (with a re-entrancy guard for recursion), so the whole
      analysis is a monotone fixpoint over the summary table, iterated
      in Kleene rounds with widening after {!widen_after} rounds;
    - heap cells are summarized per allocation site (the path of the
      [ref]), flow-insensitively;
    - branches whose condition has a definite abstract truth value are
      reported unreachable and not analyzed further, which is what
      makes constant propagation useful as a lint.

    Soundness caveats (see DESIGN.md): location arithmetic ([+l]) is
    assumed to stay within the block of its base pointer, and unknown
    callees (closures loaded through unknown locations) are not
    re-analyzed at the call site — every syntactically present function
    body is, however, analyzed at least once (with ⊤ parameters if it
    was never applied), so no subexpression escapes the checks. *)

open Tfiris_shl
open Ast
module F = Finding
module Metrics = Tfiris_obs.Metrics

(* ------------------------------------------------------------------ *)
(* Join-semilattices and fixpoints                                     *)
(* ------------------------------------------------------------------ *)

type 'a lattice = {
  name : string;
  bottom : 'a;
  equal : 'a -> 'a -> bool;
  join : 'a -> 'a -> 'a;
  widen : 'a -> 'a -> 'a;
      (** [widen old next]: an upper bound of both that guarantees
          stabilization of ascending chains; [join] is a legal widening
          for finite-height lattices. *)
}

(** Rounds that join before the engine switches to [widen]. *)
let widen_after = 4

(** The most rounds {!Engine.analyze} runs; a loop that is still dirty
    then gets one more, reporting round. *)
let max_rounds = 24

(* ------------------------------------------------------------------ *)
(* Value domains                                                       *)
(* ------------------------------------------------------------------ *)

module type VALUE_DOMAIN = sig
  type t

  val name : string
  (** Pass name; finding ids are ["<name>/..."]. *)

  val lattice : t lattice
  val top : t

  val const : Ast.value -> t
  (** Abstraction of a literal (closures never reach here — the engine
      tracks them separately). *)

  val loc : t
  (** Abstraction of "some location". *)

  val un_op : Ast.un_op -> t -> t
  val bin_op : Ast.bin_op -> t -> t -> t

  val truth : t -> bool option
  (** Definite truth value of a condition, if the domain knows it. *)

  val case_split : t -> t option * t option
  (** Payload abstractions for the [inl]/[inr] branches of a match;
      [None] marks a branch as unreachable. *)

  val pair : t -> t -> t
  val fst_ : t -> t
  val snd_ : t -> t
  val inj_l : t -> t
  val inj_r : t -> t

  val check : Ast.bin_op -> t -> t -> (string * F.severity * string) list
  (** Domain-specific operator checks: [(defect, severity, message)];
      the finding id becomes ["<name>/<defect>"]. *)

  val to_string : t -> string
end

(* ------------------------------------------------------------------ *)
(* The abstract interpreter                                            *)
(* ------------------------------------------------------------------ *)

module Pset = Set.Make (struct
  type t = Path.t

  let compare = Path.compare
end)

module Smap = Map.Make (String)

module Engine (D : VALUE_DOMAIN) = struct
  (* An abstract value: the domain component plus the sets of function
     handles and allocation sites that may flow here (both identified
     by path). *)
  (* The allocation sites a value may point to.  [Any_sites] is the
     explicit ⊤: an unknown pointer (an input, or any [+l] offset,
     which may cross into a sibling allocation).  Keeping ⊤ explicit
     matters — joining a known site set with an offset pointer must not
     quietly forget the unknown part. *)
  type sites =
    | Known_sites of Pset.t
    | Any_sites

  let sites_union s1 s2 =
    match (s1, s2) with
    | Any_sites, _ | _, Any_sites -> Any_sites
    | Known_sites a, Known_sites b -> Known_sites (Pset.union a b)

  let sites_equal s1 s2 =
    match (s1, s2) with
    | Any_sites, Any_sites -> true
    | Known_sites a, Known_sites b -> Pset.equal a b
    | _ -> false

  type aval = {
    d : D.t;
    fns : Pset.t;
    sites : sites;
  }

  let no_sites = Known_sites Pset.empty
  let bot = { d = D.lattice.bottom; fns = Pset.empty; sites = no_sites }
  let top_v = { d = D.top; fns = Pset.empty; sites = Any_sites }
  let of_d d = { d; fns = Pset.empty; sites = no_sites }

  let join a b =
    {
      d = D.lattice.join a.d b.d;
      fns = Pset.union a.fns b.fns;
      sites = sites_union a.sites b.sites;
    }

  let widen a b =
    {
      d = D.lattice.widen a.d b.d;
      fns = Pset.union a.fns b.fns;
      sites = sites_union a.sites b.sites;
    }

  let equal a b =
    D.lattice.equal a.d b.d && Pset.equal a.fns b.fns
    && sites_equal a.sites b.sites

  let is_bot a = equal a bot

  type summary = {
    fn_path : Path.t;
    self : string option;
    param : string;
    body : Ast.expr;
    fv : Ast.Sset.t;  (** free variables of [body], the ones captured *)
    body_step : Path.step;  (** [Rec_body] or [Val_body] *)
    mutable cap_env : aval Smap.t;  (** captured environment, joined *)
    mutable param_in : aval;
    mutable result : aval;
    mutable real_called : bool;
        (** applied at a call site (as opposed to the synthetic ⊤
            application every round gives never-called functions) *)
  }

  type state = {
    mutable summaries : (Path.t * summary) list;
    heap : (Path.t, aval) Hashtbl.t;  (** allocation site -> content *)
    mutable dirty : bool;  (** any monotone table moved this round *)
    mutable newly_called : bool;
        (** a summary's [real_called] was set this round: the next round
            stops applying it to ⊤, so it may read differently *)
    mutable round : int;
    mutable havoc : bool;
        (** a store went through a pointer with unknown sites: heap
            contents can no longer be trusted *)
    mutable report : F.t list;  (** this round's findings, newest first *)
    reported : (string * Path.t, unit) Hashtbl.t;
    in_progress : (Path.t, unit) Hashtbl.t;
        (** functions whose body is being analyzed: the recursion guard *)
  }

  let create () =
    {
      summaries = [];
      heap = Hashtbl.create 32;
      dirty = true;
      newly_called = false;
      round = 0;
      havoc = false;
      report = [];
      reported = Hashtbl.create 32;
      in_progress = Hashtbl.create 16;
    }

  let find_summary st p = List.assoc_opt p st.summaries

  let combine st old next =
    if st.round < widen_after then join old next else widen old next

  let bump st old next =
    let j = combine st old next in
    if not (equal old j) then st.dirty <- true;
    j

  let heap_get st site =
    if st.havoc then top_v
    else Option.value ~default:bot (Hashtbl.find_opt st.heap site)

  (* After a havoc [heap_get] never reads the table again, so a store
     can change nothing observable: it neither writes nor dirties the
     round (a closure stored against [top_v] would otherwise move the
     joined [fns] every round and hold the loop to [max_rounds]). *)
  let heap_join st site v =
    if not st.havoc then
      Hashtbl.replace st.heap site (bump st (heap_get st site) v)

  let report st ~id ~severity ~path msg =
    let key = (id, path) in
    if not (Hashtbl.mem st.reported key) then begin
      Hashtbl.replace st.reported key ();
      st.report <- F.make ~id ~severity ~path msg :: st.report
    end

  let fid defect = D.name ^ "/" ^ defect

  (* Register (or refresh) the summary of a function node. *)
  let summarize st rev_p (f, x, body) body_step env =
    let fn_path = List.rev rev_p in
    let s =
      match find_summary st fn_path with
      | Some s -> s
      | None ->
        let s =
          {
            fn_path;
            self = f;
            param = x;
            body;
            fv = Ast.free_vars body;
            body_step;
            cap_env = Smap.empty;
            param_in = bot;
            result = bot;
            real_called = false;
          }
        in
        st.summaries <- (fn_path, s) :: st.summaries;
        st.dirty <- true;
        s
    in
    (* capture the free variables of the body from the defining env *)
    Smap.iter
      (fun v a ->
        if Ast.Sset.mem v s.fv then
          s.cap_env <-
            Smap.update v
              (function
                | None ->
                  st.dirty <- true;
                  Some a
                | Some old -> Some (bump st old a))
              s.cap_env)
      env;
    s

  let rec eval (st : state) (env : aval Smap.t) (rev_p : Path.step list)
      (e : Ast.expr) : aval =
    let path () = List.rev rev_p in
    let sub step e' = eval st env (step :: rev_p) e' in
    match e with
    | Val (Rec_fun (f, x, body)) ->
      let s = summarize st rev_p (f, x, body) Path.Val_body env in
      { bot with fns = Pset.singleton s.fn_path; d = D.lattice.bottom }
    | Rec (f, x, body) ->
      let s = summarize st rev_p (f, x, body) Path.Rec_body env in
      { bot with fns = Pset.singleton s.fn_path }
    | Val v -> of_d (D.const v)
    | Var x -> (
      match Smap.find_opt x env with Some a -> a | None -> top_v)
    | App (e1, e2) ->
      let f = sub Path.App_fun e1 in
      let arg = sub Path.App_arg e2 in
      if is_bot f || is_bot arg then bot
      else begin
        let results =
          Pset.fold
            (fun h acc ->
              match find_summary st h with
              | None -> acc
              | Some s ->
                if not s.real_called then begin
                  s.real_called <- true;
                  st.newly_called <- true
                end;
                apply st s arg :: acc)
            f.fns []
        in
        match results with
        | [] -> top_v (* unknown callee *)
        | r :: rest -> List.fold_left join r rest
      end
    | Un_op (op, e1) ->
      let a = sub Path.Un_arg e1 in
      if is_bot a then bot else of_d (D.un_op op a.d)
    | Bin_op (op, e1, e2) ->
      let a = sub Path.Bin_l e1 in
      let b = sub Path.Bin_r e2 in
      if is_bot a || is_bot b then bot
      else begin
        List.iter
          (fun (defect, severity, msg) ->
            report st ~id:(fid defect) ~severity ~path:(path ()) msg)
          (D.check op a.d b.d);
        match op with
        | Ptr_add ->
          (* offset pointers may cross into sibling allocations (the
             null-terminated strings are consecutive refs), so they
             may point anywhere: explicit ⊤ sites, which survive joins *)
          { d = D.bin_op op a.d b.d; fns = Pset.empty; sites = Any_sites }
        | _ -> of_d (D.bin_op op a.d b.d)
      end
    | If (c, e1, e2) -> (
      let cv = sub Path.If_cond c in
      if is_bot cv then bot
      else
        match D.truth cv.d with
        | Some true ->
          report st ~id:(fid "unreachable-branch") ~severity:F.Warning
            ~path:(List.rev (Path.If_else :: rev_p))
            "condition is always true; else-branch is unreachable";
          sub Path.If_then e1
        | Some false ->
          report st ~id:(fid "unreachable-branch") ~severity:F.Warning
            ~path:(List.rev (Path.If_then :: rev_p))
            "condition is always false; then-branch is unreachable";
          sub Path.If_else e2
        | None -> join (sub Path.If_then e1) (sub Path.If_else e2))
    | Pair_e (e1, e2) ->
      let a = sub Path.Pair_l e1 in
      let b = sub Path.Pair_r e2 in
      if is_bot a || is_bot b then bot
      else
        {
          d = D.pair a.d b.d;
          fns = Pset.union a.fns b.fns;
          sites = sites_union a.sites b.sites;
        }
    | Fst e1 ->
      let a = sub Path.Fst_arg e1 in
      if is_bot a then bot else { a with d = D.fst_ a.d }
    | Snd e1 ->
      let a = sub Path.Snd_arg e1 in
      if is_bot a then bot else { a with d = D.snd_ a.d }
    | Inj_l_e e1 ->
      let a = sub Path.Inj_arg e1 in
      if is_bot a then bot else { a with d = D.inj_l a.d }
    | Inj_r_e e1 ->
      let a = sub Path.Inj_arg e1 in
      if is_bot a then bot else { a with d = D.inj_r a.d }
    | Case (e0, (x, e1), (y, e2)) -> (
      let s = sub Path.Case_scrut e0 in
      if is_bot s then bot
      else
        let left, right = D.case_split s.d in
        let branch step var payload body =
          match payload with
          | None ->
            report st ~id:(fid "unreachable-case") ~severity:F.Warning
              ~path:(List.rev (step :: rev_p))
              "scrutinee never takes this constructor; branch is unreachable";
            bot
          | Some pd ->
            let pv = { s with d = pd } in
            eval st (Smap.add var pv env) (step :: rev_p) body
        in
        let l = branch Path.Case_inl x left e1 in
        let r = branch Path.Case_inr y right e2 in
        join l r)
    | Ref e1 ->
      let a = sub Path.Ref_arg e1 in
      if is_bot a then bot
      else begin
        let site = path () in
        heap_join st site a;
        { d = D.loc; fns = Pset.empty; sites = Known_sites (Pset.singleton site) }
      end
    | Load e1 ->
      let a = sub Path.Load_arg e1 in
      if is_bot a then bot
      else begin
        match a.sites with
        | Any_sites -> top_v
        | Known_sites s when Pset.is_empty s -> top_v
        | Known_sites s ->
          Pset.fold (fun site acc -> join acc (heap_get st site)) s bot
      end
    | Store (e1, e2) ->
      let l = sub Path.Store_l e1 in
      let v = sub Path.Store_r e2 in
      if is_bot l || is_bot v then bot
      else begin
        (match l.sites with
        | Any_sites ->
          (* write through an unknown pointer: every cell may change *)
          if not st.havoc then begin
            st.havoc <- true;
            st.dirty <- true
          end
        | Known_sites s -> Pset.iter (fun site -> heap_join st site v) s);
        of_d (D.const Ast.Unit)
      end
    | Cas (e1, e2, e3) ->
      let l = sub Path.Cas_loc e1 in
      let _old = sub Path.Cas_old e2 in
      let v = sub Path.Cas_new e3 in
      if is_bot l || is_bot v then bot
      else begin
        (match l.sites with
        | Any_sites ->
          if not st.havoc then begin
            st.havoc <- true;
            st.dirty <- true
          end
        | Known_sites s -> Pset.iter (fun site -> heap_join st site v) s);
        of_d
          (D.lattice.join (D.const (Ast.Bool true)) (D.const (Ast.Bool false)))
      end
    | Let (x, e1, e2) ->
      let a = sub Path.Let_bound e1 in
      if is_bot a then bot
      else eval st (Smap.add x a env) (Path.Let_body :: rev_p) e2
    | Seq (e1, e2) ->
      let a = sub Path.Seq_l e1 in
      if is_bot a then bot else sub Path.Seq_r e2
    | Fork e1 ->
      (* analyzed for its effects and checks; the fork returns () *)
      ignore (sub Path.Fork_body e1);
      of_d (D.const Ast.Unit)

  (* Apply the function summarized by [s] to [arg]: fold the argument
     into the parameter summary, (re-)analyze the body under it, and
     return the joined result. *)
  and apply st (s : summary) (arg : aval) : aval =
    s.param_in <- bump st s.param_in arg;
    if Hashtbl.mem st.in_progress s.fn_path then s.result
    else begin
      Hashtbl.replace st.in_progress s.fn_path ();
      let env = body_env st s in
      (* reversed path of the body: fn_path @ [body_step] *)
      let rev_body = s.body_step :: List.rev s.fn_path in
      let r =
        Fun.protect
          ~finally:(fun () -> Hashtbl.remove st.in_progress s.fn_path)
          (fun () -> eval st env rev_body s.body)
      in
      s.result <- bump st s.result r;
      s.result
    end

  and body_env _st (s : summary) : aval Smap.t =
    let env = s.cap_env in
    let env =
      match s.self with
      | Some f ->
        Smap.add f { bot with fns = Pset.singleton s.fn_path } env
      | None -> env
    in
    Smap.add s.param s.param_in env

  (* One whole-program round: the root program, then a synthetic ⊤
     application of every function no call site reaches, so that (a)
     every body is analyzed and (b) the heap/summary effects of
     returned-but-uncalled closures (memoized functions!) participate
     in the fixpoint rather than being bolted on afterwards.  Every round
     collects its own findings. *)
  let round st e =
    st.dirty <- false;
    st.newly_called <- false;
    st.report <- [];
    Hashtbl.clear st.reported;
    ignore (eval st Smap.empty [] e);
    let rec sweep visited =
      let pending =
        List.filter
          (fun (p, s) -> (not s.real_called) && not (List.mem p visited))
          st.summaries
      in
      if pending <> [] then begin
        List.iter (fun (_, s) -> ignore (apply st s top_v)) pending;
        (* applying can register new summaries; sweep again *)
        sweep (List.map fst pending @ visited)
      end
    in
    sweep [];
    st.round <- st.round + 1

  (* The reporting pass: one more round over the stabilized tables,
     collecting findings. *)
  let findings st e =
    round st e;
    List.sort F.compare st.report

  let m_rounds = Metrics.counter ("analysis." ^ D.name ^ ".rounds")

  (* A round that moves no table hands the next round the same inputs,
     and both domains' widenings, like join, return [old] when [next] is
     already below it.  So stopping at the first clean round gives the
     tables that running on to [max_rounds] would.  A clean round that
     also called no function for the first time leaves the next round
     exactly its own inputs (tables, [real_called] flags, summaries), so
     its findings are the reporting pass's.  That pass runs only when the
     loop stops dirty at [max_rounds] or the last round set a
     [real_called] flag, which withdraws that function's ⊤ application
     from the next round. *)
  let analyze (e : Ast.expr) : F.t list =
    let st = create () in
    while st.dirty && st.round < max_rounds do
      round st e
    done;
    Metrics.add m_rounds st.round;
    if st.dirty || st.newly_called then findings st e
    else List.sort F.compare st.report
end
