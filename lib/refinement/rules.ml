(** The proof rules of Figure 3, as a checkable script language.

    A refinement proof in the Iris Proof Mode is a tactic script; we
    mirror that: a {e script} is a sequence of rule applications, and
    {!check} executes it against a concrete goal
    [{src(e_s) ∗ hyps} e_t {v. src(v) ∗ v ∈ G}], validating every side
    condition against the real SHL operational semantics (is the claimed
    step a pure step? is [e_t ∉ Val]? …).

    Two rule systems are supported, exactly the two of Figure 3:

    - {!Iris_result}: the §4.1 rules for {e result} refinements.  A
      target step ([PureT]/[StoreT]) strips the later guard off the Löb
      hypotheses on its own.  These rules are sound for result
      refinement but {e not} for termination preservation: the script
      for [e_loop ⪯ skip] checks (see the test suite), even though the
      target diverges and the source terminates.
    - {!Refinement_tp}: the §4.2 rules of RefinementSHL.  The goal
      alternates between the source-stepping triple [{P} e {v.Q}] and
      the target-stepping triple [⟨P⟩ e ⟨v.Q⟩]; only the roundtrip —
      a source step ([TPPureS]/[TPStoreS]) followed by a target step —
      strips a later.  Stuttering ([TPStutterT], [TPStutterS*]) is
      available but never strips.

    Löb hypotheses are closed simulation statements [tgt ⪯ src]; the
    universally-quantified specs of §4.3 are handled semantically by
    {!Driver} strategies instead (see DESIGN.md).  The checker bounds
    script length, so checking always terminates. *)

open Tfiris_shl
module Ord = Tfiris_ordinal.Ord
module Metrics = Tfiris_obs.Metrics
module Trace = Tfiris_obs.Trace

type system =
  | Iris_result  (** §4.1: result refinement rules *)
  | Refinement_tp  (** §4.2: termination-preserving rules *)

type triple =
  | Source_stepping  (** the [{P} e {v. Q}] form *)
  | Target_stepping  (** the [⟨P⟩ e ⟨v. Q⟩] form *)

type hyp = {
  name : string;
  guarded : bool;  (** still under a [⊲] *)
  h_target : Step.config;
  h_source : Step.config;
}

type goal = {
  triple : triple;
  target : Step.config;
  source : Step.config;
  hyps : hyp list;
}

let goal ?(heap = Heap.empty) ?(src_heap = Heap.empty) ~target ~source () =
  {
    triple = Source_stepping;
    target = { Step.expr = target; heap };
    source = { Step.expr = source; heap = src_heap };
    hyps = [];
  }

(** One rule application.  Names follow Figure 3. *)
type rule =
  | Pure_t  (** Iris [PureT]: pure target step; strips later guards *)
  | Store_t  (** Iris [StoreT]: heap target step; strips later guards *)
  | Pure_s  (** Iris [PureS]: pure source step *)
  | Store_s  (** Iris [StoreS]: heap source step *)
  | Tp_pure_s
      (** [TPPureS]: pure source step, strips guards, switch to ⟨⟩ *)
  | Tp_store_s
      (** [TPStoreS]: heap source step, strips guards, switch to ⟨⟩ *)
  | Tp_pure_t  (** [TPPureT]: pure target step, switch back to {} *)
  | Tp_store_t  (** [TPStoreT]: heap target step, switch back to {} *)
  | Tp_stutter_t
      (** [TPStutterT]: switch {} → ⟨⟩ with no source step, no strip *)
  | Tp_stutter_s_pure
      (** [TPStutterSPure]: extra pure source step within {} *)
  | Tp_stutter_s_store
      (** [TPStutterSStore]: extra heap source step within {} *)
  | Loeb of string
      (** Hoare-Löb: record the current simulation statement as a
          guarded hypothesis *)
  | Use_hyp of string
      (** close the goal by an {e unguarded} hypothesis matching the
          current target/source configurations *)
  | Value_done
      (** the Value rule: both sides are the same ground value *)

let rule_name = function
  | Pure_t -> "PureT"
  | Store_t -> "StoreT"
  | Pure_s -> "PureS"
  | Store_s -> "StoreS"
  | Tp_pure_s -> "TPPureS"
  | Tp_store_s -> "TPStoreS"
  | Tp_pure_t -> "TPPureT"
  | Tp_store_t -> "TPStoreT"
  | Tp_stutter_t -> "TPStutterT"
  | Tp_stutter_s_pure -> "TPStutterSPure"
  | Tp_stutter_s_store -> "TPStutterSStore"
  | Loeb n -> "Löb(" ^ n ^ ")"
  | Use_hyp n -> "Hyp(" ^ n ^ ")"
  | Value_done -> "Value"

type script = rule list

type status =
  | Proved
  | Open of goal  (** script exhausted with this goal remaining *)

type error = {
  at : int;  (** index of the offending rule *)
  rule : string;
  reason : string;
}

let pp_error ppf e =
  Format.fprintf ppf "step %d [%s]: %s" e.at e.rule e.reason

let config_equal (a : Step.config) (b : Step.config) =
  a.Step.expr = b.Step.expr && Heap.equal a.Step.heap b.Step.heap

(* Take one step of the given kind-class on a configuration. *)
let step_checked ~want_pure (cfg : Step.config) =
  match Step.prim_step cfg with
  | Ok (cfg', kind) ->
    if Step.kind_is_pure kind = want_pure then Ok cfg'
    else
      Error
        (if want_pure then "step is a heap step, use the Store rule"
         else "step is pure, use the Pure rule")
  | Error Step.Finished -> Error "expression is already a value"
  | Error (Step.Stuck _) -> Error "expression is stuck"

let c_apps = Metrics.counter "refinement.rules.applications"
let c_strips = Metrics.counter "refinement.rules.later_strips"
let c_proved = Metrics.counter "refinement.rules.proved"
let c_rejected = Metrics.counter "refinement.rules.rejected"

let strip_guards hyps =
  Metrics.incr c_strips;
  List.map (fun h -> { h with guarded = false }) hyps

let check (system : system) (g0 : goal) (script : script) :
    (status, error) result =
  let fail at rule fmt =
    Format.kasprintf (fun reason -> Error { at; rule = rule_name rule; reason }) fmt
  in
  let rec go g script at =
    match script with
    | [] -> Ok (Open g)
    | r :: rest -> (
      Metrics.incr c_apps;
      if Trace.on () then
        Trace.instant "rules.apply"
          ~attrs:[ ("rule", Trace.S (rule_name r)); ("at", Trace.I at) ];
      let continue g = go g rest (at + 1) in
      let tgt_is_value = Ast.is_value g.target.Step.expr in
      match r, system with
      (* ----- Iris result-refinement rules (§4.1) ----- *)
      | (Pure_t | Store_t), Iris_result -> (
        match step_checked ~want_pure:(r = Pure_t) g.target with
        | Error m -> fail at r "%s" m
        | Ok t' ->
          (* the Iris rules strip the later on a target step alone —
             the source of the unsoundness for termination preservation *)
          continue { g with target = t'; hyps = strip_guards g.hyps })
      | (Pure_s | Store_s), Iris_result -> (
        match step_checked ~want_pure:(r = Pure_s) g.source with
        | Error m -> fail at r "%s" m
        | Ok s' -> continue { g with source = s' })
      | (Pure_t | Store_t | Pure_s | Store_s), Refinement_tp ->
        fail at r "this is a §4.1 Iris rule, not available in RefinementSHL"
      (* ----- RefinementSHL rules (§4.2) ----- *)
      | (Tp_pure_s | Tp_store_s), Refinement_tp -> (
        if g.triple <> Source_stepping then
          fail at r "needs the source-stepping triple {P} e {v.Q}"
        else if tgt_is_value then fail at r "side condition e_t \xe2\x88\x89 Val"
        else
          match step_checked ~want_pure:(r = Tp_pure_s) g.source with
          | Error m -> fail at r "%s" m
          | Ok s' ->
            continue
              {
                g with
                triple = Target_stepping;
                source = s';
                hyps = strip_guards g.hyps;
              })
      | (Tp_pure_t | Tp_store_t), Refinement_tp -> (
        if g.triple <> Target_stepping then
          fail at r "needs the target-stepping triple \xe2\x9f\xa8P\xe2\x9f\xa9 e \xe2\x9f\xa8v.Q\xe2\x9f\xa9"
        else
          match step_checked ~want_pure:(r = Tp_pure_t) g.target with
          | Error m -> fail at r "%s" m
          | Ok t' -> continue { g with triple = Source_stepping; target = t' })
      | Tp_stutter_t, Refinement_tp ->
        if g.triple <> Source_stepping then
          fail at r "needs the source-stepping triple"
        else if tgt_is_value then fail at r "side condition e_t \xe2\x88\x89 Val"
        else continue { g with triple = Target_stepping }
      | (Tp_stutter_s_pure | Tp_stutter_s_store), Refinement_tp -> (
        if g.triple <> Source_stepping then
          fail at r "needs the source-stepping triple"
        else if tgt_is_value then fail at r "side condition e_t \xe2\x88\x89 Val"
        else
          match
            step_checked ~want_pure:(r = Tp_stutter_s_pure) g.source
          with
          | Error m -> fail at r "%s" m
          | Ok s' -> continue { g with source = s' })
      | ( ( Tp_pure_s | Tp_store_s | Tp_pure_t | Tp_store_t | Tp_stutter_t
          | Tp_stutter_s_pure | Tp_stutter_s_store ),
          Iris_result ) ->
        fail at r "this is a §4.2 RefinementSHL rule, not available here"
      (* ----- shared structural rules ----- *)
      | Loeb name, _ ->
        if g.triple <> Source_stepping then
          fail at r "L\xc3\xb6b applies to the source-stepping triple"
        else if List.exists (fun h -> h.name = name) g.hyps then
          fail at r "hypothesis %s already exists" name
        else
          continue
            {
              g with
              hyps =
                {
                  name;
                  guarded = true;
                  h_target = g.target;
                  h_source = g.source;
                }
                :: g.hyps;
            }
      | Use_hyp name, _ -> (
        match List.find_opt (fun h -> h.name = name) g.hyps with
        | None -> fail at r "no hypothesis named %s" name
        | Some h ->
          if h.guarded then
            fail at r
              "hypothesis %s is still guarded by \xe2\x8a\xb2 \
               (no later has been stripped since it was introduced)"
              name
          else if g.triple <> Source_stepping then
            fail at r "hypotheses close source-stepping goals"
          else if not (config_equal h.h_target g.target) then
            fail at r "target configuration does not match hypothesis %s" name
          else if not (config_equal h.h_source g.source) then
            fail at r "source configuration does not match hypothesis %s" name
          else if rest <> [] then fail at r "script continues after closing"
          else Ok Proved)
      | Value_done, _ -> (
        match g.target.Step.expr, g.source.Step.expr with
        | Ast.Val vt, Ast.Val vs -> (
          if not (Driver.is_ground vt) then
            fail at r "value %a is not ground" Pretty.pp_value vt
          else
            match Ast.value_eq vt vs with
            | Some true ->
              if rest <> [] then fail at r "script continues after closing"
              else Ok Proved
            | Some false | None ->
              fail at r "values differ: %a vs %a" Pretty.pp_value vt
                Pretty.pp_value vs)
        | _, _ -> fail at r "both sides must be values"))
  in
  let result = go g0 script 0 in
  (match result with
  | Ok Proved -> Metrics.incr c_proved
  | Ok (Open _) -> ()
  | Error _ -> Metrics.incr c_rejected);
  result

(** [proved system goal script]: the script closes the goal. *)
let proved system g script =
  match check system g script with
  | Ok Proved -> true
  | Ok (Open _) | Error _ -> false

(** {1 Script search}

    [lockstep_script goal] builds the §4.2 proof script automatically for
    lockstep-style pairs: rounds of (source step; target step) — with
    target-stutter rounds once the source has finished — closed by
    [Value] when both sides reach a value, or by Löb around the cycle
    when the joint configuration recurs (the proof shape of Lemma 4.2).
    This is a miniature cyclic-proof search, the analogue of the
    one-shot Iris Proof Mode tactic for such goals.  [fuel] bounds the
    search's rounds, not a metered run. *)
let lockstep_script ?(fuel = 10_000) (g : goal) : script option =
  let rule_of cfg ~src =
    match Step.prim_step cfg with
    | Ok (cfg', kind) ->
      let pure = Step.kind_is_pure kind in
      let rule =
        match src, pure with
        | true, true -> Tp_pure_s
        | true, false -> Tp_store_s
        | false, true -> Tp_pure_t
        | false, false -> Tp_store_t
      in
      Some (cfg', rule)
    | Error (Step.Finished | Step.Stuck _) -> None
  in
  let round t s =
    match rule_of s ~src:true, rule_of t ~src:false with
    | Some (s', rs), Some (t', rt) -> Some (t', s', [ rs; rt ])
    | None, Some (t', rt) -> Some (t', s, [ Tp_stutter_t; rt ])
    | (Some _ | None), None -> None
  in
  let rec trace t s visited rounds n =
    if n = 0 then None
    else if Ast.is_value t.Step.expr && Ast.is_value s.Step.expr then
      Some (`Terminates, List.rev rounds)
    else
      match List.find_index (fun (t', s') -> t' = t && s' = s) visited with
      | Some _ ->
        let from_start = List.rev visited in
        let j =
          Option.get
            (List.find_index (fun (t', s') -> t' = t && s' = s) from_start)
        in
        Some (`Cycle j, List.rev rounds)
      | None -> (
        match round t s with
        | Some (t', s', rs) ->
          trace t' s' ((t, s) :: visited) (rs :: rounds) (n - 1)
        | None -> None)
  in
  match trace g.target g.source [] [] fuel with
  | Some (`Terminates, rounds) -> Some (List.concat rounds @ [ Value_done ])
  | Some (`Cycle j, rounds) ->
    let prefix = List.filteri (fun i _ -> i < j) rounds in
    let cycle = List.filteri (fun i _ -> i >= j) rounds in
    Some
      (List.concat prefix @ [ Loeb "IH" ] @ List.concat cycle
      @ [ Use_hyp "IH" ])
  | None -> None
