(** The certified simulation driver: RefinementSHL's semantics, executable.

    A termination-preserving refinement proof in RefinementSHL is, at
    bottom, a recipe for answering: "the target just took a step — what
    does the source do?"  The logic's later-stripping discipline (§4.2)
    guarantees the well-foundedness of the answer "nothing yet":
    stripping a [⊲] needs both a target and a source step, and stuttering
    is paid for by ordinal credits.

    The driver makes that discipline operational.  A {e strategy} (the
    run-time analogue of a proof) is consulted at every target step and
    either {e advances} the source (≥ 1 steps, and may then reset its
    stutter budget to any ordinal) or {e stutters} (source unchanged),
    in which case it must hand back a {b strictly smaller} ordinal
    budget.  Well-foundedness of ordinals forces every stutter run to be
    finite, so an infinite target execution drives the source through
    infinitely many steps — clause (2) of termination-preserving
    refinement (Theorem 4.3).  Clause (1) is checked directly: when the
    target reaches a value, the driver drains the source and compares
    ground values.

    The driver never trusts the strategy: every claimed source step is
    executed with the real SHL semantics, every budget reset is checked
    for strict descent while stuttering.  An [Accepted] verdict is
    therefore a {e checked certificate} of (bounded-observation)
    refinement, independent of how the strategy was produced. *)

module Ord = Tfiris_ordinal.Ord
module Metrics = Tfiris_obs.Metrics
module Trace = Tfiris_obs.Trace
module Forensics = Tfiris_obs.Forensics
module Json = Tfiris_obs.Json
module Progress = Tfiris_obs.Progress
module Budget = Tfiris_robust.Budget
open Tfiris_shl

type decision =
  | Stutter of Ord.t
      (** keep the source where it is; the new budget must be strictly
          below the current one *)
  | Advance of {
      src_steps : int;  (** ≥ 1 source steps to take *)
      budget : Ord.t;  (** fresh stutter budget (any ordinal) *)
    }

type strategy = {
  name : string;
  decide :
    step_no:int ->
    target:Step.config ->
    source:Step.config ->
    budget:Ord.t ->
    decision;
}

type stats = {
  target_steps : int;
  source_steps : int;
  stutters : int;
  budget_resets : int;
}

let zero_stats =
  { target_steps = 0; source_steps = 0; stutters = 0; budget_resets = 0 }

type reject_reason =
  | Budget_not_decreasing of Ord.t * Ord.t  (** (old, claimed new) *)
  | Advance_needs_progress  (** [Advance] with [src_steps < 1] *)
  | Source_stuck of Step.config
  | Source_finished_early of Ast.value
      (** source reached a value while the target still runs and the
          strategy asked for more source steps *)
  | Target_stuck of Ast.expr
  | Value_mismatch of Ast.value * Ast.value
  | Result_not_ground of Ast.value
      (** refinement [⪯G] is at ground type: closures are not results *)
  | Source_did_not_terminate

type outcome =
  | Terminated of Ast.value  (** both sides reached this ground value *)
  | Fuel_exhausted of Budget.resource
      (** the named budget resource ran out with the game healthy;
          [stats] then reports how far the source was driven — the
          adequacy harness checks this grows without bound for
          diverging targets *)

type verdict =
  | Accepted of outcome * stats
  | Rejected of reject_reason * stats

let pp_reject ppf = function
  | Budget_not_decreasing (o, n) ->
    Format.fprintf ppf "stutter budget must strictly decrease: %a -> %a" Ord.pp
      o Ord.pp n
  | Advance_needs_progress -> Format.pp_print_string ppf "advance with 0 steps"
  | Source_stuck _ -> Format.pp_print_string ppf "source got stuck"
  | Source_finished_early v ->
    Format.fprintf ppf "source already finished with %a" Pretty.pp_value v
  | Target_stuck _ -> Format.pp_print_string ppf "target got stuck"
  | Value_mismatch (vt, vs) ->
    Format.fprintf ppf "target value %a /= source value %a" Pretty.pp_value vt
      Pretty.pp_value vs
  | Result_not_ground v ->
    Format.fprintf ppf "result %a is not of ground type" Pretty.pp_value v
  | Source_did_not_terminate ->
    Format.pp_print_string ppf "source did not reach a value after target did"

let pp_verdict ppf = function
  | Accepted (Terminated v, st) ->
    Format.fprintf ppf "accepted: both sides evaluate to %a (tgt %d / src %d steps)"
      Pretty.pp_value v st.target_steps st.source_steps
  | Accepted (Fuel_exhausted r, st) ->
    Format.fprintf ppf
      "accepted so far: target still running, %a budget spent (tgt %d / src %d \
       steps)"
      Budget.pp_resource r st.target_steps st.source_steps
  | Rejected (r, st) ->
    Format.fprintf ppf "rejected after %d target steps: %a" st.target_steps
      pp_reject r

let rec is_ground (v : Ast.value) =
  match v with
  | Ast.Unit | Ast.Bool _ | Ast.Int _ | Ast.Loc _ -> true
  | Ast.Pair (v1, v2) -> is_ground v1 && is_ground v2
  | Ast.Inj_l v | Ast.Inj_r v -> is_ground v
  | Ast.Rec_fun _ -> false

(* Both sides run on the frame-stack machine; whole [Step.config]s are
   materialised only where the public API demands them (strategy
   decisions, forensic frames, rejection payloads).  Advance batches and
   the final drain in particular never plug. *)

(** Run the source for [k] steps, charging the source meter — an
    adversarial strategy claiming an enormous advance runs out of gas
    instead of hanging the driver. *)
let src_advance m (cfg : Machine.config) k :
    (Machine.config, [ `Reject of reject_reason | `Gas of Budget.resource ])
    result =
  let rec go cfg k =
    if k = 0 then Ok cfg
    else if not (Budget.step m) then Error (`Gas (Budget.tripped m))
    else
      match Machine.prim_step cfg with
      | Ok (cfg', _) -> go cfg' (k - 1)
      | Error Step.Finished -> (
        match Machine.view cfg.Machine.thread with
        | Machine.V_value v -> Error (`Reject (Source_finished_early v))
        | Machine.V_redex _ ->
          Error (`Reject (Source_stuck (Machine.to_config cfg))))
      | Error (Step.Stuck _) ->
        Error (`Reject (Source_stuck (Machine.to_config cfg)))
  in
  go cfg k

(** Drain the source to a value once the target has terminated, on the
    same source meter. *)
let src_drain m (cfg : Machine.config) =
  let rec go cfg k =
    match Machine.prim_step cfg with
    | Error Step.Finished -> (
      match Machine.view cfg.Machine.thread with
      | Machine.V_value v -> Ok (v, k)
      | Machine.V_redex _ -> Error (Source_stuck (Machine.to_config cfg)))
    | Error (Step.Stuck _) -> Error (Source_stuck (Machine.to_config cfg))
    | Ok (cfg', _) ->
      if not (Budget.step m) then Error Source_did_not_terminate
      else go cfg' (k + 1)
  in
  go cfg 0

(* ---------- observability ---------- *)

let c_runs = Metrics.counter "refinement.driver.runs"
let c_tgt = Metrics.counter "refinement.driver.target_steps"
let c_src = Metrics.counter "refinement.driver.source_steps"
let c_stutters = Metrics.counter "refinement.driver.stutters"
let c_resets = Metrics.counter "refinement.driver.budget_resets"
let c_rejections = Metrics.counter "refinement.driver.rejections"
let h_stutter_run = Metrics.histogram "refinement.driver.stutter_run_len"
let h_advance_batch = Metrics.histogram "refinement.driver.advance_src_steps"
let h_budget_descents = Metrics.histogram "refinement.driver.descent_len"

let verdict_name = function
  | Accepted (Terminated _, _) -> "accepted"
  | Accepted (Fuel_exhausted _, _) -> "fuel_exhausted"
  | Rejected _ -> "rejected"

(* ---------- forensics ---------- *)

(** The violated rule, as a stable identifier for post-mortems. *)
let rule_name = function
  | Budget_not_decreasing _ -> "budget_not_decreasing"
  | Advance_needs_progress -> "advance_needs_progress"
  | Source_stuck _ -> "source_stuck"
  | Source_finished_early _ -> "source_finished_early"
  | Target_stuck _ -> "target_stuck"
  | Value_mismatch _ -> "value_mismatch"
  | Result_not_ground _ -> "result_not_ground"
  | Source_did_not_terminate -> "source_did_not_terminate"

(* One recorded frame per strategy decision: both configurations, the
   budget it was consulted with, and what it answered. *)
let record_decision ring ~step_no ~(target : Step.config)
    ~(source : Step.config) ~budget (d : decision) =
  let decision_fields =
    match d with
    | Stutter b' ->
      [
        ("decision", Json.Str "stutter");
        ("new_budget", Json.Str (Ord.to_string b'));
      ]
    | Advance { src_steps; budget = b' } ->
      [
        ("decision", Json.Str "advance");
        ("src_steps", Json.Int src_steps);
        ("new_budget", Json.Str (Ord.to_string b'));
      ]
  in
  Forensics.push ring
    {
      Forensics.f_step = step_no;
      f_label = "decide";
      f_data =
        [
          ( "target",
            Json.Str (Forensics.trunc (Pretty.expr_to_string target.Step.expr))
          );
          ( "source",
            Json.Str (Forensics.trunc (Pretty.expr_to_string source.Step.expr))
          );
          ("tgt_heap", Json.Int (Heap.size target.Step.heap));
          ("src_heap", Json.Int (Heap.size source.Step.heap));
          ("budget", Json.Str (Ord.to_string budget));
        ]
        @ decision_fields;
    }

let forensic_report (s : strategy) ring (r : reject_reason) (st : stats) =
  Forensics.set_last
    (Forensics.report ~component:"refinement.driver" ~rule:(rule_name r)
       ~step:st.target_steps
       ~reason:(Format.asprintf "%a" pp_reject r)
       ~attrs:
         [
           ("strategy", Json.Str s.name);
           ("target_steps", Json.Int st.target_steps);
           ("source_steps", Json.Int st.source_steps);
           ("stutters", Json.Int st.stutters);
           ("budget_resets", Json.Int st.budget_resets);
         ]
       ring)

(* One bulk metrics update per game, derived from the verdict's own
   stats so the registry and the returned record cannot disagree. *)
let publish (s : strategy) (v : verdict) : verdict =
  if Metrics.on () then begin
    let st = match v with Accepted (_, st) | Rejected (_, st) -> st in
    Metrics.incr c_runs;
    Metrics.add c_tgt st.target_steps;
    Metrics.add c_src st.source_steps;
    Metrics.add c_stutters st.stutters;
    Metrics.add c_resets st.budget_resets;
    (match v with Rejected _ -> Metrics.incr c_rejections | Accepted _ -> ());
    if st.budget_resets > 0 then
      Metrics.observe h_budget_descents
        (float_of_int st.stutters /. float_of_int st.budget_resets)
  end;
  if Trace.on () then
    Trace.instant "driver.verdict"
      ~attrs:[ ("strategy", Trace.S s.name); ("verdict", Trace.S (verdict_name v)) ];
  v

(** [run ~budget ~target ~source strategy]: execute the refinement game.

    [budget] bounds the target's run; the source gets a meter of its
    own from the same budget, covering advances {e and} the final drain
    (so a strategy claiming an absurd advance runs out of gas instead
    of hanging the driver).  [?fuel] is a steps-only budget kept only
    for the benchmark's replay ([bench/verdicts/layers.ml]); [budget]
    overrides it.  The initial
    stutter budget is taken from the strategy's first decision by
    starting from a maximal sentinel.

    When tracing is enabled every strategy decision is a span
    ([driver.decide], with the step number, budget and outcome as
    attributes); every game additionally batches its counters into the
    [refinement.driver.*] metrics, including histograms of stutter-run
    lengths and advance batch sizes. *)
let run ?fuel ?budget ?(init_budget = Ord.omega_pow Ord.omega) ~target
    ~source (s : strategy) : verdict =
  let b = Budget.resolve ?fuel ?budget ~default_steps:1_000_000 () in
  let tm = Budget.meter b in
  let sm = Budget.meter b in
  (* Heartbeats count target steps (the game's clock); the budget
     fraction reported is the target meter's. *)
  let heartbeat = Progress.tracker ~component:"refinement.driver" ~phase:"game" () in
  let heartbeat_info () =
    { Progress.no_info with Progress.budget_left = Budget.remaining_frac tm }
  in
  (* length of the current maximal run of consecutive stutters; flushed
     into the histogram at each advance and at game end *)
  let stutter_run = ref 0 in
  let flush_stutter_run () =
    if !stutter_run > 0 then begin
      Metrics.observe_int h_stutter_run !stutter_run;
      stutter_run := 0
    end
  in
  let ring = Forensics.with_ring () in
  let decide ~step_no ~target ~source ~budget =
    let d =
      if Trace.on () then
        Trace.with_span "driver.decide"
          ~attrs:
            [
              ("strategy", Trace.S s.name);
              ("step_no", Trace.I step_no);
              ("budget", Trace.S (Ord.to_string budget));
            ]
          (fun () ->
            let d = s.decide ~step_no ~target ~source ~budget in
            (match d with
            | Stutter b' ->
              Trace.instant "driver.stutter"
                ~attrs:[ ("new_budget", Trace.S (Ord.to_string b')) ]
            | Advance { src_steps; budget = b' } ->
              Trace.instant "driver.advance"
                ~attrs:
                  [
                    ("src_steps", Trace.I src_steps);
                    ("new_budget", Trace.S (Ord.to_string b'));
                  ]);
            d)
      else s.decide ~step_no ~target ~source ~budget
    in
    (match ring with
    | Some rg -> record_decision rg ~step_no ~target ~source ~budget d
    | None -> ());
    d
  in
  (* [src_conf] memoises the plugged source configuration: the source
     only moves on an advance, so one materialisation serves a whole
     stutter run of decisions. *)
  let rec go (t : Machine.config) (src : Machine.config)
      (src_conf : Step.config Lazy.t) budget stats =
    match Machine.view t.Machine.thread with
    | Machine.V_value v ->
      if not (is_ground v) then Rejected (Result_not_ground v, stats)
      else (
        (match heartbeat with
        | Some hb -> Progress.set_phase hb "drain"
        | None -> ());
        match src_drain sm src with
        | Error r -> Rejected (r, stats)
        | Ok (v', extra) -> (
          let stats = { stats with source_steps = stats.source_steps + extra } in
          match Ast.value_eq v v' with
          | Some true -> Accepted (Terminated v, stats)
          | Some false | None -> Rejected (Value_mismatch (v, v'), stats)))
    | Machine.V_redex _ ->
      if not (Budget.step tm) then
        Accepted (Fuel_exhausted (Budget.tripped tm), stats)
      else (
        (match heartbeat with
        | Some hb -> Progress.tick hb heartbeat_info
        | None -> ());
        match Machine.prim_step t with
        | Error (Step.Stuck redex) -> Rejected (Target_stuck redex, stats)
        | Error Step.Finished -> assert false
        | Ok (t', _) -> (
          let stats = { stats with target_steps = stats.target_steps + 1 } in
          match
            decide ~step_no:stats.target_steps
              ~target:(Machine.to_config t')
              ~source:(Lazy.force src_conf) ~budget
          with
          | Stutter b' ->
            if Ord.lt b' budget then begin
              incr stutter_run;
              go t' src src_conf b'
                { stats with stutters = stats.stutters + 1 }
            end
            else Rejected (Budget_not_decreasing (budget, b'), stats)
          | Advance { src_steps; budget = b' } ->
            if src_steps < 1 then Rejected (Advance_needs_progress, stats)
            else (
              match src_advance sm src src_steps with
              | Error (`Reject r) -> Rejected (r, stats)
              | Error (`Gas r) -> Accepted (Fuel_exhausted r, stats)
              | Ok src' ->
                flush_stutter_run ();
                Metrics.observe_int h_advance_batch src_steps;
                go t' src'
                  (lazy (Machine.to_config src'))
                  b'
                  {
                    stats with
                    source_steps = stats.source_steps + src_steps;
                    budget_resets = stats.budget_resets + 1;
                  })))
  in
  let source_m = Machine.of_config source in
  let target_m = Machine.of_config target in
  let src_conf0 = lazy (Machine.to_config source_m) in
  let verdict =
    if Trace.on () then
      Trace.with_span "driver.run"
        ~attrs:
          [ ("strategy", Trace.S s.name);
            ("budget", Trace.S (Budget.to_string b)) ]
        (fun () -> go target_m source_m src_conf0 init_budget zero_stats)
    else go target_m source_m src_conf0 init_budget zero_stats
  in
  flush_stutter_run ();
  (match (ring, verdict) with
  | Some rg, Rejected (r, st) -> forensic_report s rg r st
  | _ -> ());
  publish s verdict

(** Convenience wrapper on closed expressions with empty heaps. *)
let refine ?budget ?init_budget ~target ~source strategy =
  run ?budget ?init_budget ~target:(Step.config target)
    ~source:(Step.config source) strategy
