(** TerminationSHL: proving termination with transfinite time credits.

    §5 instantiates the liveness logic with ordinals as the source:
    the resource [$α] holds [α] time credits, each target step spends
    credit by the rule [TSource] — replace the current credit [α] by a
    {e strictly smaller} [β].  Theorem 5.1: [⊨ ∃α. {$α} e {True}]
    implies [e] terminates.

    The executable counterpart: a {e credit strategy} (the certificate)
    is asked, at every step of the program, for a strictly smaller
    ordinal; the driver validates the descent.  The punchline is that
    {!run} needs {b no fuel}: an accepted run {e cannot} be infinite,
    because an infinite run would be an infinite strictly-descending
    chain of ordinals.  Well-foundedness of [Ord] is the termination
    argument, exactly as in the paper.

    Finite credits ([{!countdown}] with a natural-number credit) are the
    classical time credits of Mével et al. [47] — they prove {e bounded}
    termination and need the bound up front.  Transfinite credits
    ({!adaptive}) start at a limit ordinal and instantiate it {e during}
    execution, when the dynamic information (the paper's [k = u ()])
    becomes available. *)

module Ord = Tfiris_ordinal.Ord
module Metrics = Tfiris_obs.Metrics
module Trace = Tfiris_obs.Trace
module Forensics = Tfiris_obs.Forensics
module Json = Tfiris_obs.Json
module Progress = Tfiris_obs.Progress
module Budget = Tfiris_robust.Budget
open Tfiris_shl

type strategy = {
  name : string;
  spend :
    step_no:int ->
    config:Step.config ->
    kind:Step.kind ->
    credit:Ord.t ->
    meter:Budget.meter ->
    Ord.t option;
      (** the new credit after this step; must be strictly smaller.
          [None] aborts the proof attempt.  [meter] is the run's budget:
          a strategy doing work of its own (a pre-run) polls its wall
          deadline; charging it is {!run}'s job. *)
}

type stats = {
  steps : int;
  limit_refinements : int;
      (** steps at which the credit jumped below a limit ordinal — the
          paper's "learning dynamic information" moments *)
}

type reason =
  | Not_decreasing of Ord.t * Ord.t
  | Gave_up
  | Stuck of Ast.expr
  | Out_of_budget of Budget.resource
      (** an optional caller-supplied budget ran out — the ordinal
          descent itself needs none *)

type verdict =
  | Terminated of Ast.value * Ord.t * stats
      (** final value and unspent credit *)
  | Rejected of reason * stats

let pp_verdict ppf = function
  | Terminated (v, left, st) ->
    Format.fprintf ppf "terminated with %a in %d steps (credit left: %a)"
      Pretty.pp_value v st.steps Ord.pp left
  | Rejected (Not_decreasing (o, n), st) ->
    Format.fprintf ppf "rejected at step %d: %a not < %a" st.steps Ord.pp n
      Ord.pp o
  | Rejected (Gave_up, st) ->
    Format.fprintf ppf "strategy gave up at step %d" st.steps
  | Rejected (Stuck _, st) ->
    Format.fprintf ppf "program stuck at step %d" st.steps
  | Rejected (Out_of_budget r, st) ->
    Format.fprintf ppf "%a budget exhausted at step %d" Budget.pp_resource r
      st.steps

(* ---------- observability ---------- *)

let c_runs = Metrics.counter "termination.wp.runs"
let c_spends = Metrics.counter "termination.wp.credit_spends"
let c_limit = Metrics.counter "termination.wp.limit_refinements"
let c_rejections = Metrics.counter "termination.wp.rejections"
let h_steps = Metrics.histogram "termination.wp.run_steps"

(* ---------- forensics ---------- *)

(** The violated rule, as a stable identifier for post-mortems. *)
let rule_name = function
  | Not_decreasing _ -> "credit_not_decreasing"
  | Gave_up -> "gave_up"
  | Stuck _ -> "stuck"
  | Out_of_budget _ -> "out_of_budget"

let reason_text = function
  | Not_decreasing (o, n) ->
    Format.asprintf "credit must strictly decrease: %a not < %a" Ord.pp n Ord.pp
      o
  | Gave_up -> "strategy gave up"
  | Stuck redex ->
    Format.asprintf "program stuck at %s"
      (Forensics.trunc (Pretty.expr_to_string redex))
  | Out_of_budget r ->
    Format.asprintf "%a budget exhausted" Budget.pp_resource r

let kind_name = function
  | Step.Pure -> "pure"
  | Step.Alloc _ -> "alloc"
  | Step.Load_of _ -> "load"
  | Step.Store_to _ -> "store"

(* One recorded frame per credit spend: the configuration the strategy
   was consulted on, the step kind, and the credit before/after. *)
let record_spend ring ~step_no ~(config : Step.config) ~kind ~credit res =
  Forensics.push ring
    {
      Forensics.f_step = step_no;
      f_label = "spend";
      f_data =
        [
          ( "expr",
            Json.Str (Forensics.trunc (Pretty.expr_to_string config.Step.expr))
          );
          ("step_kind", Json.Str (kind_name kind));
          ("credit", Json.Str (Ord.to_string credit));
          ( "new_credit",
            match res with
            | Some c -> Json.Str (Ord.to_string c)
            | None -> Json.Null );
        ];
    }

let publish (v : verdict) : verdict =
  if Metrics.on () then begin
    let st = match v with Terminated (_, _, st) | Rejected (_, st) -> st in
    Metrics.incr c_runs;
    Metrics.add c_spends st.steps;
    Metrics.add c_limit st.limit_refinements;
    Metrics.observe_int h_steps st.steps;
    match v with Rejected _ -> Metrics.incr c_rejections | Terminated _ -> ()
  end;
  v

(** [run ~credits strategy e]: execute [e], spending credit at every
    step.  Terminates unconditionally: each iteration strictly
    decreases an ordinal (validated), and ordinal descent is
    well-founded.

    Each run batches its counters into the [termination.wp.*] metrics;
    with tracing on, the run is a span (strategy name, initial credit)
    and every limit-ordinal instantiation — the "dynamic information
    learned" moments — is an instant event carrying the old and new
    credit. *)
let run ?budget ~credits (s : strategy) (cfg : Step.config) : verdict =
  let meter = Budget.meter (Option.value budget ~default:Budget.unlimited) in
  let heartbeat = Progress.tracker ~component:"termination.wp" () in
  let heartbeat_info () =
    { Progress.no_info with Progress.budget_left = Budget.remaining_frac meter }
  in
  let ring = Forensics.with_ring () in
  let spend ~step_no ~config ~kind ~credit =
    let res = s.spend ~step_no ~config ~kind ~credit ~meter in
    (match ring with
    | Some rg -> record_spend rg ~step_no ~config ~kind ~credit res
    | None -> ());
    res
  in
  (* The program runs on the frame-stack machine; the whole
     [Step.config] the strategy's [spend] is consulted on is
     materialised per spend — the strategies genuinely inspect it
     (e.g. [measured] reads the heap, [adaptive] re-runs the rest). *)
  let rec go (cfg : Machine.config) credit stats =
    match Machine.view cfg.Machine.thread with
    | Machine.V_value v -> Terminated (v, credit, stats)
    | Machine.V_redex _ -> (
      if not (Budget.step meter) then
        Rejected (Out_of_budget (Budget.tripped meter), stats)
      else (
      (match heartbeat with
      | Some t -> Progress.tick t heartbeat_info
      | None -> ());
      match Machine.prim_step cfg with
      | Error (Step.Stuck redex) -> Rejected (Stuck redex, stats)
      | Error Step.Finished -> assert false
      | Ok (cfg', kind) -> (
        let step_no = stats.steps + 1 in
        match spend ~step_no ~config:(Machine.to_config cfg') ~kind ~credit with
        | None ->
          (* a strategy stopped by the wall deadline tripped the meter *)
          let reason =
            match Budget.exhausted meter with
            | Some r -> Out_of_budget r
            | None -> Gave_up
          in
          Rejected (reason, { stats with steps = step_no })
        | Some credit' ->
          if Ord.lt credit' credit then begin
            (* A descent that skips past the predecessor means a limit
               component was instantiated with dynamic information. *)
            let was_limit_jump = Ord.lt (Ord.succ credit') credit in
            if was_limit_jump && Trace.on () then
              Trace.instant "wp.limit_refinement"
                ~attrs:
                  [
                    ("step_no", Trace.I step_no);
                    ("from", Trace.S (Ord.to_string credit));
                    ("to", Trace.S (Ord.to_string credit'));
                  ];
            go cfg' credit'
              {
                steps = step_no;
                limit_refinements =
                  (stats.limit_refinements + if was_limit_jump then 1 else 0);
              }
          end
          else
            Rejected
              (Not_decreasing (credit, credit'), { stats with steps = step_no }))))
  in
  let verdict =
    if Trace.on () then
      Trace.with_span "wp.run"
        ~attrs:
          [
            ("strategy", Trace.S s.name);
            ("credits", Trace.S (Ord.to_string credits));
          ]
        (fun () ->
          go (Machine.of_config cfg) credits { steps = 0; limit_refinements = 0 })
    else go (Machine.of_config cfg) credits { steps = 0; limit_refinements = 0 }
  in
  (match (ring, verdict) with
  | Some rg, Rejected (r, st) ->
    Forensics.set_last
      (Forensics.report ~component:"termination.wp" ~rule:(rule_name r)
         ~step:st.steps ~reason:(reason_text r)
         ~attrs:
           [
             ("strategy", Json.Str s.name);
             ("credits", Json.Str (Ord.to_string credits));
             ("steps", Json.Int st.steps);
             ("limit_refinements", Json.Int st.limit_refinements);
           ]
         rg)
  | _ -> ());
  publish verdict

let terminates ?budget ~credits s e =
  match run ?budget ~credits s (Step.config e) with
  | Terminated _ -> true
  | Rejected _ -> false

(** {1 Strategies} *)

(** Classical finite time credits: decrement.  Fails (gives up) on limit
    ordinals — by design: this {e is} the bounded-termination baseline,
    it can only count down. *)
let countdown : strategy =
  {
    name = "countdown";
    spend =
      (fun ~step_no:_ ~config:_ ~kind:_ ~credit ~meter:_ -> Ord.pred credit);
  }

(** Count the steps a configuration needs to terminate, within fuel —
    [None] as soon as the run provably cycles
    ({!Machine.steps_to_value}). *)
let remaining_steps ?fuel ?meter (cfg : Step.config) : int option =
  Machine.steps_to_value ?fuel ?meter (Machine.of_config cfg)

(** Transfinite credits with dynamic instantiation: spend successor
    credit by decrementing; when the finite part is exhausted and a
    limit remains, instantiate the limit with the {e now-known} bound on
    the rest of the execution (the executable face of [TSource]'s
    "decrease ω to k·n_f + 1 once k is learned", §5.1). *)
let adaptive ?fuel () : strategy =
  {
    name = "adaptive";
    spend =
      (fun ~step_no:_ ~config ~kind:_ ~credit ~meter ->
        match Ord.pred credit with
        | Some c -> Some c
        | None ->
          if Ord.is_zero credit then None
          else
            (* limit ordinal: learn the remaining bound dynamically; the
               pre-run stops at the run's wall deadline *)
            Option.map Ord.of_int (remaining_steps ?fuel ~meter config));
  }

(** A strategy from an explicit ordinal descent (for tests). *)
let scripted (descents : Ord.t list) : strategy =
  let arr = Array.of_list descents in
  {
    name = "scripted";
    spend =
      (fun ~step_no ~config:_ ~kind:_ ~credit:_ ~meter:_ ->
        if step_no - 1 < Array.length arr then Some arr.(step_no - 1) else None);
  }

(** {1 Measured strategies}

    A fully online certificate: the caller supplies an ordinal
    {e measure} of configurations (typically read off the heap) whose
    value is [0] or a limit ordinal and which never increases along
    execution.  The strategy keeps the credit at [μ(config) ⊕ pad]:

    - when the measure strictly drops, the pad is reset — the new credit
      is below the old one because [μ' < μ] with [μ] a limit implies
      [μ' ⊕ k < μ] for every finite [k];
    - while the measure is flat, the pad pays for the (boundedly many)
      steps until the next drop;
    - a measure increase aborts the proof.

    No oracle, no pre-running: this is the executable shape of a
    lexicographic termination argument, with the dynamic information
    (loop bounds read at run time) entering exactly at the drops. *)

let measured ~(measure : Step.config -> Ord.t option) ~(pad : int) () :
    strategy =
  {
    name = Printf.sprintf "measured(pad=%d)" pad;
    spend =
      (fun ~step_no:_ ~config ~kind:_ ~credit ~meter:_ ->
        match measure config with
        | None -> None
        | Some mu ->
          if not (Ord.is_zero mu || Ord.is_limit mu) then None
          else
            let credit' = Ord.hsum mu (Ord.of_int pad) in
            if Ord.lt credit' credit then Some credit'
            else
              (* measure flat (or pad freshly reset): count the pad down *)
              Ord.pred credit);
  }

(** [run_measured ~measure ~pad cfg]: run under the measured strategy,
    with the initial credit derived from the initial measure. *)
let run_measured ~measure ~pad (cfg : Step.config) : verdict =
  match measure cfg with
  | None ->
    Rejected (Gave_up, { steps = 0; limit_refinements = 0 })
  | Some mu0 ->
    run
      ~credits:(Ord.hsum mu0 (Ord.of_int (pad + 1)))
      (measured ~measure ~pad ())
      cfg
