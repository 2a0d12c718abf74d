(* TerminationSHL's credit game (§5, Theorem 5.1); the interface
   documents the rule, the targets and the strategies. *)

module Ord = Tfiris_ordinal.Ord
module Metrics = Tfiris_obs.Metrics
module Trace = Tfiris_obs.Trace
module Forensics = Tfiris_obs.Forensics
module Json = Tfiris_obs.Json
module Span = Tfiris_obs.Span
module Budget = Tfiris_robust.Budget
open Tfiris_shl

type 'c strategy = {
  name : string;
  spend :
    step_no:int ->
    config:'c Lazy.t ->
    credit:Ord.t ->
    meter:Budget.meter ->
    Ord.t option;
}

type stats = {
  steps : int;
  limit_refinements : int;
}

let no_stats = { steps = 0; limit_refinements = 0 }

type reason =
  | Not_decreasing of Ord.t * Ord.t
  | Gave_up
  | Stuck of string
  | Out_of_budget of Budget.resource

type 'v outcome =
  | Terminated of 'v * Ord.t * stats
  | Rejected of reason * stats

type verdict = Ast.value outcome

let pp_outcome pp_value ppf = function
  | Terminated (v, left, st) ->
    Format.fprintf ppf "terminated with %a in %d steps (credit left: %a)"
      pp_value v st.steps Ord.pp left
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

let pp_verdict ppf v = pp_outcome Pretty.pp_value ppf v

(* ---------- observability ---------- *)

let c_runs = Metrics.counter "termination.wp.runs"
let c_spends = Metrics.counter "termination.wp.credit_spends"
let c_limit = Metrics.counter "termination.wp.limit_refinements"
let c_rejections = Metrics.counter "termination.wp.rejections"
let h_steps = Metrics.histogram "termination.wp.run_steps"

(* ---------- forensics ---------- *)

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
  | Stuck why -> why
  | Out_of_budget r ->
    Format.asprintf "%a budget exhausted" Budget.pp_resource r

(* One recorded frame per credit spend: the configuration the strategy
   was consulted on, the step kind, and the credit before/after. *)
let spend_frame ~step_no ~shown ~kind ~credit res : Forensics.frame =
  {
    Forensics.f_step = step_no;
    f_label = "spend";
    f_data =
      [
        ("expr", Json.Str (Forensics.trunc shown));
        ("step_kind", Json.Str kind);
        ("credit", Json.Str (Ord.to_string credit));
        ( "new_credit",
          match res with
          | Some c -> Json.Str (Ord.to_string c)
          | None -> Json.Null );
      ];
  }

let publish (v : 'v outcome) : 'v outcome =
  if Metrics.on () then begin
    let st = match v with Terminated (_, _, st) | Rejected (_, st) -> st in
    Metrics.incr c_runs;
    Metrics.add c_spends st.steps;
    Metrics.add c_limit st.limit_refinements;
    Metrics.observe_int h_steps st.steps;
    match v with Rejected _ -> Metrics.incr c_rejections | Terminated _ -> ()
  end;
  v

(* ---------- the game ---------- *)

type ('s, 'v) move = Next of 's * string | Finished of 'v | Blocked of string

type ('s, 'c, 'v) target = {
  step : 's -> ('s, 'v) move;
  config : 's -> 'c;
  show : 'c -> string;
}

let kind_name = function
  | Step.Pure -> "pure"
  | Step.Alloc _ -> "alloc"
  | Step.Load_of _ -> "load"
  | Step.Store_to _ -> "store"

let machine : (Machine.config, Step.config, Ast.value) target =
  {
    step =
      (fun { Machine.thread; heap } ->
        match Machine.step heap thread with
        | Machine.Stepped (thread, heap, kind) ->
          Next ({ Machine.thread; heap }, kind_name kind)
        | Machine.Final v -> Finished v
        | Machine.Stuck_redex redex ->
          Blocked
            ("program stuck at " ^ Forensics.trunc (Pretty.expr_to_string redex)));
    config = Machine.to_config;
    show = (fun cfg -> Pretty.expr_to_string cfg.Step.expr);
  }

(* Terminates unconditionally: each iteration strictly decreases an
   ordinal (validated), and ordinal descent is well-founded.  Each run
   batches its counters into the [termination.wp.*] metrics; with
   tracing on, the run is a span and every limit-ordinal instantiation
   is an instant event. *)
let play ?budget ~credits (tg : ('s, 'c, 'v) target) (s : 'c strategy)
    (st0 : 's) : 'v outcome =
  let meter = Budget.meter (Option.value budget ~default:Budget.unlimited) in
  let rec go sp st credit stats =
    match tg.step st with
    | Finished v -> Terminated (v, credit, stats)
    (* every attempted step is charged, a stuck one included *)
    | Next _ | Blocked _ when not (Budget.step meter) ->
      Rejected (Out_of_budget (Budget.tripped meter), stats)
    | Blocked why -> Rejected (Stuck why, stats)
    | Next (st', kind) -> (
      Span.tick sp Budget.progress meter;
      let step_no = stats.steps + 1 in
      (* built at most once, and only if a strategy or the ring reads it *)
      let config = lazy (tg.config st') in
      let res = s.spend ~step_no ~config ~credit ~meter in
      if Span.recording sp then
        Span.frame sp
          (spend_frame ~step_no ~shown:(tg.show (Lazy.force config)) ~kind
             ~credit res);
      match res with
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
          go sp st' credit'
            {
              steps = step_no;
              limit_refinements =
                (stats.limit_refinements + if was_limit_jump then 1 else 0);
            }
        end
        else
          Rejected
            (Not_decreasing (credit, credit'), { stats with steps = step_no }))
  in
  publish
    (Span.run ~name:"wp.run" ~component:"termination.wp"
       ~attrs:(fun () ->
         [
           ("strategy", Trace.S s.name);
           ("credits", Trace.S (Ord.to_string credits));
         ])
       (fun sp ->
         let verdict = go sp st0 credits no_stats in
         (match verdict with
         | Rejected (r, st) when Span.recording sp ->
           Span.reject sp ~rule:(rule_name r) ~step:st.steps
             ~reason:(reason_text r)
             ~attrs:
               [
                 ("strategy", Json.Str s.name);
                 ("credits", Json.Str (Ord.to_string credits));
                 ("steps", Json.Int st.steps);
                 ("limit_refinements", Json.Int st.limit_refinements);
               ]
         | Rejected _ | Terminated _ -> ());
         verdict))

let run ?budget ~credits s (cfg : Step.config) : verdict =
  play ?budget ~credits machine s (Machine.of_config cfg)

(* ---------- strategies ---------- *)

let countdown : 'c strategy =
  {
    name = "countdown";
    spend = (fun ~step_no:_ ~config:_ ~credit ~meter:_ -> Ord.pred credit);
  }

let adaptive_with ~(remaining : meter:Budget.meter -> 'c -> int option) :
    'c strategy =
  {
    name = "adaptive";
    spend =
      (fun ~step_no:_ ~config ~credit ~meter ->
        match Ord.pred credit with
        | Some c -> Some c
        | None ->
          if Ord.is_zero credit then None
          else
            (* limit ordinal: learn the remaining bound dynamically; the
               pre-run stops at the run's wall deadline *)
            Option.map Ord.of_int (remaining ~meter (Lazy.force config)));
  }

let adaptive ?fuel () : Step.config strategy =
  adaptive_with ~remaining:(fun ~meter cfg ->
      Machine.steps_to_value ?fuel ~meter (Machine.of_config cfg))

let scripted (descents : Ord.t list) : 'c strategy =
  let arr = Array.of_list descents in
  {
    name = "scripted";
    spend =
      (fun ~step_no ~config:_ ~credit:_ ~meter:_ ->
        if step_no - 1 < Array.length arr then Some arr.(step_no - 1) else None);
  }

let measured ~(measure : Step.config -> Ord.t option) ~(pad : int) () :
    Step.config strategy =
  {
    name = Printf.sprintf "measured(pad=%d)" pad;
    spend =
      (fun ~step_no:_ ~config ~credit ~meter:_ ->
        match measure (Lazy.force config) with
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

let run_measured ~measure ~pad (cfg : Step.config) : verdict =
  match measure cfg with
  | None -> Rejected (Gave_up, no_stats)
  | Some mu0 ->
    run
      ~credits:(Ord.hsum mu0 (Ord.of_int (pad + 1)))
      (measured ~measure ~pad ())
      cfg
