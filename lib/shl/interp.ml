(** Executing SHL programs: a budgeted driver over the frame-stack
    {!Machine} with step accounting and optional tracing.  This is the
    "run the target" half of every experiment harness.  The machine is
    observationally identical to {!Step.prim_step} (differentially
    tested), so the outcomes below are still stated in terms of
    {!Step.config}; whole configurations are only materialised at run
    boundaries, never per step.

    Step accounting feeds the {!Tfiris_obs} metrics registry: the
    per-kind counters ([shl.interp.steps.*]) are bumped once per run
    with the same per-kind counts that {!stats} is derived from, so the
    two views cannot drift apart (and the disabled path costs one
    branch per run, not per step). *)

open Ast
module Metrics = Tfiris_obs.Metrics
module Trace = Tfiris_obs.Trace
module Span = Tfiris_obs.Span
module Budget = Tfiris_robust.Budget

type outcome =
  | Value of value * Heap.t
  | Stuck of Step.config * expr  (** configuration and its stuck redex *)
  | Out_of_fuel of Budget.resource * Step.config
      (** which budget resource ran out, and where *)

type stats = {
  steps : int;  (** total primitive steps *)
  pure_steps : int;
  heap_steps : int;
}

let no_stats = { steps = 0; pure_steps = 0; heap_steps = 0 }

(* The single source of truth for step accounting: per-kind counts,
   accumulated locally in the run loop and published once per run. *)
type counts = {
  mutable pure : int;
  mutable alloc : int;
  mutable load : int;
  mutable store : int;
}

let fresh_counts () = { pure = 0; alloc = 0; load = 0; store = 0 }

let bump (c : counts) (kind : Step.kind) =
  match kind with
  | Step.Pure -> c.pure <- c.pure + 1
  | Step.Alloc _ -> c.alloc <- c.alloc + 1
  | Step.Load_of _ -> c.load <- c.load + 1
  | Step.Store_to _ -> c.store <- c.store + 1

let c_pure = Metrics.counter "shl.interp.steps.pure"
let c_alloc = Metrics.counter "shl.interp.steps.alloc"
let c_load = Metrics.counter "shl.interp.steps.load"
let c_store = Metrics.counter "shl.interp.steps.store"
let c_runs = Metrics.counter "shl.interp.runs"
let c_out_of_fuel = Metrics.counter "shl.interp.out_of_fuel"
let c_stuck = Metrics.counter "shl.interp.stuck"
let h_fuel = Metrics.histogram "shl.interp.fuel_used"

(** [stats_of_counts c]: the classic three-number summary, {e derived}
    from the same counts that go to the metrics registry. *)
let stats_of_counts (c : counts) : stats =
  {
    steps = c.pure + c.alloc + c.load + c.store;
    pure_steps = c.pure;
    heap_steps = c.alloc + c.load + c.store;
  }

(* Publish one run's counts into the registry and return the summary. *)
let publish (c : counts) (outcome : outcome) : stats =
  let st = stats_of_counts c in
  if Metrics.on () then begin
    Metrics.incr c_runs;
    Metrics.add c_pure c.pure;
    Metrics.add c_alloc c.alloc;
    Metrics.add c_load c.load;
    Metrics.add c_store c.store;
    Metrics.observe_int h_fuel st.steps;
    match outcome with
    | Out_of_fuel _ -> Metrics.incr c_out_of_fuel
    | Stuck _ -> Metrics.incr c_stuck
    | Value _ -> ()
  end;
  st

(** [exec ?budget ?heap e]: run [e] to completion (or until the
    budget runs out), returning the outcome and step statistics.
    [?fuel] is a steps-only budget kept only for the benchmark's replay
    ([bench/verdicts/layers.ml]); [budget] overrides it.

    Budget accounting is exact: a configuration that {e finishes} (or
    gets stuck) after exactly [n] steps of an [n]-step budget is
    reported as such —
    [Out_of_fuel] means the program would genuinely have taken a
    further step (or allocated a further cell, or run past the wall
    deadline). *)
let exec ?fuel ?budget ?(heap = Heap.empty) (e : expr) : outcome * stats =
  let b = Budget.resolve ?fuel ?budget ~default_steps:1_000_000 () in
  let m = Budget.meter b in
  let counts = fresh_counts () in
  let rec go (th : Machine.t) (h : Heap.t) =
    match Machine.step h th with
    | Machine.Final v -> Value (v, h)
    | Machine.Stuck_redex redex ->
      Stuck ({ Step.expr = Machine.plug th; heap = h }, redex)
    | Machine.Stepped (th', h', kind) ->
      let within =
        Budget.step m
        && (match kind with Step.Alloc _ -> Budget.cells m 1 | _ -> true)
      in
      if not within then
        Out_of_fuel (Budget.tripped m, { Step.expr = Machine.plug th; heap = h })
      else begin
        bump counts kind;
        go th' h'
      end
  in
  let outcome =
    Span.run ~name:"shl.exec"
      ~attrs:(fun () -> [ ("budget", Trace.S (Budget.to_string b)) ])
      (fun _ -> go (Machine.inject e) heap)
  in
  (outcome, publish counts outcome)

(** [eval e]: the result value, or [None] on stuck/diverging (within
    budget) executions. *)
let eval ?budget ?heap e =
  match exec ?budget ?heap e with
  | Value (v, _), _ -> Some v
  | (Stuck _ | Out_of_fuel _), _ -> None

(** [steps_to_value e]: number of steps to reach a value, if reached. *)
let steps_to_value ?budget ?heap e =
  match exec ?budget ?heap e with
  | Value _, stats -> Some stats.steps
  | (Stuck _ | Out_of_fuel _), _ -> None

(** The finite prefix of the execution trace of [e]: the successive
    configurations, including the initial one.  [fuel] bounds the
    trace's length, not a metered run.  Like {!exec}, the bound is
    exact: a program that terminates in exactly [fuel] steps yields its
    complete trace. *)
let trace ?(fuel = 1000) ?(heap = Heap.empty) (e : expr) : Step.config list =
  (* Tracing materialises a whole configuration per step by design —
     the trace *is* the list of plugged configurations. *)
  let rec go (c : Machine.config) acc n =
    let cfg = Machine.to_config c in
    match Machine.prim_step c with
    | Error (Step.Finished | Step.Stuck _) -> List.rev (cfg :: acc)
    | Ok (c', _) ->
      if n = 0 then List.rev (cfg :: acc) else go c' (cfg :: acc) (n - 1)
  in
  go (Machine.config ~heap e) [] fuel

(** [diverges_beyond n e]: [e] runs for {e more than} [n] steps without
    finishing — the bounded, executable face of "e diverges".  (True
    divergence is Π⁰₁; every harness that "checks divergence" checks
    this for a caller-chosen [n], and says so.)  A program terminating
    in exactly [n] steps does {e not} count as diverging. *)
let diverges_beyond n e =
  match exec ~budget:(Budget.of_steps n) e with
  | Out_of_fuel _, _ -> true
  | (Value _ | Stuck _), _ -> false
