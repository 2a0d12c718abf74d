(** TerminationSHL: proving termination with transfinite time credits
    (§5 / Theorem 5.1).

    A {e credit strategy} is asked, at every step, for a strictly
    smaller ordinal ([TSource]); the driver validates the descent, so
    {!run} needs {b no fuel}: an accepted run cannot be infinite —
    well-foundedness of ordinals {e is} the termination argument.

    {!countdown} is the classical finite-credits baseline (bounded
    termination, Mével et al.); {!adaptive} instantiates limit credits
    with dynamically learned bounds; {!measured} is a fully online
    lexicographic certificate driven by a configuration measure. *)

module Ord = Tfiris_ordinal.Ord
open Tfiris_shl

type strategy = {
  name : string;
  spend :
    step_no:int ->
    config:Step.config ->
    kind:Step.kind ->
    credit:Ord.t ->
    meter:Tfiris_robust.Budget.meter ->
    Ord.t option;
      (** the new credit; must be strictly smaller.  [None] aborts.
          [meter] is the run's budget, for a strategy's own work (a
          pre-run) to poll its wall deadline; never charge it. *)
}

type stats = {
  steps : int;
  limit_refinements : int;
      (** descents that skipped past the predecessor — the paper's
          "learning dynamic information" moments *)
}

type reason =
  | Not_decreasing of Ord.t * Ord.t
  | Gave_up
  | Stuck of Ast.expr
  | Out_of_budget of Tfiris_robust.Budget.resource
      (** an optional caller-supplied budget ran out — the ordinal
          descent itself needs none *)

type verdict =
  | Terminated of Ast.value * Ord.t * stats  (** value and unspent credit *)
  | Rejected of reason * stats

val pp_verdict : Format.formatter -> verdict -> unit

val rule_name : reason -> string
(** Stable identifier for a rejection reason (e.g.
    ["credit_not_decreasing"]) — used by forensics reports and run
    ledger verdicts. *)

val run :
  ?budget:Tfiris_robust.Budget.t ->
  credits:Ord.t ->
  strategy ->
  Step.config ->
  verdict
(** The descent needs no fuel, but a [budget] still bounds wall clock
    and steps for governance (e.g. against a strategy that pre-runs the
    program forever).  A strategy that answers [None] after tripping the
    meter (the {!adaptive} pre-run at the wall deadline) is reported as
    [Out_of_budget], not [Gave_up]. *)

val terminates :
  ?budget:Tfiris_robust.Budget.t -> credits:Ord.t -> strategy -> Ast.expr -> bool

val countdown : strategy
(** Finite time credits: decrement; gives up at limit ordinals (it
    {e is} the bounded-termination baseline). *)

val remaining_steps :
  ?fuel:int -> ?meter:Tfiris_robust.Budget.meter -> Step.config -> int option
(** {!Machine.steps_to_value} on a whole configuration: the steps left
    to a value within [fuel], [None] as soon as the run cycles, and a
    stop at [meter]'s wall deadline.  [fuel] is a pre-run depth, not a
    run budget: the [meter] is polled, never charged. *)

val adaptive : ?fuel:int -> unit -> strategy
(** Decrement successor credit; instantiate a limit with the now-known
    bound on the rest of the run ([TSource]'s "decrease ω to k·n_f + 1
    once k is learned", §5.1), found by a {!remaining_steps} pre-run
    that honours the run's wall deadline.  [fuel] is that pre-run's
    depth, not a run budget. *)

val scripted : Ord.t list -> strategy

val measured :
  measure:(Step.config -> Ord.t option) -> pad:int -> unit -> strategy
(** Fully online lexicographic certificate: keep the credit at
    [μ(config) ⊕ pad]; drops of the (limit-valued, non-increasing)
    measure reset the pad; flat stretches spend it.  No oracle, no
    pre-running. *)

val run_measured :
  measure:(Step.config -> Ord.t option) -> pad:int -> Step.config -> verdict
