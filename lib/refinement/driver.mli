(** The certified simulation driver: RefinementSHL's semantics,
    executable (§4.2 / Theorem 4.3).

    A {e strategy} (the run-time analogue of a refinement proof) is
    consulted at every target step and either {e advances} the source
    (≥ 1 steps, then may reset its stutter budget to any ordinal) or
    {e stutters}, handing back a {b strictly smaller} ordinal budget.
    Well-foundedness forces every stutter run to be finite, so an
    infinite target run drives the source through infinitely many steps
    (termination preservation); when the target reaches a value the
    driver drains the source and compares ground values (results).

    The driver never trusts the strategy: every source step is executed
    with the real SHL semantics and every budget reset is checked.  An
    [Accepted] verdict is a checked certificate, independent of how the
    strategy was produced. *)

module Ord = Tfiris_ordinal.Ord
open Tfiris_shl

type decision =
  | Stutter of Ord.t
      (** keep the source in place; the new budget must be strictly
          below the current one *)
  | Advance of {
      src_steps : int;  (** ≥ 1 source steps to take *)
      budget : Ord.t;  (** fresh stutter budget (any ordinal) *)
    }

type strategy = {
  name : string;
  decide : step_no:int -> budget:Ord.t -> decision;
}
(** A strategy is consulted after every target step with the step
    number and the current stutter budget.  It sees no configuration:
    one that needs the programs (such as {!Strategy.oracle}) reads them
    when it is built. *)

type stats = {
  target_steps : int;
  source_steps : int;
  stutters : int;
  budget_resets : int;
}

type reject_reason =
  | Budget_not_decreasing of Ord.t * Ord.t  (** (old, claimed new) *)
  | Advance_needs_progress
  | Source_stuck of Step.config
  | Source_finished_early of Ast.value
  | Target_stuck of Ast.expr
  | Value_mismatch of Ast.value * Ast.value
  | Result_not_ground of Ast.value
      (** [⪯G] is at ground type: closures are not results *)
  | Source_did_not_terminate

type outcome =
  | Terminated of Ast.value  (** both sides reached this ground value *)
  | Fuel_exhausted of Tfiris_robust.Budget.resource
      (** the named budget resource ran out with the game healthy; the
          adequacy harness checks the source step count grows without
          bound for diverging targets *)

type verdict =
  | Accepted of outcome * stats
  | Rejected of reject_reason * stats

val pp_reject : Format.formatter -> reject_reason -> unit

val rule_name : reject_reason -> string
(** Stable identifier for a rejection reason (e.g.
    ["budget_not_decreasing"]) — used by forensics reports and run
    ledger verdicts. *)

val pp_verdict : Format.formatter -> verdict -> unit

val is_ground : Ast.value -> bool

type ('c, 'k) target = {
  value : 'c -> Ast.value option;  (** the result, once finished *)
  step : 'c -> ('c * 'k, Step.error) result;  (** one target step *)
  config : 'c -> Step.config;
      (** the configuration shown in forensics frames, built only while
          the ring records *)
}
(** What the game needs of a target, built once per game.  ['k] is
    whatever the stepper reports alongside the new state; the game
    ignores it.  {!run}'s instance steps with {!Machine.prim_step}
    itself. *)

val play :
  budget:Tfiris_robust.Budget.t ->
  ('c, 'k) target ->
  'c ->
  source:Step.config ->
  strategy ->
  verdict
(** The game on any target, from the given state, with {!run}'s
    default initial stutter budget: the one place the stutter-budget
    rule is checked.  [budget] bounds the target, and the source gets a
    meter of its own from it, as in {!run}. *)

val run :
  ?fuel:int ->
  ?budget:Tfiris_robust.Budget.t ->
  ?init_budget:Ord.t ->
  target:Step.config ->
  source:Step.config ->
  strategy ->
  verdict
(** Execute the refinement game; [budget] (default 10⁶ steps) bounds
    the target, and the source (advances plus the final drain) gets a
    meter of its own from the same budget.  [fuel] is a steps-only
    budget that [budget] overrides; it exists only for the benchmark's
    replay ([bench/verdicts/layers.ml]) and goes when the benchmark is
    ported to [budget]. *)

val refine :
  ?budget:Tfiris_robust.Budget.t ->
  ?init_budget:Ord.t ->
  target:Ast.expr ->
  source:Ast.expr ->
  strategy ->
  verdict
(** {!run} on closed expressions with empty heaps. *)
