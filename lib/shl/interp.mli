(** Executing SHL programs: a budgeted driver over the frame-stack
    {!Machine} (observationally identical to {!Step.prim_step}) with
    step accounting and tracing — the "run the target" half of every
    experiment harness. *)

type outcome =
  | Value of Ast.value * Heap.t
  | Stuck of Step.config * Ast.expr  (** configuration and stuck redex *)
  | Out_of_fuel of Tfiris_robust.Budget.resource * Step.config
      (** which budget resource ran out, and where *)

type stats = {
  steps : int;
  pure_steps : int;
  heap_steps : int;
}

val no_stats : stats

val exec :
  ?fuel:int ->
  ?budget:Tfiris_robust.Budget.t ->
  ?heap:Heap.t ->
  Ast.expr ->
  outcome * stats
(** Run to completion or until the [budget] (default 10⁶ steps) runs
    out.  [fuel] is a steps-only budget that [budget] overrides; it
    exists only for the benchmark's replay ([bench/verdicts/layers.ml])
    and goes when the benchmark is ported to [budget]. *)

val eval :
  ?budget:Tfiris_robust.Budget.t ->
  ?heap:Heap.t ->
  Ast.expr ->
  Ast.value option
(** The result value; [None] on stuck or budget-exhausted runs. *)

val steps_to_value :
  ?budget:Tfiris_robust.Budget.t -> ?heap:Heap.t -> Ast.expr -> int option

val trace : ?fuel:int -> ?heap:Heap.t -> Ast.expr -> Step.config list
(** The finite prefix of the execution trace, initial configuration
    included.  [fuel] (default 1000) bounds the trace's length, not a
    metered run. *)

val diverges_beyond : int -> Ast.expr -> bool
(** [diverges_beyond n e]: [e] runs for at least [n] steps without
    finishing — the bounded, executable face of "e diverges" (true
    divergence is Π⁰₁; callers choose the observation depth). *)
