(** Frame-stack (CEK-style) execution engine for SHL.

    Keeps the CBV decomposition [K[e]] as machine state, so one step is
    one head step plus O(1) amortised refocusing — no whole-program
    {!Ctx.decompose}/{!Ctx.fill} per step.  Observationally identical to
    {!Step.prim_step}: same step count, same {!Step.kind} per step, same
    final value and heap, same stuck redex; {!lockstep} checks this
    online and the differential property suite checks it on random
    programs. *)

type t = private {
  focus : Ast.expr;
  ctx : Ctx.t;
}
(** A machine thread: the focused expression and its surrounding frame
    stack, heap kept separate so concurrent threads can share one.
    Normalised: [focus] is either a head redex, or a value with empty
    [ctx]. *)

type view =
  | V_value of Ast.value  (** the whole thread is this value *)
  | V_redex of Ast.expr  (** the head redex in focus *)

val inject : Ast.expr -> t
(** Focus an arbitrary expression (O(depth of the leftmost redex)). *)

val plug : t -> Ast.expr
(** Rebuild the whole program — O(context depth).  Run boundaries and
    strategy callbacks only, never the per-step path. *)

val view : t -> view
(** What the thread is about to do — O(1). *)

type step_result =
  | Stepped of t * Heap.t * Step.kind
  | Final of Ast.value  (** the thread is a value (no step taken) *)
  | Stuck_redex of Ast.expr  (** the head redex cannot step *)

val step : Heap.t -> t -> step_result
(** One genuine head step of a thread in a heap; refocusing is
    administrative and never counted. *)

val step_fork : t -> (Ast.expr * t) option
(** If the focus is a [fork body] redex: the spawned body and the parent
    thread with the hole filled by [()].  Consumed only by the
    {!Conc} scheduler — [fork] is not a sequential head step. *)

val same_thread : t -> t -> bool
(** Two states of one thread's run are the same machine state: equal
    focus and equal frame stacks.  The stacks are compared only down to
    a physically shared tail met within 32 frames, so a false negative
    is possible (a stack that swings deeper within one loop turn) and a
    false positive is not.  Cycle detection on single-thread runs: the
    pre-runs below and {!Conc}'s pure chains. *)

(** {1 Whole-configuration driving} *)

type config = {
  thread : t;
  heap : Heap.t;
}
(** Machine counterpart of {!Step.config}. *)

val config : ?heap:Heap.t -> Ast.expr -> config
val of_config : Step.config -> config
val to_config : config -> Step.config

val prim_step : config -> (config * Step.kind, Step.error) result
(** Drop-in machine replacement for {!Step.prim_step}. *)

(** {1 Pre-runs} *)

type prerun =
  | Value_in of int  (** reached a value after this many steps *)
  | Stuck_in of int  (** stuck after this many steps *)
  | Cycle_in of int
      (** the configuration after this many steps repeats an earlier
          one: the run never finishes *)
  | Cut of Tfiris_robust.Budget.resource
      (** [Steps]: out of fuel; [Wall_ms]: the meter's deadline passed *)

val prerun :
  ?fuel:int -> ?meter:Tfiris_robust.Budget.meter -> config -> prerun
(** Run to a value for at most [fuel] steps (default 10⁷), stopping at
    the first repeated configuration.  Brent's cycle detection over the
    configurations about to take a β-step (every cycle has one): a
    cycle of [λ] β-steps entered after [μ] of them is cut within
    [2·max(μ, λ) + λ] β-steps instead of at [fuel], unless its frame
    stack swings by more than 32 frames within one turn.
    A repeat proves divergence ([prim_step] is a function of the
    compared configuration).  [meter] is only polled for its wall
    deadline ({!Tfiris_robust.Budget.wall_expired}), never charged.
    [fuel] is a pre-run depth, not a run budget, so it stays an int. *)

val steps_to_value :
  ?fuel:int -> ?meter:Tfiris_robust.Budget.meter -> config -> int option
(** The steps to a value, if {!prerun} reaches one.  Without a [meter]
    this always equals the plain fuel-bounded loop's answer — it is
    just reached early on a cycling run.  The pre-run of the
    adaptive-credit and refinement oracles; [fuel] is {!prerun}'s depth. *)

(** {1 Differential (lockstep) mode} *)

type mismatch = {
  at_step : int;
  what : string;  (** which observation disagreed *)
}

type lockstep_outcome =
  | Agree_value of Ast.value * Heap.t * int
      (** final value, final heap, steps taken *)
  | Agree_stuck of Ast.expr * int  (** stuck redex, steps taken before *)
  | Agree_out_of_fuel of int
  | Disagree of mismatch

val kind_eq : Step.kind -> Step.kind -> bool

val lockstep :
  ?budget:Tfiris_robust.Budget.t ->
  ?heap:Heap.t ->
  Ast.expr ->
  lockstep_outcome
(** Run machine and reference stepper side by side, comparing plugged
    expression, heap, and step kind after every step, and the outcome at
    the end.  The [budget] defaults to 10⁴ steps. *)

val pp_lockstep : Format.formatter -> lockstep_outcome -> unit
