(** TerminationSHL: proving termination with transfinite time credits.

    §5 instantiates the liveness logic with ordinals as the source:
    the resource [$α] holds [α] time credits, each target step spends
    credit by the rule [TSource] — replace the current credit [α] by a
    {e strictly smaller} [β].  Theorem 5.1: [⊨ ∃α. {$α} e {True}]
    implies [e] terminates.

    The executable counterpart: a {e credit strategy} (the certificate)
    is asked, at every step of the program, for a strictly smaller
    ordinal; the game validates the descent.  The punchline is that
    {!play} needs {b no fuel}: an accepted run {e cannot} be infinite,
    because an infinite run would be an infinite strictly-descending
    chain of ordinals.  Well-foundedness of [Ord] is the termination
    argument, exactly as in the paper.

    {!play} is the only place the descent is checked, over any
    {!target}: {!run} passes the frame-stack machine, and the §5.2
    promise scheduler ([Tfiris_promises.Termination]) passes its own.

    Finite credits ({!countdown} with a natural-number credit) are the
    classical time credits of Mével et al. [47] — they prove {e bounded}
    termination and need the bound up front.  Transfinite credits
    ({!adaptive}) start at a limit ordinal and instantiate it {e during}
    execution, when the dynamic information (the paper's [k = u ()])
    becomes available.  {!measured} is a fully online lexicographic
    certificate driven by a configuration measure. *)

module Ord = Tfiris_ordinal.Ord
open Tfiris_shl

type 'c strategy = {
  name : string;
  spend :
    step_no:int ->
    config:'c Lazy.t ->
    credit:Ord.t ->
    meter:Tfiris_robust.Budget.meter ->
    Ord.t option;
      (** the new credit; must be strictly smaller.  [None] aborts.
          [config] is the state after the step, built only if forced.
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
  | Stuck of string  (** no step possible, and why *)
  | Out_of_budget of Tfiris_robust.Budget.resource
      (** an optional caller-supplied budget ran out — the ordinal
          descent itself needs none *)

type 'v outcome =
  | Terminated of 'v * Ord.t * stats  (** value and unspent credit *)
  | Rejected of reason * stats

type verdict = Ast.value outcome

val pp_outcome :
  (Format.formatter -> 'v -> unit) -> Format.formatter -> 'v outcome -> unit

val pp_verdict : Format.formatter -> verdict -> unit

val rule_name : reason -> string
(** Stable identifier for a rejection reason (e.g.
    ["credit_not_decreasing"]) — used by forensics reports and run
    ledger verdicts. *)

(** {1 The game} *)

type ('s, 'v) move =
  | Next of 's * string  (** the state after one step, and the step's kind *)
  | Finished of 'v
  | Blocked of string  (** no step possible, and why *)

type ('s, 'c, 'v) target = {
  step : 's -> ('s, 'v) move;
  config : 's -> 'c;  (** the configuration strategies read, on demand *)
  show : 'c -> string;  (** a configuration, for forensics frames *)
}
(** What the game needs of a program, built once per game.  [config]
    is called at most once per step, and only when a strategy or the
    forensics ring forces it. *)

val machine : (Machine.config, Step.config, Ast.value) target
(** The frame-stack machine; its strategies read whole [Step.config]s. *)

val play :
  ?budget:Tfiris_robust.Budget.t ->
  credits:Ord.t ->
  ('s, 'c, 'v) target ->
  'c strategy ->
  's ->
  'v outcome
(** The credit game on any target: the one place the strict-descent
    rule is checked.  Needs no fuel; a [budget] still bounds wall clock
    and steps for governance, charged for each step attempted.  A
    strategy that answers [None] after tripping the meter (the
    {!adaptive} pre-run at the wall deadline) is reported as
    [Out_of_budget], not [Gave_up]. *)

val run :
  ?budget:Tfiris_robust.Budget.t ->
  credits:Ord.t ->
  Step.config strategy ->
  Step.config ->
  verdict
(** {!play} on {!machine}. *)

(** {1 Strategies} *)

val countdown : 'c strategy
(** Finite time credits: decrement; gives up at limit ordinals (it
    {e is} the bounded-termination baseline). *)

val adaptive_with :
  remaining:(meter:Tfiris_robust.Budget.meter -> 'c -> int option) ->
  'c strategy
(** Decrement successor credit; instantiate a limit with the now-known
    bound on the rest of the run ([TSource]'s "decrease ω to k·n_f + 1
    once k is learned", §5.1), found by the pre-run [remaining] from
    the configuration after the step.  Only that limit step forces the
    configuration. *)

val adaptive : ?fuel:int -> unit -> Step.config strategy
(** {!adaptive_with} a {!Machine.steps_to_value} pre-run: the steps
    left within [fuel], [None] as soon as the run cycles, and a stop at
    the run's wall deadline (polled, never charged).  [fuel] is that
    pre-run's depth, not a run budget. *)

val scripted : Ord.t list -> 'c strategy
(** An explicit descent, one credit per step (tests). *)

(** {2 Measured strategies}

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

val measured :
  measure:(Step.config -> Ord.t option) -> pad:int -> unit -> Step.config strategy

val run_measured :
  measure:(Step.config -> Ord.t option) -> pad:int -> Step.config -> verdict
(** {!run} under {!measured}, from the credit the initial measure
    gives. *)
