(** Composable execution budgets with deterministic accounting.

    Every bounded run in the tree — the interpreter, the concurrent
    scheduler and explorer, the refinement drivers, the credit checker —
    takes a {!t}: one record bounding up to four resources at once.  A
    {!meter} does the accounting, so every driver can report {e which}
    resource ran out ({!resource}) instead of a bare "out of fuel".

    Accounting for steps, states and heap cells is exactly
    deterministic: the same program under the same budget trips at the
    same point on every run.  The wall-clock bound is checked only every
    {!wall_check_period} charges, so it perturbs neither the charge
    sequence nor the deterministic resources; runs differing only in
    machine speed can of course trip it at different points — that is
    its job. *)

type resource =
  | Steps  (** primitive steps / scheduling decisions *)
  | States  (** distinct configurations (exhaustive exploration) *)
  | Wall_ms  (** wall-clock milliseconds *)
  | Heap_cells  (** allocated heap cells *)

val resource_name : resource -> string
(** Stable identifier: ["steps"], ["states"], ["ms"], ["cells"] — the
    same keys {!parse} accepts. *)

val pp_resource : Format.formatter -> resource -> unit

type t = {
  steps : int option;
  states : int option;
  wall_ms : int option;
  heap_cells : int option;
}

val unlimited : t

val of_steps : int -> t
(** A steps-only budget: at most [n] primitive steps. *)

val of_states : int -> t
(** A states-only budget: at most [n] explored configurations. *)

val limit : t -> resource -> int option

val parse : string -> (t, string) result
(** [parse "steps:N,states:N,ms:N,cells:N"] (any non-empty subset, any
    order; a bare ["N"] means [steps:N]). *)

val to_string : t -> string
val pp : Format.formatter -> t -> unit
val to_json : t -> Tfiris_obs.Json.t

val resolve : ?fuel:int -> ?budget:t -> default_steps:int -> unit -> t
(** An explicit [budget] wins; otherwise [fuel] (or [default_steps])
    becomes a steps-only budget.  Only [Interp.exec] and
    [Driver.run] still take [?fuel], for the benchmark's replay
    ([bench/verdicts/layers.ml]); this goes with them when the
    benchmark is ported to [budget]. *)

(** {1 Metering} *)

type meter
(** Mutable accounting state for one run.  Charges are O(1); once any
    resource trips, the meter stays exhausted and all further charges
    fail. *)

val wall_check_period : int
(** The wall clock is consulted once per this many {!step} charges. *)

val meter : t -> meter

val step : meter -> bool
(** Charge one step.  [false] iff the budget is (now) exhausted. *)

val state : meter -> bool
(** Charge one explored state. *)

val cells : meter -> int -> bool
(** Charge [n] freshly allocated heap cells. *)

val exhausted : meter -> resource option
(** The resource that tripped, if any. *)

val tripped : meter -> resource
(** Like {!exhausted}, defaulting to [Steps] — for reporting positions
    where the meter is known to have tripped. *)

val steps_used : meter -> int

val wall_expired : meter -> bool
(** Consult the clock now, charging nothing: [true] iff the meter is
    already exhausted or its wall deadline has passed (which trips it
    with [Wall_ms]).  For work done on a run's behalf that must honour
    the caller's deadline without spending its deterministic resources —
    a strategy's pre-run polls this instead of charging {!step}. *)

val remaining : meter -> t
(** What is left: each bounded resource's unspent amount, the wall
    bound as the milliseconds until the deadline (0 once past).  A
    follow-up run given this budget shares the first one's deadline. *)

val limits : meter -> t
(** The budget this meter was created from. *)

val remaining_frac : meter -> float option
(** Fraction (in [[0, 1]]) of the {e tightest} bounded deterministic
    resource (steps, states or cells) still unspent — the "% budget
    remaining" figure progress heartbeats display.  [None] when no
    deterministic resource is bounded.  The wall-clock bound is
    deliberately excluded: reading the clock here would make heartbeat
    sequences nondeterministic under the pinned test clock. *)
