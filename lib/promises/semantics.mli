(** Run-queue scheduler semantics for the async-channel language: the
    JavaScript-promise execution model that Spies et al. [53] target.
    [post e] spawns a task resolving a fresh channel; [wait c] suspends
    until [c] is resolved; one scheduler step = one head step of the
    front runnable task. *)

type chan_state =
  | Pending
  | Resolved of Syntax.term  (** a value *)

type task = {
  resolves : int option;  (** channel this task resolves; [None] = main *)
  body : Syntax.term;
}

type state = {
  run : task list;
  blocked : (int * task) list;  (** waiting on channel *)
  chans : (int * chan_state) list;
  next_chan : int;
  main_result : Syntax.term option;
}

val init : Syntax.term -> state

type frame

val fill : frame list -> Syntax.term -> Syntax.term
val decompose : Syntax.term -> (frame list * Syntax.term) option

type step_outcome =
  | Progress of state
  | Done of Syntax.term  (** main finished with this value *)
  | Deadlock of state
  | Task_stuck of Syntax.term

val pure_head : Syntax.term -> Syntax.term option
val step : state -> step_outcome

type result =
  | Value of Syntax.term * int  (** main value and scheduler steps *)
  | Deadlocked of int
  | Stuck of Syntax.term * int
  | Out_of_fuel

val exec : ?fuel:int -> Syntax.term -> result
(** Run under the round-robin scheduler for at most [fuel] scheduler
    steps.  The promises calculus has no heap cells or budget meter, so
    its bound stays a plain int. *)

val eval : ?fuel:int -> Syntax.term -> Syntax.term option
