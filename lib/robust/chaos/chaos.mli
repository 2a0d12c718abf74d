(** Seeded fault injection: soundness under hostile conditions.

    The paper's headline results are {e negative} facts — the finite
    model validates [∃n. ▷ⁿ False] with no valid member, [t∞ ⪯ s<∞]
    holds approximately but not coherently, a non-descending credit
    strategy must be rejected.  Those verdicts are only worth something
    if they survive an environment that misbehaves: schedulers that
    starve or persecute threads, allocations that fail, trace sinks
    that throw, clocks that lie.

    Each {e seed} deterministically derives a fault plan (which faults
    are armed and with what periods) and replays a fixed battery of
    soundness checks under it.  The contract, per check:

    - the verdict is the same one the quiet world gives, {b or}
    - the run degrades to a structured {!Tfiris_robust.Failure.t}
      (e.g. [Fault_injected] when an armed allocation fault fired);
    - it {b never} crashes with an unstructured exception, and never
      flips to the unsound verdict.

    Everything is reproducible from the seed: no wall clock, no global
    randomness.  The harness restores all hooks (scheduler randomness
    is per-run, the heap fault hook, the trace sink and clock) on exit,
    even on exception. *)

open Tfiris_shl

(** {1 Hostile schedulers} *)

val adversarial : int -> Conc.scheduler
(** Seeded persecution: usually picks the highest-index runnable
    thread (latest spawn), with seeded random deviations — the
    opposite of round-robin fairness. *)

val starving : int -> Conc.scheduler
(** Starves thread 0 (the main thread) whenever any other thread is
    runnable; seeded choice among the others. *)

(** {1 Fault plans} *)

type plan = {
  alloc_fault_period : int option;
      (** every [n]-th allocation raises {!Heap.Alloc_failure} *)
  failing_sink : bool;  (** tracing on, into a sink that throws *)
  clock_skew : bool;  (** trace clock jumps backwards and forwards *)
  cache_corrupt : bool;
      (** certificate-cache reads return truncated, bit-flipped bytes
          ({!Tfiris_obs.Certcache.set_read_fault}) — a corrupt entry
          must degrade to a miss (re-verification), never flip a
          verdict or crash *)
}

val plan_of_seed : int -> plan
(** The deterministic fault plan for a seed. *)

val pp_plan : Format.formatter -> plan -> unit

val with_plan : plan -> (unit -> 'a) -> 'a
(** Install the plan's hooks, run, restore — exception-safe. *)

(** {1 The battery} *)

type check_outcome =
  | Sound  (** the quiet-world verdict, reproduced under fault *)
  | Degraded of Tfiris_robust.Failure.t
      (** a structured, non-internal failure — acceptable *)
  | Unsound of string  (** the verdict flipped: a real soundness bug *)
  | Crashed of Tfiris_robust.Failure.t
      (** an {!Tfiris_robust.Failure.Internal} escaped: a real bug *)

type check_result = {
  check : string;  (** stable identifier *)
  outcome : check_outcome;
}

val outcome_ok : check_outcome -> bool
(** [Sound] and [Degraded] pass; [Unsound] and [Crashed] fail. *)

type seed_report = {
  seed : int;
  plan : plan;
  results : check_result list;
}

val run_seed : int -> seed_report

type report = {
  seeds : int;
  checks_run : int;
  failures : (int * check_result) list;  (** (seed, failing check) *)
  sink_errors : int;
      (** trace-sink throws swallowed and counted across the run *)
}

val run : ?seeds:int -> unit -> report
(** Replay the battery under [seeds] (default 50) fault plans. *)

val passed : report -> bool
val report_to_json : report -> Tfiris_obs.Json.t
val pp_report : Format.formatter -> report -> unit
