(** Concurrent HeapLang: thread-pool semantics over SHL (§3 — the
    concurrency support Transfinite Iris inherits for safety).

    A configuration is a pool of threads sharing one heap; a scheduler
    picks which thread performs the next primitive step.  [fork e]
    spawns a thread, [cas] is atomic.  {!explore} enumerates all
    interleavings by memoized reachability; {!run} executes one
    scheduler. *)

open Ast

type cfg = {
  threads : Machine.t list;
      (** thread 0 is the main thread; each thread carries its own
          frame stack ({!Machine.t}) so scheduling steps never
          re-decompose the thread's program *)
  heap : Heap.t;
}

val init : ?heap:Heap.t -> expr -> cfg

val thread_exprs : cfg -> expr list
(** The threads as whole programs (plugged) — canonical form for keys
    and debugging; O(frame-stack depth) each. *)

val main_value : cfg -> value option
(** The main thread's value, once it has one. *)

type thread_step =
  | T_progress of cfg
  | T_value  (** the thread is already a value *)
  | T_stuck of expr

val step_thread : cfg -> int -> thread_step
val runnable : cfg -> int list

type outcome =
  | All_done of value * Heap.t  (** all threads finished; main's value *)
  | Thread_stuck of int * expr
  | Out_of_fuel of Tfiris_robust.Budget.resource * cfg
      (** which budget resource ran out, and the configuration reached *)

type scheduler = step_no:int -> runnable:int list -> cfg -> int

val round_robin : scheduler

val seeded : int -> scheduler
(** Deterministic pseudo-random scheduler: reproducible per seed. *)

val run : ?budget:Tfiris_robust.Budget.t -> sched:scheduler -> cfg -> outcome

val run_stats :
  ?budget:Tfiris_robust.Budget.t -> sched:scheduler -> cfg -> outcome * int
(** Like {!run}, also returning the number of scheduling decisions
    taken; with a deterministic scheduler both components are
    reproducible (tested).  The [budget] defaults to 10⁶ scheduling
    decisions; heap-cell charges use the O(1)
    allocation counter, so they are deterministic too. *)

(** Per-worker accounting from a parallel exploration. *)
type worker_stat = {
  w_domain : int;
  w_dequeued : int;  (** configurations this worker expanded *)
  w_stolen : int;  (** successful steal raids on other deques *)
  w_wall_ms : float;  (** wall time inside the worker loop *)
  w_mem : Tfiris_obs.Telemetry.mem;  (** this domain's own GC delta *)
}

type exploration = {
  final_values : (value * Heap.t) list;  (** deduplicated terminals *)
  stuck : (int * expr) list;
  exhausted : Tfiris_robust.Budget.resource option;
      (** the budget resource that ran out before the frontier emptied,
          if any ([States] for the classic [max_states] cap) *)
  states : int;  (** distinct configurations visited *)
  workers : worker_stat list;
      (** per-domain split; [[]] for the sequential engine *)
}

val default_domains : unit -> int
(** The worker count the [TFIRIS_DOMAINS] environment variable asks
    for (>= 1; 1 when unset or unparsable) — the default every
    [?domains] consumer falls back to, so CI can run the whole suite
    once over the parallel engines. *)

val explore :
  ?max_states:int ->
  ?budget:Tfiris_robust.Budget.t ->
  ?domains:int ->
  ?on_state:(cfg -> unit) ->
  cfg ->
  exploration
(** All interleavings, by memoized reachability over configurations
    (finite for the spin-loop programs here).  A visited state is keyed
    by its interned thread ids plus its sorted heap bindings: each
    distinct plugged thread program gets a small int for the length of
    one exploration, and two ids are equal exactly when the programs
    are structurally equal.  So states whose heaps were built in
    different insertion orders are recognised as equal, and key
    equality is the canonical relation (plugged threads plus
    [Heap.bindings]).  A successor re-plugs and interns only the thread
    that stepped (and a forked one), and reuses its parent's bindings
    when the heap is physically unchanged.

    [~domains:n] with [n >= 2] switches to the work-stealing parallel
    engine ({!Par_explore}); omitted, the [TFIRIS_DOMAINS] environment
    variable supplies the default (else 1, the sequential reference
    engine).  [~on_state] is invoked once per expanded configuration —
    the frontier callback the dynamic race oracle rides on; with
    [domains >= 2] it runs on worker domains and must be thread-safe.

    Exhaustion semantics at any domain count: a [states:] cap stops the
    frontier from growing but drains what was enqueued, so the visited
    count is exactly [min (cap, |reachable|)] — deterministic even in
    parallel; [steps:]/[ms:] exhaustion aborts the sweep. *)

(** The work-stealing parallel engine itself: a visited set and an
    intern table each split into 64 mutex-guarded shards chosen by the
    key hash's high bits (owner-independent membership; the low bits
    stay free for the shards' own buckets), one frontier deque per
    domain with randomized stealing, and a shared atomic budget meter
    so the fleet exhausts globally.  The sequential engine is the
    reference: a QCheck differential property holds both to identical
    reachable sets at 1/2/4 domains. *)
module Par_explore : sig
  val explore :
    ?max_states:int ->
    ?budget:Tfiris_robust.Budget.t ->
    ?on_state:(cfg -> unit) ->
    domains:int ->
    cfg ->
    exploration
  (** Run on [domains] workers (the calling domain plus [domains - 1]
      spawned ones); [domains = 1] exercises the parallel machinery
      without spawning. *)

  val shard_stats :
    domains:int -> cfg -> Hashtbl.statistics list * Hashtbl.statistics list
  (** Explore under the default budget and return the bucket statistics
      of every visited-set shard and every intern-table shard — how the
      tests check that keys spread over a shard's buckets. *)

  val set_steal_fault : (worker:int -> victim:int -> bool) option -> unit
  (** Chaos hook: veto individual steal attempts (an unfair/starving
      scheduler).  Soundness must not depend on stealing — owners always
      drain their own deque — which the chaos battery asserts. *)
end

(** {1 Classic concurrent programs} *)

val racy_incr : expr
(** Two unlocked writers: exploration finds the lost update ({1, 2}). *)

val locked_incr : expr
(** CAS retry loops: {2} on every schedule. *)

val spinlock_pair : expr
(** Spin lock around a two-cell critical section, final read under the
    lock: (2, 2) only. *)

val spinlock_pair_racy_read : expr
(** The broken variant (read outside the lock): exploration exhibits a
    mid-critical-section observation (2, 1). *)
