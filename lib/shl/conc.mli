(** Concurrent HeapLang: thread-pool semantics over SHL (§3 — the
    concurrency support Transfinite Iris inherits for safety).

    A configuration is a pool of threads sharing one heap; a scheduler
    picks which thread performs the next primitive step.  [fork e]
    spawns a thread, [cas] is atomic.  {!explore_all} enumerates all
    interleavings by memoized reachability; {!explore} does so over the
    graph with pure-step chains collapsed, which has the same terminal
    outcomes; {!run} executes one scheduler. *)

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

type exploration = {
  final_values : (value * Heap.t) list;  (** deduplicated terminals *)
  stuck : (int * expr) list;
  exhausted : Tfiris_robust.Budget.resource option;
      (** the budget resource that ran out before the frontier emptied,
          if any ([States] for the classic [max_states] cap) *)
  states : int;  (** distinct configurations visited *)
}

val explore :
  ?max_states:int ->
  ?budget:Tfiris_robust.Budget.t ->
  ?domains:int ->
  cfg ->
  exploration
(** Every terminal outcome, by memoized reachability over the {e
    reduced} interleaving graph (finite for the spin-loop programs
    here).  At a state where some thread's next step is a pure head
    step ({!Step.Pure}; [fork] does not count), the lowest-index such
    thread runs alone to the end of its pure chain, and that end is the
    state's only successor; the states inside the chain are never
    stored.  A pure step touches neither the heap nor the pool, so it
    commutes with every other thread's step: the chain is a persistent
    set (Godefroid), and the final values and stuck threads are those
    of {!explore_all}.  If the chain repeats a thread state (a local
    loop, found by Brent's cycle detection), or no thread has a pure
    step, every thread is expanded as in {!explore_all}.  A chain that
    reaches 1000 steps without ending is cut there, and the state it
    reached is expanded in full.  The proviso and the cut read only the
    state, never the visited set, so the reduced graph and its [states]
    count do not depend on the order states are expanded in.

    A visited state is keyed by its interned thread ids plus its sorted
    heap bindings: each distinct plugged thread program gets a small int
    for the length of one exploration, and two ids are equal exactly
    when the programs are structurally equal.  So states whose heaps
    were built in different insertion orders are recognised as equal,
    and key equality is the canonical relation (plugged threads plus
    [Heap.bindings]).  A successor re-plugs and interns only the thread
    that stepped (and a forked one), and reuses its parent's bindings
    when the heap is physically unchanged.

    The sweep is one breadth-first search on the calling domain.
    [?domains] is accepted and ignored: the time-to-verdict harness
    still passes it, and it goes when the harness stops.

    Exhaustion: a [states:] cap stops the frontier from growing but
    drains what was enqueued, so the visited count is exactly [min (cap,
    |reachable|)]; [steps:]/[ms:] exhaustion aborts the sweep.  [steps:]
    counts one step per expanded state plus one per chained pure step.
    A thread that diverges on its own without repeating a state is cut
    every 1000 chained steps, and each cut adds new states, so it
    exhausts [steps:] or [states:], whichever comes first. *)

val explore_all :
  ?max_states:int ->
  ?budget:Tfiris_robust.Budget.t ->
  ?on_state:(cfg -> unit) ->
  cfg ->
  exploration
(** The full interleaving graph: every runnable thread is expanded at
    every state — the reference {!explore} is differentially tested
    against, and the graph a client needs when it must see every pair
    of co-enabled steps.  [~on_state] is invoked once per expanded
    configuration — the frontier callback the dynamic race oracle rides
    on.  Keys and budget semantics as for {!explore} ([steps:] counts
    one step per expanded state). *)

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
