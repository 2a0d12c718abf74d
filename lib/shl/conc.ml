(** Concurrent HeapLang: thread-pool semantics over SHL.

    §3 of the paper notes that Transfinite Iris {e inherits} Iris's
    support for safety reasoning about concurrent programs (only
    step-indexed {e liveness} for concurrency is left to future work).
    This module supplies the concurrent substrate: a configuration is a
    pool of threads sharing one heap; a scheduler picks which thread
    performs the next primitive step.  [fork e] spawns a thread; [cas]
    is atomic (it is a single primitive step, like every head step
    here — the granularity of Iris's HeapLang).

    Safety is checked two ways:

    - {!run}: execute under a specific scheduler (round-robin or a
      seeded pseudo-random one);
    - {!explore_all}: enumerate {b all} interleavings up to a step
      bound — small-scope model checking, used to show e.g. that an
      unlocked parallel counter loses updates on {e some} schedule
      while the CAS-locked version is correct on {e all} of them;
    - {!explore}: the same terminal outcomes over the reduced graph,
      where a thread's run of pure steps is one edge. *)

open Ast
module Budget = Tfiris_robust.Budget
module Progress = Tfiris_obs.Progress
module Span = Tfiris_obs.Span

type cfg = {
  threads : Machine.t list;  (** thread 0 is the main thread *)
  heap : Heap.t;
}

let init ?(heap = Heap.empty) (e : expr) : cfg =
  { threads = [ Machine.inject e ]; heap }

let thread_exprs (c : cfg) : expr list = List.map Machine.plug c.threads

(** The main thread's value, once it has one. *)
let main_value (c : cfg) : value option =
  match c.threads with
  | th :: _ -> (
    match Machine.view th with
    | Machine.V_value v -> Some v
    | Machine.V_redex _ -> None)
  | [] -> None

type thread_step =
  | T_progress of cfg
  | T_value  (** the thread is already a value (no step taken) *)
  | T_stuck of expr

(* The pool with thread [i] replaced by [th]: it copies the threads
   before [i] and shares the rest. *)
let set_thread (c : cfg) (i : int) (th : Machine.t) : Machine.t list =
  let rec go j = function
    | [] -> []
    | t :: rest -> if j = i then th :: rest else t :: go (j + 1) rest
  in
  go 0 c.threads

(** Step thread [i] once.  Each thread carries its own frame stack, so
    a scheduling step costs one head step plus O(1) refocusing — the
    scheduler no longer re-decomposes every thread it touches.  A
    [fork e'] redex spawns a new thread at the end of the pool and
    fills the hole with [()]. *)
let step_thread (c : cfg) (i : int) : thread_step =
  match List.nth_opt c.threads i with
  | None -> T_stuck (Val Unit)
  | Some th -> (
    match Machine.step_fork th with
    | Some (body, th') ->
      T_progress
        {
          threads = set_thread c i th' @ [ Machine.inject body ];
          heap = c.heap;
        }
    | None -> (
      match Machine.step c.heap th with
      | Machine.Final _ -> T_value
      | Machine.Stuck_redex redex -> T_stuck redex
      | Machine.Stepped (th', h', _) ->
        T_progress { threads = set_thread c i th'; heap = h' }))

(** Threads that can currently take a step. *)
let runnable (c : cfg) : int list =
  let rec from i = function
    | [] -> []
    | th :: rest -> (
      match Machine.view th with
      | Machine.V_value _ -> from (i + 1) rest
      | Machine.V_redex _ -> i :: from (i + 1) rest)
  in
  from 0 c.threads

type outcome =
  | All_done of value * Heap.t  (** main thread's value; all threads finished *)
  | Thread_stuck of int * expr
  | Out_of_fuel of Budget.resource * cfg

type scheduler = step_no:int -> runnable:int list -> cfg -> int

(** Round-robin over the runnable threads. *)
let round_robin : scheduler =
 fun ~step_no ~runnable _ -> List.nth runnable (step_no mod List.length runnable)

(** A deterministic pseudo-random scheduler (linear congruential, so
    runs are reproducible per seed).  The choice is drawn from the high
    bits: an LCG's low bits have tiny periods (the parity alternates
    identically for every seed), which would collapse all seeds onto
    the same schedule whenever only two threads are runnable. *)
let seeded (seed : int) : scheduler =
  let state = ref (seed land 0x3FFFFFFF) in
  fun ~step_no:_ ~runnable _ ->
    state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
    List.nth runnable (!state lsr 16 mod List.length runnable)

(** Run under a scheduler, counting the scheduling decisions taken.
    Steps charge the budget meter per scheduling decision; heap cells
    are charged from the O(1) allocation counter, so the accounting is
    deterministic. *)
let run_stats ?(budget = Budget.of_steps 1_000_000) ~(sched : scheduler)
    (c : cfg) : outcome * int =
  let m = Budget.meter budget in
  let rec go c step_no =
    match runnable c with
    | [] -> (
      match main_value c with
      | Some v -> (All_done (v, c.heap), step_no)
      | None -> assert false)
    | rs -> (
      if not (Budget.step m) then (Out_of_fuel (Budget.tripped m, c), step_no)
      else
        let i = sched ~step_no ~runnable:rs c in
        match step_thread c i with
        | T_progress c' ->
          let fresh_cells = Heap.fresh c'.heap - Heap.fresh c.heap in
          if fresh_cells > 0 && not (Budget.cells m fresh_cells) then
            (Out_of_fuel (Budget.tripped m, c), step_no)
          else go c' (step_no + 1)
        | T_value -> go c (step_no + 1)
        | T_stuck redex -> (Thread_stuck (i, redex), step_no))
  in
  go c 0

let run ?budget ~sched c = fst (run_stats ?budget ~sched c)

(* Exhaustive exploration: enumerate all interleavings by memoized
   reachability over configurations (spin loops revisit states, so the
   state space is finite for the programs here).  Returns the distinct
   terminal outcomes; [exhausted] reports which budget resource (if
   any) ran out before the frontier emptied. *)

type exploration = {
  final_values : (value * Heap.t) list;  (** deduplicated *)
  stuck : (int * expr) list;
  exhausted : Budget.resource option;
  states : int;  (** distinct configurations visited *)
}

(* Visited-set keys.  A configuration is keyed by its interned thread
   programs plus its sorted heap bindings.  Each distinct plugged thread
   program gets a small int from a table keyed by structural equality
   that lives for one exploration, so two id lists are equal exactly
   when the plugged programs are: key equality is still the canonical
   relation (plugged threads + [Heap.bindings]).  Raw configurations
   would be wrong keys — [Heap.t] is an AVL map, so equal heaps built in
   different insertion orders hash and compare unequal, and the oracle
   would re-explore states it has already seen.

   A successor re-plugs and interns only the thread that stepped (plus a
   forked one), and reuses its parent's binding list and its hash when
   the step left the heap physically unchanged.  So a repeat visit costs
   a compare of a few ints and, at worst, one binding list, instead of a
   deep compare of every thread's program.

   Both tables test equality with [compare … = 0], not [=]: on values
   without floats or functions (SHL terms and heaps have neither) the
   two agree, but [compare] returns at once on physically shared
   subterms — the closure bodies a β-step substitutes and the binding
   lists successive states share — where [=] walks them. *)

(* [Hashtbl.hash] reads only 10 meaningful words — little more than a
   program's outer constructors; reading up to 100 separates the states
   of the programs here. *)
let deep_hash x = Hashtbl.hash_param 100 1000 x

type key = {
  hash : int;  (** of [ids] and [bhash]; well mixed in all 30 bits *)
  ids : int list;  (** interned thread programs, thread 0 first *)
  binds : (loc * value) list;  (** [Heap.bindings] *)
  bhash : int;  (** [deep_hash binds], reused while the heap is unchanged *)
}

let make_key ids binds bhash =
  let h = List.fold_left (fun h id -> (h * 65599) + id) bhash ids in
  { hash = Hashtbl.hash h; ids; binds; bhash }

module Ktbl = Hashtbl.Make (struct
  type t = key

  let equal a b =
    a.hash = b.hash
    && List.equal Int.equal a.ids b.ids
    && compare a.binds b.binds = 0

  let hash k = k.hash
end)

(* Programs are interned under their deep hash, computed once. *)
module Itbl = Hashtbl.Make (struct
  type t = int * expr

  let equal ((h1, e1) : t) ((h2, e2) : t) = h1 = h2 && compare e1 e2 = 0
  let hash ((h, _) : t) = h
end)

(* The intern table of one exploration: it maps plugged thread programs
   to ids, equal exactly when the programs are structurally equal.  Ids
   are handed out in order, so the next one is the table's size. *)
let intern (it : int Itbl.t) (e : expr) : int =
  let k = (deep_hash e, e) in
  match Itbl.find_opt it k with
  | Some id -> id
  | None ->
    let id = Itbl.length it in
    Itbl.add it k id;
    id

(** A frontier entry: the configuration and its visited-set key. *)
type node = { cfg : cfg; key : key }

let intern_thread it th = intern it (Machine.plug th)

let root_node it (c : cfg) : node =
  let binds = Heap.bindings c.heap in
  {
    cfg = c;
    key =
      make_key (List.map (intern_thread it) c.threads) binds (deep_hash binds);
  }

(* The node for [c'], reached from [n] by a step of thread [i]; threads
   past the parent's are the forked ones. *)
let successor it (n : node) (i : int) (c' : cfg) : node =
  let rec ids j old threads =
    match (old, threads) with
    | id :: old, th :: threads ->
      (if j = i then intern_thread it th else id) :: ids (j + 1) old threads
    | [], forked -> List.map (intern_thread it) forked
    | _ :: _, [] -> invalid_arg "Conc.successor: a thread vanished"
  in
  let binds, bhash =
    if c'.heap == n.cfg.heap then (n.key.binds, n.key.bhash)
    else
      let b = Heap.bindings c'.heap in
      (b, deep_hash b)
  in
  { cfg = c'; key = make_key (ids 0 n.key.ids c'.threads) binds bhash }

let add_final acc (v, h) =
  if List.exists (fun (v', h') -> v = v' && Heap.equal h h') acc then acc
  else (v, h) :: acc

let add_stuck acc s = if List.mem s acc then acc else s :: acc

(* Persistent-set reduction on pure steps (Godefroid, LNCS 1032).  A
   pure head step reads and writes neither the heap nor the pool, and
   no other thread's step can enable, disable or change it, so running
   that one thread is a persistent set of the state.  [pure_step] is the
   thread's next step when it is pure: heap redexes and [fork] are ruled
   out by their shape before anything is stepped. *)
let pure_step heap (th : Machine.t) : Machine.t option =
  match th.Machine.focus with
  | Ref _ | Load _ | Store _ | Cas _ | Fork _ -> None
  | _ -> (
    match Machine.step heap th with
    | Machine.Stepped (th', _, Step.Pure) -> Some th'
    | Machine.Stepped _ | Machine.Final _ | Machine.Stuck_redex _ -> None)

(* The longest pure chain taken as one edge.  A chain that reaches it
   without ending is cut there and its last state is expanded in full,
   so every [chain_limit] chained steps intern new states again and
   [states:] bounds the run: a thread that diverges on its own without
   repeating a state, or one whose loop the cycle check misses (frame
   stacks that swing more than 32 frames within one loop turn), then
   neither hangs the explorer nor hides the other threads.  A constant
   that reads only the state, so the reduced graph does not depend on
   the order states are expanded in. *)
let chain_limit = 1_000

(* What {!pure_chain} asks of [expand]. *)
type chain =
  | Full  (** expand the state in full *)
  | Chain of int * Machine.t  (** the chain's end, the one successor *)
  | Cut of int * Machine.t  (** the chain at [chain_limit], expanded in full *)

(* The lowest-index thread with a pure next step, run alone to the end
   of its pure chain.  [Full] asks for the full expansion: no thread has
   a pure step, the chain repeats a thread state (the cycle proviso), or
   [charge] refused a step.

   A chain leaves the heap alone, so a repeated thread state is a local
   loop that would never end.  Repeats are found as in
   {!Machine.prerun}: Brent's cycle detection over the configurations
   about to take a β-step.  The proviso reads only the state, never the
   visited set, so the reduced graph does not depend on the order states
   are expanded in.
   Each chained step charges [charge] (the run's step meter).  Chain
   states are never interned or stored; a cut state is keyed but not
   visited. *)
let pure_chain ~charge (c : cfg) : chain =
  (* [th] was reached by the [k]-th pure step; [saved] is the
     β-configuration saved when the count [n] of them last reached a
     power of two *)
  let rec go i th k n saved power =
    if not (charge ()) then Full
    else
      let beta = match th.Machine.focus with App _ -> true | _ -> false in
      let n = if beta then n + 1 else n in
      if beta && Machine.same_thread th saved then Full
      else
        let saved, power =
          if beta && n = power then (th, 2 * power) else (saved, power)
        in
        match pure_step c.heap th with
        | None -> Chain (i, th)
        | Some _ when k >= chain_limit -> Cut (i, th)
        | Some th' -> go i th' (k + 1) n saved power
  in
  let rec first i = function
    | [] -> Full
    | th :: rest -> (
      match pure_step c.heap th with
      | None -> first (i + 1) rest
      | Some th1 -> go i th1 1 0 th 1)
  in
  first 0 c.threads

(* One expansion, shared by both graphs: a finished configuration
   reports the main thread's value.  With [~reduce:(Some charge)] a
   pure chain's end is the state's only successor; otherwise, and at a
   cut chain's last state, each runnable thread either yields a
   successor for [visit] or is stuck. *)
let expand it ~reduce ~final ~stuck ~visit (n : node) =
  let expand_full (n : node) rs =
    List.iter
      (fun i ->
        match step_thread n.cfg i with
        | T_progress c' -> visit (successor it n i c')
        | T_value -> ()
        | T_stuck redex -> stuck (i, redex))
      rs
  in
  match runnable n.cfg with
  | [] -> Option.iter (fun v -> final (v, n.cfg.heap)) (main_value n.cfg)
  | rs -> (
    let chain =
      match reduce with
      | Some charge -> pure_chain ~charge n.cfg
      | None -> Full
    in
    let chained i th =
      successor it n i { n.cfg with threads = set_thread n.cfg i th }
    in
    match chain with
    | Chain (i, th) -> visit (chained i th)
    | Cut (i, th) ->
      let n' = chained i th in
      expand_full n' (runnable n'.cfg)
    | Full -> expand_full n rs)

(* The state cap of an exploration given no budget. *)
let default_states = 200_000

let engine ~reduce ?budget ?on_state (c : cfg) : exploration =
  let b =
    match budget with Some b -> b | None -> Budget.of_states default_states
  in
  let m = Budget.meter b in
  let it : int Itbl.t = Itbl.create 64 in
  let visited : unit Ktbl.t = Ktbl.create 1024 in
  let finals = ref [] in
  let stucks = ref [] in
  (* state-budget exhaustion stops the frontier from growing but drains
     what was already enqueued (a state cap's classic behaviour);
     step/wall exhaustion aborts the sweep outright. *)
  let out_of_states = ref false in
  let aborted = ref false in
  let queue = Queue.create () in
  (* Heartbeats count dequeued states; the gauges read the live visited
     table and frontier, so a stalled sweep is visible as a flat-lining
     states figure. *)
  let heartbeat_info () =
    {
      Progress.states = Some (Ktbl.length visited);
      Progress.frontier = Some (Queue.length queue);
      Progress.budget_left = Budget.remaining_frac m;
    }
  in
  let visit n =
    if not (Ktbl.mem visited n.key) then
      if not (Budget.state m) then out_of_states := true
      else begin
        Ktbl.replace visited n.key ();
        Queue.add n queue
      end
  in
  let final f = finals := add_final !finals f in
  let stuck s = stucks := add_stuck !stucks s in
  let reduce = if reduce then Some (fun () -> Budget.step m) else None in
  let n0 = root_node it c in
  Queue.add n0 queue;
  Ktbl.replace visited n0.key ();
  let _ = Budget.state m in
  Span.run ~component:"conc.explore" (fun sp ->
      while not (Queue.is_empty queue || !aborted) do
        let n = Queue.pop queue in
        Span.tick sp heartbeat_info ();
        if not (Budget.step m) && Budget.exhausted m <> Some Budget.States
        then aborted := true
        else begin
          (match on_state with Some f -> f n.cfg | None -> ());
          expand it ~reduce ~final ~stuck ~visit n
        end
      done);
  {
    final_values = !finals;
    stuck = !stucks;
    exhausted =
      (if !aborted || !out_of_states then
         Some (match Budget.exhausted m with Some r -> r | None -> Budget.States)
       else None);
    states = Ktbl.length visited;
  }

(* [?domains] is accepted and ignored: the time-to-verdict harness
   still passes it, and it goes when the harness stops (ROADMAP item 1). *)
let explore ?budget ?domains:_ (c : cfg) : exploration =
  engine ~reduce:true ?budget c

let explore_all ?budget ?on_state (c : cfg) : exploration =
  engine ~reduce:false ?budget ?on_state c

(** {1 Classic concurrent programs} *)

let p = Parser.parse_exn

(** Two threads incrementing a shared counter {e without} a lock: the
    non-atomic read-then-write races, and some schedule loses an
    update.  The main thread joins on a done-flag so the lost update is
    observable in the final value: exploration finds both 1 and 2. *)
let racy_incr : expr =
  p
    {|
let c = ref 0 in
let done1 = ref 0 in
fork (let x = !c in c := x + 1; done1 := 1);
let y = !c in
c := y + 1;
(rec wait u. if !done1 = 1 then () else wait u) ();
!c
|}

(** The same with a CAS retry loop: correct under every schedule. *)
let locked_incr : expr =
  p
    {|
let c = ref 0 in
let incr =
  rec retry u.
    let cur = !c in
    if cas c cur (cur + 1) then () else retry u
in
fork (incr ());
incr ();
(rec wait u. if !c = 2 then !c else wait u) ()
|}

(** A spin lock protecting a two-step critical section on two cells:
    the invariant "both cells equal" holds whenever the lock is free,
    and the final read happens under the lock — exploration confirms
    (2, 2) is the only outcome.  (An earlier version of this example
    read the pair outside the lock; {!explore} found the schedule where
    the reader sees (2, 1) mid-critical-section — exactly the class of
    bug the exhaustive checker exists to catch.) *)
let spinlock_pair : expr =
  p
    {|
let lock = ref 0 in
let a = ref 0 in
let b = ref 0 in
let acquire = rec spin u. if cas lock 0 1 then () else spin u in
let release = fun u -> lock := 0 in
let bump = fun u ->
  acquire (); a := !a + 1; b := !b + 1; release ()
in
fork (bump ());
bump ();
(rec wait u. if !a = 2 then () else wait u) ();
acquire ();
let r = (!a, !b) in
release ();
r
|}

(** The broken variant kept for the negative test: reads the pair
    without taking the lock. *)
let spinlock_pair_racy_read : expr =
  p
    {|
let lock = ref 0 in
let a = ref 0 in
let b = ref 0 in
let acquire = rec spin u. if cas lock 0 1 then () else spin u in
let release = fun u -> lock := 0 in
let bump = fun u ->
  acquire (); a := !a + 1; b := !b + 1; release ()
in
fork (bump ());
bump ();
(rec wait u. if !a = 2 then () else wait u) ();
(!a, !b)
|}
