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
    - {!explore}: enumerate {b all} interleavings up to a step bound —
      small-scope model checking, used to show e.g. that an unlocked
      parallel counter loses updates on {e some} schedule while the
      CAS-locked version is correct on {e all} of them. *)

open Ast
module Budget = Tfiris_robust.Budget
module Progress = Tfiris_obs.Progress
module Telemetry = Tfiris_obs.Telemetry

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

let set_thread (c : cfg) (i : int) (th : Machine.t) : Machine.t list =
  List.mapi (fun j t -> if j = i then th else t) c.threads

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

(** Per-worker accounting from a parallel exploration: how the states
    were split across domains, what stealing did, and each domain's own
    GC telemetry (sampled on the worker's domain, so the allocation
    split is per-worker, not just a process total). *)
type worker_stat = {
  w_domain : int;
  w_dequeued : int;  (** configurations this worker expanded *)
  w_stolen : int;  (** successful steal raids on other deques *)
  w_wall_ms : float;  (** wall time inside the worker loop *)
  w_mem : Telemetry.mem;  (** this domain's own GC delta *)
}

type exploration = {
  final_values : (value * Heap.t) list;  (** deduplicated *)
  stuck : (int * expr) list;
  exhausted : Budget.resource option;
  states : int;  (** distinct configurations visited *)
  workers : worker_stat list;
      (** per-domain split; [[]] for the sequential engine *)
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
   deep compare of every thread's program. *)

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
    && (a.binds == b.binds || a.binds = b.binds)

  let hash k = k.hash
end)

(* Programs are interned under their deep hash, computed once. *)
module Itbl = Hashtbl.Make (struct
  type t = int * expr

  let equal ((h1, e1) : t) ((h2, e2) : t) = h1 = h2 && e1 = e2
  let hash ((h, _) : t) = h
end)

(* Both tables are split into 64 mutex-guarded shards, so domains
   rarely wait on each other.  A shard is picked from the hash's high
   bits: [Hashtbl] picks a bucket from the low bits of the same hash,
   and with the shard taken from those too every key of a shard would
   land in the 1/64 of its buckets that share the shard's low 6 bits. *)
let nshards = 64

let shard_index h = (h lsr 16) land (nshards - 1)

type ishard = { imu : Mutex.t; itbl : int Itbl.t }

(** The intern table of one exploration: it maps plugged thread programs
    to ids, equal exactly when the programs are structurally equal, and
    is safe to use from every worker domain. *)
type interner = { ishards : ishard array; next_id : int Atomic.t }

let interner ~shards =
  {
    ishards =
      Array.init shards (fun _ ->
          { imu = Mutex.create (); itbl = Itbl.create 64 });
    next_id = Atomic.make 0;
  }

let intern (t : interner) (e : expr) : int =
  let ((h, _) as k) = (deep_hash e, e) in
  let s = t.ishards.(shard_index h mod Array.length t.ishards) in
  Mutex.lock s.imu;
  let id =
    match Itbl.find_opt s.itbl k with
    | Some id -> id
    | None ->
      let id = Atomic.fetch_and_add t.next_id 1 in
      Itbl.add s.itbl k id;
      id
  in
  Mutex.unlock s.imu;
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

(* One expansion, shared by both engines: a finished configuration
   reports the main thread's value; each runnable thread either yields a
   successor for [visit] or is stuck. *)
let expand it ~final ~stuck ~visit (n : node) =
  match runnable n.cfg with
  | [] -> Option.iter (fun v -> final (v, n.cfg.heap)) (main_value n.cfg)
  | rs ->
    List.iter
      (fun i ->
        match step_thread n.cfg i with
        | T_progress c' -> visit (successor it n i c')
        | T_value -> ()
        | T_stuck redex -> stuck (i, redex))
      rs

let explore_seq ?max_states ?budget ?on_state (c : cfg) : exploration =
  let b =
    match budget with
    | Some b -> b
    | None -> Budget.of_states (Option.value max_states ~default:200_000)
  in
  let m = Budget.meter b in
  let it = interner ~shards:1 in
  let visited : unit Ktbl.t = Ktbl.create 1024 in
  let finals = ref [] in
  let stucks = ref [] in
  (* state-budget exhaustion stops the frontier from growing but drains
     what was already enqueued (the classic [max_states] behaviour);
     step/wall exhaustion aborts the sweep outright. *)
  let out_of_states = ref false in
  let aborted = ref false in
  let queue = Queue.create () in
  (* Heartbeats count dequeued states; the gauges read the live visited
     table and frontier, so a stalled sweep is visible as a flat-lining
     states figure. *)
  let heartbeat = Progress.tracker ~component:"conc.explore" () in
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
  let n0 = root_node it c in
  Queue.add n0 queue;
  Ktbl.replace visited n0.key ();
  let _ = Budget.state m in
  while not (Queue.is_empty queue || !aborted) do
    let n = Queue.pop queue in
    (match heartbeat with
    | Some hb -> Progress.tick hb heartbeat_info
    | None -> ());
    if not (Budget.step m) && Budget.exhausted m <> Some Budget.States then
      aborted := true
    else begin
      (match on_state with Some f -> f n.cfg | None -> ());
      expand it ~final ~stuck ~visit n
    end
  done;
  {
    final_values = !finals;
    stuck = !stucks;
    exhausted =
      (if !aborted || !out_of_states then
         Some (match Budget.exhausted m with Some r -> r | None -> Budget.States)
       else None);
    states = Ktbl.length visited;
    workers = [];
  }

(** Work-stealing parallel BFS over [Domain.t] workers.  The visited
    set and the intern table are sharded by high hash bits (one small
    mutex per shard, so membership is owner-independent: whichever
    worker reaches a state first claims it for the whole fleet); each
    worker owns a deque of frontier nodes and raids a random victim
    when its own drains; the budget meter is the shared atomic one, so
    steps/states/ms/cells exhaust globally with the verdict still
    resource-named.  The sequential engine above stays the reference —
    the differential QCheck property in the test suite holds the two
    to identical reachable sets at 1/2/4 domains. *)
module Par_explore = struct
  (* Chaos hook: when set, [f ~worker ~victim] vetoes that steal
     attempt — an unfair/starving scheduler.  Soundness must not
     depend on stealing (every enqueued state lives in some worker's
     own deque, and owners always drain their deque), so the battery
     check asserts vetoed runs still converge to the same verdicts. *)
  let steal_fault : (worker:int -> victim:int -> bool) option Atomic.t =
    Atomic.make None

  let set_steal_fault f = Atomic.set steal_fault f

  type deque = { mu : Mutex.t; q : node Queue.t }

  type shard = { smu : Mutex.t; tbl : unit Ktbl.t }

  (* The exploration, plus the visited and intern shards' bucket
     statistics. *)
  let run ?max_states ?budget ?on_state ~domains (c0 : cfg) =
    let n = max 1 domains in
    let b =
      match budget with
      | Some b -> b
      | None -> Budget.of_states (Option.value max_states ~default:200_000)
    in
    let m = Budget.Shared.create b in
    let it = interner ~shards:nshards in
    let shards =
      Array.init nshards (fun _ ->
          { smu = Mutex.create (); tbl = Ktbl.create 64 })
    in
    let visited_count = Atomic.make 0 in
    (* enqueued-but-not-fully-expanded configurations: when this hits 0
       no further work can ever appear, which is the termination signal
       idle workers poll *)
    let pending = Atomic.make 0 in
    let abort = Atomic.make false in
    let out_of_states = Atomic.make false in
    let exn_slot = Atomic.make None in
    let deques =
      Array.init n (fun _ -> { mu = Mutex.create (); q = Queue.create () })
    in
    let finals = Array.make n [] in
    let stucks = Array.make n [] in
    let stats = Array.make n None in
    (* One tracker, ticked by every worker under a mutex: units count
       fleet-wide expanded states, gauges read the shared atomics. *)
    let heartbeat = Progress.tracker ~component:"conc.explore" () in
    let hb_mu = Mutex.create () in
    let heartbeat_info () =
      {
        Progress.states = Some (Atomic.get visited_count);
        Progress.frontier = Some (Atomic.get pending);
        Progress.budget_left = Budget.Shared.remaining_frac m;
      }
    in
    (* The initial configuration mirrors the sequential engine: marked
       unconditionally, charged once with the result ignored. *)
    let n0 = root_node it c0 in
    Ktbl.replace shards.(shard_index n0.key.hash).tbl n0.key ();
    Atomic.incr visited_count;
    let (_ : bool) = Budget.Shared.state m in
    Atomic.incr pending;
    Queue.add n0 deques.(0).q;
    let push wid c =
      Atomic.incr pending;
      let d = deques.(wid) in
      Mutex.lock d.mu;
      Queue.add c d.q;
      Mutex.unlock d.mu
    in
    let pop_own wid =
      let d = deques.(wid) in
      Mutex.lock d.mu;
      let r = if Queue.is_empty d.q then None else Some (Queue.pop d.q) in
      Mutex.unlock d.mu;
      r
    in
    (* Raid [vid]: move about half its frontier (their [pending] charges
       move with them) onto our own deque in one lock acquisition. *)
    let steal_from wid vid =
      let v = deques.(vid) in
      Mutex.lock v.mu;
      let k = min ((Queue.length v.q + 1) / 2) 64 in
      let got = ref [] in
      for _ = 1 to k do
        got := Queue.pop v.q :: !got
      done;
      Mutex.unlock v.mu;
      match !got with
      | [] -> 0
      | items ->
        let d = deques.(wid) in
        Mutex.lock d.mu;
        List.iter (fun c -> Queue.add c d.q) items;
        Mutex.unlock d.mu;
        List.length items
    in
    (* membership + state charge + insert under the shard lock: a
       successful charge corresponds to exactly one distinct inserted
       state, so [states:]-capped counts stay deterministic at every
       domain count *)
    let visit wid (nd : node) =
      let s = shards.(shard_index nd.key.hash) in
      Mutex.lock s.smu;
      if Ktbl.mem s.tbl nd.key then Mutex.unlock s.smu
      else if Budget.Shared.state m then begin
        Ktbl.replace s.tbl nd.key ();
        Mutex.unlock s.smu;
        Atomic.incr visited_count;
        push wid nd
      end
      else begin
        Mutex.unlock s.smu;
        Atomic.set out_of_states true
      end
    in
    (* a worker's callbacks are built once, not once per state *)
    let process wid =
      let final f = finals.(wid) <- add_final finals.(wid) f in
      let stuck s = stucks.(wid) <- add_stuck stucks.(wid) s in
      let visit = visit wid in
      fun nd ->
        (match heartbeat with
        | Some hb ->
          Mutex.lock hb_mu;
          Progress.tick hb heartbeat_info;
          Mutex.unlock hb_mu
        | None -> ());
        (if
           (not (Budget.Shared.step m))
           && Budget.Shared.exhausted m <> Some Budget.States
         then Atomic.set abort true
         else begin
           (match on_state with Some f -> f nd.cfg | None -> ());
           expand it ~final ~stuck ~visit nd
         end);
        Atomic.decr pending
    in
    let worker wid () =
      let t0 = Unix.gettimeofday () in
      let g0 = Telemetry.sample () in
      let dequeued = ref 0 in
      let stolen = ref 0 in
      let rng = ref ((0x9E3779 * (wid + 1)) land 0x3FFFFFFF) in
      let next_victim () =
        rng := ((!rng * 1103515245) + 12345) land 0x3FFFFFFF;
        !rng lsr 16 mod n
      in
      let process = process wid in
      let rec loop idle =
        if Atomic.get abort then ()
        else
          match pop_own wid with
          | Some nd ->
            incr dequeued;
            process nd;
            loop 0
          | None ->
            if Atomic.get pending = 0 then ()
            else begin
              (* randomized stealing: probe the fleet from a random
                 starting victim; chaos may veto individual attempts *)
              let veto = Atomic.get steal_fault in
              let got = ref 0 in
              let v0 = next_victim () in
              let j = ref 0 in
              while !got = 0 && !j < n do
                let vid = (v0 + !j) mod n in
                let vetoed =
                  match veto with
                  | Some f -> f ~worker:wid ~victim:vid
                  | None -> false
                in
                if (not vetoed) && vid <> wid then got := steal_from wid vid;
                incr j
              done;
              if !got > 0 then begin
                incr stolen;
                loop 0
              end
              else begin
                (* back off: spin briefly, then yield the core — idle
                   workers must sleep on oversubscribed or single-core
                   hosts or they starve whoever holds the work *)
                if idle < 32 then Domain.cpu_relax ()
                else Unix.sleepf 0.0002;
                loop (min (idle + 1) 1000)
              end
            end
      in
      (try loop 0
       with e ->
         let bt = Printexc.get_raw_backtrace () in
         Atomic.set abort true;
         ignore (Atomic.compare_and_set exn_slot None (Some (e, bt))));
      let wall_ms = (Unix.gettimeofday () -. t0) *. 1000. in
      stats.(wid) <-
        Some
          {
            w_domain = wid;
            w_dequeued = !dequeued;
            w_stolen = !stolen;
            w_wall_ms = wall_ms;
            w_mem = Telemetry.measure ~before:g0 ~after:(Telemetry.sample ());
          }
    in
    let handles = Array.init (n - 1) (fun i -> Domain.spawn (worker (i + 1))) in
    worker 0 ();
    Array.iter Domain.join handles;
    (match Atomic.get exn_slot with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> ());
    let merge add = Array.fold_left (List.fold_left add) [] in
    ( {
        final_values = merge add_final finals;
        stuck = merge add_stuck stucks;
        exhausted =
          (if Atomic.get abort || Atomic.get out_of_states then
             Some
               (match Budget.Shared.exhausted m with
               | Some r -> r
               | None -> Budget.States)
           else None);
        states = Atomic.get visited_count;
        workers = Array.to_list stats |> List.filter_map Fun.id;
      },
      Array.to_list (Array.map (fun s -> Ktbl.stats s.tbl) shards),
      Array.to_list (Array.map (fun s -> Itbl.stats s.itbl) it.ishards) )

  let explore ?max_states ?budget ?on_state ~domains c =
    let r, _, _ = run ?max_states ?budget ?on_state ~domains c in
    r

  let shard_stats ~domains c =
    let _, visited, interned = run ~domains c in
    (visited, interned)
end

(** [TFIRIS_DOMAINS] sets the default worker count for every [explore]
    call that does not pass [~domains] — how CI runs the whole test
    suite once over the parallel engine. *)
let default_domains () =
  match Sys.getenv_opt "TFIRIS_DOMAINS" with
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some n when n >= 1 -> n
    | _ -> 1)
  | None -> 1

let explore ?max_states ?budget ?domains ?on_state (c : cfg) : exploration =
  let n =
    match domains with Some d -> max 1 d | None -> default_domains ()
  in
  if n <= 1 then explore_seq ?max_states ?budget ?on_state c
  else Par_explore.explore ?max_states ?budget ?on_state ~domains:n c

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
