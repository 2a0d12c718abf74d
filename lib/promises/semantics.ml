(** Scheduler semantics for the async-channel language.

    A configuration is a pool of tasks plus a channel store.  [post e]
    spawns a fresh task computing [e] and allocates a channel that the
    task will resolve with its result; [wait c] suspends the waiting
    task until [c] is resolved.  This is the run-queue model of
    JavaScript promises that Spies et al. [53] target.

    One scheduler step = one head step of the front runnable task (or a
    block/unblock bookkeeping move); this is the step relation whose
    termination the credits of {!Termination} pay for. *)

open Syntax
module Metrics = Tfiris_obs.Metrics
module Trace = Tfiris_obs.Trace
module Span = Tfiris_obs.Span
module Budget = Tfiris_robust.Budget

(* Scheduler/channel instrumentation: each counter is bumped at the
   move it names (a load-and-branch each when metrics are disabled). *)
let c_sched_steps = Metrics.counter "promises.sched.steps"
let c_posts = Metrics.counter "promises.chan.posts"
let c_resolves = Metrics.counter "promises.chan.resolves"
let c_waits = Metrics.counter "promises.chan.waits"
let c_blocks = Metrics.counter "promises.chan.blocks"
let c_wakes = Metrics.counter "promises.chan.wakes"
let c_pure = Metrics.counter "promises.sched.pure_steps"

type chan_state =
  | Pending
  | Resolved of term  (** a value *)

type task = {
  resolves : int option;  (** channel this task resolves; [None] = main *)
  body : term;
}

type state = {
  run : task list;  (** runnable tasks, front first *)
  blocked : (int * task) list;  (** waiting on channel *)
  chans : (int * chan_state) list;
  next_chan : int;
  main_result : term option;
}

let init (e : term) : state =
  {
    run = [ { resolves = None; body = e } ];
    blocked = [];
    chans = [];
    next_chan = 0;
    main_result = None;
  }

type frame =
  | F_app_l of term
  | F_app_r of term  (** function value *)
  | F_pair_l of term
  | F_pair_r of term  (** left value *)
  | F_let_pair of string * string * term
  | F_let of string * term
  | F_if of term * term
  | F_bin_l of bin_op * term
  | F_bin_r of bin_op * term  (** left value *)
  | F_wait
  | F_ty_app of ty

let fill_frame f e =
  match f with
  | F_app_l e2 -> App (e, e2)
  | F_app_r v -> App (v, e)
  | F_pair_l e2 -> Pair (e, e2)
  | F_pair_r v -> Pair (v, e)
  | F_let_pair (x, y, e2) -> Let_pair (x, y, e, e2)
  | F_let (x, e2) -> Let (x, e, e2)
  | F_if (e1, e2) -> If (e, e1, e2)
  | F_bin_l (op, e2) -> Bin (op, e, e2)
  | F_bin_r (op, v) -> Bin (op, v, e)
  | F_wait -> Wait e
  | F_ty_app t -> Ty_app (e, t)

let fill k e = List.fold_left (fun e f -> fill_frame f e) e k

(** Decompose into evaluation context and head redex.  [Post e] is a
    redex without evaluating [e] — spawning is lazy, that is the whole
    point of a promise. *)
let rec decompose (e : term) : (frame list * term) option =
  let into f e' = Option.map (fun (k, r) -> (k @ [ f ], r)) (decompose e') in
  if value e then None
  else
    match e with
    | Var _ | Unit | Bool _ | Int _ | Lam _ | Ty_lam _ | Chan_v _ -> None
    | App (e1, e2) ->
      if not (value e1) then into (F_app_l e2) e1
      else if not (value e2) then into (F_app_r e1) e2
      else Some ([], e)
    | Pair (e1, e2) ->
      if not (value e1) then into (F_pair_l e2) e1
      else if not (value e2) then into (F_pair_r e1) e2
      else None
    | Let_pair (x, y, e1, e2) ->
      if not (value e1) then into (F_let_pair (x, y, e2)) e1 else Some ([], e)
    | Let (x, e1, e2) ->
      if not (value e1) then into (F_let (x, e2)) e1 else Some ([], e)
    | If (c, e1, e2) ->
      if not (value c) then into (F_if (e1, e2)) c else Some ([], e)
    | Bin (op, e1, e2) ->
      if not (value e1) then into (F_bin_l (op, e2)) e1
      else if not (value e2) then into (F_bin_r (op, e1)) e2
      else Some ([], e)
    | Post _ -> Some ([], e)
    | Wait e1 -> if not (value e1) then into F_wait e1 else Some ([], e)
    | Ty_app (e1, t) -> if not (value e1) then into (F_ty_app t) e1 else Some ([], e)

type step_outcome =
  | Progress of state
  | Done of term  (** main task finished with this value *)
  | Deadlock of state  (** no runnable task but blocked ones remain *)
  | Task_stuck of term  (** a task's head redex cannot step *)

let pure_head (e : term) : term option =
  match e with
  | App (Lam (x, _, body), v) when value v -> Some (subst x v body)
  | Let (x, v, body) when value v -> Some (subst x v body)
  | Let_pair (x, y, Pair (v1, v2), body) when value v1 && value v2 ->
    Some (subst x v1 (subst y v2 body))
  | If (Bool true, e1, _) -> Some e1
  | If (Bool false, _, e2) -> Some e2
  | Bin (op, Int a, Int b) ->
    Some
      (match op with
      | Add -> Int (a + b)
      | Sub -> Int (a - b)
      | Mul -> Int (a * b)
      | Lt -> Bool (a < b)
      | Eq_int -> Bool (a = b))
  | Ty_app (Ty_lam (a, body), t) -> Some (subst_ty_term a t body)
  | Ty_app _ | Var _ | Unit | Bool _ | Int _ | Lam _ | App _ | Pair _
  | Let_pair _ | Let _ | If _ | Bin _ | Post _ | Wait _ | Ty_lam _
  | Chan_v _ ->
    None

(** One scheduler step. *)
let step (st : state) : step_outcome =
  match st.run with
  | [] ->
    if st.blocked = [] then
      match st.main_result with
      | Some v -> Done v
      | None -> Task_stuck Unit (* impossible: main never blocks forever *)
    else Deadlock st
  | task :: rest -> (
    if value task.body then
      (* resolve the task's channel and wake its waiters *)
      match task.resolves with
      | None -> Done task.body
      | Some c ->
        let woken, still =
          List.partition (fun (c', _) -> c' = c) st.blocked
        in
        if Metrics.on () then begin
          Metrics.incr c_resolves;
          Metrics.add c_wakes (List.length woken)
        end;
        if Trace.on () then
          Trace.instant "promises.resolve"
            ~attrs:[ ("chan", Trace.I c); ("woken", Trace.I (List.length woken)) ];
        Progress
          {
            st with
            run = rest @ List.map snd woken;
            blocked = still;
            chans =
              (c, Resolved task.body) :: List.remove_assoc c st.chans;
          }
    else
      match decompose task.body with
      | None -> Task_stuck task.body
      | Some (k, redex) -> (
        match redex with
        | Post e ->
          let c = st.next_chan in
          Metrics.incr c_posts;
          if Trace.on () then
            Trace.instant "promises.post" ~attrs:[ ("chan", Trace.I c) ];
          Progress
            {
              st with
              run =
                ({ task with body = fill k (Chan_v c) } :: rest)
                @ [ { resolves = Some c; body = e } ];
              chans = (c, Pending) :: st.chans;
              next_chan = c + 1;
            }
        | Wait (Chan_v c) -> (
          match List.assoc_opt c st.chans with
          | Some (Resolved v) ->
            Metrics.incr c_waits;
            Progress { st with run = { task with body = fill k v } :: rest }
          | Some Pending ->
            if Metrics.on () then begin
              Metrics.incr c_waits;
              Metrics.incr c_blocks
            end;
            if Trace.on () then
              Trace.instant "promises.block" ~attrs:[ ("chan", Trace.I c) ];
            Progress
              {
                st with
                run = rest;
                blocked = (c, { task with body = fill k (Wait (Chan_v c)) }) :: st.blocked;
              }
          | None -> Task_stuck redex)
        | _ -> (
          match pure_head redex with
          | Some e' ->
            Metrics.incr c_pure;
            Progress { st with run = { task with body = fill k e' } :: rest }
          | None -> Task_stuck redex)))

type result =
  | Value of term * int  (** main value and scheduler steps *)
  | Deadlocked of int
  | Stuck of term * int
  | Out_of_fuel

(** Run the scheduler to completion within a budget (default 10{^6}
    scheduler steps).  Every scheduler pick (one call to {!step} that
    made progress) bumps [promises.sched.steps]; with tracing on, the
    whole run is a [promises.exec] span whose [fuel] attribute is the
    steps bound. *)
let exec ?budget (e : term) : result =
  let b = match budget with Some b -> b | None -> Budget.of_steps 1_000_000 in
  let m = Budget.meter b in
  let rec go st k =
    if not (Budget.step m) then begin
      Metrics.add c_sched_steps k;
      Out_of_fuel
    end
    else
      match step st with
      | Done v ->
        Metrics.add c_sched_steps k;
        Value (v, k)
      | Deadlock _ ->
        Metrics.add c_sched_steps k;
        Deadlocked k
      | Task_stuck t ->
        Metrics.add c_sched_steps k;
        Stuck (t, k)
      | Progress st' -> go st' (k + 1)
  in
  Span.run ~name:"promises.exec"
    ~attrs:(fun () ->
      [
        ( "fuel",
          Trace.I (Option.value (Budget.limit b Budget.Steps) ~default:max_int) );
      ])
    (fun _ -> go (init e) 0)

let eval ?budget e =
  match exec ?budget e with
  | Value (v, _) -> Some v
  | Deadlocked _ | Stuck _ | Out_of_fuel -> None
