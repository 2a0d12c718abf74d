(** The frame-stack execution engine for SHL — a CEK-style abstract
    machine over the same head-step relation as {!Step}.

    {!Step.prim_step} re-discovers the head redex of the {e whole}
    program with {!Ctx.decompose} and re-plugs it with {!Ctx.fill} on
    every single step: O(context-depth) work and allocation per step.
    The machine instead keeps the decomposition {e as its state}: a
    focused expression together with the surrounding frame stack (the
    [K] of the paper's [K[e]], §4.1).  A head step rewrites only the
    focus; refocusing pushes or pops O(1) frames amortised — each frame
    is pushed once when first descended into and popped once when its
    hole turns into a value.

    The machine is {e observationally identical} to the reference
    stepper: same step count, same per-step {!Step.kind}, same final
    value and heap, same stuck redex.  [decompose (plug st) = Some
    (st.ctx, st.focus)] holds for every running state (the machine
    state {e is} the unique CBV decomposition), which is what
    {!lockstep} checks step by step and the differential property test
    checks on random programs. *)

open Ast

(** A machine thread: the focused expression and its frame stack.
    Normalised (by construction): [focus] is either a head redex, or a
    value with an empty [ctx].  The heap is deliberately {e not} part of
    this type so that {!Conc} threads can share one heap while each
    carries its own frame stack. *)
type t = {
  focus : expr;
  ctx : Ctx.t;
}

(** What a normalised thread is about to do — O(1). *)
type view =
  | V_value of value  (** the whole thread is this value *)
  | V_redex of expr  (** the head redex in focus *)

(* Refocusing: descend [e] under [k] pushing frames until the head
   redex is in focus, popping frames whenever the focus is a value.
   This is Ctx.decompose made incremental: the cases match it
   constructor for constructor, so the normalised state is exactly the
   reference decomposition of the plugged program. *)
let rec norm (k : Ctx.t) (e : expr) : t =
  let into f e' = norm (f :: k) e' in
  let redex () = { focus = e; ctx = k } in
  match e with
  | Val _ -> (
    match k with
    | [] -> { focus = e; ctx = [] }
    | f :: k' -> norm k' (Ctx.fill_frame f e))
  | Var _ | Rec _ -> redex ()
  | App (Val _, Val _) -> redex ()
  | App (Val v1, e2) -> into (Ctx.App_r v1) e2
  | App (e1, e2) -> into (Ctx.App_l e2) e1
  | Un_op (_, Val _) -> redex ()
  | Un_op (op, e1) -> into (Ctx.Un_op_f op) e1
  | Bin_op (_, Val _, Val _) -> redex ()
  | Bin_op (op, Val v1, e2) -> into (Ctx.Bin_op_r (op, v1)) e2
  | Bin_op (op, e1, e2) -> into (Ctx.Bin_op_l (op, e2)) e1
  | If (Val _, _, _) -> redex ()
  | If (e1, e2, e3) -> into (Ctx.If_f (e2, e3)) e1
  | Pair_e (Val _, Val _) -> redex ()
  | Pair_e (Val v1, e2) -> into (Ctx.Pair_r v1) e2
  | Pair_e (e1, e2) -> into (Ctx.Pair_l e2) e1
  | Fst (Val _) -> redex ()
  | Fst e1 -> into Ctx.Fst_f e1
  | Snd (Val _) -> redex ()
  | Snd e1 -> into Ctx.Snd_f e1
  | Inj_l_e (Val _) -> redex ()
  | Inj_l_e e1 -> into Ctx.Inj_l_f e1
  | Inj_r_e (Val _) -> redex ()
  | Inj_r_e e1 -> into Ctx.Inj_r_f e1
  | Case (Val _, _, _) -> redex ()
  | Case (e1, b1, b2) -> into (Ctx.Case_f (b1, b2)) e1
  | Ref (Val _) -> redex ()
  | Ref e1 -> into Ctx.Ref_f e1
  | Load (Val _) -> redex ()
  | Load e1 -> into Ctx.Load_f e1
  | Store (Val _, Val _) -> redex ()
  | Store (Val v1, e2) -> into (Ctx.Store_r v1) e2
  | Store (e1, e2) -> into (Ctx.Store_l e2) e1
  | Let (_, Val _, _) -> redex ()
  | Let (x, e1, e2) -> into (Ctx.Let_f (x, e2)) e1
  | Seq (e1, _) when is_value e1 -> redex ()
  | Seq (e1, e2) -> into (Ctx.Seq_f e2) e1
  | Fork _ -> redex ()
  | Cas (Val _, Val _, Val _) -> redex ()
  | Cas (Val v1, Val v2, e3) -> into (Ctx.Cas_3 (v1, v2)) e3
  | Cas (Val v1, e2, e3) -> into (Ctx.Cas_2 (v1, e3)) e2
  | Cas (e1, e2, e3) -> into (Ctx.Cas_1 (e2, e3)) e1

let inject (e : expr) : t = norm [] e

(** Plug the thread back into a whole program — O(context depth); used
    at run boundaries (outcomes, traces, strategy callbacks), never on
    the per-step path. *)
let plug (st : t) : expr = Ctx.fill st.ctx st.focus

let view (st : t) : view =
  match (st.focus, st.ctx) with
  | Val v, [] -> V_value v
  | e, _ -> V_redex e

(** Result of attempting one genuine head step of a thread in a heap.
    Mirrors {!Step.prim_step}'s [(config * kind, error) result] shape:
    focusing and unwinding are administrative and never show up as
    steps, so step counts and kinds agree with the reference stepper. *)
type step_result =
  | Stepped of t * Heap.t * Step.kind
  | Final of value  (** the thread is a value (no step taken) *)
  | Stuck_redex of expr  (** the head redex in focus cannot step *)

let step (heap : Heap.t) (st : t) : step_result =
  match view st with
  | V_value v -> Final v
  | V_redex r -> (
    match Step.head_step heap r with
    | None -> Stuck_redex r
    | Some (e', h', kind) -> Stepped (norm st.ctx e', h', kind))

(** [step_fork st]: if the focus is a [fork body] redex, consume it —
    return the spawned body and the parent thread with the hole filled
    by [()].  The scheduler of {!Conc} is the only consumer: [fork] is
    not a head step of the sequential relation. *)
let step_fork (st : t) : (expr * t) option =
  match st.focus with
  | Fork body -> Some (body, norm st.ctx unit_)
  | _ -> None

(** {1 Whole-configuration driving} *)

(** A sequential machine configuration: one thread plus the heap —
    the machine counterpart of {!Step.config}. *)
type config = {
  thread : t;
  heap : Heap.t;
}

let of_config (c : Step.config) : config =
  { thread = inject c.Step.expr; heap = c.Step.heap }

let to_config (c : config) : Step.config =
  { Step.expr = plug c.thread; heap = c.heap }

let config ?(heap = Heap.empty) (e : expr) : config =
  { thread = inject e; heap }

(** [prim_step c]: drop-in machine replacement for {!Step.prim_step} —
    same result type, same observable behaviour, but O(1) refocusing
    instead of a whole-program decompose/fill round trip. *)
let prim_step (c : config) : (config * Step.kind, Step.error) result =
  match step c.heap c.thread with
  | Final _ -> Error Step.Finished
  | Stuck_redex r -> Error (Step.Stuck r)
  | Stepped (th', h', kind) -> Ok ({ thread = th'; heap = h' }, kind)

(** {1 Pre-runs} *)

(* Frame stacks of one run are equal iff they reach a physically shared
   tail at the same height with structurally equal frames above it:
   frames are only ever pushed and popped, so between two visits of a
   cycle the frames below its lowest point stay the very same cells.
   The walk gives up (a false negative, never a false positive) after
   [cycle_window] frames without meeting the shared tail — comparing whole
   stacks of a deep non-cycling recursion at every check would make the
   pre-run quadratic. *)
let cycle_window = 32

let same_frames (a : Ctx.t) (b : Ctx.t) =
  let rec meet a b n =
    a == b
    || n > 0
       && match a, b with _ :: a', _ :: b' -> meet a' b' (n - 1) | _ -> false
  in
  let rec above a b =
    a == b
    || match a, b with
       | fa :: a', fb :: b' -> compare fa fb = 0 && above a' b'
       | _ -> false
  in
  meet a b cycle_window && above a b

(** The same thread of one run: equal focused redexes and frame stacks
    ({!same_frames}, so a false negative is possible, never a false
    positive). *)
let same_thread (a : t) (b : t) =
  compare a.focus b.focus = 0 && same_frames a.ctx b.ctx

(* The same machine state: [fresh] first — O(1), and it rules out every
   pair separated by an allocation — then the focused redex, the frame
   stacks and the heap bindings.  [compare] rather than [=]: it skips
   physically shared subterms (closures substituted into a body, heap
   subtrees two snapshots of one run share).  Not {!Heap.equal}: that
   ignores the allocation counter and treats closures as
   incomparable. *)
let same_config (a : config) (b : config) =
  Heap.fresh a.heap = Heap.fresh b.heap
  && same_thread a.thread b.thread
  && compare a.heap b.heap = 0

(** How a pre-run ended. *)
type prerun =
  | Value_in of int  (** reached a value after this many steps *)
  | Stuck_in of int  (** stuck after this many steps *)
  | Cycle_in of int
      (** the configuration after this many steps repeats an earlier
          one: the run never finishes *)
  | Cut of Tfiris_robust.Budget.resource
      (** [Steps]: out of fuel; [Wall_ms]: the meter's deadline passed *)

(** [prerun ?fuel ?meter c]: run [c] to a value, for at most [fuel]
    steps, stopping early at the first repeated configuration.

    Only configurations about to take a β-step (an [App] redex in
    focus) are checked: every other head step shrinks the program
    outside its values, so every cycle contains a β-step, and the
    β-configurations of a cycling run repeat too.  Repeats are found by
    Brent's cycle detection over them: one saved configuration,
    re-saved at power-of-two β-counts, compared with every new one — a
    cycle of [λ] β-steps entered after [μ] of them is caught within
    [2·max(μ, λ) + λ] β-steps, unless its frame stack swings by more
    than [cycle_window] frames within one turn (then the fuel bound
    applies).  [prim_step] is a function of exactly the compared state
    (focus, frame stack, heap bindings, allocation counter; an
    allocation-fault hook cannot fire in between, since a cycle never
    allocates), so a repeat proves divergence.  [meter] is polled for
    its wall deadline every {!Tfiris_robust.Budget.wall_check_period}
    steps and never charged. *)
let prerun ?(fuel = 10_000_000) ?meter (c : config) : prerun =
  let out_of_time k =
    match meter with
    | None -> false
    | Some m ->
      k mod Tfiris_robust.Budget.wall_check_period = 0
      && Tfiris_robust.Budget.wall_expired m
  in
  (* [k] steps taken, [n] β-configurations met, [saved] the one met
     when [n] last reached a power of two.  The thread and the heap are
     passed apart and a [config] is built only at the β-configurations
     the check compares, so a plain step allocates nothing here. *)
  let rec go th heap k n saved power =
    match step heap th with
    | Final _ -> Value_in k
    | Stuck_redex _ -> Stuck_in k
    | Stepped (th', h', _) -> (
      if k = fuel then Cut Tfiris_robust.Budget.Steps
      else if out_of_time k then Cut Tfiris_robust.Budget.Wall_ms
      else
        let k = k + 1 in
        match th'.focus with
        | App _ ->
          let n = n + 1 in
          let c' = { thread = th'; heap = h' } in
          if same_config c' saved then Cycle_in k
          else if n = power then go th' h' k n c' (2 * power)
          else go th' h' k n saved power
        | _ -> go th' h' k n saved power)
  in
  go c.thread c.heap 0 0 c 1

(** [steps_to_value ?fuel ?meter c]: the steps [c] takes to reach a
    value within [fuel] — [None] when {!prerun} ends any other way,
    which without a [meter] is exactly when a plain fuel-bounded loop
    answers [None]. *)
let steps_to_value ?fuel ?meter (c : config) : int option =
  match prerun ?fuel ?meter c with
  | Value_in k -> Some k
  | Stuck_in _ | Cycle_in _ | Cut _ -> None

(** {1 Differential (lockstep) mode}

    Run the machine and {!Step.prim_step} side by side on the same
    program and compare after {e every} step: plugged expression, heap,
    and step kind — and at the end, the outcome (value+heap, stuck
    redex, or out of fuel).  This is the executable statement of the
    machine's correctness, used by the property suite and available to
    harnesses that want the reference relation validated online. *)

type mismatch = {
  at_step : int;
  what : string;  (** which observation disagreed *)
}

type lockstep_outcome =
  | Agree_value of value * Heap.t * int  (** final value, heap, steps *)
  | Agree_stuck of expr * int  (** stuck redex, steps taken before *)
  | Agree_out_of_fuel of int
  | Disagree of mismatch

let kind_eq (a : Step.kind) (b : Step.kind) =
  match a, b with
  | Step.Pure, Step.Pure -> true
  | Step.Alloc l, Step.Alloc l'
  | Step.Load_of l, Step.Load_of l'
  | Step.Store_to l, Step.Store_to l' ->
    l = l'
  | (Step.Pure | Step.Alloc _ | Step.Load_of _ | Step.Store_to _), _ -> false

let lockstep ?(budget = Tfiris_robust.Budget.of_steps 10_000)
    ?(heap = Heap.empty) (e : expr) : lockstep_outcome =
  let meter = Tfiris_robust.Budget.meter budget in
  (* Structural identity of the two runs' heaps — deliberately not
     {!Heap.equal}, whose [value_eq] treats closures as incomparable:
     here both heaps come from the same execution, so stored closures
     must be syntactically the very same term. *)
  let same_heap a b = Heap.bindings a = Heap.bindings b in
  let rec go (m : config) (r : Step.config) steps =
    match prim_step m, Step.prim_step r with
    | Error Step.Finished, Error Step.Finished -> (
      match plug m.thread with
      | Val v when r.Step.expr = Val v && same_heap m.heap r.Step.heap ->
        Agree_value (v, m.heap, steps)
      | _ -> Disagree { at_step = steps; what = "final value or heap" })
    | Error (Step.Stuck a), Error (Step.Stuck b) ->
      if a = b && plug m.thread = r.Step.expr then Agree_stuck (a, steps)
      else Disagree { at_step = steps; what = "stuck redex" }
    | Ok (m', ka), Ok (r', kb) ->
      if not (Tfiris_robust.Budget.step meter) then Agree_out_of_fuel steps
      else if not (kind_eq ka kb) then
        Disagree { at_step = steps + 1; what = "step kind" }
      else if not (same_heap m'.heap r'.Step.heap) then
        Disagree { at_step = steps + 1; what = "heap" }
      else if plug m'.thread <> r'.Step.expr then
        Disagree { at_step = steps + 1; what = "expression" }
      else go m' r' (steps + 1)
    | Error Step.Finished, _ | _, Error Step.Finished ->
      Disagree { at_step = steps; what = "termination" }
    | Error (Step.Stuck _), _ | _, Error (Step.Stuck _) ->
      Disagree { at_step = steps; what = "stuckness" }
  in
  go (config ~heap e) (Step.config ~heap e) 0

let pp_lockstep ppf = function
  | Agree_value (v, _, n) ->
    Format.fprintf ppf "agree: value %a after %d steps" Pretty.pp_value v n
  | Agree_stuck (_, n) -> Format.fprintf ppf "agree: stuck after %d steps" n
  | Agree_out_of_fuel n ->
    Format.fprintf ppf "agree: still running after %d steps" n
  | Disagree m ->
    Format.fprintf ppf "DISAGREE at step %d on %s" m.at_step m.what
