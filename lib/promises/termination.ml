(** Termination of well-typed async-channel programs — the §5.2 result.

    Spies et al. [53] prove: every well-typed program of the linear
    channel language terminates.  Transfinite Iris re-proves this in 500
    lines of Coq using transfinite time credits up to [ω^ω] (and +350
    lines for the polymorphic extension).  Executable counterpart:

    - {!verify}: play {!Tfiris_termination.Wp}'s credit game on the
      scheduler from [ω^ω]; the adaptive certificate instantiates the
      limit with dynamic information, and the checked descent makes an
      accepted run a termination witness — the run {e could not have
      been} infinite;
    - example programs, including the polymorphic ones exercising
      impredicative instantiation. *)

module Ord = Tfiris_ordinal.Ord
module Wp = Tfiris_termination.Wp
module Machine = Tfiris_shl.Machine
module Budget = Tfiris_robust.Budget
open Syntax

(** [prerun ?fuel ?meter st]: run the scheduler from [st] for at most
    [fuel] steps, stopping early at the first repeated state — the
    adaptive oracle's pre-run, the scheduler counterpart of
    {!Tfiris_shl.Machine.prerun}.  A state is plain data (task bodies,
    channels, the channel counter) and {!Semantics.step} is a function
    of it, so a repeat proves divergence.  Repeats are found by Brent's
    cycle detection over every state: one saved state, re-saved at
    power-of-two step counts and compared with [compare], which skips
    the subterms successive states share.  Untyped self-application
    repeats after one step.  [meter] is polled for its wall deadline
    every {!Tfiris_robust.Budget.wall_check_period} steps and never
    charged. *)
let prerun ?(fuel = 2_000_000) ?meter (st : Semantics.state) :
    Tfiris_shl.Machine.prerun =
  let out_of_time k =
    match meter with
    | None -> false
    | Some m -> k mod Budget.wall_check_period = 0 && Budget.wall_expired m
  in
  let rec go st k saved power =
    match Semantics.step st with
    | Semantics.Done _ -> Machine.Value_in k
    | Semantics.Deadlock _ | Semantics.Task_stuck _ -> Machine.Stuck_in k
    | Semantics.Progress st' ->
      if k = fuel then Machine.Cut Budget.Steps
      else if out_of_time k then Machine.Cut Budget.Wall_ms
      else
        let k = k + 1 in
        if compare st' saved = 0 then Machine.Cycle_in k
        else if k = power then go st' k st' (2 * power)
        else go st' k saved power
  in
  go st 0 st 1

(** Steps left until completion, if {!prerun} reaches it. *)
let remaining ?fuel ?meter (st : Semantics.state) : int option =
  match prerun ?fuel ?meter st with
  | Machine.Value_in k -> Some k
  | Machine.Stuck_in _ | Machine.Cycle_in _ | Machine.Cut _ -> None

(** The scheduler as a credit-game target: a scheduler state is its own
    configuration, and its forensics frames show the front task. *)
let target : (Semantics.state, Semantics.state, term) Wp.target =
  {
    Wp.step =
      (fun st ->
        match Semantics.step st with
        | Semantics.Progress st' -> Wp.Next (st', "sched")
        | Semantics.Done v -> Wp.Finished v
        | Semantics.Deadlock _ -> Wp.Blocked "deadlock"
        | Semantics.Task_stuck t ->
          Wp.Blocked (Format.asprintf "stuck task: %a" Syntax.pp t));
    config = Fun.id;
    show =
      (fun st ->
        match st.Semantics.run with
        | t :: _ -> to_string t.Semantics.body
        | [] -> "");
  }

(** Play {!Wp}'s credit game on the scheduler from [credit] (default
    [ω^ω], the bound of Spies et al.), with the adaptive strategy over
    the {!remaining} pre-run ([oracle_fuel] is that pre-run's depth; it
    stops at the run's wall deadline).
    Needs no fuel: descent is well-founded. *)
let verify ?(credit = Ord.omega_pow Ord.omega) ?oracle_fuel (e : term) :
    term Wp.outcome =
  Wp.play ~credits:credit target
    (Wp.adaptive_with ~remaining:(fun ~meter st ->
         remaining ?fuel:oracle_fuel ~meter st))
    (Semantics.init e)

(** {1 Example programs} *)

(** [post]/[wait] round trip: [wait (post (1 + 2))]. *)
let simple_promise = Wait (Post (Bin (Add, Int 1, Int 2)))

(** A chain of promises: each task waits on the previous one. *)
let chain (n : int) : term =
  (* c0 resolves to 0; each cᵢ = wait c(i-1) + 1; the result waits cₙ. *)
  let c k = "c" ^ string_of_int k in
  let rec build k =
    if k > n then Wait (Var (c n))
    else
      Let (c k, Post (Bin (Add, Wait (Var (c (k - 1))), Int 1)), build (k + 1))
  in
  Let (c 0, Post (Int 0), build 1)

(** Fan-out/fan-in: spawn [n] tasks and sum their results. *)
let fan (n : int) : term =
  let rec spawn k acc =
    if k = 0 then acc
    else
      spawn (k - 1)
        (Let ("f" ^ string_of_int k, Post (Int k), acc))
  in
  let rec collect k acc =
    if k = 0 then acc
    else collect (k - 1) (Bin (Add, Wait (Var ("f" ^ string_of_int k)), acc))
  in
  spawn n (collect n (Int 0))

(** Waiting on a promise that is itself computed by a promise:
    [wait (wait (post (post 42)))]. *)
let nested = Wait (Wait (Post (Post (Int 42))))

(** {1 Polymorphic examples (the impredicative extension)} *)

(** [Λα. λx:α. x] — the polymorphic identity. *)
let poly_id = Ty_lam ("a", Lam ("x", T_var "a", Var "x"))

let poly_id_ty = T_forall ("a", T_fun (T_var "a", T_var "a"))

(** Impredicative self-instantiation: [id [∀α. α ⊸ α] id] applied at
    [int] to [41 + 1].  The instantiating type mentions [∀] — this is
    what "impredicative" buys. *)
let impredicative_self =
  App
    ( Ty_app
        (App (Ty_app (poly_id, poly_id_ty), poly_id), T_int),
      Bin (Add, Int 41, Int 1) )

(** A promise of a polymorphic function, awaited and used at two types
    would violate linearity — instead it is used once, at [int]. *)
let poly_promise =
  Let
    ( "p",
      Post poly_id,
      App (Ty_app (Wait (Var "p"), T_int), Int 7) )

(** {1 An ill-typed diverging program}

    The language has no recursion, but {e untyped} self-application
    diverges: [(λx. x x) (λx. x x)].  The type annotation is a lie —
    {!Typing.typecheck} rejects the term, and the credit harness never
    accepts it; running it with fuel shows it spinning. *)
let omega_untyped =
  let d = Lam ("x", T_unit, App (Var "x", Var "x")) in
  App (d, d)
