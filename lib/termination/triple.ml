(** Compositional credit accounting: the [TSplit] rule, executably.

    [TSplit]: [$(α ⊕ β) ⇔ $α ∗ $β] — Hessenberg addition makes credits
    a separation-logic resource, so a termination proof for a compound
    program can be assembled from independently verified pieces, each
    with its own pot.  {!split_strategy} runs a two-phase program with
    the combined credit [α ⊕ β], spending from the first pot until a
    caller-supplied phase boundary is observed, then from the second;
    strict descent of the {e combined} credit follows from strict
    monotonicity of [⊕] in each argument, which the driver re-validates
    at every step.

    The module also packages the two §5.1 examples:

    - {!e_two_spec}: [e_two = f () + f ()] with [$(n_f ⊕ n_f)] — finite
      credits suffice since [n_f] is known up front;
    - {!dynamic_spec}: [let k = u () in … k iterations of f …] with
      [$(ω ⊕ n_u)] — the pot for [u] is finite, the pot for the loop is
      [ω], instantiated only when [k] is known.  Finite credits cannot
      verify this program compositionally: no finite pot chosen up front
      covers every possible [k] (the bench measures where countdown
      fails). *)

module Ord = Tfiris_ordinal.Ord
module Metrics = Tfiris_obs.Metrics
module Trace = Tfiris_obs.Trace
open Tfiris_shl

type phase_boundary = Step.config -> bool

let c_phase_switches = Metrics.counter "termination.tsplit.phase_switches"
let c_pot1_spends = Metrics.counter "termination.tsplit.pot1_spends"
let c_pot2_spends = Metrics.counter "termination.tsplit.pot2_spends"

(** [split_strategy ~boundary s1 s2]: spend from pot 1 with [s1] until
    [boundary] first holds, then from pot 2 with [s2].  The pots are the
    Hessenberg summands of the initial credit, supplied explicitly. *)
let split_strategy ~(boundary : phase_boundary) ~(pot1 : Ord.t) ~(pot2 : Ord.t)
    (s1 : Step.config Wp.strategy) (s2 : Step.config Wp.strategy) :
    Step.config Wp.strategy =
  let pots = ref (pot1, pot2) in
  let phase2 = ref false in
  {
    Wp.name = Printf.sprintf "split(%s,%s)" s1.Wp.name s2.Wp.name;
    spend =
      (fun ~step_no ~config ~credit:_ ~meter ->
        if (not !phase2) && boundary (Lazy.force config) then begin
          phase2 := true;
          Metrics.incr c_phase_switches;
          if Trace.on () then
            Trace.instant "tsplit.boundary"
              ~attrs:[ ("step_no", Trace.I step_no) ]
        end;
        let a, b = !pots in
        if not !phase2 then
          match s1.Wp.spend ~step_no ~config ~credit:a ~meter with
          | None -> None
          | Some a' ->
            if Ord.lt a' a then begin
              Metrics.incr c_pot1_spends;
              pots := (a', b);
              Some (Ord.hsum a' b)
            end
            else None
        else
          match s2.Wp.spend ~step_no ~config ~credit:b ~meter with
          | None -> None
          | Some b' ->
            if Ord.lt b' b then begin
              Metrics.incr c_pot2_spends;
              pots := (a, b');
              Some (Ord.hsum a b')
            end
            else None);
  }

type spec = {
  label : string;
  credit : Ord.t;
  strategy : Step.config Wp.strategy;
  prog : Step.config;
}

let verify (s : spec) : Wp.verdict = Wp.run ~credits:s.credit s.strategy s.prog

(** Number of steps [f ()] takes (the [n_f] of §5.1), measured once —
    the analogue of having proved [{$n_f} f () {m. m ∈ ℕ}]. *)
let cost_of_call (f : Ast.expr) : int option =
  Machine.steps_to_value (Machine.config (Ast.App (f, Ast.unit_)))

(** {1 §5.1 example 1: [e_two = f () + f ()] with finite credits} *)

(** The boundary between the two calls: the left operand of [+] has
    become a value. *)
let left_operand_done (cfg : Step.config) =
  match cfg.Step.expr with
  | Ast.Bin_op (Ast.Add, Ast.Val _, _) -> true
  | Ast.Let (_, _, _) -> false
  | _ -> (
    (* inside a Let-binding of f: look through the binder *)
    match Ctx.decompose cfg.Step.expr with
    | Some (k, _) ->
      List.exists
        (function Ctx.Bin_op_r (Ast.Add, _) -> true | _ -> false)
        k
    | None -> false)

let e_two_spec (f : Ast.expr) : spec option =
  match cost_of_call f with
  | None -> None
  | Some n_f ->
    (* each pot pays for one call plus the surrounding glue steps *)
    let pot = Ord.of_int (n_f + 4) in
    Some
      {
        label = Printf.sprintf "e_two with $(%d \xe2\x8a\x95 %d)" (n_f + 4) (n_f + 4);
        credit = Ord.hsum pot pot;
        strategy =
          split_strategy ~boundary:left_operand_done ~pot1:pot ~pot2:pot
            Wp.countdown Wp.countdown;
        prog = Step.config (Prog.e_two f);
      }

(** {1 §5.1 example 2: the dynamic loop with [$(ω ⊕ n_u)]} *)

(** Boundary: [u ()] has been evaluated, i.e. the outer [let k = …]
    redex carries a value. *)
let k_is_known (cfg : Step.config) =
  match Ctx.decompose cfg.Step.expr with
  | Some (_, Ast.Let ("k", Ast.Val (Ast.Int _), _)) -> true
  | Some _ | None -> false

let dynamic_spec ~(u : Ast.expr) ~(f : Ast.expr) : spec option =
  match cost_of_call u with
  | None -> None
  | Some n_u ->
    let pot_u = Ord.of_int (n_u + 4) in
    Some
      {
        label =
          Format.asprintf "dynamic loop with $(\xcf\x89 \xe2\x8a\x95 %d)" (n_u + 4);
        credit = Ord.hsum Ord.omega pot_u;
        strategy =
          split_strategy ~boundary:k_is_known ~pot1:pot_u ~pot2:Ord.omega
            Wp.countdown (Wp.adaptive ());
        prog = Step.config (Prog.dynamic_loop ~u ~f);
      }

(** The finite-credit baseline attempt at the dynamic loop: a countdown
    from a fixed budget [n].  Succeeds only when [n] happens to exceed
    the actual run length — there is no compositional way to choose it
    from [n_u] alone. *)
let dynamic_finite_attempt ~(u : Ast.expr) ~(f : Ast.expr) ~(budget : int) :
    Wp.verdict =
  Wp.run ~credits:(Ord.of_int budget) Wp.countdown
    (Step.config (Prog.dynamic_loop ~u ~f))
