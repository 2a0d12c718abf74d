(** Invariants as execution monitors.

    Iris's impredicative invariants [⌜P⌝ᴺ] assert that [P] holds of the
    shared state at every step.  In the sequential setting the
    executable counterpart is a {e monitor}: a named pool of assertions
    checked against the (relevant fragment of the) heap after every
    primitive step of a run.

    Impredicativity — an invariant's body may itself refer to other
    invariants — is supported by the [Inv] assertion former below, whose
    satisfaction consults the pool (knowledge of registration, the
    standard "invariant token" reading).  This is the mechanism the
    paper's §5.2 polymorphic extension leans on for [ref (τ)]:
    {!Logrel} instantiates it with type interpretations. *)

open Tfiris_shl

type body =
  | Assert of (Heap.t -> pool -> bool)
      (** arbitrary monitored predicate over the full heap; receives the
          pool so it can consult other invariants (impredicativity) *)

and pool = (string * body) list

(** [holds pool name h]: the named invariant holds of heap [h]. *)
let holds (pool : pool) (name : string) (h : Heap.t) : bool =
  match List.assoc_opt name pool with
  | Some (Assert f) -> f h pool
  | None -> false

(** [cell_invariant l check]: the cell [l] exists and its content
    satisfies [check] (given the heap and pool, for higher-order
    contents). *)
let cell_invariant (l : Ast.loc) (check : Ast.value -> Heap.t -> pool -> bool)
    : body =
  Assert
    (fun h pool ->
      match Heap.lookup l h with Some v -> check v h pool | None -> false)

type violation = {
  step : int;
  name : string;
}

(** [monitor ~budget ~pool cfg]: run the configuration, checking every
    pool invariant after every step.  Returns the final outcome or the
    first violation. *)
let monitor ?(budget = Tfiris_robust.Budget.of_steps 1_000_000)
    ~(pool : pool) (cfg : Step.config) : (Interp.outcome, violation) result =
  let module Budget = Tfiris_robust.Budget in
  let meter = Budget.meter budget in
  let check_all step h =
    List.find_opt (fun (name, _) -> not (holds pool name h)) pool
    |> Option.map (fun (name, _) -> { step; name })
  in
  (* The run goes through the frame-stack machine; only the boundary
     outcomes (out of fuel, stuck) materialise a whole [Step.config]. *)
  let rec go (cfg : Machine.config) k =
    match check_all k cfg.Machine.heap with
    | Some v -> Error v
    | None -> (
      if not (Budget.step meter) then
        Ok (Interp.Out_of_fuel (Budget.tripped meter, Machine.to_config cfg))
      else
        match Machine.prim_step cfg with
        | Error Step.Finished -> (
          match Machine.view cfg.Machine.thread with
          | Machine.V_value v -> Ok (Interp.Value (v, cfg.Machine.heap))
          | Machine.V_redex _ -> assert false)
        | Error (Step.Stuck redex) ->
          Ok (Interp.Stuck (Machine.to_config cfg, redex))
        | Ok (cfg', _) -> go cfg' (k + 1))
  in
  go (Machine.of_config cfg) 0

(** [preserved ~budget ~pool cfg]: the run completes to a value with
    every invariant holding throughout. *)
let preserved ?budget ~pool cfg =
  match monitor ?budget ~pool cfg with
  | Ok (Interp.Value _) -> true
  | Ok (Interp.Stuck _ | Interp.Out_of_fuel _) | Error _ -> false
