(** Adequacy of the refinement game (Theorem 4.3), as a test harness.

    Theorem 4.3 says: if [⊨ e_t ⪯G e_s] then [e_t] is a
    termination-preserving refinement of [e_s].  The driver's accepted
    runs carry the two clauses constructively:

    + {b results}: an [Accepted (Terminated v)] verdict was produced by
      actually executing the source to the very value [v] the target
      produced — {!replay_result} re-runs the source independently and
      confirms;
    + {b divergence}: for a target that runs forever, accepted runs
      under increasing budgets must drive the source through an unboundedly
      growing number of steps ({!divergence_transfer}) — the coherent
      infinite source execution whose existence is exactly what the
      existential property provides in the paper's proof (§2.5).

    The §4.1 Iris rules fail clause 2; the scripts in the test suite
    demonstrate this with [e_loop ⪯ skip]. *)

open Tfiris_shl

(** Independent re-execution of one side of a terminated verdict: [c]
    runs to a value equal to [v] within [budget]. *)
let replay_result ~budget (c : Step.config) (v : Ast.value) =
  match Interp.exec ~budget ~heap:c.Step.heap c.Step.expr with
  | Interp.Value (v', _), _ -> Ast.value_eq v v' = Some true
  | (Interp.Stuck _ | Interp.Out_of_fuel _), _ -> false

(** [divergence_transfer ~budgets ~target ~source strategy]: run the
    game under each budget; all runs must be accepted
    ([Fuel_exhausted]) and the source step counts must be strictly
    increasing — the bounded observation of "target diverges ⟹ source
    diverges". *)
let divergence_transfer ~(budgets : Tfiris_robust.Budget.t list) ~target
    ~source (strategy : Driver.strategy) : bool =
  let counts =
    List.map
      (fun budget ->
        match Driver.run ~budget ~target ~source strategy with
        | Driver.Accepted (Driver.Fuel_exhausted _, st) -> Some st.source_steps
        | Driver.Accepted (Driver.Terminated _, _) | Driver.Rejected _ -> None)
      budgets
  in
  let rec strictly_increasing = function
    | Some a :: (Some b :: _ as rest) -> a < b && strictly_increasing rest
    | [ Some _ ] -> true
    | [] | None :: _ | Some _ :: None :: _ -> false
  in
  strictly_increasing counts

(** Full adequacy check of a driver verdict against independent
    executions of both sides. *)
let verdict_adequate ~target ~source ~budget (v : Driver.verdict) : bool =
  match v with
  | Driver.Accepted (Driver.Terminated value, _) ->
    (* target really evaluates to [value] and so does the source *)
    replay_result ~budget target value && replay_result ~budget source value
  | Driver.Accepted (Driver.Fuel_exhausted _, _) | Driver.Rejected _ -> true
