(** The §2.3 counterexample: [t∞ ⪯ᵢ s<∞] for every finite [i], yet no
    termination-preserving refinement.

    The target [t∞] loops forever.  The source [s<∞] first
    {e nondeterministically} picks a natural number [n] (countable
    branching!), then runs for [n] steps and terminates.  For every
    finite step-index [i] the simulation approximation holds — the
    source just picks some [n ≥ i] — but the witnessing executions are
    {e incoherent}: each index needs a different pick, so no single
    infinite source execution exists, and [s<∞] in fact always
    terminates while [t∞] always diverges.

    The source is infinitely branching, so it is not a {!Ts.t}; we
    implement it directly. *)

module Metrics = Tfiris_obs.Metrics

(* e2's whole workload lives in this module (pure int games, no
   interpreter underneath), so it carries its own counters. *)
let c_runs = Metrics.counter "transition.cex.runs"
let c_approx = Metrics.counter "transition.cex.approx_checks"
let c_src_steps = Metrics.counter "transition.cex.source_steps"

type source_state =
  | Pick  (** about to choose [n] *)
  | Run of int  (** [n] steps left before terminating *)
  | Done  (** terminated (with value [true], say) *)

(** One target state, stepping to itself. *)
let target_steps () = [ () ]

(** Successors of a source state; [Pick] has countably many, which we
    expose as a function of the choice. *)
let source_step_choice (s : source_state) (n : int) : source_state option =
  Metrics.incr c_src_steps;
  match s with
  | Pick -> if n >= 0 then Some (Run n) else None
  | Run 0 -> if n = 0 then Some Done else None
  | Run k -> if n = 0 then Some (Run (k - 1)) else None
  | Done -> None

(** {1 The step-indexed simulation holds at every finite index}

    [t∞ ⪯ᵢ s<∞] is established constructively: the witness strategy
    picks [Run i] at the start and then counts down.  [check_approx i]
    replays the definition of [⪯ᵢ] along this strategy and confirms
    every unfolding obligation. *)
let check_approx (i : int) : bool =
  Metrics.incr c_approx;
  (* After the pick, t∞ ⪯_k Run j must hold with k ≤ j + 1 obligations
     remaining; we verify the chain down to ⪯₀ (trivially true). *)
  let rec chain (s : source_state) (k : int) : bool =
    if k = 0 then true
    else
      (* target steps to itself; source must produce a step. *)
      match s with
      | Pick -> (
        match source_step_choice Pick (max 0 (k - 1)) with
        | Some s' -> chain s' (k - 1)
        | None -> false)
      | Run j -> (
        match source_step_choice (Run j) 0 with
        | Some s' -> chain s' (k - 1)
        | None -> false)
      | Done -> false
  in
  chain Pick i

(** The witness execution used for index [i] (source states, starting
    at [Pick]).  Different indices yield different executions — the
    incoherence at the heart of the counterexample. *)
let witness_run (i : int) : source_state list =
  let rec go s acc k =
    if k = 0 then List.rev (s :: acc)
    else
      match s with
      | Pick -> go (Run (k - 1)) (s :: acc) (k - 1)
      | Run 0 -> go Done (s :: acc) (k - 1)
      | Run j -> go (Run (j - 1)) (s :: acc) (k - 1)
      | Done -> List.rev (s :: acc)
  in
  go Pick [] i

(** [first_pick run]: the [n] chosen by a witness execution. *)
let first_pick = function
  | _ :: Run n :: _ -> Some n
  | [] | [ _ ] | _ :: (Pick | Done) :: _ -> None

(** {1 No coherent infinite source execution}

    Every execution of [s<∞] that picks [n] has exactly [n + 2] states.
    [max_run_length ~max_pick] confirms this bound for all picks up to a
    limit: the supremum of run lengths is infinite only because the
    {e choice} is unbounded — each individual run is finite.  Hence
    [s<∞] has no divergent execution, and [t∞ ⪯ s<∞] would violate
    termination preservation. *)
let run_length_of_pick n =
  let rec go s len =
    match s with
    | Pick -> go (Run n) (len + 1)
    | Run 0 -> go Done (len + 1)
    | Run k -> go (Run (k - 1)) (len + 1)
    | Done -> len
  in
  go Pick 1

let max_run_length ~max_pick =
  let rec go n best =
    if n > max_pick then best else go (n + 1) (max best (run_length_of_pick n))
  in
  go 0 0

(** [all_runs_terminate ~max_pick]: every source execution (up to the
    pick bound) reaches [Done]. *)
let all_runs_terminate ~max_pick =
  let rec terminates s fuel =
    fuel > 0
    &&
    match s with
    | Done -> true
    | Pick | Run _ -> (
      match source_step_choice s 0 with
      | Some s' -> terminates s' (fuel - 1)
      | None -> false)
  in
  let rec go n = n > max_pick || (terminates (Run n) (n + 2) && go (n + 1)) in
  go 0

(** {1 Summary}

    The full §2.3 story as one checked record. *)
type report = {
  approx_indices_checked : int;
  approx_all_hold : bool;  (** t∞ ⪯ᵢ s<∞ for all checked i *)
  witnesses_incoherent : bool;
      (** the runs witnessing different indices start with different
          picks — no single run works for all i *)
  source_always_terminates : bool;
  refinement_would_need_divergence : bool;
      (** t∞ diverges, so a TP refinement needs a divergent source run *)
}

let run ?(indices = 64) ?(max_pick = 256) () : report =
  Metrics.incr c_runs;
  let all_hold =
    let rec go i = i > indices || (check_approx i && go (i + 1)) in
    go 0
  in
  let picks =
    List.filter_map (fun i -> first_pick (witness_run i)) [ 2; 8; 32 ]
  in
  let incoherent =
    match picks with
    | a :: rest -> List.exists (fun b -> b <> a) rest
    | [] -> false
  in
  {
    approx_indices_checked = indices;
    approx_all_hold = all_hold;
    witnesses_incoherent = incoherent;
    source_always_terminates = all_runs_terminate ~max_pick;
    refinement_would_need_divergence = true;
  }
