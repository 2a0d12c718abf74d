(** Strategy combinators — ways of producing refinement certificates.

    A strategy plays the source's moves in the refinement game of
    {!Driver}.  Nothing here is trusted: the driver checks every move.
    Three families:

    - {!lockstep}: one source step per target step — the simulations of
      §2.2 and Lemma 4.2;
    - {!paced}: [k] source steps every [m] target steps, with exact
      finite budgets in between;
    - {!oracle}: pre-runs both terminating sides and schedules the
      source's steps evenly along the target's — the generic certificate
      generator used for the memo_rec case studies (the analogue of
      discharging the proof once and for all in Coq, then replaying it). *)

module Ord = Tfiris_ordinal.Ord
open Tfiris_shl

(** One source step per target step; never stutters. *)
let lockstep : Driver.strategy =
  {
    name = "lockstep";
    decide =
      (fun ~step_no:_ ~budget:_ ->
        Driver.Advance { src_steps = 1; budget = Ord.zero });
  }

(** [k] source steps each time the target has taken [m] steps; between
    those points the strategy stutters on an exact countdown budget. *)
let paced ~(src_per_burst : int) ~(tgt_per_burst : int) : Driver.strategy =
  {
    name = Printf.sprintf "paced(%d/%d)" src_per_burst tgt_per_burst;
    decide =
      (fun ~step_no ~budget:_ ->
        if step_no mod tgt_per_burst = 0 then
          Driver.Advance
            { src_steps = src_per_burst; budget = Ord.of_int tgt_per_burst }
        else
          Driver.Stutter
            (Ord.of_int (tgt_per_burst - (step_no mod tgt_per_burst))));
  }

(** Never advance the source; spend down from the given ordinal using
    canonical descent.  Sound (the driver will stop accepting once the
    budget hits a bound), and exactly what a bogus refinement like
    [e_loop ⪯ skip] must eventually resort to. *)
let stutter_only (b0 : Ord.t) : Driver.strategy =
  {
    name = Format.asprintf "stutter-only(%a)" Ord.pp b0;
    decide =
      (fun ~step_no:_ ~budget ->
        if Ord.is_zero budget then Driver.Stutter Ord.zero
        else Driver.Stutter (Ord.descend budget));
  }

(** [evenly ~t_total ~s_total]: distribute [s_total] source steps
    evenly over [t_total] target steps, stuttering with exact finite
    budgets in between.  Consulted only at target steps [1..t_total],
    so [t_total = 0] is fine when the target starts finished. *)
let evenly ~t_total ~s_total : Driver.strategy =
  (* Source steps scheduled at target step i: enough to reach
     ⌊s_total·i / t_total⌋ cumulative source steps. *)
  let scheduled i = s_total * i / t_total in
  let decide ~step_no ~budget:_ =
    let want = scheduled step_no in
    let had = scheduled (step_no - 1) in
    if want > had then
      Driver.Advance { src_steps = want - had; budget = Ord.of_int t_total }
    else Driver.Stutter (Ord.of_int (t_total - step_no))
  in
  { Driver.name = "oracle"; decide }

(** [oracle ~fuel ~target ~source]: pre-run both sides; if both
    terminate, pace the source {!evenly} along the target.  Produces
    [None] when either side fails to terminate within [fuel], cycles,
    or hits [meter]'s wall deadline — an oracle certificate only exists
    for terminating pairs (for diverging pairs write an online strategy
    such as {!lockstep}). *)
let oracle ?fuel ?meter ~(target : Step.config) ~(source : Step.config) () :
    Driver.strategy option =
  (* the pre-runs go through the frame-stack machine: on deep-context
     programs (exactly the memoization targets) the reference stepper's
     per-step decompose/fill is quadratic *)
  let count cfg = Machine.steps_to_value ?fuel ?meter (Machine.of_config cfg) in
  match count target, count source with
  | Some t_total, Some s_total when t_total > 0 ->
    Some (evenly ~t_total ~s_total)
  | Some _, Some _ | Some _, None | None, _ -> None

(** A strategy from an explicit move list (used in tests); falls back to
    stuttering on canonical descent when the list runs out. *)
let scripted (moves : Driver.decision list) : Driver.strategy =
  let arr = Array.of_list moves in
  {
    name = "scripted";
    decide =
      (fun ~step_no ~budget ->
        if step_no - 1 < Array.length arr then arr.(step_no - 1)
        else if Ord.is_zero budget then Driver.Stutter Ord.zero
        else Driver.Stutter (Ord.descend budget));
  }
