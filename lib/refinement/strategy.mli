(** Strategy combinators — ways of producing refinement certificates
    for {!Driver}.  Nothing here is trusted: the driver checks every
    move. *)

module Ord = Tfiris_ordinal.Ord
open Tfiris_shl

val lockstep : Driver.strategy
(** One source step per target step (the simulations of §2.2 and
    Lemma 4.2); never stutters. *)

val paced : src_per_burst:int -> tgt_per_burst:int -> Driver.strategy
(** [k] source steps every [m] target steps, stuttering on exact finite
    budgets in between. *)

val stutter_only : Ord.t -> Driver.strategy
(** Never advance the source; spend the ordinal down by canonical
    descent.  What a bogus refinement like [e_loop ⪯ skip] must resort
    to — and the driver stops it in finitely many steps. *)

val oracle :
  ?fuel:int ->
  ?meter:Tfiris_robust.Budget.meter ->
  target:Step.config ->
  source:Step.config ->
  unit ->
  Driver.strategy option
(** Pre-run both sides; if both terminate, schedule the source's steps
    evenly along the target's with exact finite budgets — the generic
    certificate generator for terminating pairs (the analogue of
    discharging the proof once in Coq, then replaying it).  [None] when
    either side fails to terminate within [fuel] (default 10⁷ steps),
    provably cycles, or reaches [meter]'s wall deadline — the pre-runs
    are {!Machine.steps_to_value}, polling [meter] but never charging
    it.  [fuel] is that pre-run depth, not a run budget. *)

val scripted : Driver.decision list -> Driver.strategy
(** An explicit move list (tests); falls back to canonical-descent
    stuttering when the list runs out. *)
