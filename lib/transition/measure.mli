(** Lemma 2.3, executably: termination by simulation into ordinals.

    §2.6 instantiates the simulation's source with the ordinals under
    [>]: every target step matched by a strictly descending ordinal step
    is a termination proof.  {!run} re-validates the descent at every
    step, so it needs no fuel — an accepted run cannot be infinite. *)

module Ord = Tfiris_ordinal.Ord

type 'a t = {
  state_pp : Format.formatter -> 'a -> unit;
  step : 'a -> 'a list;  (** finitely branching; [[]] = terminated *)
  measure : 'a -> Ord.t;
}

type 'a violation = {
  from_state : 'a;
  to_state : 'a;
  from_measure : Ord.t;
  to_measure : Ord.t;
}

val validate :
  ?bound:int -> 'a t -> 'a -> ('a violation option, string) result
(** Check the descent invariant on the reachable fragment (bounded
    exploration): [Ok None] = validated, [Ok (Some v)] = counterexample,
    [Error _] = bound exhausted. *)

val descend :
  measure:('a -> Ord.t) -> next:('a -> 'a option) -> 'a -> ('a list, 'a violation) result
(** Follow [next] until it returns [None], re-validating the strict
    descent of [measure] at every step; each state is measured once.
    Returns the visited states or the violation that stopped the run. *)

val run : 'a t -> choose:('a list -> 'a) -> 'a -> ('a list, 'a violation) result
(** {!descend} along [choose]'s pick among the system's successors: a
    run to termination under any successor choice. *)
