(** Invariants as execution monitors (the sequential face of Iris's
    impredicative invariants): a named pool of heap predicates checked
    after every primitive step of a run.  A body may consult the pool —
    invariants that mention other invariants are the impredicativity the
    paper's §5.2 extension relies on. *)

open Tfiris_shl

type body =
  | Assert of (Heap.t -> pool -> bool)
      (** monitored predicate over the full heap, given the pool for
          impredicative reference *)

and pool = (string * body) list

val holds : pool -> string -> Heap.t -> bool

val cell_invariant :
  Ast.loc -> (Ast.value -> Heap.t -> pool -> bool) -> body
(** The cell exists and its content satisfies the check. *)

type violation = {
  step : int;
  name : string;
}

val monitor :
  ?budget:Tfiris_robust.Budget.t ->
  pool:pool ->
  Step.config ->
  (Interp.outcome, violation) result
(** Run, checking every pool invariant after every step; returns the
    first violation if any.  The [budget] defaults to 10⁶ steps. *)

val preserved :
  ?budget:Tfiris_robust.Budget.t -> pool:pool -> Step.config -> bool
(** The run completes to a value with every invariant holding
    throughout. *)
