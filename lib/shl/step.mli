(** Small-step operational semantics of SHL.

    SHL is deterministic, so the step relation [{tgt] is a partial
    function on configurations.  Head steps are classified as {e pure}
    (the [e { e'] of the paper's PureT/PureS rules) or heap steps
    (alloc/load/store) — the distinction the program logics' rules key
    on (Figure 3). *)

type config = {
  expr : Ast.expr;
  heap : Heap.t;
}

val config : ?heap:Heap.t -> Ast.expr -> config

type kind =
  | Pure  (** a [{] step: β, if, case, projections, arithmetic, … *)
  | Alloc of Ast.loc
  | Load_of of Ast.loc
  | Store_to of Ast.loc

val kind_is_pure : kind -> bool

type error =
  | Stuck of Ast.expr  (** the head redex cannot step *)
  | Finished  (** the expression is already a value *)

val pp_error : Format.formatter -> error -> unit

val eval_un_op : Ast.un_op -> Ast.value -> Ast.value option
val eval_bin_op : Ast.bin_op -> Ast.value -> Ast.value -> Ast.value option

val head_step : Heap.t -> Ast.expr -> (Ast.expr * Heap.t * kind) option
(** One step of a head redex. *)

val prim_step : config -> (config * kind, error) result
(** One whole-configuration step: decompose, head-step, refill. *)

val pure_step : Ast.expr -> Ast.expr option
(** The paper's [e { e']: a whole-program step whose head step is pure. *)

val pure_steps : ?fuel:int -> Ast.expr -> Ast.expr -> bool
(** [pure_steps e e']: [e {* e'] using only pure steps, within fuel —
    the executable side condition of the PureT/PureS rule checkers.
    [fuel] bounds a proof search over pure steps, not a metered run. *)
