(** Queue refinement: the batched (two-stack) queue refines the naive
    list queue.

    A §4-style case study beyond the paper's own: the target's
    occasional O(n) reversal burst means no lock-step simulation exists
    — the proof needs target-side stuttering whose length depends on the
    (dynamic) queue contents, the same unbounded-stutter shape as
    [memo_rec]'s table lookup.  Clients are operation scripts; the two
    implementations must produce the same observation list, and the
    refinement is certified by the budgeted driver. *)

module Ord = Tfiris_ordinal.Ord
module Budget = Tfiris_robust.Budget
open Tfiris_shl

type op =
  | Push of int
  | Pop

let pp_op ppf = function
  | Push n -> Format.fprintf ppf "push %d" n
  | Pop -> Format.pp_print_string ppf "pop"

let pp_script ppf ops =
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.pp_print_string ppf "; ")
    pp_op ppf ops

(** Compile a script to a client body: run the operations against the
    ambient [mkq]/[push]/[pop] bindings, collecting every pop result in
    an output list (most recent first).  The result value is ground. *)
let client (ops : op list) : Ast.expr =
  let open Ast in
  let rec build = function
    | [] -> Load (Var "out")
    | Push n :: rest ->
      Seq (app2 (Var "push") (Var "q") (int_ n), build rest)
    | Pop :: rest ->
      Seq
        ( Store
            ( Var "out",
              Inj_r_e (Pair_e (App (Var "pop", Var "q"), Load (Var "out"))) ),
          build rest )
  in
  Let
    ( "q",
      App (Var "mkq", unit_),
      Let ("out", Ref (Ast.none_), build ops) )

let instance (ops : op list) : Memo_spec.instance =
  let label =
    if List.length ops <= 6 then Format.asprintf "queue[%a]" pp_script ops
    else Printf.sprintf "queue(%d ops)" (List.length ops)
  in
  {
    Memo_spec.label;
    target = Step.config (Prog.batched_queue_ctx (client ops));
    source = Step.config (Prog.naive_queue_ctx (client ops));
  }

(** The expected observation list, from a reference OCaml queue:
    most recent pop first, [None] for pops of an empty queue. *)
let oracle (ops : op list) : int option list =
  let q = Queue.create () in
  List.fold_left
    (fun acc op ->
      match op with
      | Push n ->
        Queue.add n q;
        acc
      | Pop -> (try Some (Queue.pop q) with Queue.Empty -> None) :: acc)
    [] ops

(** Decode the client's output value back into the oracle's shape. *)
let rec decode (v : Ast.value) : int option list option =
  match v with
  | Ast.Inj_l Ast.Unit -> Some []
  | Ast.Inj_r (Ast.Pair (obs, rest)) -> (
    match decode rest with
    | None -> None
    | Some tail -> (
      match obs with
      | Ast.Inj_l Ast.Unit -> Some (None :: tail)
      | Ast.Inj_r (Ast.Int n) -> Some (Some n :: tail)
      | _ -> None))
  | _ -> None

(** Run one implementation of the script directly. *)
let run_impl ~(batched : bool) (ops : op list) : int option list option =
  let prog =
    if batched then Prog.batched_queue_ctx (client ops)
    else Prog.naive_queue_ctx (client ops)
  in
  match Interp.eval ~budget:(Budget.of_steps 50_000_000) prog with
  | Some v -> decode v
  | None -> None

(** Certify the refinement of a script with the oracle strategy; [fuel]
    is the oracle's pre-run depth and the size of the game's steps
    budget. *)
let certify ?(fuel = 50_000_000) (ops : op list) : Driver.verdict option =
  let inst = instance ops in
  match
    Strategy.oracle ~fuel ~target:inst.Memo_spec.target
      ~source:inst.Memo_spec.source ()
  with
  | None -> None
  | Some strat ->
    Some
      (Driver.run ~budget:(Budget.of_steps fuel)
         ~target:inst.Memo_spec.target ~source:inst.Memo_spec.source strat)
