(** The memoization case studies of §1 and §4.3.

    For a template [t], the paper proves [memo_rec t n ⪯G r_t n]: the
    memoized function is a termination-preserving refinement of the
    plain recursive one.  Here each instance is packaged as a
    target/source pair plus a checked certificate for the {!Driver}
    (produced by {!Strategy.oracle}), and the negative variants the
    paper uses to motivate the whole enterprise are provided alongside:

    - [broken_template]: replacing [t g x] with [g x] in [memo_rec]'s
      body (the §1 mutation) yields a memoized function that diverges on
      every input yet would still pass a mere {e result}-refinement
      check; no driver strategy can certify it.
    - unbounded stuttering: the table lookup in [memo_rec] takes more
      steps each time the table grows, so no {e fixed finite} stutter
      bound works across all arguments — the reason Tassarotti et
      al.'s bounded-stutter refinement cannot handle [memo_rec] and
      transfinite budgets can (§8). *)

module Ord = Tfiris_ordinal.Ord
module Budget = Tfiris_robust.Budget
open Tfiris_shl

type instance = {
  label : string;
  target : Step.config;
  source : Step.config;
}

(** [fib_instance n]: [memo_rec Fib n ⪯ℕ r_Fib n]. *)
let fib_instance n =
  {
    label = Printf.sprintf "memo_fib(%d)" n;
    target = Step.config (Ast.App (Prog.memo_of Prog.fib_template, Ast.int_ n));
    source = Step.config (Ast.App (Prog.rec_of Prog.fib_template, Ast.int_ n));
  }

(** [lev_instance a b]: nested memoized Levenshtein vs the plain
    recursive one, on heap-allocated null-terminated strings. *)
let lev_instance a b =
  let heap = Heap.empty in
  let l1, heap = Prog.alloc_string a heap in
  let l2, heap = Prog.alloc_string b heap in
  let arg = Ast.Val (Ast.Pair (Ast.Loc l1, Ast.Loc l2)) in
  {
    label = Printf.sprintf "memo_lev(%S,%S)" a b;
    target = { Step.expr = Ast.App (Prog.mlev, arg); heap };
    source = { Step.expr = Ast.App (Prog.rlev, arg); heap };
  }

(** [slen_instance s]: memoized string length vs plain. *)
let slen_instance s =
  let heap = Heap.empty in
  let l, heap = Prog.alloc_string s heap in
  let arg = Ast.Val (Ast.Loc l) in
  {
    label = Printf.sprintf "memo_slen(%S)" s;
    target = { Step.expr = Ast.App (Prog.memo_of Prog.slen_template, arg); heap };
    source = { Step.expr = Ast.App (Prog.rec_of Prog.slen_template, arg); heap };
  }

(** The §1 mutation: a template whose body calls [g x] instead of
    [t g x], so the memoized version loops forever on a cache miss. *)
let broken_identity_template = Parser.parse_exn "fun g n -> g n"

let broken_instance n =
  {
    label = Printf.sprintf "broken_memo(%d)" n;
    target =
      Step.config (Ast.App (Prog.memo_of broken_identity_template, Ast.int_ n));
    source =
      (* the source: plain fib — terminating, so termination preservation
         must fail. (Any terminating source would do.) *)
      Step.config (Ast.App (Prog.rec_of Prog.fib_template, Ast.int_ n));
  }

(** [certify ?fuel inst]: produce and check an oracle certificate.
    Returns the driver verdict ([None] if no certificate exists, e.g.
    a diverging side).  [fuel] is the oracle's pre-run depth, and the
    game gets a steps budget of the same size. *)
let certify ?(fuel = 10_000_000) (inst : instance) : Driver.verdict option =
  match Strategy.oracle ~fuel ~target:inst.target ~source:inst.source () with
  | None -> None
  | Some strat ->
    Some
      (Driver.run ~budget:(Budget.of_steps fuel) ~target:inst.target
         ~source:inst.source strat)

(** {1 The unbounded-stutter measurement (§8, vs Tassarotti et al.)}

    [lookup_cost_growth ns]: for each [n], the number of consecutive
    target-only steps [memo_rec Fib] spends on its table lookup when
    called on [n] after the table has been filled by computing [fib n]
    once.  The sequence grows without bound in [n]; any refinement
    framework with a fixed finite stutter budget fails beyond the
    corresponding argument, while an ordinal budget [ω] covers all. *)
let lookup_cost (n : int) : int option =
  (* Compute [fib n] once to fill the table with entries 0..n, then look
     up the oldest entry (argument 1, now deepest in the association
     list).  The lookup's step count is a stutter run a refinement proof
     must justify with no source progress (the source performs a single
     unfolding); it grows without bound in [n]. *)
  let open Ast in
  let prog =
    Let
      ( "mf",
        Prog.memo_of Prog.fib_template,
        Seq (App (Var "mf", int_ n), App (Var "mf", int_ 1)) )
  in
  let first =
    Let ("mf", Prog.memo_of Prog.fib_template, App (Var "mf", int_ n))
  in
  match
    ( Interp.steps_to_value ~budget:(Budget.of_steps 50_000_000) prog,
      Interp.steps_to_value ~budget:(Budget.of_steps 50_000_000) first )
  with
  | Some both, Some once -> Some (both - once)
  | None, _ | _, None -> None
