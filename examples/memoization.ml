(* The memo_rec case study (§1 and §4.3): termination-preserving
   refinement of memoized recursive functions.

   Run with:  dune exec examples/memoization.exe *)

module Shl = Tfiris.Shl
module Ref = Tfiris.Refinement
module Budget = Tfiris.Robust.Budget

let certify inst =
  match Ref.Memo_spec.certify inst with
  | Some v ->
    Format.printf "  %-28s %a@." inst.Ref.Memo_spec.label Ref.Driver.pp_verdict v
  | None -> Format.printf "  %-28s no certificate@." inst.Ref.Memo_spec.label

let () =
  print_endline "memo_rec: cache the results of a recursive function in a";
  print_endline "mutable table (higher-order state!), and prove the memoized";
  print_endline "function refines the plain one — including termination.";
  print_endline "";
  print_endline "The SHL implementation (parsed from concrete syntax):";
  print_endline "";
  Format.printf "%s@." (Shl.Pretty.expr_to_string Shl.Prog.memo_rec);
  print_endline "";

  print_endline "== Fibonacci (pure template, Figure 4) ==";
  List.iter (fun n -> certify (Ref.Memo_spec.fib_instance n)) [ 5; 10; 15 ];
  print_endline "";
  print_endline "  the payoff — step counts:";
  List.iter
    (fun n ->
      let steps f =
        Option.get
          (Shl.Interp.steps_to_value ~budget:(Budget.of_steps 200_000_000)
             (Shl.Ast.App (f, Shl.Ast.int_ n)))
      in
      Format.printf "    fib %2d: plain %9d steps, memoized %6d steps@." n
        (steps (Shl.Prog.rec_of Shl.Prog.fib_template))
        (steps (Shl.Prog.memo_of Shl.Prog.fib_template)))
    [ 10; 15; 20; 22 ];
  print_endline "";

  print_endline "== Levenshtein with nested memoization (stateful template) ==";
  print_endline "  strings are null-terminated heap arrays; the Lev template is";
  print_endline "  parameterized by a string-length function that is itself";
  print_endline "  memoized (repeatable-but-not-pure, §4.3):";
  List.iter certify
    [
      Ref.Memo_spec.lev_instance "cat" "hat";
      Ref.Memo_spec.lev_instance "kitten" "sitting";
    ];
  print_endline "";

  print_endline "== Why this needs Transfinite Iris ==";
  print_endline "  1. The table lookup's length grows with the table: the";
  print_endline "     refinement needs unbounded stuttering (budget ω), beyond";
  print_endline "     any fixed-bound framework (§8, Tassarotti et al.):";
  List.iter
    (fun n ->
      match Ref.Memo_spec.lookup_cost n with
      | Some c ->
        Format.printf "       after fib %2d: a deep lookup takes %3d target-only steps@." n c
      | None -> ())
    [ 4; 10; 16 ];
  print_endline "";
  print_endline "  2. The §1 mutation (call g x instead of t g x) still passes";
  print_endline "     result-refinement checks but diverges on every input; the";
  print_endline "     termination-preserving driver can never accept it:";
  (match Ref.Memo_spec.certify ~fuel:200_000 (Ref.Memo_spec.broken_instance 3) with
  | None -> print_endline "       broken_memo(3): no certificate exists"
  | Some v -> Format.printf "       broken_memo(3): %a@." Ref.Driver.pp_verdict v)
