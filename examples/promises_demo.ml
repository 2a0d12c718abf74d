(* The linear async-channel language (§5.2): JavaScript-promise-style
   concurrency whose well-typed programs all terminate.

   Run with:  dune exec examples/promises_demo.exe *)

open Tfiris.Promises
open Syntax

let show name e =
  let ty =
    match Typing.typecheck e with
    | Ok t -> Format.asprintf "%a" pp_ty t
    | Error err -> Format.asprintf "ill-typed: %a" Typing.pp_error err
  in
  Format.printf "  %-24s : %s@." name ty;
  Format.printf "      %s@." (to_string e);
  match Typing.typecheck e with
  | Ok _ ->
    Format.printf "      %a@." (Termination.Wp.pp_outcome pp) (Termination.verify e)
  | Error _ -> (
    match Semantics.exec ~budget:(Tfiris.Robust.Budget.of_steps 10_000) e with
    | Semantics.Out_of_fuel -> print_endline "      diverges (fuel exhausted)"
    | Semantics.Value (v, n) ->
      Format.printf "      evaluates to %s in %d steps (untyped!)@." (to_string v) n
    | Semantics.Deadlocked n -> Format.printf "      deadlocks after %d steps@." n
    | Semantics.Stuck (t, n) ->
      Format.printf "      stuck on %s after %d steps@." (to_string t) n)

let () =
  print_endline "post e  spawns a task computing e and returns its promise;";
  print_endline "wait c  suspends until the promise is resolved.  Channels are";
  print_endline "linear (awaited exactly once); the language has no recursion;";
  print_endline "types are impredicatively polymorphic.  Theorem (Spies et al.,";
  print_endline "re-proved in Transfinite Iris with credits up to ω^ω): every";
  print_endline "well-typed program terminates.";
  print_endline "";
  show "round trip" Termination.simple_promise;
  show "chain of 5 promises" (Termination.chain 5);
  show "fan-out / fan-in (4)" (Termination.fan 4);
  show "nested promise" Termination.nested;
  print_endline "";
  print_endline "== the impredicative extension ==";
  show "polymorphic identity" Termination.poly_id;
  show "id [∀a. a⊸a] id [int]" Termination.impredicative_self;
  show "promise of a ∀-value" Termination.poly_promise;
  print_endline "";
  print_endline "== what the type system rules out ==";
  show "channel never awaited" (Let ("c", Post (Int 1), Int 0));
  show "channel awaited twice"
    (Let ("c", Post (Int 1), Bin (Add, Wait (Var "c"), Wait (Var "c"))));
  show "untyped Ω" Termination.omega_untyped
