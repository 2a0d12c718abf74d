(* The SHL type system: inference unit tests (positive and negative),
   principal types of the program library, and the fundamental theorem
   connecting syntactic typing to the safety logical relation. *)

module Q = QCheck2
module Shl = Tfiris.Shl
module Budget = Tfiris.Robust.Budget
module Types = Tfiris.Shl.Types
module Logrel = Tfiris.Safety.Logrel

let parse = Shl.Parser.parse_exn

let infer_str src =
  match Types.infer (parse src) with
  | Ok t -> Types.ty_to_string t
  | Error m -> "ERROR: " ^ m

let check_ty src expected =
  Alcotest.(check string) src expected (infer_str src)

let rejected src =
  match Types.infer (parse src) with
  | Ok t -> Alcotest.failf "%s unexpectedly typed at %s" src (Types.ty_to_string t)
  | Error _ -> ()

let test_infer_ground () =
  check_ty "1 + 2" "int";
  check_ty "1 < 2" "bool";
  check_ty "()" "unit";
  check_ty "(1, true)" "(int * bool)";
  check_ty "fst (1, true)" "int";
  check_ty "snd (1, true)" "bool";
  check_ty "not true" "bool";
  check_ty "-5" "int";
  check_ty "if 1 < 2 then 3 else 4" "int"

let test_infer_functions () =
  check_ty "fun x -> x + 1" "(int -> int)";
  (* unconstrained variables default to unit *)
  check_ty "fun x -> x" "(unit -> unit)";
  check_ty "fun f -> f 1 + 2" "((int -> int) -> int)";
  check_ty "rec f n. if n = 0 then 1 else n * f (n - 1)" "(int -> int)";
  check_ty "let twice = fun f x -> f (f x) in twice (fun n -> n + 1) 0" "int"

let test_infer_heap () =
  check_ty "ref 1" "ref int";
  check_ty "!(ref 1)" "int";
  check_ty "let r = ref 1 in r := 2" "unit";
  check_ty "let r = ref (fun x -> x + 1) in (!r) 3" "int";
  check_ty "ref (ref true)" "ref ref bool"

let test_infer_sums () =
  check_ty "inl 3" "(int + unit)";
  check_ty "match inl 3 with | inl x -> x + 1 | inr y -> 0 end" "int";
  check_ty
    "fun s -> match s with | inl x -> x | inr y -> if y then 1 else 0 end"
    "((int + bool) -> int)"

let test_infer_rejections () =
  rejected "1 + true";
  rejected "if 1 then 2 else 3";
  rejected "fst 3";
  rejected "!5";
  rejected "(fun x -> x x) (fun x -> x x)";
  (* occurs check *)
  rejected "true = true";
  (* Eq restricted to int in the typed fragment *)
  rejected "#0 := 1";
  (* location literals are untyped *)
  rejected "(ref 0) +l 1";
  (* pointer arithmetic is untyped *)
  rejected "x + 1" (* unbound *)

let test_program_library_types () =
  (* the paper's programs that live inside the typed fragment *)
  check_ty "rec loop f x. if f () then loop f x else ()"
    "((unit -> bool) -> (unit -> unit))";
  (match Types.infer Shl.Prog.ack with
  | Ok t ->
    Alcotest.(check string) "ackermann" "(int -> (int -> int))"
      (Types.ty_to_string t)
  | Error m -> Alcotest.failf "ack: %s" m);
  (* fib template: ((int -> int) -> int -> int) *)
  match Types.infer Shl.Prog.fib_template with
  | Ok t ->
    Alcotest.(check string) "fib template" "((int -> int) -> (int -> int))"
      (Types.ty_to_string t)
  | Error m -> Alcotest.failf "fib template: %s" m

let test_landin_typed () =
  (* the knot is well-typed at unit — and diverges: typing does not
     imply termination in the presence of higher-order store *)
  match Types.infer Logrel.landins_knot with
  | Ok t -> Alcotest.(check string) "knot type" "unit" (Types.ty_to_string t)
  | Error m -> Alcotest.failf "knot: %s" m

(* ---------- the fundamental theorem ---------- *)

let fundamental_generated_prop =
  QCheck_alcotest.to_alcotest
    (Q.Test.make ~count:250
       ~name:"fundamental thm: generated well-typed programs are safe"
       ~print:Gen.print_shl Gen.typed_shl_int
       (fun e ->
         (* by-construction typed at int *)
         (match Types.infer e with
         | Ok Types.T_int -> true
         | Ok _ | Error _ -> false)
         && Logrel.fundamental ~fuel:3000 e))

let fundamental_random_prop =
  QCheck_alcotest.to_alcotest
    (Q.Test.make ~count:300
       ~name:"fundamental thm: random programs (vacuous when ill-typed)"
       ~print:Gen.print_shl Gen.shl_expr
       (fun e -> Logrel.fundamental ~fuel:1500 e))

let progress_prop =
  QCheck_alcotest.to_alcotest
    (Q.Test.make ~count:250
       ~name:"type soundness: well-typed programs never get stuck"
       ~print:Gen.print_shl Gen.typed_shl_int
       (fun e ->
         match Shl.Interp.exec ~budget:(Budget.of_steps 3000) e with
         | Shl.Interp.Stuck _, _ -> false
         | (Shl.Interp.Value _ | Shl.Interp.Out_of_fuel _), _ -> true))

let suite =
  [
    Alcotest.test_case "inference: ground" `Quick test_infer_ground;
    Alcotest.test_case "inference: functions" `Quick test_infer_functions;
    Alcotest.test_case "inference: heap" `Quick test_infer_heap;
    Alcotest.test_case "inference: sums" `Quick test_infer_sums;
    Alcotest.test_case "inference: rejections" `Quick test_infer_rejections;
    Alcotest.test_case "program library types" `Quick
      test_program_library_types;
    Alcotest.test_case "Landin's knot is typed (and diverges)" `Quick
      test_landin_typed;
    fundamental_generated_prop;
    fundamental_random_prop;
    progress_prop;
  ]
