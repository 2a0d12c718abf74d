(* Robust: composable budgets, the structured-failure taxonomy, the
   chaos battery, and the regression tests for the structured-error
   sweep (oversized int literals, [+l] tokenization, JSON [\u]
   escapes).  Also the "no unstructured exceptions" properties over the
   public parsing entry points and the CLI. *)

open Tfiris
open Support
module Q = QCheck2
module Budget = Robust.Budget
module Failure = Robust.Failure
module Chaos = Robust.Chaos
module Shl = Tfiris.Shl
module Json = Obs.Json

(* ---------- budgets ---------- *)

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  n = 0 || go 0



let resource = Alcotest.testable Budget.pp_resource ( = )

let test_budget_parse () =
  let ok s = match Budget.parse s with Ok b -> b | Error e -> Alcotest.fail e in
  Alcotest.(check (option int)) "bare N is steps" (Some 42) (ok "42").Budget.steps;
  let b = ok "steps:10,states:20,ms:30,cells:40" in
  Alcotest.(check (option int)) "steps" (Some 10) b.Budget.steps;
  Alcotest.(check (option int)) "states" (Some 20) b.Budget.states;
  Alcotest.(check (option int)) "ms" (Some 30) b.Budget.wall_ms;
  Alcotest.(check (option int)) "cells" (Some 40) b.Budget.heap_cells;
  Alcotest.(check (option int))
    "order-insensitive" (Some 7)
    (ok "cells:1,steps:7").Budget.steps;
  let bad s =
    match Budget.parse s with
    | Ok _ -> Alcotest.failf "parse %S must fail" s
    | Error _ -> ()
  in
  bad "";
  bad "steps:";
  bad "steps:-1";
  bad "fuel:9";
  bad "steps:1,,ms:2";
  bad "steps:x"

let test_budget_to_string_roundtrip () =
  List.iter
    (fun s ->
      match Budget.parse s with
      | Error e -> Alcotest.fail e
      | Ok b -> (
        match Budget.parse (Budget.to_string b) with
        | Ok b' -> Alcotest.(check bool) s true (b = b')
        | Error e -> Alcotest.fail e))
    [ "17"; "steps:10,states:20"; "ms:5"; "cells:3,ms:1" ];
  Alcotest.(check string)
    "unlimited prints as such" "unlimited"
    (Budget.to_string Budget.unlimited)

(* [steps:N] admits exactly N steps — the exact semantics of the old
   [?fuel].  [1 + 2] is one step; a bare value is zero. *)
let test_budget_exact_steps () =
  let one_step = Shl.Ast.(Bin_op (Add, Val (Int 1), Val (Int 2))) in
  (match Shl.Interp.exec ~budget:(Budget.of_steps 1) one_step with
  | Shl.Interp.Value (Shl.Ast.Int 3, _), st ->
    Alcotest.(check int) "one step" 1 st.Shl.Interp.steps
  | _ -> Alcotest.fail "steps:1 must complete a 1-step program");
  (match Shl.Interp.exec ~budget:(Budget.of_steps 0) one_step with
  | Shl.Interp.Out_of_fuel (r, _), _ ->
    Alcotest.check resource "steps tripped" Budget.Steps r
  | _ -> Alcotest.fail "steps:0 must not step");
  match Shl.Interp.exec ~budget:(Budget.of_steps 0) Shl.Ast.(Val (Int 5)) with
  | Shl.Interp.Value (Shl.Ast.Int 5, _), _ -> ()
  | _ -> Alcotest.fail "a value needs zero steps"

let test_budget_cells () =
  let two_refs =
    Shl.Ast.(
      Let
        ( "x",
          Ref (Val (Int 1)),
          Let ("y", Ref (Val (Int 2)), Load (Var "y")) ))
  in
  let budget cells = { Budget.unlimited with Budget.heap_cells = Some cells } in
  (match Shl.Interp.exec ~budget:(budget 2) two_refs with
  | Shl.Interp.Value (Shl.Ast.Int 2, _), _ -> ()
  | _ -> Alcotest.fail "cells:2 suffices for two refs");
  match Shl.Interp.exec ~budget:(budget 1) two_refs with
  | Shl.Interp.Out_of_fuel (r, _), _ ->
    Alcotest.check resource "cells tripped" Budget.Heap_cells r
  | _ -> Alcotest.fail "cells:1 must trip on the second ref"

let test_budget_wall () =
  (* deadline in the past: the loop must stop at the first wall check,
     not spin forever *)
  let budget = { Budget.unlimited with Budget.wall_ms = Some 0 } in
  match Shl.Interp.exec ~budget Shl.Prog.e_loop with
  | Shl.Interp.Out_of_fuel (r, _), st ->
    Alcotest.check resource "wall tripped" Budget.Wall_ms r;
    Alcotest.(check bool)
      "tripped at a wall-check boundary" true
      (st.Shl.Interp.steps <= 2 * Budget.wall_check_period)
  | _ -> Alcotest.fail "ms:0 must stop the diverging loop"

let test_budget_wall_expired_remaining () =
  (* polling the deadline charges nothing; [remaining] is what a
     follow-up run may still spend, sharing the deadline *)
  let m =
    Budget.meter
      { Budget.unlimited with Budget.steps = Some 10; wall_ms = Some 60_000 }
  in
  Alcotest.(check bool) "live before the deadline" false
    (Budget.wall_expired m);
  ignore (Budget.step m : bool);
  let r = Budget.remaining m in
  Alcotest.(check (option int)) "steps left" (Some 9) r.Budget.steps;
  Alcotest.(check (option int)) "states stay unbounded" None r.Budget.states;
  (match r.Budget.wall_ms with
  | Some ms when ms > 50_000 && ms <= 60_000 -> ()
  | _ -> Alcotest.fail "wall remainder out of range");
  let past = Budget.meter { Budget.unlimited with Budget.wall_ms = Some 0 } in
  Unix.sleepf 0.002;
  Alcotest.(check bool) "expired past the deadline" true
    (Budget.wall_expired past);
  Alcotest.(check (option resource))
    "trips Wall_ms" (Some Budget.Wall_ms) (Budget.exhausted past);
  Alcotest.(check int) "no step charged" 0 (Budget.steps_used past);
  Alcotest.(check (option int)) "nothing left of the wall" (Some 0)
    (Budget.remaining past).Budget.wall_ms

let test_budget_states () =
  let r =
    Shl.Conc.explore ~budget:(Budget.of_states 3)
      (Shl.Conc.init Shl.Conc.racy_incr)
  in
  Alcotest.(check (option resource))
    "states tripped" (Some Budget.States) r.Shl.Conc.exhausted;
  let full = Shl.Conc.explore (Shl.Conc.init Shl.Conc.racy_incr) in
  Alcotest.(check (option resource)) "default completes" None full.Shl.Conc.exhausted

let test_budget_meter_sticky () =
  let m = Budget.meter (Budget.of_steps 2) in
  Alcotest.(check bool) "1st" true (Budget.step m);
  Alcotest.(check bool) "2nd" true (Budget.step m);
  Alcotest.(check bool) "3rd exhausted" false (Budget.step m);
  Alcotest.(check bool) "sticky: cells fail too" false (Budget.cells m 1);
  Alcotest.(check (option resource)) "steps" (Some Budget.Steps) (Budget.exhausted m)

(* ---------- failures ---------- *)

let failure_kind = Alcotest.testable Failure.pp ( = )
let _ = failure_kind

let test_failure_classify () =
  let kind_of e = Failure.kind (Failure.of_exn e) in
  Alcotest.(check string) "Failure" "internal" (kind_of (Stdlib.Failure "x"));
  Alcotest.(check string) "Assert" "internal" (kind_of (Assert_failure ("f", 1, 2)));
  Alcotest.(check string) "Stack_overflow" "internal" (kind_of Stack_overflow);
  Alcotest.(check string) "Sys_error" "io_error" (kind_of (Sys_error "disk"));
  Alcotest.(check string)
    "lexer error carries position" "ill_formed"
    (kind_of (Shl.Lexer.Error ("bad", 7)));
  (match Failure.of_exn (Shl.Lexer.Error ("bad", 7)) with
  | Failure.Ill_formed { pos = Some 7; _ } -> ()
  | f -> Alcotest.failf "lexer pos lost: %s" (Failure.to_string f));
  Alcotest.(check string)
    "alloc fault" "fault_injected"
    (kind_of Shl.Heap.Alloc_failure);
  Alcotest.(check string)
    "budget failure" "exhausted"
    (kind_of (Failure.Error (Failure.Exhausted Budget.Steps)))

let test_failure_guard () =
  (match Failure.guard (fun () -> 41 + 1) with
  | Ok 42 -> ()
  | _ -> Alcotest.fail "guard passes values through");
  (match Failure.guard (fun () -> raise Stack_overflow) with
  | Error f -> Alcotest.(check bool) "internal" true (Failure.is_internal f)
  | Ok _ -> Alcotest.fail "guard must catch Stack_overflow");
  match Failure.guard (fun () -> raise Shl.Heap.Alloc_failure) with
  | Error (Failure.Fault_injected _) -> ()
  | _ -> Alcotest.fail "guard must classify injected faults"

(* ---------- satellite regressions ---------- *)

(* An over-[max_int] literal used to take the lexer down with an
   uncaught [Failure "int_of_string"]; now it is a positioned parse
   error. *)
let test_oversized_int_literal () =
  let giant = "99999999999999999999999999" in
  (match Shl.Parser.parse ("1 + " ^ giant) with
  | Error msg ->
    Alcotest.(check bool)
      "message names the range problem" true
      (contains ~affix:"out of range" msg
      || String.length msg > 0)
  | Ok _ -> Alcotest.fail "oversized literal must not parse");
  match Formula_parser.parse ("idx<w*" ^ giant) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "oversized ordinal coefficient must not parse"

(* [x+len] used to tokenize as [x], [+l], [en]. *)
let test_plus_l_tokenization () =
  let p = Shl.Parser.parse_exn in
  Alcotest.(check bool)
    "a+len means a + len" true
    (p "a+len" = p "a + len");
  (match p "a+len" with
  | Shl.Ast.Bin_op (Shl.Ast.Add, Shl.Ast.Var "a", Shl.Ast.Var "len") -> ()
  | e -> Alcotest.failf "a+len parsed as %s" (Shl.Pretty.expr_to_string e));
  (* the pointer-add operator itself is untouched *)
  (match p "a +l en" with
  | Shl.Ast.Bin_op (Shl.Ast.Ptr_add, Shl.Ast.Var "a", Shl.Ast.Var "en") -> ()
  | e -> Alcotest.failf "a +l en parsed as %s" (Shl.Pretty.expr_to_string e));
  (* pretty/parse round trip of Ptr_add *)
  let e = Shl.Ast.(Bin_op (Ptr_add, Var "e1", Var "e2")) in
  match Shl.Parser.parse (Shl.Pretty.expr_to_string e) with
  | Ok e' -> Alcotest.(check bool) "+l round-trips" true (e = e')
  | Error msg -> Alcotest.failf "+l round trip: %s" msg

(* A malformed [\u] escape used to take the JSON parser down with an
   uncaught [Failure "int_of_string"]. *)
let test_json_bad_unicode_escape () =
  (match Json.of_string "\"\\uZZZZ\"" with
  | Error msg ->
    Alcotest.(check bool) "structured message" true (String.length msg > 0)
  | Ok _ -> Alcotest.fail "\\uZZZZ must not parse");
  (match Json.of_string "\"\\u00\"" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "truncated escape must not parse");
  match Json.of_string "\"\\u0041\"" with
  | Ok (Json.Str "A") -> ()
  | _ -> Alcotest.fail "valid \\u escape still decodes"

(* ---------- no unstructured exceptions (properties) ---------- *)

let garbage_gen =
  Q.Gen.(string_size ~gen:(map Char.chr (int_range 32 126)) (int_bound 40))

(* Sprinkle the tokens most likely to reach the deep ends of each
   grammar. *)
let seeded_garbage_gen =
  let open Q.Gen in
  let fragment =
    oneofl
      [
        "ref"; "let"; "in"; "+l"; "\\u"; "9999999999999999999999"; "idx<";
        "w*"; "\""; "{"; "rec"; "cas"; "!"; ":="; "fork";
      ]
  in
  map2
    (fun frags tail -> String.concat " " frags ^ tail)
    (list_size (int_bound 4) fragment)
    garbage_gen

let total_parser_prop name (parse : string -> (_, string) result) =
  QCheck_alcotest.to_alcotest
    (Q.Test.make ~count:500 ~name ~print:(Printf.sprintf "%S") seeded_garbage_gen
       (fun s ->
         match parse s with
         | Ok _ | Error _ -> true
         | exception e ->
           Q.Test.fail_reportf "%s raised %s on %S" name (Printexc.to_string e)
             s))

let no_exn_shl_parser = total_parser_prop "Shl.Parser.parse total" Shl.Parser.parse

let no_exn_formula_parser =
  total_parser_prop "Formula_parser.parse total" Formula_parser.parse

let no_exn_json = total_parser_prop "Json.of_string total" Json.of_string

(* Public driver APIs behind [Failure.guard]: anything they raise on
   arbitrary (parsed) input must classify as non-internal. *)
let no_exn_drivers =
  QCheck_alcotest.to_alcotest
    (Q.Test.make ~count:120 ~name:"driver entry points never leak internals"
       ~print:(Printf.sprintf "%S") seeded_garbage_gen (fun s ->
         match Shl.Parser.parse s with
         | Error _ -> true
         | Ok e -> (
           let budget = Budget.of_steps 300 in
           let run_all () =
             ignore (Shl.Interp.exec ~budget e);
             ignore
               (Shl.Conc.run ~budget ~sched:Shl.Conc.round_robin
                  (Shl.Conc.init e));
             ignore
               (Refinement.Driver.refine ~budget ~target:e ~source:e
                  Refinement.Strategy.lockstep);
             ignore
               (Termination.Wp.run ~budget ~credits:(Ord.of_int 100)
                  Termination.Wp.countdown (Shl.Step.config e))
           in
           match Failure.guard run_all with
           | Ok () -> true
           | Error f ->
             if Failure.is_internal f then
               Q.Test.fail_reportf "internal failure on %S: %s" s
                 (Failure.to_string f)
             else true)))

(* ---------- chaos ---------- *)

let test_chaos_battery () =
  let r = Chaos.run ~seeds:50 () in
  Alcotest.(check int) "all seeds ran" 50 r.Chaos.seeds;
  Alcotest.(check bool) "checks ran" true (r.Chaos.checks_run >= 50 * 8);
  if not (Chaos.passed r) then
    Alcotest.failf "chaos failures: %s"
      (Format.asprintf "%a" Chaos.pp_report r)

let test_chaos_deterministic () =
  let plan_sig seed = Format.asprintf "%a" Chaos.pp_plan (Chaos.plan_of_seed seed) in
  List.iter
    (fun seed ->
      Alcotest.(check string)
        (Printf.sprintf "plan %d stable" seed)
        (plan_sig seed) (plan_sig seed))
    [ 0; 1; 7; 49 ];
  (* at least one seed arms each fault, or the battery is vacuous *)
  let plans = List.init 50 Chaos.plan_of_seed in
  Alcotest.(check bool)
    "some alloc faults armed" true
    (List.exists (fun p -> p.Chaos.alloc_fault_period <> None) plans);
  Alcotest.(check bool)
    "some failing sinks armed" true
    (List.exists (fun p -> p.Chaos.failing_sink) plans);
  Alcotest.(check bool)
    "some skewed clocks armed" true
    (List.exists (fun p -> p.Chaos.clock_skew) plans)

let test_chaos_restores_hooks () =
  (* after a chaos run the world is quiet again: no fault hook, no
     trace sink, the clock ticks forward *)
  ignore (Chaos.run_seed 3);
  (match Shl.Interp.eval Shl.Ast.(Ref (Val (Int 1))) with
  | Some (Shl.Ast.Loc _) -> ()
  | _ -> Alcotest.fail "alloc fault hook leaked past the chaos run");
  Alcotest.(check bool) "tracing off" false (Obs.Trace.on ())

(* ---------- the CLI never crashes unstructured ---------- *)

let cli_garbage_inputs =
  [
    "run -e 'let x = '";
    "run -e '99999999999999999999999'";
    "run -e 'a+len'";
    "run --budget=steps:-4 -e '1'";
    "run --budget=bogus:1 -e '1'";
    "check-term --credits=3 -e '!('";
    "refine --target='(' --source=')'";
    "chaos --seeds=not_a_number";
    "explore -e 'fork (";
  ]

(* Negative counts are usage errors, reported before anything is
   printed (a negative depth used to overflow the stack, a negative
   trace length never ended on a diverging program, and a negative gc
   bound emptied the cache).  The gc inputs work on [cache], a path the
   caller owns. *)
let cli_negative_counts ~cache =
  let gc flag =
    Printf.sprintf "cache gc %s --cache=%s" flag (Filename.quote cache)
  in
  [
    "hydra --width=-1";
    "hydra --depth=-2";
    "hydra --regrow=-1";
    "goodstein --max-len=-1";
    "goodstein -- -3";
    "trace --steps=-1 -e '1 + 2'";
    gc "--max-entries=-1";
    gc "--max-age=-5";
  ]

(* [f] on the negative-count inputs, their cache in a fresh directory *)
let with_negative_counts f =
  with_tmp_dir "tfiris_negative" (fun dir ->
      f (cli_negative_counts ~cache:(Filename.concat dir "cache")))

(* 125 is cmdliner's "uncaught exception" exit; a backtrace on stderr
   means an exception escaped the structured path *)
let check_structured args (code, text) =
  if code = 125 then
    Alcotest.failf "%S: uncaught exception (exit 125):\n%s" args text;
  List.iter
    (fun marker ->
      if contains ~affix:marker text then
        Alcotest.failf "%S: unstructured failure leaked:\n%s" args text)
    [ "Fatal error"; "Raised at"; "Raised by" ]

let test_cli_structured_errors () =
  if not (Sys.file_exists cli_exe) then Alcotest.skip ();
  with_negative_counts (fun negative_counts ->
      List.iter
        (fun args ->
          let code, out, err = run_cli args in
          check_structured args (code, out ^ err))
        (cli_garbage_inputs @ negative_counts))

(* A program file that cannot be read or parsed is named in the error
   (exit 2, structured): a corpus sweep or a multi-file analyze says
   which of its files failed. *)
let test_cli_file_errors_name_the_file () =
  if not (Sys.file_exists cli_exe) then Alcotest.skip ();
  with_tmp_dir "tfiris_files" (fun dir ->
      let path name = Filename.concat dir name in
      let write name text =
        Out_channel.with_open_bin (path name) (fun oc -> output_string oc text)
      in
      write "a.shl" "1 + 2";
      write "b.shl" "let x = ";
      Unix.mkdir (path "c") 0o755;
      Unix.mkdir (path "c/x.shl") 0o755;
      let q name = Filename.quote (path name) in
      List.iter
        (fun (args, culprit) ->
          let code, out, err = run_cli args in
          let text = out ^ err in
          check_structured args (code, text);
          Alcotest.(check int) (args ^ ": exit") 2 code;
          if not (contains ~affix:("tfiris: " ^ path culprit ^ ": ") text) then
            Alcotest.failf "%S: error does not name %s:\n%s" args culprit text)
        [
          (Printf.sprintf "verify-corpus %s --cache=%s" (Filename.quote dir)
             (q "cache"), "b.shl");
          (Printf.sprintf "analyze %s %s" (q "a.shl") (q "b.shl"), "b.shl");
          (Printf.sprintf "analyze %s" (q "c/x.shl"), "c/x.shl");
          (Printf.sprintf "verify-corpus %s --cache=%s" (q "c") (q "cache"),
           "c/x.shl");
          (Printf.sprintf "run %s" (q "b.shl"), "b.shl");
        ])

let test_cli_negative_counts () =
  if not (Sys.file_exists cli_exe) then Alcotest.skip ();
  with_negative_counts
    (List.iter (fun args ->
         let code, stdout, _ = run_cli args in
         Alcotest.(check int) (args ^ ": exit") 2 code;
         Alcotest.(check string) (args ^ ": stdout") "" stdout))

(* The paper's two divergent verdicts, byte for byte: stdout, stderr
   and exit code are what the 10^7-step pre-runs printed before the
   cycle check cut them short. *)
let test_cli_divergent_verdicts () =
  if not (Sys.file_exists cli_exe) then Alcotest.skip ();
  let check args (code, out, err) =
    let code', out', err' = run_cli args in
    Alcotest.(check int) (args ^ ": exit") code code';
    Alcotest.(check string) (args ^ ": stdout") out out';
    Alcotest.(check string) (args ^ ": stderr") err err'
  in
  check "check-term -e '(rec f x. f x) 0' --credits w"
    (1, "strategy gave up at step 1\n", "");
  check
    "refine --target='(rec loop f x. if f () then loop f x else ()) (fun u \
     -> true) ()' --source='()'"
    ( 1,
      "(no oracle certificate; lockstep attempt)\nrejected after 1 target \
       steps: source already finished with ()\n",
      "" )

(* --budget ms:N bounds the pre-runs too: a diverging program that never
   repeats a configuration stops at the deadline with a budget verdict
   (the pre-run used to run its full 10^7 steps and report "gave up"). *)
let test_cli_prerun_wall_budget () =
  if not (Sys.file_exists cli_exe) then Alcotest.skip ();
  let timed args =
    let t0 = Unix.gettimeofday () in
    let code, out, _ = run_cli args in
    (code, out, (Unix.gettimeofday () -. t0) *. 1000.)
  in
  let code, out, ms =
    timed "check-term -e '(rec f x. f (x + 1)) 0' --credits w --budget ms:50"
  in
  Alcotest.(check int) "check-term exit" 1 code;
  Alcotest.(check string) "check-term verdict" "ms budget exhausted at step 1\n"
    out;
  if ms > 400. then Alcotest.failf "check-term took %.0f ms, deadline 50 ms" ms;
  (* refine: the oracle's pre-runs stop at the deadline and the lockstep
     fallback gets what is left of it *)
  let code, out, ms =
    timed
      "refine --target='(rec f x. f (x + 1)) 0' --source='(rec f x. f (x + \
       1)) 0' --budget ms:50"
  in
  Alcotest.(check int) "refine exit" 0 code;
  if not (contains ~affix:"ms budget spent" out) then
    Alcotest.failf "refine: no wall-budget verdict in %S" out;
  if ms > 400. then Alcotest.failf "refine took %.0f ms, deadline 50 ms" ms

(* ---------- how the CLI is linked ---------- *)

(* On Linux the CLI is linked static and non-PIE (bin/dune): its ELF
   type is [ET_EXEC] and it has no [PT_INTERP] program header, so no
   dynamic loader runs before each verdict.  Skipped on other systems
   and on a CLI that is not ELF. *)
let test_cli_static_on_linux () =
  let uname =
    let ic = Unix.open_process_in "uname -s" in
    let s = try input_line ic with End_of_file -> "" in
    ignore (Unix.close_process_in ic);
    s
  in
  let elf = read_file cli_exe in
  if uname <> "Linux" || String.length elf < 64 || String.sub elf 0 4 <> "\x7fELF"
  then Alcotest.skip ();
  let is64 = elf.[4] = '\x02' and le = elf.[5] = '\x01' in
  let u16 at = if le then String.get_uint16_le elf at else String.get_uint16_be elf at in
  let u32 at =
    Int32.to_int (if le then String.get_int32_le elf at else String.get_int32_be elf at)
    land 0xffff_ffff
  in
  let u64 at =
    Int64.to_int (if le then String.get_int64_le elf at else String.get_int64_be elf at)
  in
  Alcotest.(check int) "e_type is ET_EXEC" 2 (u16 16);
  let phoff, phentsize, phnum =
    if is64 then (u64 32, u16 54, u16 56) else (u32 28, u16 42, u16 44)
  in
  Alcotest.(check bool) "program headers present" true (phnum > 0);
  for i = 0 to phnum - 1 do
    if u32 (phoff + (i * phentsize)) = 3 then
      Alcotest.failf "program header %d is PT_INTERP: the CLI is dynamically linked" i
  done

let suite =
  [
    Alcotest.test_case "budget parse" `Quick test_budget_parse;
    Alcotest.test_case "budget to_string roundtrip" `Quick
      test_budget_to_string_roundtrip;
    Alcotest.test_case "budget exact steps" `Quick test_budget_exact_steps;
    Alcotest.test_case "budget heap cells" `Quick test_budget_cells;
    Alcotest.test_case "budget wall clock" `Quick test_budget_wall;
    Alcotest.test_case "budget wall_expired and remaining" `Quick
      test_budget_wall_expired_remaining;
    Alcotest.test_case "budget states" `Quick test_budget_states;
    Alcotest.test_case "meter is sticky" `Quick test_budget_meter_sticky;
    Alcotest.test_case "failure classification" `Quick test_failure_classify;
    Alcotest.test_case "failure guard" `Quick test_failure_guard;
    Alcotest.test_case "oversized int literal" `Quick test_oversized_int_literal;
    Alcotest.test_case "+l tokenization" `Quick test_plus_l_tokenization;
    Alcotest.test_case "json \\u escape" `Quick test_json_bad_unicode_escape;
    no_exn_shl_parser;
    no_exn_formula_parser;
    no_exn_json;
    no_exn_drivers;
    Alcotest.test_case "chaos battery (50 seeds)" `Slow test_chaos_battery;
    Alcotest.test_case "chaos plans deterministic" `Quick
      test_chaos_deterministic;
    Alcotest.test_case "chaos restores hooks" `Quick test_chaos_restores_hooks;
    Alcotest.test_case "cli structured errors" `Quick test_cli_structured_errors;
    Alcotest.test_case "cli negative counts" `Quick test_cli_negative_counts;
    Alcotest.test_case "cli file errors name the file" `Quick
      test_cli_file_errors_name_the_file;
    Alcotest.test_case "cli divergent verdicts are byte-stable" `Quick
      test_cli_divergent_verdicts;
    Alcotest.test_case "cli --budget ms bounds pre-runs" `Quick
      test_cli_prerun_wall_budget;
    Alcotest.test_case "cli is a static executable on Linux" `Quick
      test_cli_static_on_linux;
  ]
