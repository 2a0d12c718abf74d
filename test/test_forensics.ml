(* Obs.Forensics: the bounded step ring, and the post-mortem reports the
   three certified drivers publish on rejection — including the golden
   JSON form naming exactly WHICH step a known-bad derivation dies at. *)

open Tfiris
open Support
module F = Obs.Forensics
module Json = Obs.Json
module Shl = Tfiris.Shl

let parse = Shl.Parser.parse_exn
let cfg src = Shl.Step.config (parse src)

(* Forensics state is process-global (like the tracer's sink); bracket
   every test so enablement and the last-report slot never leak. *)
let with_forensics f =
  F.set_enabled true;
  F.clear_last ();
  Fun.protect f ~finally:(fun () ->
      F.set_enabled false;
      F.clear_last ())

let frame step label = { F.f_step = step; f_label = label; f_data = [] }

let report_of ctx =
  match F.last () with
  | Some r -> r
  | None -> Alcotest.failf "%s: no forensics report published" ctx

(* ---------- the ring ---------- *)

let test_ring_window () =
  let r = F.ring ~capacity:3 () in
  for i = 1 to 5 do
    F.push r (frame i "step")
  done;
  Alcotest.(check (list int))
    "keeps the last [capacity], oldest first" [ 3; 4; 5 ]
    (List.map (fun f -> f.F.f_step) (F.frames r));
  Alcotest.(check int) "total recorded" 5 (F.recorded r);
  let rep = F.report ~component:"t" ~rule:"r" ~step:5 ~reason:"x" r in
  Alcotest.(check int) "dropped = recorded - capacity" 2 rep.F.r_dropped;
  match F.ring ~capacity:0 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "zero capacity not rejected"

(* A run records frames only while forensics is on. *)
let test_span_ring_gating () =
  let records () = Obs.Span.run ~component:"c" Obs.Span.recording in
  F.set_enabled false;
  Alcotest.(check bool) "disabled: no ring" false (records ());
  with_forensics (fun () ->
      Alcotest.(check bool) "enabled: ring" true (records ());
      (* the ring is made by the first frame: a run that records none,
         like the explorer's, keeps none *)
      let made sp =
        match sp with
        | Obs.Span.On { ring = Some r; _ } -> Lazy.is_val r
        | Obs.Span.On _ | Obs.Span.Off -> false
      in
      Alcotest.(check bool) "no frame: no ring made" false
        (Obs.Span.run ~component:"c" made);
      Alcotest.(check bool) "first frame makes the ring" true
        (Obs.Span.run ~component:"c" (fun sp ->
             Obs.Span.frame sp (frame 1 "step");
             made sp)))

let test_trunc () =
  Alcotest.(check string) "short strings untouched" "abc" (F.trunc "abc");
  let long = String.make 200 'x' in
  let t = F.trunc long in
  Alcotest.(check int) "cut at limit + marker" 93 (String.length t);
  Alcotest.(check string) "marked" "..." (String.sub t 90 3)

(* ---------- Termination.Wp post-mortems ---------- *)

(* "1 + 2 + 3" takes exactly two steps; the scripted descent 9 -> 5 is
   fine, 5 -> 7 violates strict descent at step 2.  The whole report —
   component, rule, failing step, both spend frames — is golden. *)
let test_wp_not_decreasing_golden () =
  with_forensics (fun () ->
      (match
         Termination.Wp.run ~credits:(Ord.of_int 9)
           (Termination.Wp.scripted [ Ord.of_int 5; Ord.of_int 7 ])
           (cfg "1 + 2 + 3")
       with
      | Termination.Wp.Rejected (Termination.Wp.Not_decreasing _, st) ->
        Alcotest.(check int) "verdict stats name step 2" 2 st.Termination.Wp.steps
      | v -> Alcotest.failf "unexpected: %a" Termination.Wp.pp_verdict v);
      let r = report_of "wp" in
      Alcotest.(check string) "golden report"
        ("{\"schema\":\"tfiris-forensics/1\","
       ^ "\"component\":\"termination.wp\","
       ^ "\"rule\":\"credit_not_decreasing\","
       ^ "\"step\":2,"
       ^ "\"reason\":\"credit must strictly decrease: 7 not < 5\","
       (* 9 -> 5 skips past the predecessor, so it counts as a limit
          refinement in the run stats *)
       ^ "\"attrs\":{\"strategy\":\"scripted\",\"credits\":\"9\",\"steps\":2,"
       ^ "\"limit_refinements\":1},"
       ^ "\"dropped_steps\":0,"
       ^ "\"last_steps\":["
       ^ "{\"step\":1,\"kind\":\"spend\",\"expr\":\"3 + 3\","
       ^ "\"step_kind\":\"pure\",\"credit\":\"9\",\"new_credit\":\"5\"},"
       ^ "{\"step\":2,\"kind\":\"spend\",\"expr\":\"6\","
       ^ "\"step_kind\":\"pure\",\"credit\":\"5\",\"new_credit\":\"7\"}]}")
        (Json.to_string (F.to_json r)))

(* A second known-bad derivation dying at a different step: the
   scripted descent runs dry after three steps of "1 + 2 + 3 + 4 + 5",
   so the report must blame step 4 with rule gave_up. *)
let test_wp_gave_up_step () =
  with_forensics (fun () ->
      (match
         Termination.Wp.run ~credits:(Ord.of_int 9)
           (Termination.Wp.scripted
              [ Ord.of_int 8; Ord.of_int 7; Ord.of_int 6 ])
           (cfg "1 + 2 + 3 + 4 + 5")
       with
      | Termination.Wp.Rejected (Termination.Wp.Gave_up, _) -> ()
      | v -> Alcotest.failf "unexpected: %a" Termination.Wp.pp_verdict v);
      let r = report_of "wp gave_up" in
      Alcotest.(check string) "rule" "gave_up" r.F.r_rule;
      Alcotest.(check int) "dies at step 4" 4 r.F.r_step;
      match List.rev r.F.r_frames with
      | last :: _ ->
        Alcotest.(check int) "last frame is the fatal step" 4 last.F.f_step;
        Alcotest.(check bool) "spend answered None" true
          (List.assoc_opt "new_credit" last.F.f_data = Some Json.Null)
      | [] -> Alcotest.fail "no frames recorded")

(* A rejection far beyond the window: only the last 12 spends survive
   and the report counts what fell off the front. *)
let test_wp_window_drop () =
  with_forensics (fun () ->
      (* 16 additions = 16 steps; countdown from 12 gives up at 13 *)
      let e = String.concat " + " (List.init 17 (fun _ -> "1")) in
      (match
         Termination.Wp.run ~credits:(Ord.of_int 12) Termination.Wp.countdown
           (cfg e)
       with
      | Termination.Wp.Rejected (Termination.Wp.Gave_up, _) -> ()
      | v -> Alcotest.failf "unexpected: %a" Termination.Wp.pp_verdict v);
      let r = report_of "wp window" in
      Alcotest.(check int) "dies at step 13" 13 r.F.r_step;
      Alcotest.(check int) "window holds 12 frames" 12
        (List.length r.F.r_frames);
      Alcotest.(check int) "one step dropped" 1 r.F.r_dropped;
      Alcotest.(check (list int)) "window is steps 2..13"
        (List.init 12 (fun i -> i + 2))
        (List.map (fun f -> f.F.f_step) r.F.r_frames))

(* ---------- Refinement.Driver post-mortems ---------- *)

let test_driver_budget_violation () =
  with_forensics (fun () ->
      let bad : Refinement.Driver.strategy =
        {
          Refinement.Driver.name = "freeloader";
          decide =
            (fun ~step_no:_ ~budget ->
              (* stutter without paying: budget unchanged *)
              Refinement.Driver.Stutter budget);
        }
      in
      (match
         Refinement.Driver.refine
           ~init_budget:(Ord.of_int 3)
           ~target:(parse "1 + 2") ~source:(parse "1 + 2") bad
       with
      | Refinement.Driver.Rejected
          (Refinement.Driver.Budget_not_decreasing _, _) ->
        ()
      | v -> Alcotest.failf "unexpected: %a" Refinement.Driver.pp_verdict v);
      let r = report_of "driver" in
      Alcotest.(check string) "component" "refinement.driver" r.F.r_component;
      Alcotest.(check string) "rule" "budget_not_decreasing" r.F.r_rule;
      Alcotest.(check int) "dies at target step 1" 1 r.F.r_step;
      match r.F.r_frames with
      | [ f ] ->
        Alcotest.(check string) "frame kind" "decide" f.F.f_label;
        Alcotest.(check bool) "decision recorded" true
          (List.assoc_opt "decision" f.F.f_data = Some (Json.Str "stutter"))
      | fs -> Alcotest.failf "expected 1 frame, got %d" (List.length fs))

(* ---------- Refinement.Conc_refine post-mortems ---------- *)

(* A concurrent certificate is played by the driver, so its post-mortem
   is the driver's. *)
let test_conc_value_mismatch () =
  with_forensics (fun () ->
      (match
         Refinement.Conc_refine.certify ~tgt_sched:Shl.Conc.round_robin
           ~target:(parse "1 + 2") ~source:(parse "4") ()
       with
      | Some (Refinement.Driver.Rejected _) -> ()
      | Some v -> Alcotest.failf "unexpected: %a" Refinement.Driver.pp_verdict v
      | None -> Alcotest.fail "no pacing for two terminating programs");
      let r = report_of "conc" in
      Alcotest.(check string) "component" "refinement.driver" r.F.r_component;
      Alcotest.(check string) "rule" "value_mismatch" r.F.r_rule)

(* ---------- gating and the CLI surface ---------- *)

let test_disabled_publishes_nothing () =
  F.set_enabled false;
  F.clear_last ();
  (match
     Termination.Wp.run ~credits:(Ord.of_int 9)
       (Termination.Wp.scripted [ Ord.of_int 5; Ord.of_int 7 ])
       (cfg "1 + 2 + 3")
   with
  | Termination.Wp.Rejected _ -> ()
  | v -> Alcotest.failf "unexpected: %a" Termination.Wp.pp_verdict v);
  Alcotest.(check bool) "no report when disabled" true (F.last () = None)

(* `tfiris check-term --explain=json` prints the machine-readable
   post-mortem after the verdict line. *)
let test_cli_explain () =
  if not (Sys.file_exists cli_exe) then Alcotest.skip ();
  let out = Filename.temp_file "tfiris_explain" ".out" in
  let cmd =
    Printf.sprintf
      "%s check-term --credits=3 --explain=json -e '1 + 2 + 3 + 4 + 5' > %s"
      cli_exe (Filename.quote out)
  in
  let code = Sys.command cmd in
  Alcotest.(check int) "rejected run exits 1" 1 code;
  let ic = open_in out in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> ());
  close_in ic;
  Sys.remove out;
  match !lines with
  | json_line :: _ -> (
    match Json.of_string json_line with
    | Error e -> Alcotest.failf "explain output unparseable: %s" e
    | Ok j ->
      Alcotest.(check (option string))
        "schema" (Some "tfiris-forensics/1")
        (Option.bind (Json.member "schema" j) Json.to_str);
      Alcotest.(check (option string))
        "component" (Some "termination.wp")
        (Option.bind (Json.member "component" j) Json.to_str);
      Alcotest.(check (option string))
        "rule" (Some "gave_up")
        (Option.bind (Json.member "rule" j) Json.to_str))
  | [] -> Alcotest.fail "no output from check-term --explain"

let suite =
  [
    Alcotest.test_case "ring window" `Quick test_ring_window;
    Alcotest.test_case "span ring gating" `Quick test_span_ring_gating;
    Alcotest.test_case "trunc" `Quick test_trunc;
    Alcotest.test_case "wp: non-descent golden report" `Quick
      test_wp_not_decreasing_golden;
    Alcotest.test_case "wp: gave_up names the step" `Quick test_wp_gave_up_step;
    Alcotest.test_case "wp: window drops old steps" `Quick test_wp_window_drop;
    Alcotest.test_case "driver: budget violation" `Quick
      test_driver_budget_violation;
    Alcotest.test_case "conc: value mismatch" `Quick test_conc_value_mismatch;
    Alcotest.test_case "disabled publishes nothing" `Quick
      test_disabled_publishes_nothing;
    Alcotest.test_case "cli --explain=json" `Quick test_cli_explain;
  ]
