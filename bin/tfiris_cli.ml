(* tfiris: the command-line front end.  [tfiris --help] lists the
   subcommands and [tfiris CMD --help] their flags.  Programs are given
   either inline (-e) or as a file path. *)

open Cmdliner
open Tfiris
module Shl = Tfiris.Shl
module Obs = Tfiris.Obs

(* Read and parse one program file; a failure names the file. *)
let load_program path =
  match
    Robust.Failure.guard (fun () ->
        In_channel.with_open_bin path In_channel.input_all)
  with
  | Error f -> Error (path ^ ": " ^ Robust.Failure.to_string f)
  | Ok src -> Result.map_error (fun m -> path ^ ": " ^ m) (Shl.Parser.parse src)

(* Programs come back with a display label (the file path, or "<expr>"
   for inline text) — the handle run-ledger records carry. *)
let parse_labeled = function
  | Some src, None -> Result.map (fun e -> ("<expr>", e)) (Shl.Parser.parse src)
  | None, Some path -> Result.map (fun e -> (path, e)) (load_program path)
  | Some _, Some _ -> Error "give either -e or a file, not both"
  | None, None -> Error "no program: use -e EXPR or a file argument"

let program_term =
  let expr =
    Arg.(
      value
      & opt (some string) None
      & info [ "e"; "expr" ] ~docv:"EXPR" ~doc:"Program text.")
  in
  let file =
    Arg.(value & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"Program file.")
  in
  Term.(const (fun e f -> (e, f)) $ expr $ file)

let or_die = function
  | Ok x -> x
  | Error m ->
    Format.eprintf "tfiris: %s@." m;
    exit 2

(** A usage error (exit 2, nothing printed on stdout) unless every named
    count is non-negative. *)
let require_non_negative counts =
  List.iter
    (fun (name, v) -> if v < 0 then or_die (Error (name ^ " must be non-negative")))
    counts

(** Every subcommand action runs inside this: an exception that escapes
    is classified by the structured-failure taxonomy and reported as a
    one-line error (exit 2) rather than a backtrace (cmdliner's exit
    125). *)
let protect (f : unit -> int) : int =
  match Robust.Failure.guard f with
  | Ok code -> code
  | Error fl ->
    Format.eprintf "tfiris: %s@." (Robust.Failure.to_string fl);
    2

let budget_conv =
  Arg.conv ~docv:"SPEC"
    ( (fun s ->
        match Robust.Budget.parse s with
        | Ok b -> Ok b
        | Error m -> Error (`Msg m)),
      Robust.Budget.pp )

let budget_arg =
  Arg.(
    value
    & opt (some budget_conv) None
    & info [ "budget" ] ~docv:"SPEC"
        ~doc:
          "Resource budget: comma-separated steps:N, states:N, ms:N, \
           cells:N (a bare N means steps:N). Without it a run may take \
           10000000 steps.")

(* ---- observability flags (shared by every subcommand) ---- *)

let print_metrics_snapshot () =
  Format.printf "@[<v>-- metrics --@,@]";
  Obs.Metrics.render_text Format.std_formatter (Obs.Metrics.snapshot ());
  Format.pp_print_flush Format.std_formatter ()

let print_gc_snapshot () =
  Format.printf "@[<v>-- gc --@,@]";
  Obs.Telemetry.render_text Format.std_formatter (Job.mem ());
  Format.pp_print_flush Format.std_formatter ()

let parse_trace_spec (spec : string) : (string * string, string) result =
  let result =
    match String.rindex_opt spec ':' with
    | None -> Ok (spec, "jsonl")
    | Some i ->
      let file = String.sub spec 0 i in
      let fmt = String.sub spec (i + 1) (String.length spec - i - 1) in
      if List.mem fmt [ "jsonl"; "chrome"; "pretty" ] then Ok (file, fmt)
      else
        Error
          (Printf.sprintf
             "unknown trace format %S (expected FILE[:FMT] with FMT one of \
              jsonl, chrome, pretty)"
             fmt)
  in
  match result with
  | Ok ("", _) -> Error "empty trace file name"
  | r -> r

(* --progress accepts a comma-separated spec: "every:N" sets the
   heartbeat period, "stderr" selects the human-readable sink (the
   default), anything else is a JSONL file path. *)
let parse_progress_spec (spec : string) :
    (int option * [ `Stderr | `File of string ], string) result =
  let ( let* ) = Result.bind in
  List.fold_left
    (fun acc tok ->
      let* every, dest = acc in
      if tok = "" then Error "empty token in --progress spec"
      else if tok = "stderr" then Ok (every, `Stderr)
      else if String.starts_with ~prefix:"every:" tok then
        let v = String.sub tok 6 (String.length tok - 6) in
        match int_of_string_opt v with
        | Some n when n > 0 -> Ok (Some n, dest)
        | Some _ | None ->
          Error (Printf.sprintf "bad heartbeat period %S in --progress" v)
      else Ok (every, `File tok))
    (Ok (None, `Stderr))
    (String.split_on_char ',' spec)

let setup_obs trace_spec metrics progress_spec gc =
  if metrics then begin
    Obs.Metrics.set_enabled true;
    at_exit print_metrics_snapshot
  end;
  (match gc with
  | None -> ()
  | Some dest ->
    (* Span-level GC sampling rides on tracing; the run-level report is
       printed (or written as the JSON "mem" block) at exit either way. *)
    Obs.Telemetry.set_spans true;
    at_exit (fun () ->
        match dest with
        | "-" -> print_gc_snapshot ()
        | file -> (
          try
            let oc = open_out file in
            output_string oc
              (Obs.Json.to_string (Obs.Telemetry.to_json (Job.mem ())));
            output_char oc '\n';
            close_out oc
          with Sys_error m ->
            Format.eprintf "tfiris: cannot write gc report: %s@." m)));
  (match progress_spec with
  | None -> ()
  | Some spec ->
    let every, dest = or_die (parse_progress_spec spec) in
    Option.iter Obs.Progress.set_every every;
    (match dest with
    | `Stderr -> Obs.Progress.set_sink (Obs.Progress.stderr_sink ())
    | `File file ->
      let oc =
        try open_out file
        with Sys_error m ->
          Format.eprintf "tfiris: cannot open progress file: %s@." m;
          exit 2
      in
      Obs.Progress.set_sink (Obs.Progress.jsonl_sink oc);
      at_exit (fun () ->
          flush oc;
          close_out oc));
    Obs.Progress.set_enabled true);
  match trace_spec with
  | None -> ()
  | Some spec ->
    let file, fmt = or_die (parse_trace_spec spec) in
    let oc =
      try open_out file
      with Sys_error m ->
        Format.eprintf "tfiris: cannot open trace file: %s@." m;
        exit 2
    in
    let sink =
      match fmt with
      | "chrome" -> Obs.Trace.chrome_sink oc
      | "pretty" -> Obs.Trace.pretty_sink (Format.formatter_of_out_channel oc)
      | _ -> Obs.Trace.jsonl_sink oc
    in
    Obs.Trace.set_sink sink;
    Obs.Trace.set_enabled true;
    at_exit (fun () ->
        Obs.Trace.flush ();
        close_out oc)

let obs_term =
  let trace =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE[:FMT]"
          ~doc:
            "Write a structured execution trace to $(docv). FMT is jsonl \
             (default, one JSON event per line), chrome (Chrome trace_event \
             format, loadable in chrome://tracing or Perfetto), or pretty \
             (human-readable).")
  in
  let metrics =
    Arg.(
      value & flag
      & info [ "metrics" ]
          ~doc:"Collect metrics and print the snapshot on exit.")
  in
  let progress =
    Arg.(
      value
      & opt ~vopt:(Some "stderr") (some string) None
      & info [ "progress" ] ~docv:"SPEC"
          ~doc:
            "Emit live heartbeats from long-running drivers (exploration, \
             refinement games, credit checking): work done, rate, frontier \
             size, % budget remaining. $(docv) is a comma-separated list of \
             $(b,every:N) (heartbeat period in units of work), $(b,stderr) \
             (human-readable lines, the default) or a FILE to write JSONL \
             snapshots to.")
  in
  let gc =
    Arg.(
      value
      & opt ~vopt:(Some "-") (some string) None
      & info [ "gc" ] ~docv:"FILE"
          ~doc:
            "Report GC/allocation telemetry for this invocation \
             (Gc.quick_stat deltas: words allocated, collections, top heap) \
             and sample per-span GC deltas into the trace when $(b,--trace) \
             is on. With no $(docv) the report is printed on exit; with a \
             $(docv) the $(b,mem) block is written there as JSON.")
  in
  Term.(const setup_obs $ trace $ metrics $ progress $ gc)

(* ---- the run ledger (--ledger, shared by the verdict commands) ---- *)

let ledger_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "ledger" ] ~docv:"FILE"
        ~doc:
          "Append one $(b,tfiris-run/2) record for this invocation (content \
           key, verdict, budget consumption, wall time, GC/allocation mem \
           block) to the JSONL run ledger at $(docv), creating it if \
           missing. Query and diff ledgers with $(b,tfiris report).")

(* The count itself is accepted and ignored until the time-to-verdict
   harness, which passes --domains=2, stops doing so (ROADMAP item 1):
   the flag's presence is what selects exploration or the race oracle. *)
let domains_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "domains" ] ~docv:"N"
        ~doc:
          "$(b,run): switch from scheduled execution to exhaustive \
           interleaving exploration. $(b,analyze): additionally \
           cross-validate the race pass against the dynamic oracle \
           (stderr; findings are unchanged). Exploration runs on one \
           domain, so $(docv) is ignored ($(b,run) still rejects $(docv) \
           < 1).")

(* ---- the certificate cache (--cache, shared by the verdict
   commands) ----

   Every verdict command runs its job through [Job.run]: the cache is
   keyed by the same content key as the ledger, so a hit is exactly "a
   previous run of this (program, spec, engine, version) already
   produced the outcome", and the command renders a replayed outcome
   with the same function as a fresh one.  A command replays unless
   its rendering needs something a certificate cannot hold; each
   states that in one place, as [replay]. *)

let cache_arg =
  Arg.(
    value
    & opt ~vopt:(Some ".tfiris-cache") (some string) None
    & info [ "cache" ] ~docv:"DIR"
        ~env:(Cmd.Env.info "TFIRIS_CACHE")
        ~doc:
          "Replay verdicts from (and store new ones into) the \
           content-addressed certificate cache at $(docv) (default \
           $(b,.tfiris-cache) when the flag is given bare). On a hit the \
           driver is skipped and the ledger record is marked \
           $(b,cached: true); only budget-independent (definitive) \
           verdicts are ever cached. Inspect with $(b,tfiris cache \
           stats), evict with $(b,tfiris cache gc).")

(** Print a rendered outcome (stdout text, stderr text, exit code) and
    return its exit code. *)
let emit (out, err, code) =
  print_string out;
  prerr_string err;
  code

(* run, check-term and refine replay only certificates that carry the
   detail they print (the value or stuck redex, the verdict line). *)
let has_detail (o : Job.outcome) = Option.map (fun _ -> o) o.Job.detail

(* ---- failure forensics (--explain) ---- *)

let explain_term =
  Arg.(
    value
    & opt
        ~vopt:(Some `Text)
        (some (enum [ ("text", `Text); ("json", `Json) ]))
        None
    & info [ "explain" ] ~docv:"FMT"
        ~doc:
          "On rejection, record the last steps of the run and print a \
           structured post-mortem (the violated rule, the failing step, \
           and the recent step window). $(docv) is text (default) or json.")

(** Run [f] with forensics recording when [--explain] was given, and
    print the post-mortem (if any) after it returns. *)
let with_explain explain f =
  (match explain with
  | Some _ -> Obs.Forensics.set_enabled true
  | None -> ());
  let code = f () in
  (match explain, Obs.Forensics.last () with
  | Some `Text, Some r ->
    Format.printf "%a@." Obs.Forensics.render_text r
  | Some `Json, Some r ->
    print_endline (Obs.Json.to_string (Obs.Forensics.to_json r))
  | Some _, None | None, _ -> ());
  code

(* ---- run ---- *)

let engine_arg =
  Arg.(
    value
    & opt (enum [ ("machine", `Machine); ("lockstep", `Lockstep) ]) `Machine
    & info [ "engine" ] ~docv:"ENGINE"
        ~doc:
          "Execution engine: the frame-stack $(b,machine) (default), or \
           $(b,lockstep) — run it beside the reference decompose/fill \
           stepper and report any observational disagreement (exit 2).")

(** A run outcome (see {!Job.exec_outcome}): the value on stdout, the
    stuck redex or the spent budget on stderr; [stats] is the fresh
    run's step split, present under --stats. *)
let render_run ?stats (o : Job.outcome) =
  let steps = Option.value ~default:0 (List.assoc_opt "steps" o.Job.consumed) in
  let detail = Option.value ~default:"" o.Job.detail in
  match o.Job.verdict with
  | "value" ->
    let steps_line (st : Shl.Interp.stats) =
      Printf.sprintf "steps: %d (pure %d, heap %d)\n" st.Shl.Interp.steps
        st.Shl.Interp.pure_steps st.Shl.Interp.heap_steps
    in
    (detail ^ "\n" ^ Option.fold ~none:"" ~some:steps_line stats, "", 0)
  | "stuck" ->
    ("", Printf.sprintf "stuck after %d steps on: %s\n" steps detail, 1)
  | verdict ->
    let resource =
      match String.split_on_char ':' verdict with
      | [ "out_of_fuel"; r ] -> r
      | _ -> verdict
    in
    ("", Printf.sprintf "out of %s budget (%d steps taken)\n" resource steps, 1)

(* run --domains=N: exhaustive interleaving exploration instead of one
   scheduled execution — every final value and every stuck thread.  It
   explores the reduced graph ([Conc.explore]: pure-step chains
   collapsed), so [states:] counts the reduced graph's states and
   [steps:] also counts chained pure steps; the finals and stuck
   threads are those of every interleaving.  Output is sorted.
   Exploration is not cached: its stuck threads are not in an
   outcome. *)
let run_explore ~label ~e ~budget ~ledger n =
  if n < 1 then or_die (Error "--domains must be >= 1");
  let t0 = Unix.gettimeofday () in
  let r = Shl.Conc.explore ~budget (Shl.Conc.init e) in
  let finals =
    List.sort compare
      (List.map (fun (v, _) -> Shl.Pretty.value_to_string v)
         r.Shl.Conc.final_values)
  in
  List.iter (fun v -> Format.printf "final: %s@." v) finals;
  List.iter
    (fun (tid, redex) -> Format.eprintf "stuck (thread %d) on: %s@." tid redex)
    (List.sort compare
       (List.map
          (fun (tid, redex) -> (tid, Shl.Pretty.expr_to_string redex))
          r.Shl.Conc.stuck));
  (match r.Shl.Conc.exhausted with
  | Some res ->
    Format.eprintf "out of %s budget after %d states@."
      (Robust.Budget.resource_name res)
      r.Shl.Conc.states
  | None -> ());
  Format.printf "states: %d@." r.Shl.Conc.states;
  let verdict, ok =
    match r.Shl.Conc.exhausted with
    | Some res -> ("out_of_fuel:" ^ Robust.Budget.resource_name res, false)
    | None ->
      if r.Shl.Conc.stuck = [] then ("explored", true) else ("stuck", false)
  in
  Job.append ?ledger ~cmd:"run" ~label
    ~program:(Shl.Pretty.expr_to_string e)
    ~spec:"" ~budget ~t0
    {
      Job.engine = "shl.explore";
      verdict;
      ok;
      detail = Some (String.concat "," finals);
      consumed = [ ("states", r.Shl.Conc.states) ];
    };
  if ok then 0 else 1

let run_cmd =
  let action program budget stats engine ledger domains cache =
    let label, e = or_die (parse_labeled program) in
    let bound = Option.value budget ~default:Job.default_budget in
    match domains with
    | Some n -> run_explore ~label ~e ~budget:bound ~ledger n
    | None -> (
      let program = Shl.Pretty.expr_to_string e in
      match engine with
      | `Lockstep ->
        (* lockstep's agree/disagree report is not an outcome a
           certificate holds: it is never cached *)
        let t0 = Unix.gettimeofday () in
        let lo = Shl.Machine.lockstep ~budget:bound e in
        let verdict, code =
          match lo with
          | Shl.Machine.Agree_value _ -> ("value", 0)
          | Shl.Machine.Agree_stuck _ -> ("stuck", 1)
          | Shl.Machine.Agree_out_of_fuel _ -> ("out_of_fuel", 1)
          | Shl.Machine.Disagree _ -> ("disagree", 2)
        in
        Job.append ?ledger ~cmd:"run" ~label ~program ~spec:"" ?budget ~t0
          {
            Job.engine = "shl.lockstep";
            verdict;
            ok = code = 0;
            detail = None;
            consumed = [];
          };
        emit (Format.asprintf "%a@." Shl.Machine.pp_lockstep lo, "", code)
      | `Machine ->
        let engine = "shl.machine" in
        (* --stats prints the pure/heap step split, which a certificate
           does not hold *)
        let o, fresh =
          Job.run ?cache ?ledger ?budget ~adapt:has_detail ~cmd:"run"
            ~engines:[ engine ] ~label ~program ~spec:"" ~replay:(not stats)
            (fun () ->
              let r = Shl.Interp.exec ~budget:bound e in
              (Job.exec_outcome ~engine r, snd r))
        in
        emit (render_run ?stats:(if stats then fresh else None) o))
  in
  let stats =
    Arg.(value & flag & info [ "stats" ] ~doc:"Print step statistics.")
  in
  Cmd.v (Cmd.info "run" ~doc:"Run an SHL program.")
    Term.(
      const (fun () p b s g l d c ->
          Stdlib.exit (protect (fun () -> action p b s g l d c)))
      $ obs_term $ program_term $ budget_arg $ stats $ engine_arg
      $ ledger_arg $ domains_arg $ cache_arg)

(* ---- trace ---- *)

let trace_cmd =
  let action program n =
    require_non_negative [ ("--steps", n) ];
    let _, e = or_die (parse_labeled program) in
    let tr = Shl.Interp.trace ~fuel:n e in
    List.iteri
      (fun i cfg ->
        Format.printf "%4d: %s@." i (Shl.Pretty.expr_to_string cfg.Shl.Step.expr))
      tr;
    0
  in
  let steps =
    Arg.(
      value & opt int 50 & info [ "n"; "steps" ] ~docv:"N" ~doc:"Trace length.")
  in
  Cmd.v (Cmd.info "trace" ~doc:"Print the small-step trace of an SHL program.")
    Term.(
      const (fun () p n -> Stdlib.exit (protect (fun () -> action p n)))
      $ obs_term $ program_term $ steps)

(* ---- analyze ---- *)

let analyze_cmd =
  let module An = Tfiris.Analysis.Analyzer in
  let module F = Tfiris.Analysis.Finding in
  let module Races = Tfiris.Analysis.Races in
  (* stdout is the report in the asked format (the stored json-stable
     one on a replay), stderr the --domains race cross-validation; the
     exit code is the outcome's [ok] under this --fail-on *)
  let render ~fmt ~timings ~domains fresh (o : Job.outcome) =
    let out =
      match fmt, fresh with
      | `Json, Some (reports, _) ->
        Obs.Json.to_string (Obs.Json.List (List.map An.report_to_json reports))
        ^ "\n"
      | `Text, Some (reports, _) ->
        String.concat ""
          (List.map (Format.asprintf "%a@." (An.render_text ~timings)) reports)
      | _ -> Option.get o.Job.detail ^ "\n"
    in
    let kname = function
      | Races.D_read -> "read"
      | Races.D_write -> "write"
      | Races.D_cas -> "cas"
    in
    let err =
      match domains, fresh with
      | Some _, Some (_, races) ->
        String.concat ""
          (List.concat_map
             (fun (label, dyn) ->
               Printf.sprintf "dynamic race oracle %s: %d racy location%s\n"
                 label (List.length dyn)
                 (if List.length dyn = 1 then "" else "s")
               :: List.map
                    (fun d ->
                      Printf.sprintf "  loc %d: %s/%s\n" d.Races.d_loc
                        (kname d.Races.k1) (kname d.Races.k2))
                    dyn)
             races)
      | _ -> ""
    in
    (out, err, if o.Job.ok then 0 else 1)
  in
  let action expr files fmt fail_on only skip timings ledger domains cache =
    List.iter
      (fun p ->
        if not (List.mem p An.pass_names) then
          or_die
            (Error
               (Printf.sprintf "unknown pass %S (available: %s)" p
                  (String.concat ", " An.pass_names))))
      (only @ skip);
    let selected =
      (match only with [] -> An.pass_names | ps -> ps)
      |> List.filter (fun p -> not (List.mem p skip))
    in
    if selected = [] then or_die (Error "every pass is disabled");
    let parsed =
      List.map (fun f -> (f, or_die (load_program f))) files
      @
      match expr with
      | Some s -> [ ("<expr>", or_die (Shl.Parser.parse s)) ]
      | None -> []
    in
    if parsed = [] then or_die (Error "no program: use -e EXPR or give files");
    (* a certificate holds the json-stable report and the per-severity
       counts; other formats, --timings and the --domains race oracle
       need the fresh reports *)
    let replay = fmt = `Json_stable && (not timings) && domains = None in
    let o, fresh =
      Job.run ?cache ?ledger ~adapt:(Job.under_fail_on ~fail_on)
        ~record_detail:false ~cmd:"analyze" ~engines:[ "analysis" ]
        ~label:(String.concat "," (List.map fst parsed))
        ~program:
          (String.concat "\x00"
             (List.map (fun (_, e) -> Shl.Pretty.expr_to_string e) parsed))
        ~spec:(String.concat "," selected) ~replay
        (fun () ->
          let reports =
            List.map
              (fun (label, e) -> An.analyze ~passes:selected ~label e)
              parsed
          in
          (* --domains: re-derive races dynamically on the explorer;
             findings and stdout stay byte-identical *)
          let races =
            match domains with
            | None -> []
            | Some _ ->
              List.map (fun (label, e) -> (label, Races.dynamic_races e)) parsed
          in
          (Job.analyze_outcome ~fail_on ~passes:selected reports, (reports, races)))
    in
    emit (render ~fmt ~timings ~domains fresh o)
  in
  let expr =
    Arg.(
      value
      & opt (some string) None
      & info [ "e"; "expr" ] ~docv:"EXPR" ~doc:"Program text.")
  in
  let files =
    Arg.(value & pos_all file [] & info [] ~docv:"FILE" ~doc:"Program files.")
  in
  let fmt =
    Arg.(
      value
      & opt
          (enum
             [
               ("text", `Text);
               ("json", `Json);
               ("json-stable", `Json_stable);
             ])
          `Text
      & info [ "format" ] ~docv:"FMT"
          ~doc:
            "Report format: text, json, or json-stable (no timings — the \
             deterministic form the analyze-corpus baseline uses).")
  in
  let fail_on =
    Arg.(
      value
      & opt
          (enum
             [ ("info", F.Info); ("warning", F.Warning); ("error", F.Error) ])
          F.Error
      & info [ "fail-on" ] ~docv:"SEV"
          ~doc:
            "Exit 1 when a finding at or above $(docv) is reported \
             (info|warning|error).")
  in
  let only =
    Arg.(
      value & opt_all string []
      & info [ "pass" ] ~docv:"PASS"
          ~doc:"Run only this pass (repeatable).")
  in
  let skip =
    Arg.(
      value & opt_all string []
      & info [ "no-pass" ] ~docv:"PASS" ~doc:"Skip this pass (repeatable).")
  in
  let timings =
    Arg.(
      value & flag
      & info [ "timings" ] ~doc:"Print per-pass wall times (text format).")
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Run the static analyzer (scope/shape lint, constant propagation, \
          intervals, termination measures, race detection, symbolic-heap \
          bi-abduction) over SHL programs.")
    Term.(
      const (fun () e fs fmt fo po sk t l d c ->
          Stdlib.exit (protect (fun () -> action e fs fmt fo po sk t l d c)))
      $ obs_term $ expr $ files $ fmt $ fail_on $ only $ skip $ timings
      $ ledger_arg $ domains_arg $ cache_arg)

(* ---- check-term ---- *)

let parse_credit s =
  (* "n", "w", "w^w", "w*k", "w+n" — a tiny grammar for common credits *)
  match int_of_string_opt s with
  | Some n -> Ok (Ord.of_int n)
  | None -> (
    match s with
    | "w" | "omega" -> Ok Ord.omega
    | "w^w" -> Ok (Ord.omega_pow Ord.omega)
    | "w^2" -> Ok (Ord.omega_pow Ord.two)
    | "w*2" -> Ok (Ord.mul Ord.omega Ord.two)
    | _ -> Error (Printf.sprintf "cannot parse credit %S (try: 100, w, w*2, w^2, w^w)" s))

let check_term_cmd =
  let engine = "termination.wp/adaptive" in
  let outcome v =
    let verdict, ok, st =
      match v with
      | Termination.Wp.Terminated (_, _, st) -> ("terminated", true, st)
      | Termination.Wp.Rejected (r, st) ->
        ("rejected:" ^ Termination.Wp.rule_name r, false, st)
    in
    {
      Job.engine;
      verdict;
      ok;
      detail = Some (Format.asprintf "%a" Termination.Wp.pp_verdict v);
      consumed =
        [
          ("steps", st.Termination.Wp.steps);
          ("limit_refinements", st.Termination.Wp.limit_refinements);
        ];
    }
  in
  let render (o : Job.outcome) =
    (Option.get o.Job.detail ^ "\n", "", if o.Job.ok then 0 else 1)
  in
  let action program credit budget explain ledger cache =
    let label, e = or_die (parse_labeled program) in
    let credits = or_die (parse_credit credit) in
    with_explain explain (fun () ->
        (* --explain prints the post-mortem of a run that happens now *)
        let o, _ =
          Job.run ?cache ?ledger ?budget ~adapt:has_detail ~cmd:"check-term"
            ~engines:[ engine ] ~label ~program:(Shl.Pretty.expr_to_string e)
            ~spec:(Ord.to_string credits) ~replay:(explain = None)
            (fun () ->
              ( outcome
                  (Termination.Wp.run ?budget ~credits
                     (Termination.Wp.adaptive ()) (Shl.Step.config e)),
                () ))
        in
        emit (render o))
  in
  let credit =
    Arg.(
      value
      & opt string "w"
      & info [ "credits" ] ~docv:"ORD" ~doc:"Initial credit (e.g. 100, w, w*2, w^w).")
  in
  Cmd.v
    (Cmd.info "check-term"
       ~doc:"Verify termination of an SHL program with transfinite time credits.")
    Term.(
      const (fun () p c b x l ca ->
          Stdlib.exit (protect (fun () -> action p c b x l ca)))
      $ obs_term $ program_term $ credit $ budget_arg $ explain_term
      $ ledger_arg $ cache_arg)

(* ---- refine ---- *)

let refine_cmd =
  let module Driver = Refinement.Driver in
  let engine strategy = "refinement.driver/" ^ strategy in
  let outcome ~budget ~target ~source =
    (* the oracle's pre-runs stop at the budget's wall deadline (its
       step and cell limits count driver steps only), and the driver
       then gets what is left of the budget; without an oracle
       certificate, lockstep handles the diverging/diverging case *)
    let pre = Robust.Budget.meter budget in
    let strategy, strat =
      match Refinement.Strategy.oracle ~meter:pre ~target ~source () with
      | Some strat -> ("oracle", strat)
      | None -> ("lockstep", Refinement.Strategy.lockstep)
    in
    let v =
      Driver.run ~budget:(Robust.Budget.remaining pre) ~target ~source strat
    in
    let verdict, ok, st =
      match v with
      | Driver.Accepted (Driver.Terminated _, st) -> ("accepted", true, st)
      | Driver.Accepted (Driver.Fuel_exhausted r, st) ->
        ("fuel_exhausted:" ^ Robust.Budget.resource_name r, true, st)
      | Driver.Rejected (r, st) -> ("rejected:" ^ Driver.rule_name r, false, st)
    in
    {
      Job.engine = engine strategy;
      verdict;
      ok;
      detail = Some (Format.asprintf "%a" Driver.pp_verdict v);
      consumed =
        [
          ("steps", st.Driver.target_steps);
          ("source_steps", st.Driver.source_steps);
          ("stutters", st.Driver.stutters);
        ];
    }
  in
  let render (o : Job.outcome) =
    ( (if o.Job.engine = engine "lockstep" then
         "(no oracle certificate; lockstep attempt)\n"
       else "")
      ^ Option.get o.Job.detail ^ "\n",
      "",
      if o.Job.ok then 0 else 1 )
  in
  let action target source budget explain ledger cache =
    let parse_arg what = function
      | Some s -> Shl.Parser.parse s
      | None -> Error ("missing --" ^ what)
    in
    let t = or_die (parse_arg "target" target) in
    let s = or_die (parse_arg "source" source) in
    (* the refinement judgement has two texts: the target is the
       "program", the source is its specification *)
    let program = Shl.Pretty.expr_to_string t in
    let spec = Shl.Pretty.expr_to_string s in
    let label =
      Obs.Forensics.trunc ~limit:40 program
      ^ " =< "
      ^ Obs.Forensics.trunc ~limit:40 spec
    in
    (* a wall-clock budget can cut the oracle's pre-runs at the
       deadline, and then which strategy ran, hence the verdict,
       depends on the budget: such runs pass no cache *)
    let cache =
      match budget with
      | Some { Robust.Budget.wall_ms = Some _; _ } -> None
      | _ -> cache
    in
    with_explain explain (fun () ->
        let o, _ =
          Job.run ?cache ?ledger ?budget ~adapt:has_detail ~cmd:"refine"
            ~engines:[ engine "oracle"; engine "lockstep" ]
            ~label ~program ~spec ~replay:(explain = None)
            (fun () ->
              ( outcome
                  ~budget:(Option.value budget ~default:Job.default_budget)
                  ~target:(Shl.Step.config t) ~source:(Shl.Step.config s),
                () ))
        in
        emit (render o))
  in
  let target =
    Arg.(
      value
      & opt (some string) None
      & info [ "target" ] ~docv:"EXPR" ~doc:"Target program (the refined one).")
  in
  let source =
    Arg.(
      value
      & opt (some string) None
      & info [ "source" ] ~docv:"EXPR" ~doc:"Source program (the specification).")
  in
  Cmd.v
    (Cmd.info "refine"
       ~doc:"Check a termination-preserving refinement between two SHL programs.")
    Term.(
      const (fun () t s b x l c ->
          Stdlib.exit (protect (fun () -> action t s b x l c)))
      $ obs_term $ target $ source $ budget_arg $ explain_term
      $ ledger_arg $ cache_arg)

(* ---- prove ---- *)

let prove_cmd =
  let action src =
    match Formula_parser.parse src with
    | Error m ->
      Format.eprintf "tfiris: parse error: %s@." m;
      2
    | Ok goal -> (
      Format.printf "goal:  %a@." Formula.pp goal;
      Format.printf "valid (finite model):      %b@."
        (Logic_semantics.valid_fin goal);
      Format.printf "valid (transfinite model): %b@."
        (Logic_semantics.valid_trans goal);
      match Tauto.prove goal with
      | Some d -> (
        match Proof.check Proof.Transfinite d with
        | Ok seq ->
          Format.printf "intuitionistically PROVED; derivation re-checked: %a@."
            Proof.pp_sequent seq;
          0
        | Error e ->
          Format.eprintf "internal error: derivation rejected: %a@."
            Proof.pp_error e;
          3)
      | None ->
        Format.printf "no intuitionistic proof found (G4ip search)@.";
        1)
  in
  let goal =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"FORMULA"
          ~doc:"Formula, e.g. \"(a -> b) -> a -> b\" or \"~(p /\\\\ ~p)\".")
  in
  Cmd.v
    (Cmd.info "prove"
       ~doc:"Search for an intuitionistic proof (G4ip) and evaluate in both models.")
    Term.(const (fun () s -> Stdlib.exit (protect (fun () -> action s))) $ obs_term $ goal)

(* ---- goodstein ---- *)

let goodstein_cmd =
  let action n max_len =
    require_non_negative [ ("seed", n); ("--max-len", max_len) ];
    List.iter
      (fun (base, v) ->
        Format.printf "base %3d: value %-12d ordinal %a@\n" base v Ord.pp
          (Goodstein.ordinal_of ~base v))
      (Goodstein.sequence ~max_len n);
    Format.print_flush ();
    0
  in
  let seed =
    Arg.(value & pos 0 int 3 & info [] ~docv:"N" ~doc:"Starting value.")
  in
  let max_len =
    Arg.(
      value & opt int 16 & info [ "max-len" ] ~docv:"K" ~doc:"Truncation length.")
  in
  Cmd.v
    (Cmd.info "goodstein"
       ~doc:"Print a Goodstein sequence with its descending ordinal certificate.")
    Term.(
      const (fun () n k -> Stdlib.exit (protect (fun () -> action n k)))
      $ obs_term $ seed $ max_len)

(* ---- hydra ---- *)

let hydra_cmd =
  let action width depth regrow adversarial =
    require_non_negative [ ("--width", width); ("--depth", depth); ("--regrow", regrow) ];
    let h = Hydra.bush ~width ~depth in
    Format.printf "hydra: %a@.measure: %a@." Hydra.pp h Ord.pp (Hydra.measure h);
    let choose = if adversarial then Hydra.choose_fattest else Hydra.choose_first in
    match Hydra.play ~regrow ~choose h with
    | Ok chops ->
      Format.printf "dead after %d chops (regrow %d, %s Hercules)@." chops
        regrow
        (if adversarial then "adversarial" else "greedy");
      0
    | Error _ ->
      Format.eprintf "measure violation?!@.";
      1
  in
  let width =
    Arg.(value & opt int 2 & info [ "width" ] ~docv:"W" ~doc:"Bush width.")
  in
  let depth =
    Arg.(
      value
      & opt int 2
      & info [ "depth" ] ~docv:"D"
          ~doc:"Bush depth (careful: the game length grows like \xcf\x89-towers).")
  in
  let regrow =
    Arg.(value & opt int 2 & info [ "regrow" ] ~docv:"R" ~doc:"Heads regrown per chop.")
  in
  let adversarial =
    Arg.(
      value & flag
      & info [ "adversarial" ] ~doc:"Hercules keeps the hydra as big as possible.")
  in
  Cmd.v
    (Cmd.info "hydra"
       ~doc:"Play the Kirby\xe2\x80\x93Paris hydra game to the death by ordinal descent.")
    Term.(
      const (fun () w d r a -> Stdlib.exit (protect (fun () -> action w d r a)))
      $ obs_term $ width $ depth $ regrow $ adversarial)

(* ---- profile ---- *)

let profile_cmd =
  let read_lines path =
    let ic = open_in path in
    let rec go acc =
      match input_line ic with
      | line -> go (line :: acc)
      | exception End_of_file ->
        close_in ic;
        List.rev acc
    in
    go []
  in
  let action args depth collapsed keep_trace =
    if args = [] then
      or_die
        (Error
           "no command to profile: tfiris profile -- SUBCMD ARGS... (e.g. \
            tfiris profile -- run examples/shl/memo_fib.shl)");
    let tmp = Filename.temp_file "tfiris-profile-" ".jsonl" in
    (* Subcommand actions exit the process, so the profiled run is a
       child process with a JSONL trace sink; the profile is folded
       from the trace file afterwards. *)
    let cmd =
      Filename.quote_command Sys.executable_name
        (args @ [ "--trace=" ^ tmp ^ ":jsonl" ])
    in
    let code = Sys.command cmd in
    let events = Obs.Profile.events_of_jsonl_lines (read_lines tmp) in
    if keep_trace then Format.eprintf "trace kept at %s@." tmp
    else Sys.remove tmp;
    if events = [] then begin
      Format.eprintf
        "tfiris profile: the profiled command emitted no trace events@.";
      if code = 0 then 1 else code
    end
    else begin
      let p = Obs.Profile.of_events events in
      Format.printf "%a" (Obs.Profile.render_tree ~max_depth:depth) p;
      Format.printf "total: %.3f ms over %d spans@."
        (Int64.to_float (Obs.Profile.total_ns p) /. 1e6)
        (Obs.Profile.node_count p - 1);
      (match collapsed with
      | None -> ()
      | Some file ->
        let oc = open_out file in
        let ppf = Format.formatter_of_out_channel oc in
        Obs.Profile.render_collapsed ppf p;
        Format.pp_print_flush ppf ();
        close_out oc;
        Format.printf "collapsed stacks written to %s@." file);
      code
    end
  in
  let args =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"CMD"
          ~doc:
            "The tfiris subcommand to profile, with its arguments (put -- \
             before it so its flags are not parsed here).")
  in
  let depth =
    Arg.(
      value & opt int max_int
      & info [ "depth" ] ~docv:"N" ~doc:"Truncate the printed tree at depth $(docv).")
  in
  let collapsed =
    Arg.(
      value
      & opt (some string) None
      & info [ "collapsed" ] ~docv:"FILE"
          ~doc:
            "Also write collapsed stacks ($(b,stack value) lines, the \
             flamegraph.pl / speedscope input format) to $(docv).")
  in
  let keep_trace =
    Arg.(
      value & flag
      & info [ "keep-trace" ] ~doc:"Keep the intermediate JSONL trace file.")
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Run a tfiris subcommand under the tracer and print a hierarchical \
          call-tree profile (cumulative/self wall time per span).")
    Term.(
      const (fun args d c k -> Stdlib.exit (protect (fun () -> action args d c k)))
      $ args $ depth $ collapsed $ keep_trace)

(* ---- chaos ---- *)

let chaos_cmd =
  let action seeds out ledger =
    if seeds <= 0 then or_die (Error "--seeds must be positive");
    let t0 = Unix.gettimeofday () in
    let r = Robust.Chaos.run ~seeds () in
    Format.printf "%a@." Robust.Chaos.pp_report r;
    (match out with
    | None -> ()
    | Some file ->
      let oc = open_out file in
      output_string oc (Obs.Json.to_string (Robust.Chaos.report_to_json r));
      output_char oc '\n';
      close_out oc;
      Format.printf "report written to %s@." file);
    let failures = List.length r.Robust.Chaos.failures in
    (* one record for the whole battery; the seed count is the spec
       (more seeds = a different, stronger check) *)
    Job.append ?ledger ~cmd:"chaos" ~label:"chaos-battery"
      ~program:"chaos-battery"
      ~spec:(Printf.sprintf "seeds:%d" seeds)
      ~t0
      {
        Job.engine = "robust.chaos";
        verdict =
          (if Robust.Chaos.passed r then "passed"
           else Printf.sprintf "failed:%d" failures);
        ok = Robust.Chaos.passed r;
        detail = None;
        consumed =
          [
            ("seeds", seeds);
            ("checks", r.Robust.Chaos.checks_run);
            ("failures", failures);
          ];
      };
    if Robust.Chaos.passed r then 0 else 1
  in
  let seeds =
    Arg.(
      value & opt int 50
      & info [ "seeds" ] ~docv:"N"
          ~doc:"Number of seeded fault plans to replay the battery under.")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE" ~doc:"Also write the report as JSON to $(docv).")
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Replay the soundness battery (the existential dilemma, the \
          refinement counterexamples, credit cheaters, the locked counter) \
          under seeded fault injection: hostile schedulers, failing \
          allocations, throwing trace sinks, skewed clocks.")
    Term.(
      const (fun () s o l -> Stdlib.exit (protect (fun () -> action s o l)))
      $ obs_term $ seeds $ out $ ledger_arg)

(* ---- report ---- *)

let report_cmd =
  let action files diff threshold min_delta mem_threshold fmt =
    let load path = or_die (Obs.Ledger.load ~path) in
    match (diff, files) with
    | false, [ path ] ->
      let records = load path in
      let s = Obs.Report.summarize records in
      (* analyze records additionally carry per-pass finding counts;
         surface them as an appendix next to the per-key verdicts *)
      let passes = Obs.Report.pass_summary records in
      (match fmt with
      | `Text ->
        print_string (Obs.Report.render_summary_text s);
        print_string (Obs.Report.render_pass_text passes)
      | `Json ->
        print_endline
          (Obs.Json.to_string (Obs.Report.summary_to_json ~passes s)));
      0
    | true, [ before; after ] ->
      let d =
        Obs.Report.diff ~threshold ~min_delta_ms:min_delta ?mem_threshold
          ~before:(load before) ~after:(load after) ()
      in
      (match fmt with
      | `Text -> print_string (Obs.Report.render_diff_text d)
      | `Json -> print_endline (Obs.Json.to_string (Obs.Report.diff_to_json d)));
      (* verdict flips and new failures fail the command; time
         regressions stay advisory (the bench perf gate owns those);
         allocation regressions fail only when --mem-threshold armed
         the memory gate *)
      if Obs.Report.failed d then 1 else 0
    | false, _ ->
      or_die (Error "report expects exactly one LEDGER (or --diff BEFORE AFTER)")
    | true, _ -> or_die (Error "report --diff expects exactly two ledgers")
  in
  let files =
    Arg.(
      value & pos_all file []
      & info [] ~docv:"LEDGER" ~doc:"Run-ledger file(s) (JSONL, tfiris-run/2).")
  in
  let diff =
    Arg.(
      value & flag
      & info [ "diff" ]
          ~doc:
            "Compare two ledgers (BEFORE AFTER): classify verdict flips, new \
             failures and median-time regressions. Exit 1 when a verdict \
             flipped or a new entry failed; time regressions are advisory.")
  in
  let threshold =
    Arg.(
      value & opt float 1.5
      & info [ "threshold" ] ~docv:"X"
          ~doc:
            "Report a time regression when the median wall time grows beyond \
             $(docv) times the baseline (with $(b,--min-delta-ms) absolute \
             slack).")
  in
  let min_delta =
    Arg.(
      value & opt float 20.
      & info [ "min-delta-ms" ] ~docv:"MS"
          ~doc:
            "Ignore median-time growth below $(docv) milliseconds — absolute \
             noise floor for the regression classifier.")
  in
  let mem_threshold =
    Arg.(
      value
      & opt (some float) None
      & info [ "mem-threshold" ] ~docv:"X"
          ~doc:
            "Arm the memory gate: fail (exit 1) when an entry's median \
             allocated words grow beyond $(docv) times the baseline. Without \
             this flag allocation regressions are classified at 1.5x but \
             stay advisory.")
  in
  let fmt =
    Arg.(
      value
      & opt (enum [ ("text", `Text); ("json", `Json) ]) `Text
      & info [ "format" ] ~docv:"FMT" ~doc:"Output format: text or json.")
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Query the run ledger: list entries per content key (runs, verdict, \
          wall-time trend, budget use, allocated words), or diff two ledgers \
          for verdict flips, new failures and time/memory regressions.")
    Term.(
      const (fun fs d th md mt fmt ->
          Stdlib.exit (protect (fun () -> action fs d th md mt fmt)))
      $ files $ diff $ threshold $ min_delta $ mem_threshold $ fmt)

(* ---- cache (stats / gc) ---- *)

let cache_dir_arg =
  Arg.(
    value
    & opt string ".tfiris-cache"
    & info [ "cache" ] ~docv:"DIR"
        ~env:(Cmd.Env.info "TFIRIS_CACHE")
        ~doc:"The certificate-cache directory to operate on.")

let cache_cmd =
  let stats_sub =
    let action () dir =
      let t = Obs.Certcache.open_ ~dir in
      let s = Obs.Certcache.stats t in
      Format.printf "cache: %s@." (Obs.Certcache.dir t);
      Format.printf "entries: %d@." s.Obs.Certcache.st_entries;
      Format.printf "bytes: %d@." s.Obs.Certcache.st_bytes;
      Format.printf "corrupt: %d@." s.Obs.Certcache.st_corrupt;
      Format.printf "tmp: %d@." s.Obs.Certcache.st_tmp;
      0
    in
    Cmd.v
      (Cmd.info "stats"
         ~doc:
           "Walk the certificate cache and report entry count, total bytes, \
            unparseable (corrupt) entries and leftover temp files.")
      Term.(
        const (fun () d -> Stdlib.exit (protect (fun () -> action () d)))
        $ obs_term $ cache_dir_arg)
  in
  let gc_sub =
    let action () dir max_entries max_age =
      require_non_negative
        [ ("--max-entries", Option.value max_entries ~default:0) ];
      (match max_age with
      | Some a when a < 0. -> or_die (Error "--max-age must be non-negative")
      | _ -> ());
      let t = Obs.Certcache.open_ ~dir in
      let r =
        Obs.Certcache.gc ?max_entries ?max_age_s:max_age
          ~now:(Unix.gettimeofday ()) t
      in
      Format.printf "scanned: %d@." r.Obs.Certcache.gc_scanned;
      Format.printf "deleted: %d@." r.Obs.Certcache.gc_deleted;
      Format.printf "kept: %d@." r.Obs.Certcache.gc_kept;
      Format.printf "freed_bytes: %d@." r.Obs.Certcache.gc_freed_bytes;
      Format.printf "tmp_swept: %d@." r.Obs.Certcache.gc_tmp_swept;
      0
    in
    let max_entries =
      Arg.(
        value
        & opt (some int) None
        & info [ "max-entries" ] ~docv:"N"
            ~doc:"Keep at most $(docv) certificates, evicting oldest first.")
    in
    let max_age =
      Arg.(
        value
        & opt (some float) None
        & info [ "max-age" ] ~docv:"SECONDS"
            ~doc:"Evict certificates whose mtime is older than $(docv) seconds.")
    in
    Cmd.v
      (Cmd.info "gc"
         ~doc:
           "Evict certificates (oldest first) beyond $(b,--max-entries) or \
            older than $(b,--max-age), and sweep leftover temp files.")
      Term.(
        const (fun () d n a ->
            Stdlib.exit (protect (fun () -> action () d n a)))
        $ obs_term $ cache_dir_arg $ max_entries $ max_age)
  in
  Cmd.group
    (Cmd.info "cache"
       ~doc:
         "Inspect and maintain the content-addressed certificate cache (see \
          $(b,--cache) on the verdict-producing subcommands).")
    [ stats_sub; gc_sub ]

(* ---- verify-corpus ---- *)

(* The incremental-re-verification driver: every committed example goes
   through the run and analyze stages against the certificate cache.
   A cold sweep computes and stores every verdict; a warm sweep replays
   them (the drivers never run), which is the O(changes) property CI
   asserts with --min-hit-rate and a cold-vs-warm ledger diff. *)
let verify_corpus_cmd =
  let module An = Tfiris.Analysis.Analyzer in
  let action dir cache ledger min_hit_rate =
    let t_start = Unix.gettimeofday () in
    let files =
      match Sys.readdir dir with
      | exception Sys_error m -> or_die (Error m)
      | names ->
        Array.to_list names
        |> List.filter (fun f -> Filename.check_suffix f ".shl")
        |> List.sort compare
        |> List.map (Filename.concat dir)
    in
    if files = [] then
      or_die (Error (Printf.sprintf "no .shl programs under %s" dir));
    (* the corpus gate is --fail-on=error *)
    let fail_on = Tfiris.Analysis.Finding.Error in
    List.iter
      (fun file ->
        let e = or_die (load_program file) in
        let program = Shl.Pretty.expr_to_string e in
        (* one cache round per (file, stage), through the same outcome
           functions as `run` and `analyze`; the row shows whether it
           replayed *)
        let job =
          Job.run ~cache ?ledger ~announce:false ~label:file ~program
            ~replay:true
        in
        let row cmd ((o : Job.outcome), fresh) =
          Format.printf "%-4s %-8s %-32s %s@."
            (if fresh = None then "HIT" else "MISS")
            cmd file o.Job.verdict
        in
        row "run"
          (job ~cmd:"run" ~engines:[ "shl.machine" ] ~spec:"" (fun () ->
               ( Job.exec_outcome ~engine:"shl.machine"
                   (Shl.Interp.exec ~budget:Job.default_budget e),
                 () )));
        row "analyze"
          (job ~cmd:"analyze" ~engines:[ "analysis" ]
             ~spec:(String.concat "," An.pass_names)
             ~adapt:(Job.under_fail_on ~fail_on) (fun () ->
               ( Job.analyze_outcome ~fail_on ~passes:An.pass_names
                   [ An.analyze ~passes:An.pass_names ~label:file e ],
                 () ))))
      files;
    let wall_ms = (Unix.gettimeofday () -. t_start) *. 1000. in
    let hits, misses, corrupt, stores = Job.session () in
    let lookups = hits + misses in
    let rate =
      if lookups = 0 then 0.
      else 100. *. float_of_int hits /. float_of_int lookups
    in
    Format.printf
      "corpus: %d programs, %d lookups, %d hits (%.1f%%), %d stored, %d \
       corrupt, %.1f ms@."
      (List.length files) lookups hits rate stores corrupt wall_ms;
    if rate < min_hit_rate then begin
      Format.eprintf "tfiris: cache hit rate %.1f%% is below --min-hit-rate=%g@."
        rate min_hit_rate;
      1
    end
    else 0
  in
  let dir =
    Arg.(
      value
      & pos 0 dir "examples/shl"
      & info [] ~docv:"DIR" ~doc:"Corpus directory of .shl programs.")
  in
  let min_hit_rate =
    Arg.(
      value
      & opt float 0.
      & info [ "min-hit-rate" ] ~docv:"PCT"
          ~doc:
            "Exit 1 when fewer than $(docv) percent of lookups hit the \
             cache — the warm-sweep gate CI runs with $(docv)=100.")
  in
  Cmd.v
    (Cmd.info "verify-corpus"
       ~doc:
         "Re-check every committed example (run + analyze stages) through \
          the certificate cache: cold sweeps compute and store verdicts, \
          warm sweeps replay them without running the drivers.")
    Term.(
      const (fun () d c l r ->
          Stdlib.exit (protect (fun () -> action d c l r)))
      $ obs_term $ dir $ cache_dir_arg $ ledger_arg $ min_hit_rate)

(* ---- dilemma ---- *)

let dilemma_cmd =
  let action () =
    Format.printf "%a@.@.%a@." Dilemma.pp_outcome
      (Dilemma.run Proof.Finite)
      Dilemma.pp_outcome
      (Dilemma.run Proof.Transfinite);
    0
  in
  Cmd.v
    (Cmd.info "dilemma" ~doc:"Run the §2.7 / Theorem 7.1 demonstration.")
    Term.(const (fun () () -> Stdlib.exit (protect action)) $ obs_term $ const ())

let () =
  let doc = "Transfinite Iris, executable — SHL runner and liveness checkers" in
  let info = Cmd.info "tfiris" ~version:Tfiris.version ~doc in
  exit
    (Cmd.eval'
       (Cmd.group info
          [
            run_cmd;
            trace_cmd;
            analyze_cmd;
            check_term_cmd;
            refine_cmd;
            report_cmd;
            cache_cmd;
            verify_corpus_cmd;
            chaos_cmd;
            profile_cmd;
            dilemma_cmd;
            prove_cmd;
            goodstein_cmd;
            hydra_cmd;
          ]))
