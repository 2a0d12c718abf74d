(* tfiris: the command-line front end.

   Subcommands:
     run          run an SHL program
     stats        run an SHL program and print the full metrics snapshot
     trace        print the small-step trace of an SHL program
     analyze      run the static analyzer over one or more SHL programs
     check-term   verify termination with transfinite time credits
     refine       check a termination-preserving refinement
     dilemma      run the §2.7/Theorem 7.1 demonstration

   Programs are given either inline (-e) or as a file path.

   Every subcommand accepts the global observability flags:
     --trace=FILE[:FMT]   write a structured trace (FMT: jsonl | chrome | pretty)
     --metrics            collect metrics; print the snapshot on exit *)

open Cmdliner
open Tfiris
module Shl = Tfiris.Shl
module Obs = Tfiris.Obs

(* Programs come back with a display label (the file path, or "<expr>"
   for inline text) — the handle run-ledger records carry. *)
let read_program expr_opt file_opt =
  match expr_opt, file_opt with
  | Some src, None -> Ok ("<expr>", src)
  | None, Some path -> (
    try
      let ic = open_in path in
      let n = in_channel_length ic in
      let s = really_input_string ic n in
      close_in ic;
      Ok (path, s)
    with Sys_error m -> Error m)
  | Some _, Some _ -> Error "give either -e or a file, not both"
  | None, None -> Error "no program: use -e EXPR or a file argument"

let parse_program src =
  match Shl.Parser.parse src with
  | Ok e -> Ok e
  | Error m -> Error m

let parse_labeled program =
  Result.bind program (fun (label, src) ->
      Result.map (fun e -> (label, e)) (parse_program src))

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
  Term.(const read_program $ expr $ file)

let or_die = function
  | Ok x -> x
  | Error m ->
    Format.eprintf "tfiris: %s@." m;
    exit 2

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

let fuel_arg =
  Arg.(
    value
    & opt int 10_000_000
    & info [ "fuel" ] ~docv:"N" ~doc:"Maximum number of steps.")

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
           cells:N (a bare N means steps:N). Overrides $(b,--fuel).")

(* ---- observability flags (shared by every subcommand) ---- *)

let print_metrics_snapshot () =
  Format.printf "@[<v>-- metrics --@,@]";
  Obs.Metrics.render_text Format.std_formatter (Obs.Metrics.snapshot ());
  Format.pp_print_flush Format.std_formatter ()

(* GC baseline for the whole invocation, taken at module initialisation
   — the run-level [mem] block is the delta from here to the moment the
   ledger record (or the --gc report) is assembled. *)
let gc0 = Obs.Telemetry.sample ()

let run_mem () =
  Obs.Telemetry.measure ~before:gc0 ~after:(Obs.Telemetry.sample ())

let print_gc_snapshot () =
  Format.printf "@[<v>-- gc --@,@]";
  Obs.Telemetry.render_text Format.std_formatter (run_mem ());
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
              (Obs.Json.to_string (Obs.Telemetry.to_json (run_mem ())));
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

let domains_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "domains" ] ~docv:"N"
        ~doc:
          "Worker-domain count for the work-stealing parallel explorer. \
           $(b,run): switch from scheduled execution to exhaustive \
           interleaving exploration on $(docv) domains. $(b,analyze): \
           additionally cross-validate the race pass against the dynamic \
           oracle on $(docv) domains (stderr; findings are unchanged). \
           $(b,chaos): size the parallel-explorer check's worker fleet. \
           Where a subcommand leaves $(docv) unset, the \
           $(b,TFIRIS_DOMAINS) environment variable supplies the default.")

let forensics_pointer () =
  match Obs.Forensics.last () with
  | None -> None
  | Some r ->
    Some
      (Obs.Json.Obj
         [
           ("component", Obs.Json.Str r.Obs.Forensics.r_component);
           ("rule", Obs.Json.Str r.Obs.Forensics.r_rule);
           ("step", Obs.Json.Int r.Obs.Forensics.r_step);
         ])

(** One ledger append per invocation, once the verdict is known.  The
    caller supplies what only it knows (the canonical program/spec
    texts, engine id, verdict, consumption); the record's environment
    half (tool version, wall time, metrics snapshot, forensics pointer)
    is assembled here. *)
let ledger_append ledger ~cmd ~label ~engine ~program ~spec ?budget ?seed
    ?domains ?(consumed = []) ?(cached = false) ~t0 ~verdict ~ok ?detail () =
  match ledger with
  | None -> ()
  | Some path ->
    Obs.Ledger.append ~path
      {
        Obs.Ledger.key =
          Obs.Ledger.content_key ~program ~spec ~engine ~version:Tfiris.version;
        cmd;
        label;
        engine;
        version = Tfiris.version;
        verdict;
        ok;
        detail;
        budget = Option.map Robust.Budget.to_json budget;
        consumed;
        cached;
        mem = Some (run_mem ());
        wall_ms = (Unix.gettimeofday () -. t0) *. 1000.;
        seed;
        domains;
        metrics =
          (if Obs.Metrics.on () then
             Some (Obs.Metrics.to_json (Obs.Metrics.snapshot ()))
           else None);
        forensics = (if ok then None else forensics_pointer ());
      }

(* ---- the certificate cache (--cache, shared by the verdict
   commands) ----

   The cache is keyed by the same content key as the ledger, so a hit
   is exactly "a previous run of this (program, spec, engine, version)
   already produced the verdict": the driver is skipped entirely and
   the replayed verdict goes to the ledger with a key-neutral
   [cached: true] block.  Only budget-independent verdicts are stored
   (Certcache.cacheable_verdict); an exhaustion verdict depends on the
   budget, which the key deliberately excludes. *)

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

let cache_open = Option.map (fun dir -> Obs.Certcache.open_ ~dir)

(** Look up the certificate for this invocation's content key.  The
    stored command must match (and pass any command-specific
    [validate]) — the engine id already separates subcommands in the
    key, so a mismatch means a corrupt entry, which {!Obs.Certcache.find}
    counts as a corrupt miss, not a hit. *)
let cache_lookup ?(validate = fun (_ : Obs.Certcache.cert) -> true) cache ~cmd
    ~engine ~program ~spec =
  match cache with
  | None -> None
  | Some t ->
    let key =
      Obs.Ledger.content_key ~program ~spec ~engine ~version:Tfiris.version
    in
    Obs.Certcache.find t ~key ~validate:(fun c ->
        c.Obs.Certcache.cmd = cmd && validate c)

(** Store a fresh verdict after a miss.  Uncacheable (budget-dependent)
    verdicts are silently skipped; rejections carry the forensics
    pointer as their replay certificate. *)
let cache_put cache ~cmd ~label ~engine ~program ~spec ~verdict ~ok ?detail
    ?(consumed = []) () =
  match cache with
  | None -> ()
  | Some t ->
    let key =
      Obs.Ledger.content_key ~program ~spec ~engine ~version:Tfiris.version
    in
    ignore
      (Obs.Certcache.store t
         {
           Obs.Certcache.key;
           cmd;
           label;
           engine;
           version = Tfiris.version;
           verdict;
           ok;
           detail;
           consumed;
           replay = (if ok then None else forensics_pointer ());
         }
        : bool)

let note_cache_hit (c : Obs.Certcache.cert) =
  Format.eprintf "tfiris: cache hit (%s, %s)@." c.Obs.Certcache.engine
    c.Obs.Certcache.verdict

(* Analyze certificates additionally carry per-severity finding counts
   ("sev.info"/"sev.warning"/"sev.error" in [consumed]): the content
   key deliberately excludes --fail-on, so the producing run's exit
   code is not the replaying run's — a replay recomputes it from the
   counts against THIS invocation's --fail-on.  A cert without the
   counts cannot be replayed safely and is rejected as corrupt (a
   re-verification), never replayed with a possibly-flipped verdict. *)

let all_severities = Tfiris.Analysis.Finding.[ Info; Warning; Error ]

let sev_key s = "sev." ^ Tfiris.Analysis.Finding.severity_to_string s

let sev_consumed (findings : Tfiris.Analysis.Finding.t list) =
  List.map
    (fun s -> (sev_key s, Tfiris.Analysis.Finding.count_severity findings s))
    all_severities

let analyze_cert_has_sevs (c : Obs.Certcache.cert) =
  List.for_all
    (fun s -> List.mem_assoc (sev_key s) c.Obs.Certcache.consumed)
    all_severities

(** [ok] of a cached analyze verdict under this invocation's
    [--fail-on]: no finding at or above it, per the stored counts. *)
let analyze_cert_ok ~fail_on (c : Obs.Certcache.cert) =
  List.for_all
    (fun s ->
      (not (Tfiris.Analysis.Finding.severity_ge s fail_on))
      || List.assoc_opt (sev_key s) c.Obs.Certcache.consumed = Some 0)
    all_severities

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

(* The same outcome/stats as Interp.exec, but looping over the reference
   stepper's whole-program decompose/fill — kept for comparison against
   the frame-stack machine the library runs on (--engine). *)
let reference_exec ?fuel ?budget e : Shl.Interp.outcome * Shl.Interp.stats =
  let module Budget = Robust.Budget in
  let m =
    Budget.(meter (resolve ?fuel ?budget ~default_steps:10_000_000 ()))
  in
  let rec go cfg (pure, heap_s) =
    match Shl.Step.prim_step cfg with
    | Error Shl.Step.Finished -> (
      match cfg.Shl.Step.expr with
      | Shl.Ast.Val v -> (Shl.Interp.Value (v, cfg.Shl.Step.heap), (pure, heap_s))
      | _ -> assert false)
    | Error (Shl.Step.Stuck redex) ->
      (Shl.Interp.Stuck (cfg, redex), (pure, heap_s))
    | Ok (cfg', kind) ->
      if not (Budget.step m) then
        (Shl.Interp.Out_of_fuel (Budget.tripped m, cfg), (pure, heap_s))
      else
        go cfg'
          (if Shl.Step.kind_is_pure kind then (pure + 1, heap_s)
           else (pure, heap_s + 1))
  in
  let outcome, (pure, heap_s) = go (Shl.Step.config e) (0, 0) in
  ( outcome,
    {
      Shl.Interp.steps = pure + heap_s;
      pure_steps = pure;
      heap_steps = heap_s;
    } )

let engine_arg =
  Arg.(
    value
    & opt
        (enum
           [
             ("machine", `Machine); ("reference", `Reference);
             ("lockstep", `Lockstep);
           ])
        `Machine
    & info [ "engine" ] ~docv:"ENGINE"
        ~doc:
          "Execution engine: the frame-stack $(b,machine) (default), the \
           $(b,reference) decompose/fill stepper, or $(b,lockstep) — run \
           both side by side and report any observational disagreement \
           (exit 2).")

(* run --domains=N: exhaustive interleaving exploration instead of one
   scheduled execution — every final value, every stuck thread, the
   whole reachable state count, on N work-stealing domains.  Output is
   sorted so it is identical at every domain count (the explorer's
   reachable set is; only traversal order varies). *)
let run_explore ~label ~e ~fuel ~budget ~stats ~ledger ~t0 n =
  if n < 1 then or_die (Error "--domains must be >= 1");
  let budget =
    match budget with Some b -> b | None -> Robust.Budget.of_steps fuel
  in
  let r = Shl.Conc.explore ~budget ~domains:n (Shl.Conc.init e) in
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
  if stats then
    List.iter
      (fun w ->
        Format.printf "  domain %d: dequeued %d, stolen %d, %.1f ms@."
          w.Shl.Conc.w_domain w.Shl.Conc.w_dequeued w.Shl.Conc.w_stolen
          w.Shl.Conc.w_wall_ms)
      r.Shl.Conc.workers;
  let verdict, ok =
    match r.Shl.Conc.exhausted with
    | Some res -> ("out_of_fuel:" ^ Robust.Budget.resource_name res, false)
    | None ->
      if r.Shl.Conc.stuck = [] then ("explored", true) else ("stuck", false)
  in
  ledger_append ledger ~cmd:"run" ~label ~engine:"shl.explore"
    ~program:(Shl.Pretty.expr_to_string e)
    ~spec:"" ~budget
    ~domains:
      (n, List.map (fun w -> w.Shl.Conc.w_wall_ms) r.Shl.Conc.workers)
    ~consumed:[ ("states", r.Shl.Conc.states) ]
    ~t0 ~verdict ~ok
    ~detail:(String.concat "," finals)
    ();
  if ok then 0 else 1

let run_cmd =
  let action program fuel budget stats engine ledger domains cache =
    let label, e = or_die (parse_labeled program) in
    let t0 = Unix.gettimeofday () in
    match domains with
    | Some n ->
      (* exploration is not cached: its verdict comes with per-domain
         wall splits and a full final-value set the certificate does
         not carry *)
      run_explore ~label ~e ~fuel ~budget ~stats ~ledger ~t0 n
    | None ->
    let program_text = Shl.Pretty.expr_to_string e in
    let cache = cache_open cache in
    (* a certificate cannot reproduce lockstep's agree/disagree line or
       the --stats step report, so those invocations never replay; a
       lockstep run stores nothing either (its cert would be dead
       weight), while a --stats run still stores — its verdict is
       stats-independent and replayable by plain runs *)
    let cache = match engine with `Lockstep -> None | _ -> cache in
    let replayable = not stats in
    let engine_id =
      match engine with
      | `Machine -> "shl.machine"
      | `Reference -> "shl.reference"
      | `Lockstep -> "shl.lockstep"
    in
    let finish ~engine_id ~verdict ~ok ?detail ?(consumed = []) code =
      cache_put cache ~cmd:"run" ~label ~engine:engine_id
        ~program:program_text ~spec:"" ~verdict ~ok ?detail ~consumed ();
      ledger_append ledger ~cmd:"run" ~label ~engine:engine_id
        ~program:program_text ~spec:"" ?budget ~consumed ~t0 ~verdict ~ok
        ?detail ();
      code
    in
    match
      if not replayable then None
      else
        cache_lookup cache ~cmd:"run" ~engine:engine_id ~program:program_text
          ~spec:""
    with
    | Some c ->
      (* replay: the certificate's detail is the final value (stdout)
         or the stuck redex (stderr); the driver never runs *)
      note_cache_hit c;
      (match (c.Obs.Certcache.verdict, c.Obs.Certcache.detail) with
      | "value", Some v -> Format.printf "%s@." v
      | "value", None -> ()
      | verdict, Some d -> Format.eprintf "%s (cached) on: %s@." verdict d
      | verdict, None -> Format.eprintf "%s (cached)@." verdict);
      ledger_append ledger ~cmd:"run" ~label ~engine:engine_id
        ~program:program_text ~spec:"" ?budget
        ~consumed:c.Obs.Certcache.consumed ~cached:true ~t0
        ~verdict:c.Obs.Certcache.verdict ~ok:c.Obs.Certcache.ok
        ?detail:c.Obs.Certcache.detail ();
      if c.Obs.Certcache.ok then 0 else 1
    | None -> (
    match engine with
    | `Lockstep -> (
      let o = Shl.Machine.lockstep ~fuel ?budget e in
      Format.printf "%a@." Shl.Machine.pp_lockstep o;
      let finish = finish ~engine_id:"shl.lockstep" in
      match o with
      | Shl.Machine.Agree_value _ -> finish ~verdict:"value" ~ok:true 0
      | Shl.Machine.Agree_stuck _ -> finish ~verdict:"stuck" ~ok:false 1
      | Shl.Machine.Agree_out_of_fuel _ ->
        finish ~verdict:"out_of_fuel" ~ok:false 1
      | Shl.Machine.Disagree _ -> finish ~verdict:"disagree" ~ok:false 2)
    | (`Machine | `Reference) as engine -> (
      let exec, engine_id =
        match engine with
        | `Machine -> ((fun e -> Shl.Interp.exec ~fuel ?budget e), "shl.machine")
        | `Reference ->
          ((fun e -> reference_exec ~fuel ?budget e), "shl.reference")
      in
      let finish = finish ~engine_id in
      match exec e with
      | Shl.Interp.Value (v, _), st ->
        Format.printf "%s@." (Shl.Pretty.value_to_string v);
        if stats then
          Format.printf "steps: %d (pure %d, heap %d)@." st.Shl.Interp.steps
            st.Shl.Interp.pure_steps st.Shl.Interp.heap_steps;
        finish ~verdict:"value" ~ok:true
          ~detail:(Shl.Pretty.value_to_string v)
          ~consumed:[ ("steps", st.Shl.Interp.steps) ]
          0
      | Shl.Interp.Stuck (_, redex), st ->
        Format.eprintf "stuck after %d steps on: %s@." st.Shl.Interp.steps
          (Shl.Pretty.expr_to_string redex);
        finish ~verdict:"stuck" ~ok:false
          ~detail:(Shl.Pretty.expr_to_string redex)
          ~consumed:[ ("steps", st.Shl.Interp.steps) ]
          1
      | Shl.Interp.Out_of_fuel (r, _), st ->
        Format.eprintf "out of %s budget (%d steps taken)@."
          (Robust.Budget.resource_name r)
          st.Shl.Interp.steps;
        finish
          ~verdict:("out_of_fuel:" ^ Robust.Budget.resource_name r)
          ~ok:false
          ~consumed:[ ("steps", st.Shl.Interp.steps) ]
          1))
  in
  let stats =
    Arg.(value & flag & info [ "stats" ] ~doc:"Print step statistics.")
  in
  Cmd.v (Cmd.info "run" ~doc:"Run an SHL program.")
    Term.(
      const (fun () p f b s g l d c ->
          Stdlib.exit (protect (fun () -> action p f b s g l d c)))
      $ obs_term $ program_term $ fuel_arg $ budget_arg $ stats $ engine_arg
      $ ledger_arg $ domains_arg $ cache_arg)

(* ---- stats ---- *)

let stats_cmd =
  let action program fuel =
    Obs.Metrics.set_enabled true;
    let _, e = or_die (parse_labeled program) in
    let outcome, st = Shl.Interp.exec ~fuel e in
    (match outcome with
    | Shl.Interp.Value (v, _) ->
      Format.printf "value: %s@." (Shl.Pretty.value_to_string v)
    | Shl.Interp.Stuck (_, redex) ->
      Format.printf "stuck on: %s@." (Shl.Pretty.expr_to_string redex)
    | Shl.Interp.Out_of_fuel (r, _) ->
      Format.printf "out of %s budget (%d steps)@."
        (Robust.Budget.resource_name r)
        st.Shl.Interp.steps);
    Format.printf "steps: %d (pure %d, heap %d)@." st.Shl.Interp.steps
      st.Shl.Interp.pure_steps st.Shl.Interp.heap_steps;
    print_metrics_snapshot ();
    match outcome with Shl.Interp.Value _ -> 0 | _ -> 1
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Run an SHL program with metrics enabled and print the full \
          observability snapshot.")
    Term.(
      const (fun () p f -> Stdlib.exit (protect (fun () -> action p f)))
      $ obs_term $ program_term $ fuel_arg)

(* ---- trace ---- *)

let trace_cmd =
  let action program n =
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
  let read_file path =
    try
      let ic = open_in path in
      let n = in_channel_length ic in
      let s = really_input_string ic n in
      close_in ic;
      Ok s
    with Sys_error m -> Error m
  in
  let module Races = Tfiris.Analysis.Races in
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
    let programs =
      List.map (fun f -> (f, or_die (read_file f))) files
      @ match expr with Some s -> [ ("<expr>", s) ] | None -> []
    in
    if programs = [] then
      or_die (Error "no program: use -e EXPR or give files");
    let t0 = Unix.gettimeofday () in
    let parsed =
      List.map
        (fun (label, src) -> (label, or_die (parse_program src)))
        programs
    in
    let cache = cache_open cache in
    let label_all = String.concat "," (List.map fst programs) in
    let program_all =
      String.concat "\x00"
        (List.map (fun (_, e) -> Shl.Pretty.expr_to_string e) parsed)
    in
    let spec_all = String.concat "," selected in
    match
      (* a certificate stores only the json-stable report, so only a
         json-stable invocation can replay it byte-identically; other
         formats (and --domains, whose dynamic race oracle must run)
         skip the cache and compute fresh — a format mismatch is never
         answered with the wrong rendering *)
      if fmt <> `Json_stable || domains <> None then None
      else
        cache_lookup cache ~cmd:"analyze" ~engine:"analysis"
          ~program:program_all ~spec:spec_all ~validate:analyze_cert_has_sevs
    with
    | Some c ->
      (* replay: stdout is the stored json-stable report; the exit code
         is recomputed from the per-severity counts against THIS
         invocation's --fail-on (the producing run's may differ — the
         content key deliberately excludes it) *)
      note_cache_hit c;
      (match c.Obs.Certcache.detail with
      | Some d -> print_endline d
      | None -> ());
      let ok = analyze_cert_ok ~fail_on c in
      ledger_append ledger ~cmd:"analyze" ~label:label_all ~engine:"analysis"
        ~program:program_all ~spec:spec_all
        ~consumed:c.Obs.Certcache.consumed ~cached:true ~t0
        ~verdict:c.Obs.Certcache.verdict ~ok ();
      if ok then 0 else 1
    | None ->
    let reports =
      List.map
        (fun (label, e) -> An.analyze ~passes:selected ~label e)
        parsed
    in
    (match fmt with
    | `Json ->
      let j = Obs.Json.List (List.map An.report_to_json reports) in
      print_endline (Obs.Json.to_string j)
    | `Json_stable ->
      (* no volatile fields: the form the corpus baseline is diffed in *)
      let j = Obs.Json.List (List.map An.report_to_json_stable reports) in
      print_endline (Obs.Json.to_string j)
    | `Text ->
      List.iter
        (fun r -> Format.printf "%a@." (An.render_text ~timings) r)
        reports);
    (* --domains=N: re-derive races dynamically on the parallel explorer
       and report the cross-validation on stderr.  Findings and stdout
       stay byte-identical — the corpus baseline diffs them. *)
    (match domains with
    | None -> ()
    | Some n ->
      let kname = function
        | Races.D_read -> "read"
        | Races.D_write -> "write"
        | Races.D_cas -> "cas"
      in
      List.iter
        (fun (label, e) ->
          let dyn = Races.dynamic_races ~domains:n e in
          Format.eprintf "dynamic race oracle (%d domains) %s: %d racy \
                          location%s@."
            n label (List.length dyn)
            (if List.length dyn = 1 then "" else "s");
          List.iter
            (fun d ->
              Format.eprintf "  loc %d: %s/%s@." d.Races.d_loc
                (kname d.Races.k1) (kname d.Races.k2))
            dyn)
        parsed);
    let code =
      if List.exists (fun r -> An.fails ~fail_on r) reports then 1 else 0
    in
    let total =
      List.fold_left (fun acc r -> acc + List.length r.An.findings) 0 reports
    in
    (* per-pass finding counts, so `tfiris report` can show analysis
       drift by pass, not just run verdicts *)
    let per_pass =
      List.map
        (fun p ->
          ( "pass." ^ p,
            List.fold_left
              (fun acc r ->
                List.fold_left
                  (fun acc t ->
                    if t.An.t_pass = p then acc + t.An.t_found else acc)
                  acc r.An.timings)
              0 reports ))
        selected
    in
    let verdict =
      if total = 0 then "clean" else Printf.sprintf "findings:%d" total
    in
    let consumed =
      ("findings", total)
      :: sev_consumed (List.concat_map (fun r -> r.An.findings) reports)
      @ per_pass
    in
    cache_put cache ~cmd:"analyze" ~label:label_all ~engine:"analysis"
      ~program:program_all ~spec:spec_all ~verdict ~ok:(code = 0)
      ~detail:
        (Obs.Json.to_string
           (Obs.Json.List (List.map An.report_to_json_stable reports)))
      ~consumed ();
    ledger_append ledger ~cmd:"analyze" ~label:label_all ~engine:"analysis"
      ~program:program_all ~spec:spec_all ~consumed ~t0 ~verdict
      ~ok:(code = 0) ();
    code
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
  let action program credit budget explain ledger cache =
    let label, e = or_die (parse_labeled program) in
    let credits = or_die (parse_credit credit) in
    let t0 = Unix.gettimeofday () in
    let engine = "termination.wp/adaptive" in
    let program_text = Shl.Pretty.expr_to_string e in
    let spec = Ord.to_string credits in
    let cache = cache_open cache in
    match cache_lookup cache ~cmd:"check-term" ~engine ~program:program_text ~spec with
    | Some c ->
      note_cache_hit c;
      Format.printf "%s (cached)@." c.Obs.Certcache.verdict;
      ledger_append ledger ~cmd:"check-term" ~label ~engine
        ~program:program_text ~spec ?budget
        ~consumed:c.Obs.Certcache.consumed ~cached:true ~t0
        ~verdict:c.Obs.Certcache.verdict ~ok:c.Obs.Certcache.ok
        ?detail:c.Obs.Certcache.detail ();
      if c.Obs.Certcache.ok then 0 else 1
    | None ->
    with_explain explain (fun () ->
        let v =
          Termination.Wp.run ?budget ~credits (Termination.Wp.adaptive ())
            (Shl.Step.config e)
        in
        Format.printf "%a@." Termination.Wp.pp_verdict v;
        let verdict, ok, st =
          match v with
          | Termination.Wp.Terminated (_, _, st) -> ("terminated", true, st)
          | Termination.Wp.Rejected (r, st) ->
            ("rejected:" ^ Termination.Wp.rule_name r, false, st)
        in
        let consumed =
          [
            ("steps", st.Termination.Wp.steps);
            ("limit_refinements", st.Termination.Wp.limit_refinements);
          ]
        in
        cache_put cache ~cmd:"check-term" ~label ~engine
          ~program:program_text ~spec ~verdict ~ok ~consumed ();
        ledger_append ledger ~cmd:"check-term" ~label ~engine
          ~program:program_text ~spec ?budget ~consumed ~t0 ~verdict ~ok ();
        if ok then 0 else 1)
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
  let action target source fuel budget explain ledger cache =
    let parse_arg what = function
      | Some s -> parse_program s
      | None -> Error ("missing --" ^ what)
    in
    let t = or_die (parse_arg "target" target) in
    let s = or_die (parse_arg "source" source) in
    let tc = Shl.Step.config t and sc = Shl.Step.config s in
    let t0 = Unix.gettimeofday () in
    let cache = cache_open cache in
    (* the refinement judgement has two texts: the target is the
       "program", the source is its specification *)
    let program_text = Shl.Pretty.expr_to_string t in
    let spec_text = Shl.Pretty.expr_to_string s in
    let label =
      Obs.Forensics.trunc ~limit:40 program_text
      ^ " =< "
      ^ Obs.Forensics.trunc ~limit:40 spec_text
    in
    (* which strategy certifies the pair (oracle vs lockstep fallback)
       is itself an outcome of the run, and the engine id — hence the
       content key — records it; a lookup therefore probes both
       possible keys *)
    let cached_cert =
      List.find_map
        (fun strategy ->
          cache_lookup cache ~cmd:"refine"
            ~engine:("refinement.driver/" ^ strategy)
            ~program:program_text ~spec:spec_text)
        [ "oracle"; "lockstep" ]
    in
    match cached_cert with
    | Some c ->
      note_cache_hit c;
      Format.printf "%s (cached)@." c.Obs.Certcache.verdict;
      ledger_append ledger ~cmd:"refine" ~label ~engine:c.Obs.Certcache.engine
        ~program:program_text ~spec:spec_text ?budget
        ~consumed:c.Obs.Certcache.consumed ~cached:true ~t0
        ~verdict:c.Obs.Certcache.verdict ~ok:c.Obs.Certcache.ok
        ?detail:c.Obs.Certcache.detail ();
      if c.Obs.Certcache.ok then 0 else 1
    | None ->
    let finish ?(store = true) ~strategy v =
      let verdict, ok, st =
        match v with
        | Refinement.Driver.Accepted (Refinement.Driver.Terminated _, st) ->
          ("accepted", true, st)
        | Refinement.Driver.Accepted (Refinement.Driver.Fuel_exhausted r, st)
          ->
          ("fuel_exhausted:" ^ Robust.Budget.resource_name r, true, st)
        | Refinement.Driver.Rejected (r, st) ->
          ("rejected:" ^ Refinement.Driver.rule_name r, false, st)
      in
      let consumed =
        [
          ("steps", st.Refinement.Driver.target_steps);
          ("source_steps", st.Refinement.Driver.source_steps);
          ("stutters", st.Refinement.Driver.stutters);
        ]
      in
      if store then
        cache_put cache ~cmd:"refine" ~label
          ~engine:("refinement.driver/" ^ strategy)
          ~program:program_text ~spec:spec_text ~verdict ~ok ~consumed ();
      ledger_append ledger ~cmd:"refine" ~label
        ~engine:("refinement.driver/" ^ strategy)
        ~program:program_text ~spec:spec_text ?budget ~consumed ~t0 ~verdict
        ~ok ();
      match v with
      | Refinement.Driver.Accepted _ -> 0
      | Refinement.Driver.Rejected _ -> 1
    in
    with_explain explain (fun () ->
        (* the oracle's pre-runs stop at the budget's wall deadline (its
           step and cell limits count driver steps only), and the
           driver then gets what is left of the budget *)
        let pre = Option.map Robust.Budget.meter budget in
        let rest () = Option.map Robust.Budget.remaining pre in
        match
          Refinement.Strategy.oracle ~fuel ?meter:pre ~target:tc ~source:sc ()
        with
        | Some strat ->
          let v =
            Refinement.Driver.run ~fuel ?budget:(rest ()) ~target:tc ~source:sc
              strat
          in
          Format.printf "%a@." Refinement.Driver.pp_verdict v;
          finish ~strategy:"oracle" v
        | None ->
          (* no oracle certificate: fall back to lockstep (handles the
             diverging/diverging case) *)
          let v =
            Refinement.Driver.run ~fuel ?budget:(rest ()) ~target:tc
              ~source:sc Refinement.Strategy.lockstep
          in
          Format.printf "(no oracle certificate; lockstep attempt)@.%a@."
            Refinement.Driver.pp_verdict v;
          (* after a pre-run cut at the deadline, which strategy ran —
             hence the verdict — depends on the budget: never cached *)
          let cut = Option.bind pre Robust.Budget.exhausted <> None in
          finish ~store:(not cut) ~strategy:"lockstep" v)
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
      const (fun () t s f b x l c ->
          Stdlib.exit (protect (fun () -> action t s f b x l c)))
      $ obs_term $ target $ source $ fuel_arg $ budget_arg $ explain_term
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

(** A usage error (exit 2, nothing printed on stdout) unless every named
    count is non-negative. *)
let require_non_negative counts =
  List.iter
    (fun (name, v) -> if v < 0 then or_die (Error (name ^ " must be non-negative")))
    counts

let goodstein_cmd =
  let action n max_len =
    require_non_negative [ ("seed", n); ("--max-len", max_len) ];
    List.iter
      (fun (base, v) ->
        Format.printf "base %3d: value %-12d ordinal %a@." base v Ord.pp
          (Goodstein.ordinal_of ~base v))
      (Goodstein.sequence ~max_len n);
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
  let action seeds out ledger domains =
    if seeds <= 0 then or_die (Error "--seeds must be positive");
    let t0 = Unix.gettimeofday () in
    let r = Robust.Chaos.run ~seeds ?domains () in
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
    ledger_append ledger ~cmd:"chaos" ~label:"chaos-battery"
      ~engine:"robust.chaos" ~program:"chaos-battery"
      ~spec:(Printf.sprintf "seeds:%d" seeds)
      ~consumed:
        [
          ("seeds", seeds);
          ("checks", r.Robust.Chaos.checks_run);
          ("failures", failures);
        ]
      ~t0
      ?domains:(Option.map (fun n -> (n, [])) domains)
      ~verdict:
        (if Robust.Chaos.passed r then "passed"
         else Printf.sprintf "failed:%d" failures)
      ~ok:(Robust.Chaos.passed r) ();
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
      const (fun () s o l d ->
          Stdlib.exit (protect (fun () -> action s o l d)))
      $ obs_term $ seeds $ out $ ledger_arg $ domains_arg)

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
  let action dir cache_dir ledger min_hit_rate =
    let t_start = Unix.gettimeofday () in
    let cache = cache_open (Some cache_dir) in
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
    let lookups = ref 0 and hits = ref 0 in
    (* one cache round per (file, stage): replay on hit, compute and
       store on miss; either way the ledger gets a record whose verdict
       is stage-deterministic, so a cold/warm `report --diff` is
       flip-free by construction unless the cache lied *)
    let stage ~cmd ~engine ~label ~program ~spec
        ?(validate = fun (_ : Obs.Certcache.cert) -> true)
        ?(ok_of_cert = fun (c : Obs.Certcache.cert) -> c.Obs.Certcache.ok)
        compute =
      let t0 = Unix.gettimeofday () in
      incr lookups;
      match cache_lookup cache ~cmd ~engine ~program ~spec ~validate with
      | Some c ->
        incr hits;
        ledger_append ledger ~cmd ~label ~engine ~program ~spec
          ~consumed:c.Obs.Certcache.consumed ~cached:true ~t0
          ~verdict:c.Obs.Certcache.verdict ~ok:(ok_of_cert c)
          ?detail:c.Obs.Certcache.detail ();
        (true, c.Obs.Certcache.verdict)
      | None ->
        let verdict, ok, detail, consumed = compute () in
        cache_put cache ~cmd ~label ~engine ~program ~spec ~verdict ~ok
          ?detail ~consumed ();
        ledger_append ledger ~cmd ~label ~engine ~program ~spec ~consumed ~t0
          ~verdict ~ok ?detail ();
        (false, verdict)
    in
    let row hit stage_name file verdict =
      Format.printf "%-4s %-8s %-32s %s@."
        (if hit then "HIT" else "MISS")
        stage_name file verdict
    in
    List.iter
      (fun file ->
        let src =
          let ic = open_in file in
          Fun.protect
            ~finally:(fun () -> close_in_noerr ic)
            (fun () -> really_input_string ic (in_channel_length ic))
        in
        let e = or_die (parse_program src) in
        let program = Shl.Pretty.expr_to_string e in
        let hit, verdict =
          stage ~cmd:"run" ~engine:"shl.machine" ~label:file ~program ~spec:""
            (fun () ->
              match Shl.Interp.exec ~fuel:10_000_000 e with
              | Shl.Interp.Value (v, _), st ->
                ( "value",
                  true,
                  Some (Shl.Pretty.value_to_string v),
                  [ ("steps", st.Shl.Interp.steps) ] )
              | Shl.Interp.Stuck (_, redex), st ->
                ( "stuck",
                  false,
                  Some (Shl.Pretty.expr_to_string redex),
                  [ ("steps", st.Shl.Interp.steps) ] )
              | Shl.Interp.Out_of_fuel (r, _), st ->
                ( "out_of_fuel:" ^ Robust.Budget.resource_name r,
                  false,
                  None,
                  [ ("steps", st.Shl.Interp.steps) ] ))
        in
        row hit "run" file verdict;
        let hit, verdict =
          (* analyze certs replay only via their per-severity counts,
             recomputed here against the corpus gate (--fail-on error) *)
          stage ~cmd:"analyze" ~engine:"analysis" ~label:file ~program
            ~spec:(String.concat "," An.pass_names)
            ~validate:analyze_cert_has_sevs
            ~ok_of_cert:(analyze_cert_ok ~fail_on:Tfiris.Analysis.Finding.Error)
            (fun () ->
              let r = An.analyze ~passes:An.pass_names ~label:file e in
              let total = List.length r.An.findings in
              let per_pass =
                List.map
                  (fun p ->
                    ( "pass." ^ p,
                      List.fold_left
                        (fun acc t ->
                          if t.An.t_pass = p then acc + t.An.t_found else acc)
                        0 r.An.timings ))
                  An.pass_names
              in
              ( (if total = 0 then "clean"
                 else Printf.sprintf "findings:%d" total),
                not (An.fails ~fail_on:Tfiris.Analysis.Finding.Error r),
                Some
                  (Obs.Json.to_string
                     (Obs.Json.List [ An.report_to_json_stable r ])),
                ("findings", total) :: sev_consumed r.An.findings @ per_pass ))
        in
        row hit "analyze" file verdict)
      files;
    let wall_ms = (Unix.gettimeofday () -. t_start) *. 1000. in
    let rate =
      if !lookups = 0 then 0.
      else 100. *. float_of_int !hits /. float_of_int !lookups
    in
    let _, _, corrupt, stores = Obs.Certcache.session () in
    Format.printf
      "corpus: %d programs, %d lookups, %d hits (%.1f%%), %d stored, %d \
       corrupt, %.1f ms@."
      (List.length files) !lookups !hits rate stores corrupt wall_ms;
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
             cache — the warm-sweep gate CI runs with $(docv)=90.")
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
            stats_cmd;
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
