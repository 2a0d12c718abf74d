(* The traced run's replay: a job redone by calling each layer's public
   function the way the CLI does, with a span around every call.  Spans
   are recorded by this file, not by the program; self time is a span's
   duration minus its children's.  Counts come from call results and
   from the program's own [Obs.Metrics] counters, allocation from an
   [Obs.Telemetry] sample on each side of every span.

   Each replay runs in a fresh harness process, as the CLI job does in a
   fresh tfiris process: code and heap start cold on both sides, so the
   replay's span times add up to the CLI's time less its start-up.  The
   process hands its spans and counts back as an [export]; the harness
   merges them ([absorb]), keeps them in memory and writes them out once
   at exit.

   A replay produces the output the CLI would (exit code, stdout lines,
   ledger records), which the caller checks like the child's — so the
   traced numbers always describe a faithful copy of the measured job. *)

module Shl = Tfiris.Shl
module Obs = Tfiris.Obs
module Json = Obs.Json
module An = Tfiris.Analysis.Analyzer
module F = Tfiris.Analysis.Finding
module Ord = Tfiris.Ord

(* ---------- spans ---------- *)

type span = {
  idx : int;
  name : string;
  job : int;  (** invocation number within the run *)
  mutable e2e_ms : float;  (** a job root's CLI wall time, 0 elsewhere *)
  parent : int;  (** [idx] of the enclosing span, -1 for a job root *)
  t0 : float;
  mutable t1 : float;
  mutable alloc_w : int;
}

let recorded : span list ref = ref []  (* newest first *)
let n_spans = ref 0
let stack : int list ref = ref []
let current_job = ref (-1)

(* Open a span, run [f] under it, close it; returns the span too. *)
let span_rec name f =
  let g0 = Obs.Telemetry.sample () in
  let s =
    {
      idx = !n_spans;
      name;
      job = !current_job;
      e2e_ms = 0.;
      parent = (match !stack with p :: _ -> p | [] -> -1);
      t0 = Unix.gettimeofday ();
      t1 = 0.;
      alloc_w = 0;
    }
  in
  incr n_spans;
  recorded := s :: !recorded;
  stack := s.idx :: !stack;
  let close () =
    s.t1 <- Unix.gettimeofday ();
    s.alloc_w <-
      (Obs.Telemetry.measure ~before:g0 ~after:(Obs.Telemetry.sample ()))
        .Obs.Telemetry.allocated_words;
    stack := List.tl !stack
  in
  match f () with
  | x ->
    close ();
    (x, s)
  | exception e ->
    close ();
    raise e

let span name f = fst (span_rec name f)

let dur s = (s.t1 -. s.t0) *. 1000.

(* ---------- counts ---------- *)

(* Counts by name: this file's own, taken from call results, and once a
   replay ends ([replay_process]) the program's [Obs.Metrics] counters. *)
let counts : (string, float) Hashtbl.t = Hashtbl.create 32

let get name = Option.value ~default:0. (Hashtbl.find_opt counts name)

let add name x = Hashtbl.replace counts name (get name +. x)

let addi name n = add name (float_of_int n)

let parse src =
  addi "parsed_bytes" (String.length src);
  match span "shl.parser" (fun () -> Shl.Parser.parse src) with
  | Ok e -> e
  | Error m -> failwith ("parse error: " ^ m)

let content_key ~program ~spec ~engine =
  span "key" (fun () ->
      addi "key_calls" 1;
      Obs.Ledger.content_key ~program ~spec ~engine ~version:Tfiris.version)

(* ---------- verify-corpus ---------- *)

let severities = F.[ Info; Warning; Error ]

let sev_key s = "sev." ^ F.severity_to_string s

(* [Biabd.run] with the checker's node count and summary precision kept *)
let symheap e =
  let r = Tfiris.Analysis.Biabd.check e in
  addi "symheap_nodes" r.r_steps;
  List.iter
    (fun (s : Tfiris.Analysis.Biabd.summary) ->
      addi (if s.s_exact then "exact_summaries" else "widened_summaries") 1)
    r.r_summaries;
  r.r_findings
  @ List.map
      (fun (s : Tfiris.Analysis.Biabd.summary) ->
        F.makef ~id:"symheap/summary" ~severity:F.Info ~path:s.s_path "%s"
          (Tfiris.Analysis.Biabd.summary_to_string s))
      r.r_summaries

(* The analyze stage of [tfiris verify-corpus]: every pass, one span
   each, aggregated as [Analyzer.analyze] does. *)
let analyze ~label e =
  let timings, found =
    List.fold_left
      (fun (ts, fs) (p : An.pass) ->
        let f =
          span ("analysis." ^ p.p_name) (fun () ->
              if p.p_name = "symheap" then symheap e else p.p_run e)
        in
        ({ An.t_pass = p.p_name; t_ns = 0L; t_found = List.length f } :: ts, f @ fs))
      ([], []) An.all_passes
  in
  let r =
    { An.label; timings = List.rev timings; findings = List.sort_uniq F.compare found }
  in
  let total = List.length r.findings in
  addi "findings" total;
  ( (if total = 0 then "clean" else Printf.sprintf "findings:%d" total),
    not (An.fails ~fail_on:F.Error r),
    Some (Json.to_string (Json.List [ An.report_to_json_stable r ])),
    (("findings", total)
     :: List.map (fun s -> (sev_key s, F.count_severity r.findings s)) severities)
    @ List.map (fun t -> ("pass." ^ t.An.t_pass, t.An.t_found)) r.timings )

let run_stage e =
  let outcome, st = span "shl.interp" (fun () -> Shl.Interp.exec ~fuel:10_000_000 e) in
  let consumed = [ ("steps", st.Shl.Interp.steps) ] in
  match outcome with
  | Shl.Interp.Value (v, _) ->
    ("value", true, Some (Shl.Pretty.value_to_string v), consumed)
  | Shl.Interp.Stuck (_, redex) ->
    ("stuck", false, Some (Shl.Pretty.expr_to_string redex), consumed)
  | Shl.Interp.Out_of_fuel (r, _) ->
    ("out_of_fuel:" ^ Tfiris.Robust.Budget.resource_name r, false, None, consumed)

let verify_corpus ~dir ~cache_dir ~ledger =
  let cache = Obs.Certcache.open_ ~dir:cache_dir in
  let files =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".shl")
    |> List.sort compare
    |> List.map (Filename.concat dir)
  in
  let gc0 = Obs.Telemetry.sample () in
  let append ~cmd ~label ~engine ~program ~spec ~consumed ~cached ~t0 ~verdict ~ok
      ?detail () =
    let key = content_key ~program ~spec ~engine in
    let record =
      {
        Obs.Ledger.key;
        cmd;
        label;
        engine;
        version = Tfiris.version;
        verdict;
        ok;
        detail;
        budget = None;
        consumed;
        cached;
        mem = Some (Obs.Telemetry.measure ~before:gc0 ~after:(Obs.Telemetry.sample ()));
        wall_ms = (Unix.gettimeofday () -. t0) *. 1000.;
        seed = None;
        domains = None;
        metrics = None;
        forensics = None;
      }
    in
    span "obs.ledger.append" (fun () -> Obs.Ledger.append ~path:ledger record)
  in
  let out = Buffer.create 512 in
  let lookups = ref 0 and hits = ref 0 in
  let stage ~cmd ~engine ~label ~program ~spec ~validate ~ok_of_cert compute =
    let t0 = Unix.gettimeofday () in
    incr lookups;
    let key = content_key ~program ~spec ~engine in
    match
      span "obs.certcache.find" (fun () ->
          Obs.Certcache.find cache ~key ~validate:(fun c ->
              c.Obs.Certcache.cmd = cmd && validate c))
    with
    | Some c ->
      incr hits;
      append ~cmd ~label ~engine ~program ~spec ~consumed:c.Obs.Certcache.consumed
        ~cached:true ~t0 ~verdict:c.Obs.Certcache.verdict ~ok:(ok_of_cert c)
        ?detail:c.Obs.Certcache.detail ();
      (true, c.Obs.Certcache.verdict)
    | None ->
      let verdict, ok, detail, consumed = compute () in
      let key = content_key ~program ~spec ~engine in
      span "obs.certcache.store" (fun () ->
          ignore
            (Obs.Certcache.store cache
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
                 replay = None;
               }
              : bool));
      append ~cmd ~label ~engine ~program ~spec ~consumed ~cached:false ~t0 ~verdict ~ok
        ?detail ();
      (false, verdict)
  in
  let row hit stage file verdict =
    Printf.bprintf out "%-4s %-8s %-32s %s\n"
      (if hit then "HIT" else "MISS")
      stage file verdict
  in
  let has_sevs (c : Obs.Certcache.cert) =
    List.for_all (fun s -> List.mem_assoc (sev_key s) c.consumed) severities
  in
  let errors_free (c : Obs.Certcache.cert) =
    List.for_all
      (fun s ->
        (not (F.severity_ge s F.Error)) || List.assoc_opt (sev_key s) c.consumed = Some 0)
      severities
  in
  List.iter
    (fun file ->
      let e = parse (Gen.read_file file) in
      let program = span "key" (fun () -> Shl.Pretty.expr_to_string e) in
      let hit, verdict =
        stage ~cmd:"run" ~engine:"shl.machine" ~label:file ~program ~spec:""
          ~validate:(fun _ -> true)
          ~ok_of_cert:(fun c -> c.Obs.Certcache.ok)
          (fun () -> run_stage e)
      in
      row hit "run" file verdict;
      let hit, verdict =
        stage ~cmd:"analyze" ~engine:"analysis" ~label:file ~program
          ~spec:(String.concat "," An.pass_names) ~validate:has_sevs
          ~ok_of_cert:errors_free
          (fun () -> analyze ~label:file e)
      in
      row hit "analyze" file verdict)
    files;
  Printf.bprintf out "corpus: %d programs, %d lookups, %d hits\n" (List.length files)
    !lookups !hits;
  addi "ledger_bytes" (Unix.stat ledger).Unix.st_size;
  (0, Buffer.contents out)

(* ---------- the logic drivers ---------- *)

let parse_credit = function
  | "w" -> Ord.omega
  | "w*2" -> Ord.mul Ord.omega Ord.two
  | "w^2" -> Ord.omega_pow Ord.two
  | s -> Ord.of_int (int_of_string s)

let check_term ~program ~credits =
  let module Wp = Tfiris.Termination.Wp in
  let e = parse program in
  let credits = parse_credit credits in
  ignore (span "key" (fun () -> (Shl.Pretty.expr_to_string e, Ord.to_string credits)));
  let v =
    span "termination.wp" (fun () -> Wp.run ~credits (Wp.adaptive ()) (Shl.Step.config e))
  in
  let code, st =
    match v with Wp.Terminated (_, _, st) -> (0, st) | Wp.Rejected (_, st) -> (1, st)
  in
  addi "wp_steps" st.Wp.steps;
  (code, Format.asprintf "%a\n" Wp.pp_verdict v)

let refine ~target ~source =
  let module R = Tfiris.Refinement in
  let t = parse target and s = parse source in
  let tc = Shl.Step.config t and sc = Shl.Step.config s in
  ignore
    (span "key" (fun () -> (Shl.Pretty.expr_to_string t, Shl.Pretty.expr_to_string s)));
  let fuel = 10_000_000 in
  let prefix, v =
    match
      span "refinement.strategy.oracle" (fun () ->
          R.Strategy.oracle ~fuel ~target:tc ~source:sc ())
    with
    | Some strat ->
      ( "",
        span "refinement.driver" (fun () ->
            R.Driver.run ~fuel ~target:tc ~source:sc strat) )
    | None ->
      ( "(no oracle certificate; lockstep attempt)\n",
        span "refinement.driver" (fun () ->
            R.Driver.run ~fuel ~target:tc ~source:sc R.Strategy.lockstep) )
  in
  ( (match v with R.Driver.Accepted _ -> 0 | R.Driver.Rejected _ -> 1),
    prefix ^ Format.asprintf "%a\n" R.Driver.pp_verdict v )

let explore_budget () = Tfiris.Robust.Budget.of_steps 10_000_000

let explore ~program =
  let e = parse program in
  let r =
    span "shl.conc.explore" (fun () ->
        Shl.Conc.explore ~budget:(explore_budget ()) ~domains:2 (Shl.Conc.init e))
  in
  addi "states" r.Shl.Conc.states;
  let finals =
    List.sort compare
      (List.map (fun (v, _) -> Shl.Pretty.value_to_string v) r.Shl.Conc.final_values)
  in
  let ok = r.Shl.Conc.exhausted = None && r.Shl.Conc.stuck = [] in
  ( (if ok then 0 else 1),
    String.concat ""
      (List.map (Printf.sprintf "final: %s\n") finals
      @ [ Printf.sprintf "states: %d\n" r.Shl.Conc.states ]) )

(** The same exploration on one domain, outside every span: the base of
    [shl.conc.explore.par_speedup]. *)
let par_probe (job : Gen.job) =
  match job.task with
  | Explore { program; _ } ->
    let e = Shl.Parser.parse_exn program in
    let t = Unix.gettimeofday () in
    ignore
      (Shl.Conc.explore ~budget:(explore_budget ()) ~domains:1 (Shl.Conc.init e)
        : Shl.Conc.exploration);
    add "explore_1dom_ms" ((Unix.gettimeofday () -. t) *. 1000.)
  | _ -> ()

(* ---------- ordinal descent ---------- *)

let hydra ~width ~depth ~regrow ~adversarial =
  let module H = Tfiris.Hydra in
  let h = H.bush ~width ~depth in
  let head = Format.asprintf "hydra: %a\nmeasure: %a\n" H.pp h Ord.pp (H.measure h) in
  let choose = if adversarial then H.choose_fattest else H.choose_first in
  match span "transition.hydra" (fun () -> H.play ~regrow ~choose h) with
  | Ok chops ->
    ( 0,
      head
      ^ Printf.sprintf "dead after %d chops (regrow %d, %s Hercules)\n" chops regrow
          (if adversarial then "adversarial" else "greedy") )
  | Error _ -> (1, head)

let goodstein ~n ~max_len =
  let module G = Tfiris.Goodstein in
  span "ordinal.goodstein" (fun () ->
      let b = Buffer.create 4096 in
      let ppf = Format.formatter_of_buffer b in
      List.iter
        (fun (base, v) ->
          Format.fprintf ppf "base %3d: value %-12d ordinal %a@." base v Ord.pp
            (G.ordinal_of ~base v))
        (G.sequence ~max_len n);
      (0, Buffer.contents b))

(* ---------- one job ---------- *)

let read_ledger path =
  if not (Sys.file_exists path) then []
  else
    List.filter_map
      (fun l -> if l = "" then None else Result.to_option (Json.of_string l))
      (String.split_on_char '\n' (Gen.read_file path))

(** Replay [job] in the current directory, which is the job's fresh
    working directory, as the CLI would run it there. *)
let replay ~caches (job : Gen.job) : Check.output =
  let code, stdout =
    match job.task with
    | Verify { shard; warm; _ } ->
      verify_corpus ~dir:("../gen/" ^ shard)
        ~cache_dir:(if warm then Filename.concat caches shard else "cache")
        ~ledger:"ledger.jsonl"
    | Check_term { program; credits; _ } -> check_term ~program ~credits
    | Refine { target; source; _ } -> refine ~target ~source
    | Explore { program; _ } -> explore ~program
    | Hydra { width; depth; regrow; adversarial; _ } ->
      hydra ~width ~depth ~regrow ~adversarial
    | Goodstein { n; max_len } -> goodstein ~n ~max_len
  in
  { Check.code; stdout; ledger = read_ledger "ledger.jsonl" }

(* ---------- one replay per process ---------- *)

(* What a replay process hands back: its output, spans and counts. *)
type export = {
  out : (Check.output, string) result;
  spans : span list;  (** newest first *)
  tally : (string * float) list;
}

(** In a fresh process whose working directory is the job's: replay the
    job as invocation [idx], whose CLI run took [e2e_ms], then time the
    1-domain exploration that [par_probe] adds. *)
let replay_process ~caches ~idx ~e2e_ms (job : Gen.job) : export =
  Obs.Metrics.set_enabled true;
  current_job := idx;
  let out, root =
    span_rec "job" (fun () ->
        match replay ~caches job with o -> Ok o | exception e -> Error (Printexc.to_string e))
  in
  root.e2e_ms <- e2e_ms;
  par_probe job;
  List.iter
    (function Obs.Metrics.Counter_v (n, v) -> addi n v | _ -> ())
    (Obs.Metrics.snapshot ());
  { out; spans = !recorded; tally = List.of_seq (Hashtbl.to_seq counts) }

(** Merge a replay process's spans and counts into this one's. *)
let absorb (e : export) =
  let off = !n_spans in
  let shift s =
    { s with idx = s.idx + off; parent = (if s.parent < 0 then -1 else s.parent + off) }
  in
  recorded := List.map shift e.spans @ !recorded;
  n_spans := off + List.length e.spans;
  List.iter (fun (k, x) -> add k x) e.tally

(* ---------- per-layer metrics ---------- *)

(* Every per-layer metric with its unit.  Times are ms per job, counts
   and allocation are per pass of the job list (so exact counts repeat
   exactly), rates are over the whole run. *)
let metrics_spec =
  [
    ("process.spawn_ms", "ms"); ("cli.unattributed_ms", "ms");
    ("shl.parser.self_ms", "ms"); ("shl.parser.mb_per_s", "MB/s");
    ("key.self_ms", "ms"); ("key.calls", "count");
    ("obs.certcache.find.self_ms", "ms"); ("obs.certcache.store.self_ms", "ms");
    ("obs.certcache.hit_ratio", "ratio"); ("obs.certcache.corrupt", "count");
    ("obs.ledger.append.self_ms", "ms"); ("obs.ledger.bytes", "bytes");
    ("shl.interp.steps", "count"); ("shl.interp.self_ms", "ms");
    ("shl.interp.msteps_per_s", "Msteps/s");
    ("analysis.scope.self_ms", "ms"); ("analysis.constprop.self_ms", "ms");
    ("analysis.interval.self_ms", "ms"); ("analysis.term.self_ms", "ms");
    ("analysis.races.self_ms", "ms"); ("analysis.symheap.self_ms", "ms");
    ("analysis.findings", "count"); ("analysis.symheap.nodes", "count");
    ("analysis.symheap.exact_summaries", "count");
    ("analysis.symheap.widened_summaries", "count");
    ("termination.wp.self_ms", "ms"); ("termination.wp.steps", "count");
    ("termination.wp.credit_spends", "count");
    ("refinement.strategy.oracle.self_ms", "ms"); ("refinement.driver.self_ms", "ms");
    ("refinement.driver.target_steps", "count");
    ("refinement.driver.source_steps", "count");
    ("refinement.driver.stutters", "count");
    ("shl.conc.explore.self_ms", "ms"); ("shl.conc.explore.states", "count");
    ("shl.conc.explore.kstates_per_s", "kstates/s");
    ("shl.conc.explore.par_speedup", "ratio");
    ("transition.hydra.self_ms", "ms"); ("ordinal.goodstein.self_ms", "ms");
    ("ordinal.hsum", "count"); ("ordinal.compare", "count"); ("ordinal.add", "count");
    ("ordinal.hprod", "count");
    ("shl.parser.alloc_mwords", "Mwords"); ("shl.interp.alloc_mwords", "Mwords");
    ("analysis.symheap.alloc_mwords", "Mwords");
    ("termination.wp.alloc_mwords", "Mwords");
    ("refinement.driver.alloc_mwords", "Mwords");
    ("shl.conc.explore.alloc_mwords", "Mwords");
    ("transition.hydra.alloc_mwords", "Mwords"); ("trace.coverage", "ratio");
  ]

(** The per-layer table for the jobs replayed over [passes] passes,
    given the measured process round trip. *)
let metrics ~passes ~spawn_ms : (string * float) list =
  let spans = Array.of_list (List.rev !recorded) in
  let roots = List.filter (fun s -> s.parent = -1) (Array.to_list spans) in
  let jobs = List.length roots in
  let e2e_ms = List.fold_left (fun acc s -> acc +. s.e2e_ms) 0. roots in
  let child = Array.make (Array.length spans) 0. in
  Array.iter
    (fun s -> if s.parent >= 0 then child.(s.parent) <- child.(s.parent) +. dur s)
    spans;
  let self name =
    Array.fold_left
      (fun acc s -> if s.name = name then acc +. dur s -. child.(s.idx) else acc)
      0. spans
  in
  let total name =
    Array.fold_left (fun acc s -> if s.name = name then acc +. dur s else acc) 0. spans
  in
  let alloc name =
    Array.fold_left (fun acc s -> if s.name = name then acc + s.alloc_w else acc) 0 spans
  in
  let fp = float_of_int passes and fj = float_of_int (max 1 jobs) in
  let per_pass x = x /. fp in
  let per_job x = x /. fj in
  let count name = per_pass (get name) in
  let rate x ms scale = if ms > 0. then x /. (ms /. 1000.) /. scale else 0. in
  let traced = total "job" in
  let hits = get "cache.hit" and misses = get "cache.miss" in
  let interp_steps =
    Hashtbl.fold
      (fun k x acc -> if String.starts_with ~prefix:"shl.interp.steps." k then acc +. x else acc)
      counts 0.
  in
  let explore_ms = total "shl.conc.explore" in
  let spawn_total = spawn_ms *. float_of_int jobs in
  let m =
    [
      ("process.spawn_ms", spawn_ms);
      ("cli.unattributed_ms", per_job (e2e_ms -. spawn_total -. traced));
      ("shl.parser.self_ms", per_job (self "shl.parser"));
      ("shl.parser.mb_per_s", rate (get "parsed_bytes") (self "shl.parser") 1e6);
      ("key.self_ms", per_job (self "key"));
      ("key.calls", count "key_calls");
      ("obs.certcache.find.self_ms", per_job (self "obs.certcache.find"));
      ("obs.certcache.store.self_ms", per_job (self "obs.certcache.store"));
      ( "obs.certcache.hit_ratio",
        if hits +. misses > 0. then hits /. (hits +. misses) else 0. );
      ("obs.certcache.corrupt", count "cache.corrupt");
      ("obs.ledger.append.self_ms", per_job (self "obs.ledger.append"));
      ("obs.ledger.bytes", count "ledger_bytes");
      ("shl.interp.steps", per_pass interp_steps);
      ("shl.interp.self_ms", per_job (self "shl.interp"));
      ("shl.interp.msteps_per_s", rate interp_steps (self "shl.interp") 1e6);
    ]
    @ List.map
        (fun p ->
          (Printf.sprintf "analysis.%s.self_ms" p, per_job (self ("analysis." ^ p))))
        An.pass_names
    @ [
        ("analysis.findings", count "findings");
        ("analysis.symheap.nodes", count "symheap_nodes");
        ("analysis.symheap.exact_summaries", count "exact_summaries");
        ("analysis.symheap.widened_summaries", count "widened_summaries");
        ("termination.wp.self_ms", per_job (self "termination.wp"));
        ("termination.wp.steps", count "wp_steps");
        ("termination.wp.credit_spends", count "termination.wp.credit_spends");
        ( "refinement.strategy.oracle.self_ms",
          per_job (self "refinement.strategy.oracle") );
        ("refinement.driver.self_ms", per_job (self "refinement.driver"));
        ("refinement.driver.target_steps", count "refinement.driver.target_steps");
        ("refinement.driver.source_steps", count "refinement.driver.source_steps");
        ("refinement.driver.stutters", count "refinement.driver.stutters");
        ("shl.conc.explore.self_ms", per_job (self "shl.conc.explore"));
        ("shl.conc.explore.states", count "states");
        ("shl.conc.explore.kstates_per_s", rate (get "states") explore_ms 1e3);
        ( "shl.conc.explore.par_speedup",
          if explore_ms > 0. then get "explore_1dom_ms" /. explore_ms else 0. );
        ("transition.hydra.self_ms", per_job (self "transition.hydra"));
        ("ordinal.goodstein.self_ms", per_job (self "ordinal.goodstein"));
        ("ordinal.hsum", count "ordinal.hsum");
        ("ordinal.compare", count "ordinal.compare");
        ("ordinal.add", count "ordinal.add");
        ("ordinal.hprod", count "ordinal.hprod");
      ]
    @ List.map
        (fun (metric, layer) ->
          (metric, per_pass (float_of_int (alloc layer)) /. 1e6))
        [
          ("shl.parser.alloc_mwords", "shl.parser");
          ("shl.interp.alloc_mwords", "shl.interp");
          ("analysis.symheap.alloc_mwords", "analysis.symheap");
          ("termination.wp.alloc_mwords", "termination.wp");
          ("refinement.driver.alloc_mwords", "refinement.driver");
          ("shl.conc.explore.alloc_mwords", "shl.conc.explore");
          ("transition.hydra.alloc_mwords", "transition.hydra");
        ]
    @ [
        ( "trace.coverage",
          if e2e_ms > 0. then (spawn_total +. traced) /. e2e_ms else 0. );
      ]
  in
  assert (List.map fst m = List.map fst metrics_spec);
  m

(** Every span, written once at exit. *)
let trace_json ~workload ~seed : Json.t =
  let base = match List.rev !recorded with s :: _ -> s.t0 | [] -> 0. in
  Json.Obj
    [
      ("schema", Json.Str "tfiris-verdicts-trace/1");
      ("workload", Json.Str workload);
      ("seed", Json.Int seed);
      ( "spans",
        Json.List
          (List.rev_map
             (fun s ->
               Json.Obj
                 [
                   ("name", Json.Str s.name);
                   ("job", Json.Int s.job);
                   ("parent", Json.Int s.parent);
                   ("start_ms", Json.Float ((s.t0 -. base) *. 1000.));
                   ("dur_ms", Json.Float (dur s));
                   ("e2e_ms", Json.Float s.e2e_ms);
                   ("alloc_w", Json.Int s.alloc_w);
                 ])
             !recorded) );
    ]
