(** The analyzer driver: runs the registered passes over a program,
    aggregates their findings, and renders the report.

    Passes are independent and individually selectable (the CLI's
    [--pass]/[--no-pass]); each run records its wall time in the
    [analysis.pass.<name>.wall_ns] histogram and bumps the
    [analysis.findings.<severity>] counters in {!Tfiris_obs.Metrics},
    so analysis cost shows up in the same observability surface as the
    interpreters'. *)

module F = Finding
module Json = Tfiris_obs.Json
module Metrics = Tfiris_obs.Metrics
module Span = Tfiris_obs.Span

type pass = {
  p_name : string;
  p_doc : string;
  p_run : Tfiris_shl.Ast.expr -> F.t list;
}

let all_passes : pass list =
  [
    {
      p_name = "scope";
      p_doc = "unbound variables, shadowing, unused lets, stuck shapes";
      p_run = Scope.run;
    };
    {
      p_name = "constprop";
      p_doc = "constant propagation: unreachable branches, stuck constants";
      p_run = Domains.constprop;
    };
    {
      p_name = "interval";
      p_doc = "integer intervals: division by zero, negative +l offsets";
      p_run = Domains.interval;
    };
    {
      p_name = "term";
      p_doc = "termination-measure inference over recursive functions";
      p_run = Term_measure.run;
    };
    {
      p_name = "races";
      p_doc = "static data races between forked threads";
      p_run = Races.run;
    };
    {
      p_name = "symheap";
      p_doc = "symbolic heaps: memory errors, leaks, bi-abduced summaries";
      p_run = Biabd.run;
    };
  ]

let pass_names = List.map (fun p -> p.p_name) all_passes

(* ---------- observability ---------- *)

let m_info = Metrics.counter "analysis.findings.info"
let m_warning = Metrics.counter "analysis.findings.warning"
let m_error = Metrics.counter "analysis.findings.error"
let m_programs = Metrics.counter "analysis.programs"

let pass_hist =
  List.map
    (fun n -> (n, Metrics.histogram ("analysis.pass." ^ n ^ ".wall_ns")))
    pass_names

(* ---------- reports ---------- *)

type timing = {
  t_pass : string;
  t_ns : int64;
  t_found : int;
}

type report = {
  label : string;
  timings : timing list;  (** in pass order *)
  findings : F.t list;  (** sorted, most severe first *)
}

(** Run [passes] (default: all) over [e]. *)
let analyze ?(passes = pass_names) ?(label = "<expr>") (e : Tfiris_shl.Ast.expr)
    : report =
  Metrics.incr m_programs;
  let selected =
    List.filter (fun p -> List.mem p.p_name passes) all_passes
  in
  let timings, findings =
    List.fold_left
      (fun (ts, fs) p ->
        let found, dt =
          Span.timed
            ~hist:(List.assoc p.p_name pass_hist)
            ("analysis." ^ p.p_name)
            (fun () -> p.p_run e)
        in
        ( { t_pass = p.p_name; t_ns = dt; t_found = List.length found } :: ts,
          found @ fs ))
      ([], []) selected
  in
  (* Dedupe identical findings across passes and sort deterministically
     (the order goldens rely on). *)
  let findings = List.sort_uniq F.compare findings in
  List.iter
    (fun (f : F.t) ->
      Metrics.incr
        (match f.F.severity with
        | F.Info -> m_info
        | F.Warning -> m_warning
        | F.Error -> m_error))
    findings;
  { label; timings = List.rev timings; findings }

let max_severity (r : report) = F.max_severity r.findings

(** [true] when the report contains a finding at or above [fail_on]. *)
let fails ~(fail_on : F.severity) (r : report) =
  match max_severity r with
  | None -> false
  | Some s -> F.severity_ge s fail_on

(* ---------- rendering ---------- *)

let render_text ?(timings = false) ppf (r : report) =
  let errors = F.count_severity r.findings F.Error in
  let warnings = F.count_severity r.findings F.Warning in
  let infos = F.count_severity r.findings F.Info in
  Format.fprintf ppf "@[<v>%s: %d error%s, %d warning%s, %d info@,"
    r.label errors
    (if errors = 1 then "" else "s")
    warnings
    (if warnings = 1 then "" else "s")
    infos;
  List.iter (fun f -> Format.fprintf ppf "  %a@," F.pp f) r.findings;
  if timings then
    List.iter
      (fun t ->
        Format.fprintf ppf "  pass %-10s %8.3f ms  %d finding%s@," t.t_pass
          (Int64.to_float t.t_ns /. 1e6)
          t.t_found
          (if t.t_found = 1 then "" else "s"))
      r.timings;
  Format.fprintf ppf "@]"

let report_to_json (r : report) : Json.t =
  Json.Obj
    [
      ("program", Json.Str r.label);
      ("findings", Json.List (List.map F.to_json r.findings));
      ( "counts",
        Json.Obj
          [
            ("error", Json.Int (F.count_severity r.findings F.Error));
            ("warning", Json.Int (F.count_severity r.findings F.Warning));
            ("info", Json.Int (F.count_severity r.findings F.Info));
          ] );
      ( "passes",
        Json.List
          (List.map
             (fun t ->
               Json.Obj
                 [
                   ("name", Json.Str t.t_pass);
                   ("wall_ns", Json.Int (Int64.to_int t.t_ns));
                   ("findings", Json.Int t.t_found);
                 ])
             r.timings) );
    ]

(** JSON without volatile fields (timings) — the golden-test form. *)
let report_to_json_stable (r : report) : Json.t =
  Json.Obj
    [
      ("program", Json.Str r.label);
      ("findings", Json.List (List.map F.to_json r.findings));
      ( "counts",
        Json.Obj
          [
            ("error", Json.Int (F.count_severity r.findings F.Error));
            ("warning", Json.Int (F.count_severity r.findings F.Warning));
            ("info", Json.Int (F.count_severity r.findings F.Info));
          ] );
    ]
