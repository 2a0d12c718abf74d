(** One verdict pipeline: cache lookup, computation, cache store and
    ledger record, shared by every verdict-producing front end (the CLI
    subcommands, [verify-corpus], the bench).

    A job computes an {!outcome}, the payload a certificate
    ([tfiris-cert/1]) and a run-ledger record ([tfiris-run/2]) both
    carry.  {!run} either replays the outcome from the certificate
    cache or computes, stores and records it; either way the caller
    renders the outcome it gets back with one function, so a warm
    replay prints what the cold run printed by construction. *)

module Certcache = Tfiris_obs.Certcache
module Ledger = Tfiris_obs.Ledger
module Json = Tfiris_obs.Json
module Metrics = Tfiris_obs.Metrics
module Telemetry = Tfiris_obs.Telemetry
module Forensics = Tfiris_obs.Forensics
module Budget = Tfiris_robust.Budget
module Finding = Tfiris_analysis.Finding
module Analyzer = Tfiris_analysis.Analyzer
module Interp = Tfiris_shl.Interp
module Pretty = Tfiris_shl.Pretty

let version = "1.0.0"

(** The bound a verdict command runs under when no [--budget] is
    given: 10{^7} steps. *)
let default_budget = Budget.of_steps 10_000_000

type outcome = {
  engine : string;
      (** the engine id the verdict came from (part of the content key) *)
  verdict : string;
  ok : bool;
  detail : string option;
  consumed : (string * int) list;
}

(* GC baseline for the whole process, taken at module initialisation:
   a record's [mem] block is the delta from here to the append. *)
let gc0 = Telemetry.sample ()

let mem () = Telemetry.measure ~before:gc0 ~after:(Telemetry.sample ())

let session = Certcache.session

let forensics_pointer () =
  match Forensics.last () with
  | None -> None
  | Some r ->
    Some
      (Json.Obj
         [
           ("component", Json.Str r.Forensics.r_component);
           ("rule", Json.Str r.Forensics.r_rule);
           ("step", Json.Int r.Forensics.r_step);
         ])

let content_key ~program ~spec engine =
  Ledger.content_key ~program ~spec ~engine ~version

let record ~path ~key ~cmd ~label ?budget ~cached ~t0 (o : outcome) =
  Ledger.append ~path
    {
      Ledger.key;
      cmd;
      label;
      engine = o.engine;
      version;
      verdict = o.verdict;
      ok = o.ok;
      detail = o.detail;
      budget = Option.map Budget.to_json budget;
      consumed = o.consumed;
      cached;
      mem = Some (mem ());
      wall_ms = (Unix.gettimeofday () -. t0) *. 1000.;
      seed = None;
      domains = None;
      metrics =
        (if Metrics.on () then Some (Metrics.to_json (Metrics.snapshot ()))
         else None);
      forensics = (if o.ok then None else forensics_pointer ());
    }

(** Append one ledger record for an outcome that is never cached. *)
let append ?ledger ~cmd ~label ~program ~spec ?budget ~t0
    (o : outcome) =
  Option.iter
    (fun path ->
      record ~path
        ~key:(content_key ~program ~spec o.engine)
        ~cmd ~label ?budget ~cached:false ~t0 o)
    ledger

(** [run ?cache ?ledger ~cmd ~engines ~label ~program ~spec ~replay
    compute]: the outcome of one job, and [compute]'s by-product when it
    ran ([None] on a cache hit).

    - The content key of (program, spec, engine, version) is computed
      once per engine id, and only when a cache or ledger needs it.
      [engines] lists the ids the job can report; only refinement has
      two, because which strategy certifies the pair is itself an
      outcome of the run.
    - The cache in directory [cache] is consulted only when [replay]
      holds, that is, when the caller's rendering needs nothing a
      certificate cannot hold.  A stored outcome of another command,
      or one [adapt] rejects, is a corrupt miss; [adapt] also fits a
      stored outcome to this invocation (analyze's exit under its
      [--fail-on]).
    - On a hit the outcome is replayed (with a [tfiris: cache hit]
      note on stderr unless [announce] is false); on a miss [compute]
      runs and its outcome is stored.  Either way one ledger record is
      appended, marked [cached] on a hit; it leaves out the detail when
      [record_detail] is false (analyze's multi-program report). *)
let run ?cache ?ledger ?budget ?(announce = true) ?(adapt = Option.some)
    ?(record_detail = true) ~cmd ~engines ~label ~program ~spec ~replay
    (compute : unit -> outcome * 'a) : outcome * 'a option =
  let t0 = Unix.gettimeofday () in
  let cache = Option.map (fun dir -> Certcache.open_ ~dir) cache in
  let keys =
    List.map (fun e -> (e, lazy (content_key ~program ~spec e))) engines
  in
  let key engine =
    match List.assoc_opt engine keys with
    | Some k -> Lazy.force k
    | None -> content_key ~program ~spec engine
  in
  let of_cert (c : Certcache.cert) =
    {
      engine = c.Certcache.engine;
      verdict = c.Certcache.verdict;
      ok = c.Certcache.ok;
      detail = c.Certcache.detail;
      consumed = c.Certcache.consumed;
    }
  in
  let replayed =
    match cache with
    | Some t when replay ->
      List.find_map
        (fun (_, key) ->
          Option.bind
            (Certcache.find t ~key:(Lazy.force key) ~validate:(fun c ->
                 c.Certcache.cmd = cmd && adapt (of_cert c) <> None))
            (fun c -> adapt (of_cert c)))
        keys
    | _ -> None
  in
  let o, fresh =
    match replayed with
    | Some o ->
      if announce then
        Format.eprintf "tfiris: cache hit (%s, %s)@." o.engine o.verdict;
      (o, None)
    | None ->
      let o, x = compute () in
      Option.iter
        (fun t ->
          ignore
            (Certcache.store t
               {
                 Certcache.key = key o.engine;
                 cmd;
                 label;
                 engine = o.engine;
                 version;
                 verdict = o.verdict;
                 ok = o.ok;
                 detail = o.detail;
                 consumed = o.consumed;
                 replay = (if o.ok then None else forensics_pointer ());
               }
              : bool))
        cache;
      (o, Some x)
  in
  Option.iter
    (fun path ->
      record ~path ~key:(key o.engine) ~cmd ~label ?budget
        ~cached:(fresh = None) ~t0
        (if record_detail then o else { o with detail = None }))
    ledger;
  (o, fresh)

(* ---------- the two stages verify-corpus runs ---------- *)

(** The run stage: an interpreter result as an outcome (the final value
    or the stuck redex is the detail, the step count is consumed). *)
let exec_outcome ~engine ((r, st) : Interp.outcome * Interp.stats) : outcome =
  let verdict, ok, detail =
    match r with
    | Interp.Value (v, _) -> ("value", true, Some (Pretty.value_to_string v))
    | Interp.Stuck (_, redex) -> ("stuck", false, Some (Pretty.expr_to_string redex))
    | Interp.Out_of_fuel (res, _) ->
      ("out_of_fuel:" ^ Budget.resource_name res, false, None)
  in
  { engine; verdict; ok; detail; consumed = [ ("steps", st.Interp.steps) ] }

let all_severities = Finding.[ Info; Warning; Error ]

let sev_key s = "sev." ^ Finding.severity_to_string s

(* [ok] under [fail_on]: no finding at or above it, per the sev.*
   counts.  The content key excludes --fail-on, so a replay judges the
   stored counts against the replaying invocation's threshold. *)
let sev_ok ~fail_on consumed =
  List.for_all
    (fun s ->
      (not (Finding.severity_ge s fail_on))
      || List.assoc_opt (sev_key s) consumed = Some 0)
    all_severities

(** A stored analyze outcome judged under [fail_on]; [None] when it
    lacks the per-severity counts that judgement needs. *)
let under_fail_on ~fail_on (o : outcome) =
  if List.for_all (fun s -> List.mem_assoc (sev_key s) o.consumed) all_severities
  then Some { o with ok = sev_ok ~fail_on o.consumed }
  else None

(** The analyze stage: the reports as one outcome.  The detail is the
    json-stable rendering; consumed holds the finding total, the
    per-severity counts and the per-pass counts of [passes]. *)
let analyze_outcome ~fail_on ~passes (reports : Analyzer.report list) :
    outcome =
  let findings = List.concat_map (fun r -> r.Analyzer.findings) reports in
  let total = List.length findings in
  let per_pass =
    List.map
      (fun p ->
        ( "pass." ^ p,
          List.fold_left
            (fun acc r ->
              List.fold_left
                (fun acc t ->
                  if t.Analyzer.t_pass = p then acc + t.Analyzer.t_found
                  else acc)
                acc r.Analyzer.timings)
            0 reports ))
      passes
  in
  let consumed =
    (("findings", total)
    :: List.map (fun s -> (sev_key s, Finding.count_severity findings s))
         all_severities)
    @ per_pass
  in
  {
    engine = "analysis";
    verdict = (if total = 0 then "clean" else Printf.sprintf "findings:%d" total);
    ok = sev_ok ~fail_on consumed;
    detail =
      Some
        (Json.to_string
           (Json.List (List.map Analyzer.report_to_json_stable reports)));
    consumed;
  }
