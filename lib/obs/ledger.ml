(** The append-only cross-run ledger ([tfiris-run/2]).

    Verdicts here are deterministic proof-style artifacts: the same
    program, spec and engine either terminates with the same answer or
    something changed.  That makes every CLI invocation worth recording
    — the ledger is one JSON object per line, appended by
    [run]/[check-term]/[refine]/[analyze]/[chaos], and consumed by
    [tfiris report] to trend wall time per entry and to diff two
    ledgers for verdict flips.

    Each record is addressed by a {e content key}: the hex digest of
    (pretty-printed program, spec/strategy, engine id, tool version).
    Two runs share a key exactly when they should produce the same
    verdict, so a key is also a valid {e cache} key — the certificate
    cache (ROADMAP item 3) is designed to reuse this discipline, which
    is why the key deliberately excludes budgets, seeds and
    observability settings (they affect {e whether} a verdict is
    reached, never {e which}).

    The digest is MD5 via the stdlib [Digest] — collision resistance is
    irrelevant here (the ledger is not adversarial), stability across
    OCaml versions and platforms is what matters, and the canonical
    pre-image uses [\x00] separators so field boundaries cannot be
    confused. *)

let schema = "tfiris-run/2"

(** No values: see {!record.domains}. *)
type retired = |

type record = {
  key : string;  (** content address, see {!content_key} *)
  cmd : string;  (** CLI subcommand: run, check-term, refine, … *)
  label : string;  (** human handle: file name or truncated source *)
  engine : string;  (** e.g. ["shl.machine"], ["termination.wp/adaptive"] *)
  version : string;  (** tool version the verdict was produced by *)
  verdict : string;  (** e.g. ["value"], ["terminated"], ["rejected:beta"] *)
  ok : bool;  (** did the command succeed (exit code 0)? *)
  wall_ms : float;
  consumed : (string * int) list;
      (** budget consumption, e.g. [("steps", 412)] *)
  cached : bool;
      (** the verdict was replayed from the certificate cache instead
          of re-computed.  Key-neutral on purpose: a cached record and
          the original share a content key (same program, spec, engine,
          version ⇒ same verdict), so [report --diff] never sees a
          flip from cache replay — only wall time changes *)
  mem : Telemetry.mem option;
      (** GC/allocation delta over the run ({!Telemetry.measure}) *)
  detail : string option;  (** free-form, e.g. the final value *)
  budget : Json.t option;  (** the budget the run was given *)
  seed : int option;
  domains : retired option;
      (** always [None].  The [domains] block it once held is neither
          written nor read: older lines that carry one still load, since
          {!of_json} ignores members it does not know.  The field stays
          only because the time-to-verdict harness's record literal
          ([bench/verdicts/layers.ml]) names it; it goes with the
          [--domains] shims (ROADMAP item 1) *)
  metrics : Json.t option;  (** {!Metrics.to_json} snapshot if metrics on *)
  forensics : Json.t option;
      (** pointer into the forensics report on rejection *)
}

(* ---------- content keys ---------- *)

(* The key pre-image is pinned to the original "tfiris-run/1" tag on
   purpose: content addresses must survive record-schema bumps (the
   [mem] block changed how runs are {e described}, not what they
   {e are}), or every schema revision would invalidate the certificate
   cache keyed on these digests. *)
let key_domain = "tfiris-run/1"

let content_key ~program ~spec ~engine ~version =
  Digest.to_hex
    (Digest.string
       (String.concat "\x00" [ key_domain; program; spec; engine; version ]))

(* ---------- JSON (field order is fixed; golden-tested) ---------- *)

let to_json (r : record) : Json.t =
  let opt name f = function None -> [] | Some v -> [ (name, f v) ] in
  Json.Obj
    ([
       ("schema", Json.Str schema);
       ("key", Json.Str r.key);
       ("cmd", Json.Str r.cmd);
       ("label", Json.Str r.label);
       ("engine", Json.Str r.engine);
       ("version", Json.Str r.version);
       ("verdict", Json.Str r.verdict);
       ("ok", Json.Bool r.ok);
       ("wall_ms", Json.Float r.wall_ms);
       ("consumed", Json.Obj (List.map (fun (k, n) -> (k, Json.Int n)) r.consumed));
     ]
    (* [cached] is emitted only when true: every pre-cache record stays
       byte-identical, and the goldens pinning them keep holding *)
    @ (if r.cached then [ ("cached", Json.Bool true) ] else [])
    @ opt "mem" Telemetry.to_json r.mem
    @ opt "detail" (fun s -> Json.Str s) r.detail
    @ opt "budget" Fun.id r.budget
    @ opt "seed" (fun n -> Json.Int n) r.seed
    @ opt "metrics" Fun.id r.metrics
    @ opt "forensics" Fun.id r.forensics)

let of_json (j : Json.t) : (record, string) result =
  let ( let* ) = Result.bind in
  let req name conv =
    match Option.bind (Json.member name j) conv with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "missing or ill-typed field %S" name)
  in
  let opt name conv = Option.bind (Json.member name j) conv in
  let* s = req "schema" Json.to_str in
  if s <> schema then
    Error (Printf.sprintf "unknown ledger schema %S" s)
  else
    let* key = req "key" Json.to_str in
    let* cmd = req "cmd" Json.to_str in
    let* label = req "label" Json.to_str in
    let* engine = req "engine" Json.to_str in
    let* version = req "version" Json.to_str in
    let* verdict = req "verdict" Json.to_str in
    let* ok = req "ok" Json.to_bool in
    let* wall_ms = req "wall_ms" Json.to_float in
    (* a corrupt count must poison the load like every other field —
       silently dropping it would let [report --diff] compare a run
       whose consumption record was mangled as if it consumed nothing *)
    let* consumed =
      match Json.member "consumed" j with
      | Some (Json.Obj kvs) ->
        List.fold_left
          (fun acc (k, v) ->
            let* acc = acc in
            match Json.to_int v with
            | Some n -> Ok ((k, n) :: acc)
            | None ->
              Error (Printf.sprintf "ill-typed \"consumed\" entry %S" k))
          (Ok []) kvs
        |> Result.map List.rev
      | Some _ -> Error "ill-typed field \"consumed\""
      | None -> Ok []
    in
    let* cached =
      match Json.member "cached" j with
      | None -> Ok false
      | Some (Json.Bool b) -> Ok b
      | Some _ -> Error "ill-typed field \"cached\""
    in
    Ok
      {
        key;
        cmd;
        label;
        engine;
        version;
        verdict;
        ok;
        wall_ms;
        consumed;
        cached;
        mem = Option.bind (Json.member "mem" j) Telemetry.of_json;
        detail = opt "detail" Json.to_str;
        budget = Json.member "budget" j;
        seed = opt "seed" Json.to_int;
        domains = None;
        metrics = Json.member "metrics" j;
        forensics = Json.member "forensics" j;
      }

(* ---------- file IO ---------- *)

(** Append one record to the JSONL file at [path], creating it if
    needed.  The whole line (record + newline) goes out in a single
    [write(2)] on an [O_APPEND] descriptor, which POSIX makes atomic
    with respect to other appenders on a regular file — so concurrent
    writers (two CLI processes, say two corpus shards sharing a ledger)
    interleave whole lines, never bytes, and the resulting file always
    loads.  One open/write/close per CLI invocation — the ledger is
    written at most once per process, so there is nothing to batch.

    The write retries on [EINTR] and on short writes until the whole
    line is out (a signal landing mid-append must not lose the record);
    genuine I/O failures escape as [Unix.Unix_error], which the
    {!Tfiris_robust.Failure} taxonomy classifies as a structured
    [Io_error] at the CLI boundary — exit 2, never a backtrace.

    Note the short-write caveat: if the line does get split across
    multiple [write(2)]s (only possible on a disk-full or quota
    boundary for regular files), the atomicity guarantee above is lost
    for that one line — but the record is still written completely,
    which beats the old behaviour of dying with an unstructured
    [Failure "short write"] and losing it. *)
let append ~path (r : record) =
  let line = Json.to_line (to_json r) in
  let fd =
    Unix.openfile path [ Unix.O_WRONLY; Unix.O_APPEND; Unix.O_CREAT ] 0o644
  in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      let len = Bytes.length line in
      let rec go pos =
        if pos < len then
          let n =
            try Unix.write fd line pos (len - pos)
            with Unix.Unix_error (Unix.EINTR, _, _) -> 0
          in
          go (pos + n)
      in
      go 0)

(** Read a whole ledger back; blank lines are skipped, anything else
    that fails to parse poisons the load with a line-numbered error
    (a corrupt ledger should be noticed, not silently truncated). *)
let load ~path : (record list, string) result =
  match open_in path with
  | exception Sys_error m -> Error m
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let rec go n acc =
          match input_line ic with
          | exception End_of_file -> Ok (List.rev acc)
          | line when String.trim line = "" -> go (n + 1) acc
          | line -> (
            match Json.of_string line with
            | Error m -> Error (Printf.sprintf "%s:%d: %s" path n m)
            | Ok j -> (
              match of_json j with
              | Error m -> Error (Printf.sprintf "%s:%d: %s" path n m)
              | Ok r -> go (n + 1) (r :: acc)))
        in
        go 1 [])
