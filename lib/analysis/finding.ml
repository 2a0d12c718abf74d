(** The shared diagnostics core of the static analyzer.

    Every pass reports {e findings}: a stable identifier
    (["pass/defect"]), a severity, a human message, and the
    {!Tfiris_shl.Path} of the offending subexpression.  The analyzer
    driver aggregates findings across passes, renders them as text or
    JSON, and maps the maximum severity to an exit code. *)

module Path = Tfiris_shl.Path
module Json = Tfiris_obs.Json

type severity =
  | Info
  | Warning
  | Error

let severity_to_string = function
  | Info -> "info"
  | Warning -> "warning"
  | Error -> "error"

(* Info < Warning < Error *)
let severity_rank = function Info -> 0 | Warning -> 1 | Error -> 2

let severity_ge a b = severity_rank a >= severity_rank b

type t = {
  id : string;  (** stable identifier, e.g. ["scope/unbound-var"] *)
  severity : severity;
  path : Path.t;
  message : string;
}

let make ~id ~severity ~path message = { id; severity; path; message }

let makef ~id ~severity ~path fmt =
  Format.kasprintf (fun message -> { id; severity; path; message }) fmt

(* Sort order: most severe first, then by position, then by id, then by
   message — the order reports are rendered in.  Total on the whole
   record, so [List.sort_uniq compare] doubles as deduplication of
   identical findings across passes. *)
let compare a b =
  let c = Stdlib.compare (severity_rank b.severity) (severity_rank a.severity) in
  if c <> 0 then c
  else
    let c = Path.compare a.path b.path in
    if c <> 0 then c
    else
      let c = String.compare a.id b.id in
      if c <> 0 then c else String.compare a.message b.message

let pp ppf f =
  Format.fprintf ppf "%-7s %-28s %-24s %s"
    (severity_to_string f.severity)
    f.id
    (Path.to_string f.path)
    f.message

let to_string f = Format.asprintf "%a" pp f

let to_json (f : t) : Json.t =
  Json.Obj
    [
      ("id", Json.Str f.id);
      ("severity", Json.Str (severity_to_string f.severity));
      ("path", Json.Str (Path.to_string f.path));
      ("message", Json.Str f.message);
    ]

(** Highest severity present, [None] on an empty report. *)
let max_severity (fs : t list) : severity option =
  List.fold_left
    (fun acc f ->
      match acc with
      | None -> Some f.severity
      | Some s -> if severity_ge f.severity s then Some f.severity else acc)
    None fs

let count_severity (fs : t list) (s : severity) : int =
  List.length (List.filter (fun f -> f.severity = s) fs)
