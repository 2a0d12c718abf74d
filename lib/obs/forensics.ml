(** Failure forensics: bounded step history + structured post-mortems.

    The certified drivers ({!Tfiris.Refinement.Driver}, which also
    plays {!Tfiris.Refinement.Conc_refine}'s games, and
    {!Tfiris.Termination.Wp}) reject
    bad derivations by construction — but a bare [Rejected] does not
    say {e which} step died or what the machine looked like when it
    did.  With forensics enabled, each driver keeps a bounded ring of
    its most recent step records (configurations, budgets, credit
    deltas) and, on rejection, publishes a {!report}: the violated
    rule, the failing step number, and the last-[k] step window.

    Reports serialize to a {b stable} JSON form (no timestamps, no
    machine-dependent fields), so tests can golden-match the exact
    post-mortem a known-bad derivation produces, and the CLI's
    [--explain] can print it for humans or tools.

    Like tracing and metrics, recording is off by default.  A driver
    run gets its ring from {!Span.run}, which arms one only while {!on}
    and makes it at the first frame; the drivers' hot paths check {!Span.recording} before they
    build a frame. *)

(* ---------- switch ---------- *)

let enabled = ref false

let on () = !enabled

let set_enabled b = enabled := b

(* ---------- step frames and the ring ---------- *)

type frame = {
  f_step : int;  (** the driver's step number *)
  f_label : string;  (** what kind of step this was, e.g. ["decide"] *)
  f_data : (string * Json.t) list;  (** structured details, stable order *)
}

type ring = {
  cap : int;
  buf : frame option array;
  mutable next : int;
  mutable total : int;
}

let ring ?(capacity = 12) () : ring =
  if capacity <= 0 then invalid_arg "Forensics.ring: capacity must be positive";
  { cap = capacity; buf = Array.make capacity None; next = 0; total = 0 }

let push (r : ring) (f : frame) =
  r.buf.(r.next) <- Some f;
  r.next <- (r.next + 1) mod r.cap;
  r.total <- r.total + 1

(** Recorded frames, oldest first (at most [capacity] of them). *)
let frames (r : ring) : frame list =
  let n = min r.total r.cap in
  let start = if r.total <= r.cap then 0 else r.next in
  List.init n (fun i -> Option.get r.buf.((start + i) mod r.cap))

let recorded (r : ring) = r.total

(* ---------- reports ---------- *)

type report = {
  r_component : string;  (** e.g. ["refinement.driver"] *)
  r_rule : string;  (** the violated rule, e.g. ["budget_not_decreasing"] *)
  r_step : int;  (** the step at which the derivation died *)
  r_reason : string;  (** human-readable rejection message *)
  r_attrs : (string * Json.t) list;  (** run context: strategy, totals *)
  r_frames : frame list;  (** the last-[k] steps, oldest first *)
  r_dropped : int;  (** steps that fell off the front of the ring *)
}

let report ~component ~rule ~step ~reason ?(attrs = []) (r : ring) : report =
  {
    r_component = component;
    r_rule = rule;
    r_step = step;
    r_reason = reason;
    r_attrs = attrs;
    r_frames = frames r;
    r_dropped = Stdlib.max 0 (r.total - r.cap);
  }

(** Truncate a (possibly huge) pretty-printed expression for a frame;
    the cut is marked so goldens stay deterministic. *)
let trunc ?(limit = 90) s =
  if String.length s <= limit then s
  else String.sub s 0 limit ^ "..."

let json_of_frame (f : frame) : Json.t =
  Json.Obj
    (("step", Json.Int f.f_step) :: ("kind", Json.Str f.f_label) :: f.f_data)

(** The stable golden form. *)
let to_json (r : report) : Json.t =
  Json.Obj
    [
      ("schema", Json.Str "tfiris-forensics/1");
      ("component", Json.Str r.r_component);
      ("rule", Json.Str r.r_rule);
      ("step", Json.Int r.r_step);
      ("reason", Json.Str r.r_reason);
      ("attrs", Json.Obj r.r_attrs);
      ("dropped_steps", Json.Int r.r_dropped);
      ("last_steps", Json.List (List.map json_of_frame r.r_frames));
    ]

let pp_json_value ppf (j : Json.t) =
  match j with
  | Json.Str s -> Format.pp_print_string ppf s
  | j -> Format.pp_print_string ppf (Json.to_string j)

let render_text ppf (r : report) =
  Format.fprintf ppf "@[<v>== forensics: %s rejected at step %d ==@,"
    r.r_component r.r_step;
  Format.fprintf ppf "rule:   %s@,reason: %s@," r.r_rule r.r_reason;
  List.iter
    (fun (k, v) -> Format.fprintf ppf "%s: %a@," k pp_json_value v)
    r.r_attrs;
  if r.r_dropped > 0 then
    Format.fprintf ppf "(%d earlier steps dropped from the window)@," r.r_dropped;
  Format.fprintf ppf "last %d steps:@," (List.length r.r_frames);
  List.iter
    (fun f ->
      Format.fprintf ppf "  #%-5d %-8s" f.f_step f.f_label;
      List.iter
        (fun (k, v) -> Format.fprintf ppf " %s=%a" k pp_json_value v)
        f.f_data;
      Format.fprintf ppf "@,")
    r.r_frames;
  Format.fprintf ppf "@]"

let to_string (r : report) = Format.asprintf "%a" render_text r

(* ---------- the last-report slot ---------- *)

(* A process-global slot, like the tracer's sink: the drivers publish
   here on rejection, the CLI's --explain (and tests) read it back
   after the run. *)

let c_reports = Metrics.counter "obs.forensics.reports"

let last_report : report option ref = ref None

let set_last (r : report) =
  Metrics.incr c_reports;
  last_report := Some r

let last () = !last_report

let clear_last () = last_report := None
