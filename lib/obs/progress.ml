(** Live progress heartbeats for long-running drivers.

    A ten-minute exhaustive exploration or refinement game is silent
    under tracing (too fine) and metrics (only visible at the end).
    Heartbeats sit in between: a run opened by {!Span.run} with a
    component {!Span.tick}s once per unit of work (a step, a dequeued
    state); every [every] units it emits one {!snapshot} — how much
    work is done, at what rate, how much of the budget remains, and
    driver-specific gauges (states visited, frontier size) — into the
    process-global {!sink}.

    Cost discipline, like tracing: heartbeats are off by default, and a
    run that sends none pays one match per unit of work.  The gauges
    are materialised only when a heartbeat actually fires.

    Timestamps come from the {!Trace} clock, which is pluggable — the
    heartbeat sequence (units, rates, elapsed times) is deterministic
    under a pinned clock, which is how the golden tests pin it. *)

(* ---------- snapshots ---------- *)

(** Driver-specific gauges, materialised only when a heartbeat fires. *)
type info = {
  states : int option;  (** distinct states visited (explorers) *)
  frontier : int option;  (** work still queued (explorers) *)
  budget_left : float option;
      (** fraction of the tightest bounded budget resource remaining,
          in [\[0, 1\]] — see {!Tfiris_robust.Budget.remaining_frac} *)
}

let no_info : info = { states = None; frontier = None; budget_left = None }

type snapshot = {
  s_component : string;  (** e.g. ["conc.explore"] *)
  s_phase : string;  (** e.g. ["run"], ["drain"] *)
  s_seq : int;  (** heartbeat number within this run, 1-based *)
  s_units : int;  (** cumulative units of work *)
  s_rate : float;  (** units/second since the previous heartbeat *)
  s_elapsed_ms : float;  (** since the run opened *)
  s_states : int option;
  s_frontier : int option;
  s_budget_left : float option;
}

(* ---------- the sink ---------- *)

type sink = snapshot -> unit

let null_sink : sink = fun _ -> ()

let sink = ref null_sink

let enabled = ref false

let on () = !enabled

let set_enabled b = enabled := b

let set_sink (s : sink) = sink := s

let default_every = 100_000

let every_ = ref default_every

let set_every n =
  if n <= 0 then invalid_arg "Progress.set_every: period must be positive"
  else every_ := n

let every () = !every_

(** Route heartbeats to [s] and switch them on; returns the previous
    state for {!restore} — the bracket the tests use. *)
let install (s : sink) =
  let prev = (!sink, !enabled, !every_) in
  sink := s;
  enabled := true;
  prev

let restore (s, e, ev) =
  sink := s;
  enabled := e;
  every_ := ev

(* A heartbeat sink that throws must never take the driver down:
   progress is an observer.  Failures are swallowed and counted, like
   trace-sink errors. *)
let c_sink_errors = Metrics.counter "obs.progress.sink_errors"

let emit snap =
  try !sink snap with _ -> if Metrics.on () then Metrics.incr c_sink_errors

(* ---------- sinks ---------- *)

let pp_opt_gauge name ppf = function
  | None -> ()
  | Some n -> Format.fprintf ppf " | %s %d" name n

let pp_snapshot ppf (s : snapshot) =
  Format.fprintf ppf "[progress %s/%s #%d] %d units | %.3g units/s%a%a"
    s.s_component s.s_phase s.s_seq s.s_units s.s_rate
    (pp_opt_gauge "states") s.s_states
    (pp_opt_gauge "frontier") s.s_frontier;
  (match s.s_budget_left with
  | None -> ()
  | Some f -> Format.fprintf ppf " | budget %.0f%% left" (100. *. f));
  Format.fprintf ppf " | %.1f ms elapsed" s.s_elapsed_ms

(** Human-readable sink: one line per heartbeat. *)
let formatter_sink (ppf : Format.formatter) : sink =
 fun s -> Format.fprintf ppf "%a@." pp_snapshot s

let stderr_sink () : sink = formatter_sink Format.err_formatter

let to_json (s : snapshot) : Json.t =
  let opt name = function
    | None -> []
    | Some n -> [ (name, Json.Int n) ]
  in
  Json.Obj
    ([
       ("schema", Json.Str "tfiris-progress/1");
       ("component", Json.Str s.s_component);
       ("phase", Json.Str s.s_phase);
       ("seq", Json.Int s.s_seq);
       ("units", Json.Int s.s_units);
       ("rate", Json.Float s.s_rate);
       ("elapsed_ms", Json.Float s.s_elapsed_ms);
     ]
    @ opt "states" s.s_states
    @ opt "frontier" s.s_frontier
    @
    match s.s_budget_left with
    | None -> []
    | Some f -> [ ("budget_left", Json.Float f) ])

(** One JSON object per heartbeat on [oc]. *)
let jsonl_sink (oc : out_channel) : sink =
 fun s ->
  output_string oc (Json.to_string (to_json s));
  output_char oc '\n'

(** Collects every heartbeat; [contents] returns them oldest first. *)
let memory_sink () : sink * (unit -> snapshot list) =
  let buf = ref [] in
  ((fun s -> buf := s :: !buf), fun () -> List.rev !buf)
