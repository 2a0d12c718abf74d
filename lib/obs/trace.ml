(** Structured tracing: spans and events with pluggable sinks.

    The tracer answers "where does the time and the work go" for the
    interpreter, the refinement drivers and the proof checkers.  It is a
    classic span/event model:

    - a {e span} is a named, nested interval ([span_begin]/[span_end]);
    - an {e instant} is a point event;
    - both carry typed attributes (int/float/string/bool).

    Events flow into the current {e sink}.  Four sinks are provided:
    {!null_sink} (the default), an in-memory ring buffer
    ({!memory_sink}) for tests and post-mortem inspection, a
    human-readable pretty-printer ({!pretty_sink}), and two file
    formats — one JSON object per line ({!jsonl_sink}) and the Chrome
    [trace_event] array format ({!chrome_sink}), loadable in
    [chrome://tracing] / Perfetto.

    The span-nesting depth is a plain ref and emission takes no lock,
    which assumes the program runs on one domain.  The Chrome sink puts
    every event on one [tid] lane, named by a
    [process_name]/[thread_name] metadata pair.

    This module only emits events.  Engines do not call it for their
    spans: {!Span.run} opens and closes them, together with the GC
    delta, the heartbeat and the forensics ring of the run.

    {b Cost discipline}: tracing is off by default; every emission is
    guarded by {!on}, a single load-and-branch, before any attribute
    list is built. *)

type attr_value =
  | I of int
  | F of float
  | S of string
  | B of bool

type attr = string * attr_value

type phase =
  | Span_begin
  | Span_end
  | Instant

type event = {
  name : string;
  phase : phase;
  ts_ns : int64;  (** timestamp, nanoseconds since an arbitrary origin *)
  depth : int;  (** span-nesting depth at emission *)
  attrs : attr list;
}

type sink = {
  emit : event -> unit;
  flush : unit -> unit;
}

(* ---------- global state ---------- *)

let enabled = ref false

let on () = !enabled

(* The clock is pluggable so a harness with a real monotonic clock can
   substitute it — and so the golden tests can pin timestamps; the
   default is gettimeofday scaled to ns, which is
   monotonic enough for tracing purposes and avoids a C-stub
   dependency. *)
let default_clock () = Int64.of_float (Unix.gettimeofday () *. 1e9)

let clock : (unit -> int64) ref = ref default_clock

let set_clock f = clock := f

let reset_clock () = clock := default_clock

let now_ns () = !clock ()

let null_sink = { emit = (fun _ -> ()); flush = (fun () -> ()) }

let sink = ref null_sink

let depth = ref 0

(* A sink that throws (full disk, closed channel, an injected fault
   from the chaos harness) must never take the traced program down:
   tracing is an observer.  Failures are swallowed and counted — into a
   plain counter (always) and the [robust.trace.sink_errors] metric
   (when metrics are on). *)
let sink_errors_ = ref 0
let sink_errors () = !sink_errors_
let c_sink_errors = Metrics.counter "robust.trace.sink_errors"

let note_sink_error () =
  incr sink_errors_;
  if Metrics.on () then Metrics.incr c_sink_errors

let flush_sink s = try s.flush () with _ -> note_sink_error ()

let set_sink s =
  flush_sink !sink;
  sink := s

let set_enabled b = enabled := b

(** Route events to [s] and switch tracing on; returns the previous
    (sink, enabled) pair for {!restore}. *)
let install s =
  let prev = (!sink, !enabled) in
  sink := s;
  enabled := true;
  prev

let restore (s, e) =
  flush_sink !sink;
  sink := s;
  enabled := e

let flush () = flush_sink !sink

(* ---------- emission ---------- *)

let emit ts phase name attrs =
  let ev = { name; phase; ts_ns = ts; depth = !depth; attrs } in
  try !sink.emit ev with _ -> note_sink_error ()

let instant ?(attrs = []) name =
  if !enabled then emit (now_ns ()) Instant name attrs

(** A span's two events, stamped with a clock reading [ts] the caller
    took ({!Span} does, once per event). *)
let span_begin ts name attrs =
  if !enabled then begin
    emit ts Span_begin name attrs;
    incr depth
  end

let span_end ts name attrs =
  if !enabled then begin
    depth := max 0 (!depth - 1);
    emit ts Span_end name attrs
  end

(* ---------- sinks ---------- *)

(** [memory_sink ~capacity ()]: a ring buffer keeping the last
    [capacity] events; [contents] returns them oldest first. *)
let memory_sink ?(capacity = 4096) () : sink * (unit -> event list) =
  let buf = Array.make capacity None in
  let next = ref 0 in
  let total = ref 0 in
  let emit ev =
    buf.(!next) <- Some ev;
    next := (!next + 1) mod capacity;
    incr total
  in
  let contents () =
    let n = min !total capacity in
    let start = if !total <= capacity then 0 else !next in
    List.init n (fun i -> Option.get buf.((start + i) mod capacity))
  in
  ({ emit; flush = (fun () -> ()) }, contents)

let pp_attr_value ppf = function
  | I n -> Format.pp_print_int ppf n
  | F f -> Format.fprintf ppf "%g" f
  | S s -> Format.pp_print_string ppf s
  | B b -> Format.pp_print_bool ppf b

let pp_attrs ppf = function
  | [] -> ()
  | attrs ->
    Format.fprintf ppf " {%a}"
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
         (fun ppf (k, v) -> Format.fprintf ppf "%s=%a" k pp_attr_value v))
      attrs

(** Human-readable sink: one line per event, indented by span depth. *)
let pretty_sink (ppf : Format.formatter) : sink =
  let origin = ref None in
  let emit ev =
    let t0 = match !origin with Some t -> t | None -> origin := Some ev.ts_ns; ev.ts_ns in
    let dt_us = Int64.to_float (Int64.sub ev.ts_ns t0) /. 1e3 in
    let marker =
      match ev.phase with Span_begin -> ">" | Span_end -> "<" | Instant -> "*"
    in
    Format.fprintf ppf "%10.1fus %s%s %s%a@." dt_us
      (String.make (2 * ev.depth) ' ')
      marker ev.name pp_attrs ev.attrs
  in
  { emit; flush = (fun () -> Format.pp_print_flush ppf ()) }

let json_of_attrs attrs : Json.t =
  Json.Obj
    (List.map
       (fun (k, v) ->
         ( k,
           match v with
           | I n -> Json.Int n
           | F f -> Json.Float f
           | S s -> Json.Str s
           | B b -> Json.Bool b ))
       attrs)

let phase_name = function
  | Span_begin -> "begin"
  | Span_end -> "end"
  | Instant -> "instant"

let phase_of_name = function
  | "begin" -> Some Span_begin
  | "end" -> Some Span_end
  | "instant" -> Some Instant
  | _ -> None

(* Field order is the golden-tested byte format. *)
let json_of_event (ev : event) : Json.t =
  Json.Obj
    [
      ("ev", Json.Str (phase_name ev.phase));
      ("name", Json.Str ev.name);
      ("ts", Json.Int (Int64.to_int ev.ts_ns));
      ("depth", Json.Int ev.depth);
      ("attrs", json_of_attrs ev.attrs);
    ]

(** Reparse one JSONL line into an event (attribute values come back
    typed as far as JSON allows).  Used by the round-trip tests. *)
let event_of_json (j : Json.t) : event option =
  let ( let* ) = Option.bind in
  let* phase = Option.bind Json.(member "ev" j) Json.to_str in
  let* phase = phase_of_name phase in
  let* name = Option.bind (Json.member "name" j) Json.to_str in
  let* ts = Option.bind (Json.member "ts" j) Json.to_int in
  let* depth = Option.bind (Json.member "depth" j) Json.to_int in
  let attrs =
    match Json.member "attrs" j with
    | Some (Json.Obj kvs) ->
      List.filter_map
        (fun (k, v) ->
          match v with
          | Json.Int n -> Some (k, I n)
          | Json.Float f -> Some (k, F f)
          | Json.Str s -> Some (k, S s)
          | Json.Bool b -> Some (k, B b)
          | Json.Null | Json.List _ | Json.Obj _ -> None)
        kvs
    | _ -> []
  in
  Some { name; phase; ts_ns = Int64.of_int ts; depth; attrs }

(** One JSON object per line on [oc]. *)
let jsonl_sink (oc : out_channel) : sink =
  {
    emit =
      (fun ev ->
        output_string oc (Json.to_string (json_of_event ev));
        output_char oc '\n');
    flush = (fun () -> Stdlib.flush oc);
  }

(** Chrome [trace_event] array format on [oc]: every span begin/end maps
    to a ["B"]/["E"] duration event, instants to ["i"].  Before the
    first event it writes a ["process_name"]/["thread_name"] metadata
    pair naming the process and its one [tid] lane in
    [chrome://tracing] / Perfetto.
    [flush] closes the JSON array — call it (or {!restore}/{!set_sink})
    before reading the file. *)
let chrome_sink (oc : out_channel) : sink =
  let first = ref true in
  output_string oc "[";
  let sep () = if !first then first := false else output_string oc ",\n" in
  let put kvs = output_string oc (Json.to_string (Json.Obj kvs)) in
  let metadata name label =
    sep ();
    put
      [
        ("name", Json.Str name);
        ("ph", Json.Str "M");
        ("pid", Json.Int 1);
        ("tid", Json.Int 0);
        ("args", Json.Obj [ ("name", Json.Str label) ]);
      ]
  in
  let emit ev =
    if !first then begin
      metadata "process_name" "tfiris";
      metadata "thread_name" "domain 0"
    end;
    sep ();
    let ph =
      match ev.phase with Span_begin -> "B" | Span_end -> "E" | Instant -> "i"
    in
    let base =
      [
        ("name", Json.Str ev.name);
        ("ph", Json.Str ph);
        ("ts", Json.Float (Int64.to_float ev.ts_ns /. 1e3));
        ("pid", Json.Int 1);
        ("tid", Json.Int 0);
      ]
    in
    let scope = if ev.phase = Instant then [ ("s", Json.Str "t") ] else [] in
    let args =
      match ev.attrs with
      | [] -> []
      | attrs -> [ ("args", json_of_attrs attrs) ]
    in
    put (base @ scope @ args)
  in
  let closed = ref false in
  let flush () =
    if not !closed then begin
      closed := true;
      output_string oc "]\n";
      Stdlib.flush oc
    end
  in
  { emit; flush }
