(** One bracket per engine run: the single place an engine hands a run
    to the observability layer.

    [run ~name ~component ~attrs f] calls [f sp] and feeds, from that one
    call site, everything a run can send: the trace span [name] (its
    [attrs] built only when tracing is on), closed even when [f] raises;
    the GC delta across the span as [gc.*] attributes on its close, when
    {!Telemetry.set_spans} is on; the heartbeat of [component]
    ({!Progress}), counted by {!tick}; and the forensics ring of
    [component] ({!Forensics}), filled by {!frame} and published by
    {!reject}; the ring is made by the first of these, so a run that
    never records (the explorer's) keeps none.  Each run decides once,
    at open, what it feeds.

    With tracing, heartbeats and forensics all off the span is the
    constant [Off]: [run] allocates nothing, {!tick} is one match per
    unit of work, and {!recording} tells a hot loop not to build a
    frame. *)

type state = {
  component : string;
  every : int;  (** heartbeat period in units; [0]: no heartbeats *)
  mutable phase : string;
  mutable seq : int;
  mutable units : int;
  mutable pending : int;  (** units since the last heartbeat *)
  t0 : int64;
  mutable last_ns : int64;
  mutable last_units : int;
  ring : Forensics.ring Lazy.t option;  (** made on first use *)
}

type t =
  | Off
  | On of state

let gc_open () = if Telemetry.spans_on () then Some (Telemetry.sample ()) else None

let gc_attrs = function
  | None -> []
  | Some before ->
    let m = Telemetry.measure ~before ~after:(Telemetry.sample ()) in
    [
      ("gc.alloc_w", Trace.I m.Telemetry.allocated_words);
      ("gc.minor_gcs", Trace.I m.Telemetry.minor_collections);
      ("gc.major_gcs", Trace.I m.Telemetry.major_collections);
    ]

(** [run ?name ?attrs ?component f]: [f sp] inside the span described
    above.  Without [name] the run opens no trace span; without
    [component] it sends no heartbeat and keeps no ring. *)
let run ?name ?attrs ?component (f : t -> 'a) : 'a =
  let name = if Trace.on () then name else None in
  let beats = component <> None && Progress.on () in
  let ring =
    if component <> None && Forensics.on () then Some (lazy (Forensics.ring ()))
    else None
  in
  if name = None && (not beats) && Option.is_none ring then f Off
  else
    (* the heartbeat clock starts before the span opens *)
    let t0 = if beats then Trace.now_ns () else 0L in
    let sp =
      On
        {
          component = Option.value component ~default:"";
          every = (if beats then Progress.every () else 0);
          phase = "run";
          seq = 0;
          units = 0;
          pending = 0;
          t0;
          last_ns = t0;
          last_units = 0;
          ring;
        }
    in
    match name with
    | None -> f sp
    | Some n ->
      let attrs = match attrs with Some a -> a () | None -> [] in
      let gc0 = gc_open () in
      Trace.span_begin (Trace.now_ns ()) n attrs;
      Fun.protect
        (fun () -> f sp)
        ~finally:(fun () -> Trace.span_end (Trace.now_ns ()) n (gc_attrs gc0))

let stop ~traced ~gc0 name t0 =
  let t1 = Trace.now_ns () in
  if traced then Trace.span_end t1 name (gc_attrs gc0);
  Int64.sub t1 t0

(** [timed ~hist name f]: the bracket for a run whose wall time is part
    of its result (an analyzer pass).  [f ()] runs inside the trace span
    [name]; its wall time in ns, from the two clock readings that stamp
    the span's events, is returned and observed by [hist]. *)
let timed ~hist name (f : unit -> 'a) : 'a * int64 =
  let t0 = Trace.now_ns () in
  let traced = Trace.on () in
  let gc0 = if traced then gc_open () else None in
  if traced then Trace.span_begin t0 name [];
  match f () with
  | x ->
    let dt = stop ~traced ~gc0 name t0 in
    Metrics.observe hist (Int64.to_float dt);
    (x, dt)
  | exception e ->
    ignore (stop ~traced ~gc0 name t0 : int64);
    raise e

let heartbeat s (i : Progress.info) =
  let now = Trace.now_ns () in
  let dt_s = Int64.to_float (Int64.sub now s.last_ns) /. 1e9 in
  s.seq <- s.seq + 1;
  Progress.emit
    {
      Progress.s_component = s.component;
      s_phase = s.phase;
      s_seq = s.seq;
      s_units = s.units;
      s_rate =
        (if dt_s > 0. then float_of_int (s.units - s.last_units) /. dt_s else 0.);
      s_elapsed_ms = Int64.to_float (Int64.sub now s.t0) /. 1e6;
      s_states = i.Progress.states;
      s_frontier = i.Progress.frontier;
      s_budget_left = i.Progress.budget_left;
    };
  s.last_ns <- now;
  s.last_units <- s.units;
  s.pending <- 0

(** Count one unit of work; every {!Progress.every} units send a
    heartbeat with the gauges [info x] ([info] is called only then). *)
let tick sp (info : 'a -> Progress.info) (x : 'a) =
  match sp with
  | On s when s.every > 0 ->
    s.units <- s.units + 1;
    s.pending <- s.pending + 1;
    if s.pending >= s.every then heartbeat s (info x)
  | On _ | Off -> ()

(** Name the phase later heartbeats report (["run"] at open). *)
let set_phase sp phase = match sp with On s -> s.phase <- phase | Off -> ()

(** Whether the run records forensics frames. *)
let recording = function On { ring = Some _; _ } -> true | On _ | Off -> false

let frame sp (f : Forensics.frame) =
  match sp with
  | On { ring = Some r; _ } -> Forensics.push (Lazy.force r) f
  | On _ | Off -> ()

(** Publish the run's rejection report, the ring's window as its last
    steps. *)
let reject sp ~rule ~step ~reason ~attrs =
  match sp with
  | On { ring = Some r; component; _ } ->
    Forensics.set_last
      (Forensics.report ~component ~rule ~step ~reason ~attrs (Lazy.force r))
  | On _ | Off -> ()
