(** See budget.mli.  The meter keeps "remaining" counters (with
    [max_int] for unbounded resources) so the per-charge cost is a
    decrement and a comparison — cheap enough for the interpreter's
    per-step hot path. *)

module Metrics = Tfiris_obs.Metrics
module Json = Tfiris_obs.Json

type resource = Steps | States | Wall_ms | Heap_cells

let resource_name = function
  | Steps -> "steps"
  | States -> "states"
  | Wall_ms -> "ms"
  | Heap_cells -> "cells"

let pp_resource ppf r = Format.pp_print_string ppf (resource_name r)

type t = {
  steps : int option;
  states : int option;
  wall_ms : int option;
  heap_cells : int option;
}

let unlimited = { steps = None; states = None; wall_ms = None; heap_cells = None }
let of_steps n = { unlimited with steps = Some n }
let of_states n = { unlimited with states = Some n }

let limit (b : t) = function
  | Steps -> b.steps
  | States -> b.states
  | Wall_ms -> b.wall_ms
  | Heap_cells -> b.heap_cells

let fields (b : t) =
  [ (Steps, b.steps); (States, b.states); (Wall_ms, b.wall_ms);
    (Heap_cells, b.heap_cells) ]

let to_string (b : t) =
  match List.filter_map (fun (r, l) -> Option.map (fun n -> (r, n)) l) (fields b) with
  | [] -> "unlimited"
  | kvs ->
    String.concat ","
      (List.map (fun (r, n) -> Printf.sprintf "%s:%d" (resource_name r) n) kvs)

let pp ppf b = Format.pp_print_string ppf (to_string b)

let to_json (b : t) : Json.t =
  Json.Obj
    (List.filter_map
       (fun (r, l) -> Option.map (fun n -> (resource_name r, Json.Int n)) l)
       (fields b))

let parse (s : string) : (t, string) result =
  let ( let* ) = Result.bind in
  let nat what v =
    match int_of_string_opt v with
    | Some n when n >= 0 -> Ok n
    | Some _ -> Error (Printf.sprintf "budget %s must be non-negative" what)
    | None -> Error (Printf.sprintf "budget %s is not a number: %S" what v)
  in
  let field acc kv =
    let* acc = acc in
    match String.index_opt kv ':' with
    | None ->
      (* a bare number is a steps bound, like the old --fuel *)
      let* n = nat "steps" kv in
      Ok { acc with steps = Some n }
    | Some i -> (
      let key = String.sub kv 0 i in
      let v = String.sub kv (i + 1) (String.length kv - i - 1) in
      let* n = nat key v in
      match key with
      | "steps" -> Ok { acc with steps = Some n }
      | "states" -> Ok { acc with states = Some n }
      | "ms" -> Ok { acc with wall_ms = Some n }
      | "cells" -> Ok { acc with heap_cells = Some n }
      | _ ->
        Error
          (Printf.sprintf
             "unknown budget resource %S (expected steps, states, ms or cells)"
             key))
  in
  if String.trim s = "" then Error "empty budget spec"
  else
    List.fold_left field (Ok unlimited)
      (String.split_on_char ',' (String.trim s))

let resolve ?fuel ?budget ~default_steps () =
  match budget with
  | Some b -> b
  | None -> of_steps (Option.value fuel ~default:default_steps)

(* ---------- metering ---------- *)

let c_steps = Metrics.counter "robust.budget.exhausted.steps"
let c_states = Metrics.counter "robust.budget.exhausted.states"
let c_wall = Metrics.counter "robust.budget.exhausted.ms"
let c_cells = Metrics.counter "robust.budget.exhausted.cells"

let exhausted_counter = function
  | Steps -> c_steps
  | States -> c_states
  | Wall_ms -> c_wall
  | Heap_cells -> c_cells

let wall_check_period = 1024

type meter = {
  limits : t;  (** the budget this meter was created from *)
  mutable steps_left : int;
  mutable states_left : int;
  mutable cells_left : int;
  deadline_ns : int64;  (** [Int64.max_int] when unbounded *)
  mutable wall_tick : int;
  mutable steps_charged : int;
  mutable exhausted_ : resource option;
}

(* The deadline uses the real clock directly (not the pluggable
   {!Tfiris_obs.Trace} clock): budgets are resource governance, and a
   skewed tracing clock — e.g. under {!Chaos} — must not starve or
   unbound them. *)
let now_ns () = Int64.of_float (Unix.gettimeofday () *. 1e9)

let meter (b : t) : meter =
  let lim = function Some n -> max n 0 | None -> max_int in
  {
    limits = b;
    steps_left = lim b.steps;
    states_left = lim b.states;
    cells_left = lim b.heap_cells;
    deadline_ns =
      (match b.wall_ms with
      | None -> Int64.max_int
      | Some ms -> Int64.add (now_ns ()) (Int64.mul (Int64.of_int ms) 1_000_000L));
    wall_tick = wall_check_period;
    steps_charged = 0;
    exhausted_ = None;
  }

let trip m r =
  (match m.exhausted_ with
  | None ->
    m.exhausted_ <- Some r;
    if Metrics.on () then Metrics.incr (exhausted_counter r)
  | Some _ -> ());
  false

let step (m : meter) =
  if m.exhausted_ <> None then false
  else if m.steps_left = 0 then trip m Steps
  else begin
    m.steps_left <- m.steps_left - 1;
    m.steps_charged <- m.steps_charged + 1;
    if m.deadline_ns = Int64.max_int then true
    else begin
      m.wall_tick <- m.wall_tick - 1;
      if m.wall_tick > 0 then true
      else begin
        m.wall_tick <- wall_check_period;
        if Int64.compare (now_ns ()) m.deadline_ns > 0 then trip m Wall_ms
        else true
      end
    end
  end

let state (m : meter) =
  if m.exhausted_ <> None then false
  else if m.states_left = 0 then trip m States
  else begin
    m.states_left <- m.states_left - 1;
    true
  end

let cells (m : meter) n =
  if m.exhausted_ <> None then false
  else if m.cells_left < n then trip m Heap_cells
  else begin
    m.cells_left <- m.cells_left - n;
    true
  end

let exhausted m = m.exhausted_
let tripped m = match m.exhausted_ with Some r -> r | None -> Steps
let steps_used m = m.steps_charged

(* [trip] answers [false] (a refused charge); here that means expired *)
let wall_expired (m : meter) =
  m.exhausted_ <> None
  || m.deadline_ns <> Int64.max_int
     && Int64.compare (now_ns ()) m.deadline_ns > 0
     && not (trip m Wall_ms)

let remaining (m : meter) : t =
  let left limit n = Option.map (fun _ -> n) limit in
  {
    steps = left m.limits.steps m.steps_left;
    states = left m.limits.states m.states_left;
    heap_cells = left m.limits.heap_cells m.cells_left;
    wall_ms =
      Option.map
        (fun _ ->
          let ns = Int64.sub m.deadline_ns (now_ns ()) in
          max 0 (Int64.to_int (Int64.div ns 1_000_000L)))
        m.limits.wall_ms;
  }

let limits m = m.limits

(* Only the deterministic counters contribute: consulting the wall
   clock here would make progress heartbeats nondeterministic under a
   pinned tracing clock, and Wall_ms has its own lazy check anyway. *)
let remaining_frac (m : meter) : float option =
  let frac limit left =
    match limit with
    | Some n when n > 0 -> Some (float_of_int left /. float_of_int n)
    | Some _ -> Some 0.
    | None -> None
  in
  match
    List.filter_map Fun.id
      [
        frac m.limits.steps m.steps_left;
        frac m.limits.states m.states_left;
        frac m.limits.heap_cells m.cells_left;
      ]
  with
  | [] -> None
  | fracs -> Some (List.fold_left Float.min 1. fracs)
