(** A process-global metrics registry: counters, gauges, histograms.

    Every instrumented layer registers its instruments once (at module
    initialisation — registration is idempotent by name) and bumps them
    from its hot paths.  A {!snapshot} freezes the registry into plain
    data, renderable as an aligned text table ({!render_text}) or JSON
    ({!to_json}); {!reset} zeroes every instrument in place, which is
    how the harnesses measure per-experiment deltas.

    Like tracing, metrics are off by default: {!incr}/{!add}/{!observe}
    are a load-and-branch when disabled, and the instrumented libraries
    additionally batch their updates (one [add] per run, not per step)
    so the disabled path stays within measurement noise.

    Every instrument is a plain mutable record updated without
    synchronisation, which assumes the program runs on one domain.
    Snapshots render sorted by name, so output order is deterministic
    (not hash- or registration-order).

    Histograms use base-2 exponential buckets: bucket [i] counts
    observations in [(2^(i-1), 2^i]] (bucket 0 is [[0,1]]), which is the
    right shape for step counts and budget descents that range over many
    orders of magnitude.  The boundaries are fixed by {!n_buckets},
    {!bucket_of} and {!bucket_upper_bound} — see "Bucket boundaries"
    below — so bucketed data (and the [hist_sums] of the bench schema,
    which sum raw observations and never round through buckets) is
    bit-for-bit reproducible across machines. *)

let enabled = ref false

let on () = !enabled

let set_enabled b = enabled := b

let n_buckets = 32

type counter = {
  c_name : string;
  mutable c_value : int;
}

type gauge = {
  g_name : string;
  mutable g_value : float;
}

type histogram = {
  h_name : string;
  mutable h_count : int;
  mutable h_sum : float;
  mutable h_max : float;
  h_buckets : int array;  (** [n_buckets] exponential buckets *)
}

type instrument =
  | Counter of counter
  | Gauge of gauge
  | Histogram of histogram

let registry : (string, instrument) Hashtbl.t = Hashtbl.create 64

let register name make =
  match Hashtbl.find_opt registry name with
  | Some i -> i
  | None ->
    let i = make () in
    Hashtbl.add registry name i;
    i

let counter name : counter =
  match register name (fun () -> Counter { c_name = name; c_value = 0 }) with
  | Counter c -> c
  | Gauge _ | Histogram _ ->
    invalid_arg (name ^ " is already registered as a non-counter")

let gauge name : gauge =
  match register name (fun () -> Gauge { g_name = name; g_value = 0. }) with
  | Gauge g -> g
  | Counter _ | Histogram _ ->
    invalid_arg (name ^ " is already registered as a non-gauge")

let histogram name : histogram =
  match
    register name (fun () ->
        Histogram
          {
            h_name = name;
            h_count = 0;
            h_sum = 0.;
            h_max = 0.;
            h_buckets = Array.make n_buckets 0;
          })
  with
  | Histogram h -> h
  | Counter _ | Gauge _ ->
    invalid_arg (name ^ " is already registered as a non-histogram")

(* ---------- updates (hot path) ---------- *)

let incr c = if !enabled then c.c_value <- c.c_value + 1

let add c n = if !enabled then c.c_value <- c.c_value + n

let set g v = if !enabled then g.g_value <- v

(** {2 Bucket boundaries}

    The bucketing function is total and machine-independent (pure
    float comparisons against exact powers of two):

    - bucket [0] counts observations [v <= 1.] (including negatives
      and [0.]);
    - bucket [i] for [1 <= i < n_buckets - 1] counts
      [2^(i-1) < v <= 2^i];
    - the last bucket ([n_buckets - 1 = 31]) is the overflow bucket:
      it counts everything above [2^(n_buckets-2) = 2^30] (≈ 1.07e9),
      even though its nominal upper bound reads [2^31].

    So the inclusive upper bound of bucket [i] is
    [bucket_upper_bound i] = [1.] for [i = 0] and [2^i] otherwise,
    with the caveat that the last bucket also absorbs the overflow.
    Exactness at the boundaries: [bucket_of (2. ** float i) = i] and
    [bucket_of (2. ** float i +. ulp) = i + 1] for [1 <= i < 30] —
    golden-tested in [test_obs.ml]. *)
let bucket_of (v : float) : int =
  if v <= 1. then 0
  else
    let rec go i bound =
      if i >= n_buckets - 1 || v <= bound then i else go (i + 1) (bound *. 2.)
    in
    go 1 2.

let bucket_upper_bound (i : int) : float =
  if i < 0 || i >= n_buckets then invalid_arg "Metrics.bucket_upper_bound"
  else if i = 0 then 1.
  else Float.pow 2. (float_of_int i)

let observe h v =
  if !enabled then begin
    h.h_count <- h.h_count + 1;
    h.h_sum <- h.h_sum +. v;
    if v > h.h_max then h.h_max <- v;
    let i = bucket_of v in
    h.h_buckets.(i) <- h.h_buckets.(i) + 1
  end

let observe_int h n = observe h (float_of_int n)

(* ---------- snapshots ---------- *)

type hist_data = {
  count : int;
  sum : float;
  max : float;
  buckets : (float * int) list;
      (** (inclusive upper bound, count), non-empty buckets only *)
}

type entry =
  | Counter_v of string * int
  | Gauge_v of string * float
  | Histogram_v of string * hist_data

type snapshot = entry list

let entry_name = function
  | Counter_v (n, _) | Gauge_v (n, _) | Histogram_v (n, _) -> n

let hist_data (h : histogram) : hist_data =
  let bl = ref [] in
  for i = n_buckets - 1 downto 0 do
    let n = h.h_buckets.(i) in
    if n > 0 then bl := (bucket_upper_bound i, n) :: !bl
  done;
  { count = h.h_count; sum = h.h_sum; max = h.h_max; buckets = !bl }

let snapshot () : snapshot =
  let instruments =
    Hashtbl.fold (fun name i acc -> (name, i) :: acc) registry []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  List.map
    (fun (name, i) ->
      match i with
      | Counter c -> Counter_v (name, c.c_value)
      | Gauge g -> Gauge_v (name, g.g_value)
      | Histogram h -> Histogram_v (name, hist_data h))
    instruments

let reset () =
  Hashtbl.iter
    (fun _ i ->
      match i with
      | Counter c -> c.c_value <- 0
      | Gauge g -> g.g_value <- 0.
      | Histogram h ->
        h.h_count <- 0;
        h.h_sum <- 0.;
        h.h_max <- 0.;
        Array.fill h.h_buckets 0 n_buckets 0)
    registry

(** Quantile estimate from the exponential buckets: the inclusive
    upper bound of the bucket containing the [⌈q·count⌉]-th smallest
    observation.  The estimate is exact at bucket boundaries (see
    "Bucket boundaries" above) and otherwise overshoots by at most one
    bucket width — i.e. at most 2× for this base-2 layout — which is
    the honest resolution of the data actually kept.  [None] on an
    empty histogram: zero samples bound no quantile. *)
let estimate_quantile (h : hist_data) (q : float) : float option =
  if h.count = 0 then None
  else
    let rank =
      Stdlib.min h.count
        (Stdlib.max 1 (int_of_float (Float.ceil (q *. float_of_int h.count))))
    in
    let rec go seen = function
      | [] -> h.max (* unreachable: bucket counts sum to [count] *)
      | (ub, c) :: rest -> if seen + c >= rank then ub else go (seen + c) rest
    in
    Some (go 0 h.buckets)

(** [counter_value snap name]. *)
let counter_value (snap : snapshot) name : int option =
  List.find_map
    (function Counter_v (n, v) when n = name -> Some v | _ -> None)
    snap

(** Sum of every counter whose name starts with [prefix] — e.g. the
    per-kind step counters under ["shl.interp.steps."]. *)
let sum_counters (snap : snapshot) ~prefix : int =
  List.fold_left
    (fun acc -> function
      | Counter_v (n, v) when String.starts_with ~prefix n -> acc + v
      | _ -> acc)
    0 snap

(* ---------- rendering ---------- *)

let render_text ppf (snap : snapshot) =
  let non_zero = function
    | Counter_v (_, 0) -> false
    | Gauge_v (_, v) -> v <> 0.
    | Histogram_v (_, h) -> h.count > 0
    | Counter_v _ -> true
  in
  let snap = List.filter non_zero snap in
  if snap = [] then Format.fprintf ppf "(no metrics recorded)@."
  else begin
    let width =
      List.fold_left (fun w e -> Stdlib.max w (String.length (entry_name e))) 0 snap
    in
    List.iter
      (fun e ->
        match e with
        | Counter_v (n, v) -> Format.fprintf ppf "%-*s %12d@." width n v
        | Gauge_v (n, v) -> Format.fprintf ppf "%-*s %12g@." width n v
        | Histogram_v (n, h) ->
          Format.fprintf ppf "%-*s %12d obs  sum %.0f  max %.0f  mean %.1f"
            width n h.count h.sum h.max
            (if h.count = 0 then 0. else h.sum /. float_of_int h.count);
          (match (estimate_quantile h 0.5, estimate_quantile h 0.95) with
          | Some p50, Some p95 ->
            Format.fprintf ppf "  p50<=%.0f  p95<=%.0f" p50 p95
          | _ -> ());
          Format.fprintf ppf "@.";
          List.iter
            (fun (ub, c) ->
              Format.fprintf ppf "%-*s   <= %-10.0f %8d@." width "" ub c)
            h.buckets)
      snap
  end

let to_json (snap : snapshot) : Json.t =
  Json.Obj
    (List.map
       (fun e ->
         match e with
         | Counter_v (n, v) -> (n, Json.Int v)
         | Gauge_v (n, v) -> (n, Json.Float v)
         | Histogram_v (n, h) ->
           let quantiles =
             match (estimate_quantile h 0.5, estimate_quantile h 0.95) with
             | Some p50, Some p95 ->
               [ ("p50_le", Json.Float p50); ("p95_le", Json.Float p95) ]
             | _ -> []
           in
           ( n,
             Json.Obj
               ([
                  ("count", Json.Int h.count);
                  ("sum", Json.Float h.sum);
                  ("max", Json.Float h.max);
                ]
               @ quantiles
               @ [
                   ( "buckets",
                     Json.List
                       (List.map
                          (fun (ub, c) ->
                            Json.Obj [ ("le", Json.Float ub); ("n", Json.Int c) ])
                          h.buckets) );
                 ]) ))
       snap)
