(** GC / allocation telemetry: [Gc.quick_stat] deltas as first-class
    data.

    The transfinite machinery trades time-bounded step-indexing for
    termination arguments whose real-world cost shows up as {e
    allocation pressure}, not just wall time — so the perf gate needs
    words-allocated next to milliseconds.  This module is the single
    place that knows how to read the GC:

    - {!sample} captures an absolute [Gc.quick_stat] snapshot (O(1),
      no heap traversal — cheap enough to take per span);
    - {!measure} subtracts two samples into a {!mem} block: words
      allocated (minor + major − promoted, the standard convention),
      collection counts, compactions, and the top-heap high-water mark;
    - {!to_json}/{!of_json} fix the wire form of the [mem] block used
      by [tfiris-run/2] ledger records and [tfiris-bench-obs/5] bench
      rows (field order is part of the golden-tested byte format);
    - {!regressions} is the shared memory-gate comparator behind
      [bench --compare] and [tfiris report --diff].

    Span-level sampling (GC attrs on the close of every traced
    {!Span.run}) is gated by {!set_spans} because even a cheap sample
    per span is not free on span-dense runs; run-level sampling has no
    switch — callers just take two samples.

    The program runs on one domain, so a [Gc.quick_stat] delta
    accounts for the whole process. *)

type sample = {
  s_minor_words : float;
  s_promoted_words : float;
  s_major_words : float;
  s_minor_collections : int;
  s_major_collections : int;
  s_compactions : int;
  s_top_heap_words : int;
}

let sample () : sample =
  let g = Gc.quick_stat () in
  {
    (* [Gc.minor_words ()] rather than the [quick_stat] field: the
       latter lags behind the live allocation pointer until the next
       collection (observed on OCaml 5.1), which would zero out deltas
       over short runs.  The accessor reads the pointer directly and is
       exact at any moment. *)
    s_minor_words = Gc.minor_words ();
    s_promoted_words = g.Gc.promoted_words;
    s_major_words = g.Gc.major_words;
    s_minor_collections = g.Gc.minor_collections;
    s_major_collections = g.Gc.major_collections;
    s_compactions = g.Gc.compactions;
    s_top_heap_words = g.Gc.top_heap_words;
  }

(** The [mem] block: a GC delta between two {!sample}s.  All word
    counts are whole words (OCaml reports floats to survive 32-bit
    overflow; words fit comfortably in 63-bit ints). *)
type mem = {
  allocated_words : int;
      (** minor + major − promoted: every word ever allocated, whether
          it died young or was promoted *)
  minor_words : int;
  major_words : int;
  promoted_words : int;
  minor_collections : int;
  major_collections : int;
  compactions : int;
  top_heap_words : int;
      (** absolute high-water mark at the closing sample, not a delta *)
}

let measure ~(before : sample) ~(after : sample) : mem =
  let w f = int_of_float f in
  let minor = after.s_minor_words -. before.s_minor_words in
  let major = after.s_major_words -. before.s_major_words in
  let promoted = after.s_promoted_words -. before.s_promoted_words in
  {
    allocated_words = w (minor +. major -. promoted);
    minor_words = w minor;
    major_words = w major;
    promoted_words = w promoted;
    minor_collections = after.s_minor_collections - before.s_minor_collections;
    major_collections = after.s_major_collections - before.s_major_collections;
    compactions = after.s_compactions - before.s_compactions;
    top_heap_words = after.s_top_heap_words;
  }

(* ---------- wire form (the "mem" block) ---------- *)

let to_json (m : mem) : Json.t =
  Json.Obj
    [
      ("allocated_words", Json.Int m.allocated_words);
      ("minor_words", Json.Int m.minor_words);
      ("major_words", Json.Int m.major_words);
      ("promoted_words", Json.Int m.promoted_words);
      ("minor_collections", Json.Int m.minor_collections);
      ("major_collections", Json.Int m.major_collections);
      ("compactions", Json.Int m.compactions);
      ("top_heap_words", Json.Int m.top_heap_words);
    ]

let of_json (j : Json.t) : mem option =
  let int_field name =
    match Json.member name j with
    | Some v -> Json.to_int v
    | None -> Some 0
  in
  match Json.member "allocated_words" j with
  | None -> None
  | Some aw -> (
    match Json.to_int aw with
    | None -> None
    | Some allocated_words ->
      let get name = Option.value ~default:0 (int_field name) in
      Some
        {
          allocated_words;
          minor_words = get "minor_words";
          major_words = get "major_words";
          promoted_words = get "promoted_words";
          minor_collections = get "minor_collections";
          major_collections = get "major_collections";
          compactions = get "compactions";
          top_heap_words = get "top_heap_words";
        })

(** Human-readable word counts: [12345] -> "12.3kw", etc.  Base 1000
    (these are word counts, not byte sizes). *)
let pp_words ppf (w : int) =
  let f = float_of_int w in
  if Float.abs f >= 1e9 then Format.fprintf ppf "%.2fGw" (f /. 1e9)
  else if Float.abs f >= 1e6 then Format.fprintf ppf "%.2fMw" (f /. 1e6)
  else if Float.abs f >= 1e3 then Format.fprintf ppf "%.1fkw" (f /. 1e3)
  else Format.fprintf ppf "%dw" w

let render_text ppf (m : mem) =
  Format.fprintf ppf "allocated        %12d words (%a)@." m.allocated_words
    pp_words m.allocated_words;
  Format.fprintf ppf "  minor          %12d words@." m.minor_words;
  Format.fprintf ppf "  major          %12d words@." m.major_words;
  Format.fprintf ppf "  promoted       %12d words@." m.promoted_words;
  Format.fprintf ppf "minor gcs        %12d@." m.minor_collections;
  Format.fprintf ppf "major gcs        %12d@." m.major_collections;
  Format.fprintf ppf "compactions      %12d@." m.compactions;
  Format.fprintf ppf "top heap         %12d words (%a)@." m.top_heap_words
    pp_words m.top_heap_words

(* ---------- span-level sampling switch ---------- *)

let spans = ref false

let spans_on () = !spans

let set_spans b = spans := b

(* ---------- the memory gate ---------- *)

(** One memory regression: a labelled allocated-words count that grew
    past the gate. *)
type regression = {
  r_name : string;
  r_base_w : int;
  r_cur_w : int;
  r_ratio : float;
}

(** [regressions ~threshold ~min_delta_w ~baseline current] compares
    labelled allocated-words counts against a baseline: a label
    regresses when [cur > threshold * base] {e and}
    [cur - base > min_delta_w] (the absolute floor keeps tiny
    experiments from tripping the ratio on noise).  Labels missing
    from the baseline are skipped — same contract as the median-time
    gate, so a freshly added experiment never fails until a baseline
    is committed for it.  Allocation counts are far more stable than
    wall time (they depend on code paths, not machine load), which is
    why this gate can afford to be failing rather than advisory. *)
let regressions ~(threshold : float) ~(min_delta_w : int)
    ~(baseline : (string * int) list) (current : (string * int) list) :
    regression list =
  List.filter_map
    (fun (name, cur_w) ->
      match List.assoc_opt name baseline with
      | None -> None
      | Some base_w ->
        let grew_ratio = float_of_int cur_w > threshold *. float_of_int base_w in
        let grew_abs = cur_w - base_w > min_delta_w in
        if grew_ratio && grew_abs then
          Some
            {
              r_name = name;
              r_base_w = base_w;
              r_cur_w = cur_w;
              r_ratio =
                (if base_w = 0 then Float.infinity
                 else float_of_int cur_w /. float_of_int base_w);
            }
        else None)
    current
