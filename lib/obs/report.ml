(** Corpus-level reporting over {!Ledger} records.

    Pure functions behind the [tfiris report] subcommand: {!summarize}
    folds a ledger into one row per content key (runs, latest verdict,
    wall-time spread, budget use, allocated words), and {!diff}
    classifies what changed between two ledgers — verdict flips and new
    failures are the regressions that fail CI; median-time regressions
    are advisory (the bench perf gate owns wall time).  Allocation
    regressions (median allocated words from the [mem] block of
    [tfiris-run/2] records) are advisory by default and {e failing}
    when an explicit [--mem-threshold] arms the memory gate —
    allocation counts are deterministic enough to gate on, but only
    when the caller opts in with a threshold they chose.

    Records with the same content key are expected to agree on their
    verdict (the key hashes everything the verdict depends on), so the
    latest record per key is taken as that key's verdict and any
    disagreement *within* one ledger is surfaced as [s_unstable]. *)

(* ---------- helpers ---------- *)

let median (xs : float list) =
  match List.sort compare xs with
  | [] -> 0.
  | sorted ->
    let n = List.length sorted in
    let nth i = List.nth sorted i in
    if n mod 2 = 1 then nth (n / 2) else (nth ((n / 2) - 1) +. nth (n / 2)) /. 2.

let consumed_total (r : Ledger.record) (resource : string) =
  List.assoc_opt resource r.Ledger.consumed

(* ---------- per-key summaries ---------- *)

type summary = {
  s_key : string;
  s_cmd : string;
  s_label : string;
  s_engine : string;
  s_runs : int;
  s_verdict : string;  (** verdict of the latest run for this key *)
  s_ok : bool;
  s_unstable : bool;
      (** true when runs of this key disagree on the verdict — by
          construction of the content key this should never happen *)
  s_median_ms : float;
  s_min_ms : float;
  s_max_ms : float;
  s_median_steps : int option;  (** median of consumed ["steps"] *)
  s_alloc_w : int option;
      (** median allocated words over runs carrying a [mem] block *)
}

(** One row per content key, in first-appearance order; per-key record
    lists preserve file (= chronological) order. *)
let group_by_key (records : Ledger.record list) :
    (string * Ledger.record list) list =
  let tbl = Hashtbl.create 64 in
  let order = ref [] in
  List.iter
    (fun (r : Ledger.record) ->
      match Hashtbl.find_opt tbl r.Ledger.key with
      | None ->
        Hashtbl.add tbl r.Ledger.key (ref [ r ]);
        order := r.Ledger.key :: !order
      | Some cell -> cell := r :: !cell)
    records;
  List.rev_map
    (fun key -> (key, List.rev !(Hashtbl.find tbl key)))
    !order

let summarize (records : Ledger.record list) : summary list =
  List.map
    (fun (key, runs) ->
      let last = List.nth runs (List.length runs - 1) in
      let walls = List.map (fun (r : Ledger.record) -> r.Ledger.wall_ms) runs in
      let steps = List.filter_map (fun r -> consumed_total r "steps") runs in
      let allocs =
        List.filter_map
          (fun (r : Ledger.record) ->
            Option.map
              (fun (m : Telemetry.mem) -> m.Telemetry.allocated_words)
              r.Ledger.mem)
          runs
      in
      {
        s_key = key;
        s_cmd = last.Ledger.cmd;
        s_label = last.Ledger.label;
        s_engine = last.Ledger.engine;
        s_runs = List.length runs;
        s_verdict = last.Ledger.verdict;
        s_ok = last.Ledger.ok;
        s_unstable =
          List.exists
            (fun (r : Ledger.record) -> r.Ledger.verdict <> last.Ledger.verdict)
            runs;
        s_median_ms = median walls;
        s_min_ms = List.fold_left min infinity walls;
        s_max_ms = List.fold_left max neg_infinity walls;
        s_median_steps =
          (match steps with
          | [] -> None
          | _ ->
            Some
              (int_of_float (median (List.map float_of_int steps))));
        s_alloc_w =
          (match allocs with
          | [] -> None
          | _ ->
            Some (int_of_float (median (List.map float_of_int allocs))));
      })
    (group_by_key records)

(* ---------- per-pass analysis grouping ---------- *)

type pass_row = {
  p_pass : string;
  p_records : int;  (** analyze records that ran this pass *)
  p_findings : int;  (** findings the pass produced, summed over records *)
}

let pass_prefix = "pass."

(** [analyze] records carry one consumed entry per executed pass
    (["pass.<name>"], findings produced) next to the ["findings"]
    total; fold those into one row per pass, in first-appearance
    order.  Non-analyze records contribute nothing. *)
let pass_summary (records : Ledger.record list) : pass_row list =
  let plen = String.length pass_prefix in
  let tbl = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (fun (r : Ledger.record) ->
      if r.Ledger.cmd = "analyze" then
        List.iter
          (fun (k, n) ->
            if String.length k > plen && String.sub k 0 plen = pass_prefix then begin
              let pass = String.sub k plen (String.length k - plen) in
              match Hashtbl.find_opt tbl pass with
              | None ->
                Hashtbl.add tbl pass (ref (1, n));
                order := pass :: !order
              | Some cell ->
                let runs, total = !cell in
                cell := (runs + 1, total + n)
            end)
          r.Ledger.consumed)
    records;
  List.rev_map
    (fun pass ->
      let runs, total = !(Hashtbl.find tbl pass) in
      { p_pass = pass; p_records = runs; p_findings = total })
    !order

(* ---------- diffing two ledgers ---------- *)

type change =
  | Verdict_flip  (** key in both ledgers, latest verdict differs *)
  | New_failure  (** key only in [after], and it failed *)
  | Time_regression  (** median wall time crossed the threshold (advisory) *)
  | Mem_regression
      (** median allocated words crossed the memory threshold —
          advisory unless the gate is armed (see {!diff}) *)
  | Added  (** key only in [after] (and passing) *)
  | Removed  (** key only in [before] *)

let change_name = function
  | Verdict_flip -> "verdict-flip"
  | New_failure -> "new-failure"
  | Time_regression -> "time-regression"
  | Mem_regression -> "mem-regression"
  | Added -> "added"
  | Removed -> "removed"

type diff_entry = {
  d_change : change;
  d_key : string;
  d_label : string;
  d_before : string option;  (** verdict in [before], when present *)
  d_after : string option;
  d_ms_before : float option;  (** median wall ms *)
  d_ms_after : float option;
  d_w_before : int option;  (** median allocated words *)
  d_w_after : int option;
}

type diff = {
  entries : diff_entry list;  (** flips first, then failures, then the rest *)
  compared : int;  (** keys present in both ledgers *)
  flips : int;
  new_failures : int;
  regressions : int;
  mem_regressions : int;
  mem_gate : bool;  (** an explicit [mem_threshold] arms the memory gate *)
}

(** [true] when the diff contains a regression that should fail CI:
    a correctness regression always, an allocation regression when the
    memory gate is armed.  Time regressions never set this. *)
let failed (d : diff) =
  d.flips > 0 || d.new_failures > 0 || (d.mem_gate && d.mem_regressions > 0)

(* A key's median wall time regresses when it grows past
   [time_threshold] times the baseline and by more than [min_delta_ms]
   (the absolute noise floor). *)
let time_threshold = 1.5
let min_delta_ms = 20.

(* Below this delta, allocation growth is ignored no matter the ratio —
   keeps near-zero-allocation entries from tripping the gate on an
   incidental boxed value or two. *)
let min_delta_w = 100_000

let diff ?mem_threshold ~(before : Ledger.record list)
    ~(after : Ledger.record list) () : diff =
  let b = summarize before and a = summarize after in
  let b_tbl = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.replace b_tbl s.s_key s) b;
  let a_keys = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.replace a_keys s.s_key ()) a;
  let entry change (sb : summary option) (sa : summary option) =
    let some = function Some s -> s | None -> assert false in
    let any = match sa with Some s -> s | None -> some sb in
    {
      d_change = change;
      d_key = any.s_key;
      d_label = any.s_label;
      d_before = Option.map (fun s -> s.s_verdict) sb;
      d_after = Option.map (fun s -> s.s_verdict) sa;
      d_ms_before = Option.map (fun s -> s.s_median_ms) sb;
      d_ms_after = Option.map (fun s -> s.s_median_ms) sa;
      d_w_before = Option.bind sb (fun s -> s.s_alloc_w);
      d_w_after = Option.bind sa (fun s -> s.s_alloc_w);
    }
  in
  let mem_gate = Option.is_some mem_threshold in
  let mem_t = Option.value ~default:1.5 mem_threshold in
  let compared = ref 0 in
  let flips = ref []
  and fails = ref []
  and regs = ref []
  and mem_regs = ref []
  and info = ref [] in
  List.iter
    (fun (sa : summary) ->
      match Hashtbl.find_opt b_tbl sa.s_key with
      | None ->
        if sa.s_ok then info := entry Added None (Some sa) :: !info
        else fails := entry New_failure None (Some sa) :: !fails
      | Some sb ->
        incr compared;
        if sa.s_verdict <> sb.s_verdict then
          flips := entry Verdict_flip (Some sb) (Some sa) :: !flips
        else begin
          if
            sa.s_median_ms > (time_threshold *. sb.s_median_ms)
            && sa.s_median_ms -. sb.s_median_ms > min_delta_ms
          then regs := entry Time_regression (Some sb) (Some sa) :: !regs;
          match (sb.s_alloc_w, sa.s_alloc_w) with
          | Some wb, Some wa
            when Telemetry.regressions ~threshold:mem_t ~min_delta_w
                   ~baseline:[ (sa.s_key, wb) ]
                   [ (sa.s_key, wa) ]
                 <> [] ->
            mem_regs := entry Mem_regression (Some sb) (Some sa) :: !mem_regs
          | _ -> ()
        end)
    a;
  List.iter
    (fun (sb : summary) ->
      if not (Hashtbl.mem a_keys sb.s_key) then
        info := entry Removed (Some sb) None :: !info)
    b;
  let entries =
    List.rev !flips @ List.rev !fails @ List.rev !regs @ List.rev !mem_regs
    @ List.rev !info
  in
  {
    entries;
    compared = !compared;
    flips = List.length !flips;
    new_failures = List.length !fails;
    regressions = List.length !regs;
    mem_regressions = List.length !mem_regs;
    mem_gate;
  }

(* ---------- renderings ---------- *)

let short_key k = if String.length k > 12 then String.sub k 0 12 else k

let pp_summary_row ppf (s : summary) =
  Format.fprintf ppf "%-12s  %-10s  %4d  %-18s  %8.1fms  [%.1f..%.1f]%s  %s"
    (short_key s.s_key) s.s_cmd s.s_runs
    (if s.s_unstable then s.s_verdict ^ " (UNSTABLE)" else s.s_verdict)
    s.s_median_ms s.s_min_ms s.s_max_ms
    (match s.s_median_steps with
    | None -> ""
    | Some n -> Printf.sprintf "  %d steps" n)
    s.s_label;
  match s.s_alloc_w with
  | None -> ()
  | Some w -> Format.fprintf ppf "  %a" Telemetry.pp_words w

let render_summary_text (summaries : summary list) : string =
  let b = Buffer.create 512 in
  let ppf = Format.formatter_of_buffer b in
  Format.fprintf ppf "%-12s  %-10s  %4s  %-18s  %10s@." "key" "cmd" "runs"
    "verdict" "median";
  List.iter (fun s -> Format.fprintf ppf "%a@." pp_summary_row s) summaries;
  Format.fprintf ppf "%d entr%s@." (List.length summaries)
    (if List.length summaries = 1 then "y" else "ies");
  Format.pp_print_flush ppf ();
  Buffer.contents b

(** Analysis appendix under the per-key table: one row per analyzer
    pass with the finding volume it contributed across the ledger's
    [analyze] runs.  Empty string when the ledger has none. *)
let render_pass_text (passes : pass_row list) : string =
  match passes with
  | [] -> ""
  | _ ->
    let b = Buffer.create 256 in
    let ppf = Format.formatter_of_buffer b in
    Format.fprintf ppf "@.analysis passes:@.%-12s  %7s  %8s@." "pass" "records"
      "findings";
    List.iter
      (fun p ->
        Format.fprintf ppf "%-12s  %7d  %8d@." p.p_pass p.p_records p.p_findings)
      passes;
    Format.pp_print_flush ppf ();
    Buffer.contents b

let summary_to_json ?(passes = []) (summaries : summary list) : Json.t =
  let pass_field =
    match passes with
    | [] -> []
    | _ ->
      [
        ( "passes",
          Json.List
            (List.map
               (fun p ->
                 Json.Obj
                   [
                     ("pass", Json.Str p.p_pass);
                     ("records", Json.Int p.p_records);
                     ("findings", Json.Int p.p_findings);
                   ])
               passes) );
      ]
  in
  Json.Obj
    ([
      ("schema", Json.Str "tfiris-report/1");
      ( "entries",
        Json.List
          (List.map
             (fun s ->
               Json.Obj
                 ([
                    ("key", Json.Str s.s_key);
                    ("cmd", Json.Str s.s_cmd);
                    ("label", Json.Str s.s_label);
                    ("engine", Json.Str s.s_engine);
                    ("runs", Json.Int s.s_runs);
                    ("verdict", Json.Str s.s_verdict);
                    ("ok", Json.Bool s.s_ok);
                    ("unstable", Json.Bool s.s_unstable);
                    ("median_ms", Json.Float s.s_median_ms);
                    ("min_ms", Json.Float s.s_min_ms);
                    ("max_ms", Json.Float s.s_max_ms);
                  ]
                 @ (match s.s_median_steps with
                   | None -> []
                   | Some n -> [ ("median_steps", Json.Int n) ])
                 @
                 match s.s_alloc_w with
                 | None -> []
                 | Some w -> [ ("alloc_w", Json.Int w) ]))
             summaries) );
    ]
    @ pass_field)

let pp_diff_entry ppf (e : diff_entry) =
  let v = function Some s -> s | None -> "-" in
  Format.fprintf ppf "%-15s  %-12s  %s -> %s" (change_name e.d_change)
    (short_key e.d_key) (v e.d_before) (v e.d_after);
  (match (e.d_ms_before, e.d_ms_after) with
  | Some b, Some a when e.d_change = Time_regression ->
    Format.fprintf ppf "  (%.1fms -> %.1fms)" b a
  | _ -> ());
  (match (e.d_w_before, e.d_w_after) with
  | Some b, Some a when e.d_change = Mem_regression ->
    Format.fprintf ppf "  (%a -> %a)" Telemetry.pp_words b Telemetry.pp_words a
  | _ -> ());
  Format.fprintf ppf "  %s" e.d_label

let render_diff_text (d : diff) : string =
  let b = Buffer.create 512 in
  let ppf = Format.formatter_of_buffer b in
  List.iter (fun e -> Format.fprintf ppf "%a@." pp_diff_entry e) d.entries;
  Format.fprintf ppf
    "%d compared: %d verdict flip%s, %d new failure%s, %d time regression%s \
     (advisory), %d mem regression%s (%s)@."
    d.compared d.flips
    (if d.flips = 1 then "" else "s")
    d.new_failures
    (if d.new_failures = 1 then "" else "s")
    d.regressions
    (if d.regressions = 1 then "" else "s")
    d.mem_regressions
    (if d.mem_regressions = 1 then "" else "s")
    (if d.mem_gate then "gated" else "advisory");
  Format.pp_print_flush ppf ();
  Buffer.contents b

let diff_to_json (d : diff) : Json.t =
  let opt name f = function None -> [] | Some v -> [ (name, f v) ] in
  Json.Obj
    [
      ("schema", Json.Str "tfiris-report-diff/1");
      ("compared", Json.Int d.compared);
      ("flips", Json.Int d.flips);
      ("new_failures", Json.Int d.new_failures);
      ("regressions", Json.Int d.regressions);
      ("mem_regressions", Json.Int d.mem_regressions);
      ("mem_gate", Json.Bool d.mem_gate);
      ("failed", Json.Bool (failed d));
      ( "entries",
        Json.List
          (List.map
             (fun e ->
               Json.Obj
                 ([
                    ("change", Json.Str (change_name e.d_change));
                    ("key", Json.Str e.d_key);
                    ("label", Json.Str e.d_label);
                  ]
                 @ opt "before" (fun s -> Json.Str s) e.d_before
                 @ opt "after" (fun s -> Json.Str s) e.d_after
                 @ opt "ms_before" (fun f -> Json.Float f) e.d_ms_before
                 @ opt "ms_after" (fun f -> Json.Float f) e.d_ms_after
                 @ opt "w_before" (fun n -> Json.Int n) e.d_w_before
                 @ opt "w_after" (fun n -> Json.Int n) e.d_w_after))
             d.entries) );
    ]
