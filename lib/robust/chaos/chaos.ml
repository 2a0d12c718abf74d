(** Seeded fault injection — see chaos.mli for the contract.

    Determinism discipline: every choice (fault plan, scheduler
    decisions, garbage inputs) flows from the seed through one LCG; the
    harness touches no wall clock and no global randomness, so a failing
    seed replays exactly. *)

module Budget = Tfiris_robust.Budget
module Failure = Tfiris_robust.Failure
module Metrics = Tfiris_obs.Metrics
module Trace = Tfiris_obs.Trace
module Json = Tfiris_obs.Json
module Ord = Tfiris_ordinal.Ord
module Existential = Tfiris_logic.Existential
module Formula = Tfiris_logic.Formula
module Formula_parser = Tfiris_logic.Formula_parser
module Counterexample = Tfiris_transition.Counterexample
module Driver = Tfiris_refinement.Driver
module Strategy = Tfiris_refinement.Strategy
module Wp = Tfiris_termination.Wp
open Tfiris_shl

(* ---------- seeded randomness ---------- *)

(** A plain LCG, kept in-module so chaos runs never consult [Random]
    (whose global state other code may perturb). *)
let lcg seed =
  let s = ref (((seed * 2654435761) lxor 0x5DEECE66) land 0x3FFFFFFF) in
  fun bound ->
    s := ((!s * 1103515245) + 12345) land 0x3FFFFFFF;
    if bound <= 1 then 0 else !s mod bound

(* ---------- hostile schedulers ---------- *)

let pick_from (rs : int list) (i : int) = List.nth rs (i mod List.length rs)

let adversarial seed : Conc.scheduler =
  let rng = lcg (seed lxor 0x41D5) in
  fun ~step_no:_ ~runnable rs ->
    ignore rs;
    (* mostly persecute: latest-spawned runnable thread; sometimes an
       arbitrary one, so no thread can rely on any fixed order *)
    if rng 4 = 0 then pick_from runnable (rng (List.length runnable))
    else List.fold_left max 0 runnable

let starving seed : Conc.scheduler =
  let rng = lcg (seed lxor 0x57A2) in
  fun ~step_no:_ ~runnable rs ->
    ignore rs;
    match List.filter (fun i -> i <> 0) runnable with
    | [] -> pick_from runnable 0
    | others -> pick_from others (rng (List.length others))

(* ---------- fault plans ---------- *)

type plan = {
  alloc_fault_period : int option;
  failing_sink : bool;
  clock_skew : bool;
  cache_corrupt : bool;
}

let plan_of_seed seed =
  let rng = lcg seed in
  (* the original record literal drew its fields right-to-left (clock,
     sink, alloc); that order is kept explicit here and later faults are
     drawn after them, so pre-existing seeds keep their exact per-seed
     fault mix.  The bit drawn before [cache_corrupt] belonged to a
     retired fault; it is still drawn, so each seed keeps its cache
     fault. *)
  let clock = rng 2 = 0 in
  let sink = rng 2 = 0 in
  let alloc = if rng 2 = 0 then Some (2 + rng 15) else None in
  let (_ : int) = rng 2 in
  let cache = rng 2 = 0 in
  {
    (* period ≥ 2: a period of 1 would fail the very first allocation
       of every check, turning the whole battery into one long
       [Degraded] — legal, but it would stop exercising anything *)
    alloc_fault_period = alloc;
    failing_sink = sink;
    clock_skew = clock;
    cache_corrupt = cache;
  }

let pp_plan ppf p =
  Format.fprintf ppf "{alloc=%s; sink=%b; clock=%b; cache=%b}"
    (match p.alloc_fault_period with
    | Some n -> string_of_int n
    | None -> "off")
    p.failing_sink p.clock_skew p.cache_corrupt

(* The cache-corrupting read fault: certificate bytes are deterministically
   mangled between disk and parser — truncated mid-object and bit-flipped —
   exercising exactly the corruption tolerance {!Tfiris_obs.Certcache.find}
   promises (a bad entry is a miss, never a crash, never a wrong verdict). *)
let mangle_cert_bytes (raw : string) : string =
  let n = String.length raw in
  if n = 0 then raw
  else
    let keep = max 1 (n / 2) in
    String.init keep (fun i ->
        if i mod 7 = 3 then Char.chr (Char.code raw.[i] lxor 0x20)
        else raw.[i])

let throwing_sink =
  {
    Trace.emit = (fun _ -> failwith "chaos: sink emit failure");
    flush = (fun () -> failwith "chaos: sink flush failure");
  }

let with_plan (p : plan) (f : unit -> 'a) : 'a =
  (match p.alloc_fault_period with
  | None -> Heap.clear_alloc_fault ()
  | Some period ->
    let k = ref 0 in
    Heap.set_alloc_fault (fun _cells ->
        incr k;
        !k mod period = 0));
  Tfiris_obs.Certcache.set_read_fault
    (if p.cache_corrupt then Some mangle_cert_bytes else None);
  let prev_trace = if p.failing_sink then Some (Trace.install throwing_sink) else None in
  if p.clock_skew then begin
    (* a clock that drifts backwards and leaps forwards: timestamps are
       garbage, and nothing downstream may care *)
    let rng = lcg 0x7C10 in
    let t = ref 0L in
    Trace.set_clock (fun () ->
        t := Int64.add !t (Int64.of_int (rng 2_000_000 - 500_000));
        !t)
  end;
  Fun.protect
    ~finally:(fun () ->
      Heap.clear_alloc_fault ();
      Tfiris_obs.Certcache.set_read_fault None;
      Trace.reset_clock ();
      match prev_trace with None -> () | Some prev -> Trace.restore prev)
    f

(* ---------- the battery ---------- *)

type check_outcome =
  | Sound
  | Degraded of Failure.t
  | Unsound of string
  | Crashed of Failure.t

type check_result = {
  check : string;
  outcome : check_outcome;
}

let outcome_ok = function
  | Sound | Degraded _ -> true
  | Unsound _ | Crashed _ -> false

(* Each check returns [Ok ()] for the quiet-world verdict and
   [Error msg] for a flipped one; escaped exceptions are classified by
   [Failure.guard] around the whole thing. *)

(** The finite model validates [∃n. ▷ⁿ False] with no valid member
    (§2.7) — the dilemma must keep biting under fault. *)
let check_existential_fin () =
  match Existential.check_fin ~bound:64 Formula.later_bot_family with
  | Existential.No_witness -> Ok ()
  | v ->
    Error
      (Format.asprintf "finite later_bot verdict became %a"
         Existential.pp_verdict v)

(** Transfinitely the premise is invalid (Theorem 6.2 applies
    vacuously): [∃n. ▷ⁿ False] is simply not valid below ε₀. *)
let check_existential_trans () =
  match Existential.check_trans ~bound:64 Formula.later_bot_family with
  | Existential.Premise_invalid -> Ok ()
  | v ->
    Error
      (Format.asprintf "transfinite later_bot verdict became %a"
         Existential.pp_verdict v)

(** [e_loop ⪯ skip] (§4.1) must never certify as terminated: the
    target diverges.  Budget exhaustion is the expected answer. *)
let check_eloop_skip () =
  match
    Driver.refine ~budget:(Budget.of_steps 500) ~target:Prog.e_loop
      ~source:Prog.skip Strategy.lockstep
  with
  | Driver.Accepted (Driver.Terminated v, _) ->
    Error
      (Format.asprintf "e_loop ⪯ skip certified terminated with %a"
         Pretty.pp_value v)
  | Driver.Accepted (Driver.Fuel_exhausted _, _) | Driver.Rejected _ -> Ok ()

(** The [t∞ ⪯ s<∞] counterexample (§2.3): approximations all hold,
    witnesses are incoherent, the source always terminates. *)
let check_counterexample () =
  let r = Counterexample.run ~indices:16 ~max_pick:64 () in
  if
    r.Counterexample.approx_all_hold
    && r.Counterexample.witnesses_incoherent
    && r.Counterexample.source_always_terminates
  then Ok ()
  else Error "t∞ ⪯ s<∞ counterexample no longer exhibits the dilemma"

(** A credit strategy that hands back a non-descending ordinal is a
    cheater; [TSource] must reject it. *)
let check_wp_cheater () =
  let prog = Ast.(Bin_op (Add, Val (Int 1), Val (Int 2))) in
  let five = Ord.of_int 5 in
  match
    Wp.run ~credits:five (Wp.scripted [ five; five; five ]) (Step.config prog)
  with
  | Wp.Rejected (Wp.Not_decreasing _, _) -> Ok ()
  | Wp.Rejected _ -> Ok ()
  | Wp.Terminated _ -> Error "non-descending credit strategy was accepted"

(** The CAS-locked counter is linearizable under {e any} scheduler:
    if it completes, the answer is 2.  Hostile scheduling may starve
    it into the budget — never into a wrong value or a stuck thread. *)
let check_conc_locked sched_of_seed seed () =
  match
    Conc.run
      ~budget:(Budget.of_steps 50_000)
      ~sched:(sched_of_seed seed)
      (Conc.init Conc.locked_incr)
  with
  | Conc.All_done (Ast.Int 2, _) -> Ok ()
  | Conc.All_done (v, _) ->
    Error
      (Format.asprintf "locked counter finished with %a" Pretty.pp_value v)
  | Conc.Out_of_fuel _ -> Ok ()
  | Conc.Thread_stuck (i, _) ->
    Error (Printf.sprintf "locked counter: thread %d stuck" i)

(** Garbage in, [Error _] out: the parsers and the JSON reader are
    total functions to [result], whatever the bytes. *)
let check_parser_garbage seed () =
  let rng = lcg (seed lxor 0x6A3F) in
  let garbage () =
    String.init (rng 24) (fun _ -> Char.chr (32 + rng 96))
  in
  let nasty =
    [ "\\uZZZZ"; "\"\\uD8"; "{\"a\":"; "99999999999999999999"; "+l"; "x+len" ]
  in
  for _ = 1 to 20 do
    let s = garbage () in
    (match Parser.parse s with Ok _ | Error _ -> ());
    (match Formula_parser.parse s with Ok _ | Error _ -> ());
    match Json.of_string s with Ok _ | Error _ -> ()
  done;
  List.iter
    (fun s ->
      (match Parser.parse s with Ok _ | Error _ -> ());
      (match Json.of_string ("\"" ^ s ^ "\"") with Ok _ | Error _ -> ());
      match Json.of_string s with Ok _ | Error _ -> ())
    nasty;
  Ok ()

(** The explorer under the plan's faults (failing allocations above
    all): if the exhaustive sweep of the CAS-locked counter completes,
    it must find exactly the quiet-world answer — final value 2 on every
    interleaving, no stuck thread.  Running out of budget under fault
    pressure is Degraded-class behaviour (fine); a wrong final set or a
    stuck thread is unsound. *)
let check_conc_explore () =
  let r =
    Conc.explore ~budget:(Budget.of_steps 50_000) (Conc.init Conc.locked_incr)
  in
  if r.Conc.exhausted <> None then Ok ()
  else if r.Conc.stuck <> [] then
    Error "explorer: locked counter has a stuck thread"
  else
    match r.Conc.final_values with
    | [ (Ast.Int 2, _) ] -> Ok ()
    | fs ->
      Error
        (Printf.sprintf "explorer: locked counter reached %d distinct finals"
           (List.length fs))

(** The certificate cache under the corrupting read fault: a stored
    definitive certificate is looked up again.  With the fault armed
    the mangled entry {e must} degrade to a miss (re-verification);
    without it the hit must replay the exact stored verdict.  Anything
    else — a hit with a different verdict, above all — is unsound. *)
let check_cert_cache seed ~corrupt () =
  let module Certcache = Tfiris_obs.Certcache in
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "tfiris-chaos-cache-%d-%d" (Unix.getpid ()) seed)
  in
  let rec rm_rf path =
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path
  in
  let key = Digest.to_hex (Digest.string (Printf.sprintf "chaos-cert-%d" seed)) in
  let cert =
    {
      Certcache.key;
      cmd = "run";
      label = "<chaos>";
      engine = "shl.machine";
      version = "chaos";
      verdict = "value";
      ok = true;
      detail = Some "42";
      consumed = [ ("steps", 7) ];
      replay = None;
    }
  in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists dir then rm_rf dir)
    (fun () ->
      let t = Certcache.open_ ~dir in
      if not (Certcache.store t cert) then
        Error "store refused a definitive certificate"
      else
        match (Certcache.find t ~key, corrupt) with
        | None, true -> Ok () (* corrupt entry degraded to a miss *)
        | None, false -> Error "intact certificate failed to hit"
        | Some _, true -> Error "corrupted certificate still hit"
        | Some c, false ->
          if
            c.Certcache.verdict = cert.Certcache.verdict
            && c.Certcache.ok = cert.Certcache.ok
            && c.Certcache.detail = cert.Certcache.detail
            && c.Certcache.consumed = cert.Certcache.consumed
          then Ok ()
          else
            Error
              (Printf.sprintf "cache hit changed the verdict: %s (ok=%b)"
                 c.Certcache.verdict c.Certcache.ok))

let battery seed ~plan =
  [
    ("existential_fin", check_existential_fin);
    ("existential_trans", check_existential_trans);
    ("eloop_skip", check_eloop_skip);
    ("counterexample", check_counterexample);
    ("wp_cheater", check_wp_cheater);
    ("conc_locked_adversarial", check_conc_locked adversarial seed);
    ("conc_locked_starving", check_conc_locked starving seed);
    ("parser_garbage", check_parser_garbage seed);
    ("conc_explore", check_conc_explore);
    ("cert_cache", check_cert_cache seed ~corrupt:plan.cache_corrupt);
  ]

(* ---------- driving ---------- *)

type seed_report = {
  seed : int;
  plan : plan;
  results : check_result list;
}

let c_seeds = Metrics.counter "robust.chaos.seeds"
let c_checks = Metrics.counter "robust.chaos.checks"
let c_failures = Metrics.counter "robust.chaos.check_failures"

let classify = function
  | Ok (Ok ()) -> Sound
  | Ok (Error msg) -> Unsound msg
  | Error f when Failure.is_internal f -> Crashed f
  | Error f -> Degraded f

let run_seed seed : seed_report =
  let plan = plan_of_seed seed in
  let results =
    with_plan plan (fun () ->
        List.map
          (fun (name, check) ->
            if Metrics.on () then Metrics.incr c_checks;
            let outcome = classify (Failure.guard check) in
            if (not (outcome_ok outcome)) && Metrics.on () then
              Metrics.incr c_failures;
            { check = name; outcome })
          (battery seed ~plan))
  in
  if Metrics.on () then Metrics.incr c_seeds;
  { seed; plan; results }

type report = {
  seeds : int;
  checks_run : int;
  failures : (int * check_result) list;
  sink_errors : int;
}

let run ?(seeds = 50) () : report =
  let sink_errors0 = Trace.sink_errors () in
  let failures = ref [] in
  let checks = ref 0 in
  for seed = 0 to seeds - 1 do
    let r = run_seed seed in
    checks := !checks + List.length r.results;
    List.iter
      (fun cr ->
        if not (outcome_ok cr.outcome) then failures := (seed, cr) :: !failures)
      r.results
  done;
  {
    seeds;
    checks_run = !checks;
    failures = List.rev !failures;
    sink_errors = Trace.sink_errors () - sink_errors0;
  }

let passed r = r.failures = []

let outcome_to_json = function
  | Sound -> Json.Obj [ ("status", Json.Str "sound") ]
  | Degraded f ->
    Json.Obj [ ("status", Json.Str "degraded"); ("failure", Failure.to_json f) ]
  | Unsound msg ->
    Json.Obj [ ("status", Json.Str "unsound"); ("detail", Json.Str msg) ]
  | Crashed f ->
    Json.Obj [ ("status", Json.Str "crashed"); ("failure", Failure.to_json f) ]

let report_to_json (r : report) : Json.t =
  Json.Obj
    [
      ("seeds", Json.Int r.seeds);
      ("checks_run", Json.Int r.checks_run);
      ("passed", Json.Bool (passed r));
      ("sink_errors", Json.Int r.sink_errors);
      ( "failures",
        Json.List
          (List.map
             (fun (seed, cr) ->
               Json.Obj
                 [
                   ("seed", Json.Int seed);
                   ("check", Json.Str cr.check);
                   ("outcome", outcome_to_json cr.outcome);
                 ])
             r.failures) );
    ]

let pp_report ppf (r : report) =
  Format.fprintf ppf "chaos: %d seeds, %d checks, %d failures%s" r.seeds
    r.checks_run (List.length r.failures)
    (if passed r then " — PASS" else " — FAIL");
  List.iter
    (fun (seed, cr) ->
      Format.fprintf ppf "@.  seed %d: %s %s" seed cr.check
        (match cr.outcome with
        | Unsound m -> "UNSOUND: " ^ m
        | Crashed f -> "CRASHED: " ^ Failure.to_string f
        | Sound | Degraded _ -> ""))
    r.failures
