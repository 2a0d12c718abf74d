(* verdicts: the time-to-verdict benchmark (see README.md).

   One client in a closed loop: the harness runs the built tfiris CLI as
   a subprocess, one invocation at a time, over inputs generated from
   the seed (gen.ml), checks every verdict against an independent
   expectation (check.ml) and reports what a user waits for and pays per
   verdict.  Subcommands:

     run      --workload=W --seed=S [--seconds=N] [--out=F]
     trace    the same, each job also replayed under per-layer spans in a
              fresh harness process (layers.ml, [replay] below); writes
              BENCH_trace_<W>.json
     compare  A.json... -- B.json...  [--json=F]
     golden   digests of the generated inputs for seeds 1 and 2
     smoke    every workload on a few jobs, run and trace, no timing
     replay   (internal) replay job.bin in the working directory into
              replay.bin
     kernel   (internal) the reference child that [speed_scale] times

   [--root=DIR] and [--cli=EXE] point at another checkout or binary.

   Called with flags alone, as run.sh passes them
   (--workload W --seed N --seconds S --trace 0|1), it runs [run] or
   [trace] and prints a one-line JSON result last: correct, attempted,
   failed and the metrics. *)

module Obs = Tfiris.Obs
module Json = Obs.Json

let sp = Printf.sprintf

let die fmt = Printf.ksprintf (fun m -> prerr_endline ("verdicts: " ^ m); exit 2) fmt

let now = Unix.gettimeofday

(* ---------- files ---------- *)

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path

let fresh_dir d =
  rm_rf d;
  Unix.mkdir d 0o755

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Unix.mkdir d 0o755
  end

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

(* ---------- statistics ---------- *)

let sorted xs = List.sort compare xs

(* linear interpolation between order statistics *)
let percentile q xs =
  match Array.of_list (sorted xs) with
  | [||] -> 0.
  | a ->
    let pos = q *. float_of_int (Array.length a - 1) in
    let lo = int_of_float pos in
    let hi = min (lo + 1) (Array.length a - 1) in
    a.(lo) +. ((pos -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = percentile 0.5 xs

(* Quartiles as Python's [statistics.quantiles(xs, n=4)] gives them
   (the default exclusive method), the spread rule the bounds are set
   against. *)
let quartiles xs =
  match Array.of_list (sorted xs) with
  | [||] -> (0., 0., 0.)
  | [| x |] -> (x, x, x)
  | a ->
    let n = Array.length a in
    let q i =
      let m = n + 1 in
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = float_of_int ((i * m) - (j * 4)) in
      ((a.(j - 1) *. (4. -. delta)) +. (a.(j) *. delta)) /. 4.
    in
    (q 1, q 2, q 3)

(* ---------- the child process ---------- *)

type child = {
  code : int;  (** -1 when killed or signalled *)
  killed : bool;  (** past the workload's limit *)
  wall_ms : float;
  cpu_ms : float;  (** user + system *)
  out : string;
  err : string;
}

(* The live child, killed and reaped if the harness exits early. *)
let live : int option ref = ref None

let rec waitpid pid =
  try snd (Unix.waitpid [] pid)
  with Unix.Unix_error (Unix.EINTR, _, _) -> waitpid pid

let () =
  at_exit (fun () ->
      match !live with
      | Some pid ->
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (waitpid pid : Unix.process_status)
      | None -> ())

(* Run [prog args] in [cwd] with stdout/stderr collected through pipes;
   past [limit_ms] the child is killed.  Draining both pipes as they
   fill means a chatty child never blocks, and their EOF is the exit. *)
let spawn ~env ~cwd ~limit_ms prog args =
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let err_r, err_w = Unix.pipe ~cloexec:true () in
  let home = Sys.getcwd () in
  let t0 = Unix.times () in
  let w0 = now () in
  Sys.chdir cwd;
  let pid =
    Fun.protect
      ~finally:(fun () -> Sys.chdir home)
      (fun () ->
        Unix.create_process_env prog (Array.of_list (prog :: args)) env in_r out_w err_w)
  in
  live := Some pid;
  List.iter Unix.close [ in_r; in_w; out_w; err_w ];
  let bufs = [ (out_r, Buffer.create 4096); (err_r, Buffer.create 1024) ] in
  let chunk = Bytes.create 65536 in
  let deadline = w0 +. (limit_ms /. 1000.) in
  let rec pump fds =
    let left = deadline -. now () in
    if fds = [] then false
    else if left <= 0. then true
    else
      match Unix.select fds [] [] left with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> pump fds
      | ready, _, _ ->
        pump
          (List.filter
             (fun fd ->
               (not (List.mem fd ready))
               ||
               match Unix.read fd chunk 0 (Bytes.length chunk) with
               | 0 -> false
               | n ->
                 Buffer.add_subbytes (List.assoc fd bufs) chunk 0 n;
                 true
               | exception Unix.Unix_error (Unix.EINTR, _, _) -> true)
             fds)
  in
  let killed = pump [ out_r; err_r ] in
  if killed then (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  let status = waitpid pid in
  live := None;
  let wall_ms = (now () -. w0) *. 1000. in
  let t1 = Unix.times () in
  List.iter Unix.close [ out_r; err_r ];
  {
    code = (match status with Unix.WEXITED c -> c | _ -> -1);
    killed;
    wall_ms;
    cpu_ms =
      1000.
      *. (t1.Unix.tms_cutime +. t1.Unix.tms_cstime
         -. (t0.Unix.tms_cutime +. t0.Unix.tms_cstime));
    out = Buffer.contents (List.assoc out_r bufs);
    err = Buffer.contents (List.assoc err_r bufs);
  }

(* The figures [OCAMLRUNPARAM=v=0x400] makes the child's runtime print
   on stderr at exit. *)
let gc_stat name err =
  List.find_map
    (fun l ->
      match String.index_opt l ':' with
      | Some i when String.sub l 0 i = name ->
        int_of_string_opt (String.trim (String.sub l (i + 1) (String.length l - i - 1)))
      | _ -> None)
    (String.split_on_char '\n' err)
  |> Option.value ~default:0

(* ---------- machine speed ---------- *)

(* The machines this runs on drift: over minutes, everything on them
   slows by up to a third and recovers, as neighbours on the host come
   and go, and a plain 25 s run cannot average that out.  So every
   end-to-end time is normalised to one reference speed.  Every quarter
   second, before the next invocation, the harness times a reference
   child: [verdicts.exe kernel], a fresh OCaml process that builds and
   searches a map and sorts a list, and no tfiris code.  It starts,
   grows its heap and exits the way a CLI child does, and those are the
   costs that drift most; a kernel timed inside the harness, whose heap
   is already mapped, tracked the drift only half as well.  An
   invocation's wall and CPU times are scaled by [kernel_ref_ms] over
   the median of the last five kernel times.  On a machine that runs
   the kernel in [kernel_ref_ms], the figures are plain milliseconds. *)
module Int_map = Map.Make (Int)

let kernel_ref_ms = 12.0

let kernel_every_s = 0.25

(** The reference child's work. *)
let kernel () =
  let m = ref Int_map.empty in
  for i = 0 to 9999 do
    m := Int_map.add ((i * 7919) land 0xFFFFF) i !m
  done;
  let acc = ref 0 in
  for i = 0 to 19999 do
    match Int_map.find_opt ((i * 104729) land 0xFFFFF) !m with
    | Some v -> acc := !acc + v
    | None -> incr acc
  done;
  let l = List.sort compare (List.init 15000 (fun i -> (i * 104729) land 0xFFFFF)) in
  ignore (Sys.opaque_identity (!acc + List.length l + Int_map.cardinal !m) : int)

let kernels = ref []  (* every kernel time of the run, newest first *)

let last_kernel = ref neg_infinity

let time_kernel ~env ~cwd =
  let c = spawn ~env ~cwd ~limit_ms:10_000. Sys.executable_name [ "kernel" ] in
  if c.code <> 0 then failwith "the reference child failed";
  kernels := c.wall_ms :: !kernels;
  last_kernel := now ()

(** The factor that takes times measured now to the reference speed. *)
let speed_scale ~env ~cwd =
  (* a full window of five before the first invocation *)
  if !kernels = [] then for _ = 1 to 5 do time_kernel ~env ~cwd done
  else if now () -. !last_kernel >= kernel_every_s then time_kernel ~env ~cwd;
  kernel_ref_ms /. median (List.filteri (fun i _ -> i < 5) !kernels)

(* ---------- one invocation ---------- *)

type ctx = {
  workload : Gen.workload;
  seed : int;
  cli : string;
  work : string;  (** this run's scratch tree, under the checkout *)
  env : string array;
  expected : Gen.expected array;  (** by job id *)
  seen : (string, string) Hashtbl.t;  (** see [Check.check_shard] *)
  mutable failures : int;
  mutable quiet : bool;  (** count failures without printing them *)
}

type sample = {
  id : int;  (** the job's *)
  wall : float;  (** ms, as measured *)
  cpu : float;  (** ms, as measured *)
  scale : float;  (** to the reference speed, see [speed_scale] *)
  alloc_w : int;
  heap_w : int;
  ok : bool;
}

let report_failure ctx (job : Gen.job) what msg =
  ctx.failures <- ctx.failures + 1;
  if ctx.failures <= 10 && not ctx.quiet then
    let short a = if String.length a > 40 then String.sub a 0 37 ^ "..." else a in
    Printf.eprintf "verdicts: FAIL (%s) %s: %s\n%!" what
      (String.concat " " (List.map short job.argv))
      msg

let job_dir ctx = Filename.concat ctx.work "job"

let invoke ?expected ?limit_ms ctx (job : Gen.job) : sample =
  let expected = Option.value expected ~default:ctx.expected.(job.id) in
  let limit_ms = Option.value limit_ms ~default:(Gen.limit_ms ctx.workload) in
  let dir = job_dir ctx in
  fresh_dir dir;
  let scale = speed_scale ~env:ctx.env ~cwd:ctx.work in
  let c = spawn ~env:ctx.env ~cwd:dir ~limit_ms ctx.cli job.argv in
  let verdict =
    if c.killed then Error (sp "killed at the %.0f ms limit" limit_ms)
    else
      Check.check ~seen:ctx.seen expected
        {
          Check.code = c.code;
          stdout = c.out;
          ledger = Layers.read_ledger (Filename.concat dir "ledger.jsonl");
        }
  in
  rm_rf dir;
  (match verdict with Ok () -> () | Error m -> report_failure ctx job "cli" m);
  {
    id = job.id;
    wall = c.wall_ms;
    cpu = c.cpu_ms;
    scale;
    alloc_w = gc_stat "allocated_words" c.err;
    heap_w = gc_stat "top_heap_words" c.err;
    ok = verdict = Ok ();
  }

(* Set-up is the program's own: the warm-up invocations, and for
   corpus-warm the cold sweep that fills the caches it reads.  Its time
   is theirs, in seconds at the reference speed. *)
let setup ctx jobs =
  let total = ref 0. in
  let invoke ?expected ?limit_ms ctx job =
    let s = invoke ?expected ?limit_ms ctx job in
    total := !total +. (s.wall *. s.scale /. 1000.)
  in
  (match ctx.workload with
  | Gen.Corpus_warm ->
    let caches = Filename.concat ctx.work "caches" in
    fresh_dir caches;
    List.iter
      (fun (job : Gen.job) ->
        let cold =
          match ctx.expected.(job.id) with
          | Gen.E_shard e -> Gen.E_shard { e with warm = false }
          | e -> e
        in
        (* a cold sweep, so the cold workload's limit *)
        invoke ~expected:cold ~limit_ms:(Gen.limit_ms Gen.Corpus_cold) ctx job)
      jobs
  | _ -> ());
  List.iter (fun (job : Gen.job) -> if job.warmup then invoke ctx job) jobs;
  !total

(* Set-ups in bursts spread over the run: a burst of at least a quarter
   second of set-ups before the first pass, and another before any pass
   that starts an eighth of [seconds] after the last burst.  [setup_s]
   is their median.  Spread out, the bursts see the machine as the
   passes around them do; set-ups all at the start would see only its
   first seconds, and a slow spell there would move the median by a
   quarter.  Returns the hook to call before each pass, and the median. *)
let setup_bursts ctx jobs ~seconds =
  let times = ref [] and last = ref neg_infinity in
  let before_pass () =
    if now () -. !last >= seconds /. 8. then begin
      let t0 = now () in
      let rec go () =
        times := setup ctx jobs :: !times;
        if now () -. t0 < 0.25 then go ()
      in
      go ();
      last := now ()
    end
  in
  (before_pass, fun () -> median !times)

(* Whole passes of the job list until the next would overrun [seconds],
   so every run sees each job equally often; at least one pass, and
   enough for [min_invocations] even when the machine is slow. *)
let passes ~seconds ~min_invocations ~before_pass jobs f =
  let t0 = now () in
  let rec go n last =
    if n > 0
       && n * List.length jobs >= min_invocations
       && now () -. t0 +. last > seconds
    then n
    else begin
      before_pass ();
      let p0 = now () in
      List.iter f jobs;
      go (n + 1) (now () -. p0)
    end
  in
  go 0 0.

(* ---------- metrics ---------- *)

(* Every end-to-end metric with its unit; BENCHMARK.json lists the same
   names with their regression bounds. *)
let e2e_spec =
  [
    ("verdicts_per_s", "1/s"); ("latency_ms_p50", "ms"); ("latency_ms_p90", "ms");
    ("cpu_ms_per_verdict", "ms"); ("alloc_words_per_verdict", "words");
    ("peak_heap_mb", "MB"); ("decided_in_limit", "ratio"); ("setup_s", "s");
  ]

(* Times are first taken to the reference speed (see [speed_scale]).
   A slow spell can still outlast the kernel's window, so each job's
   median over the passes is taken next: a spell moves a run's figures
   only if it covers half of it.  The figures then describe one pass of
   the job list: latency percentiles over the jobs' medians, per-verdict
   costs as their mean, throughput as jobs over the pass's summed wall
   time. *)
let e2e_metrics samples ~setup_s =
  let ids = List.sort_uniq compare (List.map (fun s -> s.id) samples) in
  let per_job f =
    List.map
      (fun id ->
        median
          (List.filter_map (fun s -> if s.id = id then Some (f s) else None) samples))
      ids
  in
  let decided =
    float_of_int (List.length (List.filter (fun s -> s.ok) samples))
    /. float_of_int (max 1 (List.length samples))
  in
  let jobs = float_of_int (List.length ids) in
  let sum = List.fold_left ( +. ) 0. in
  let per_verdict xs = if decided > 0. then sum xs /. jobs /. decided else 0. in
  let walls = per_job (fun s -> s.wall *. s.scale) in
  [
    ( "verdicts_per_s",
      if walls = [] then 0. else decided *. jobs /. (sum walls /. 1000.) );
    ("latency_ms_p50", percentile 0.5 walls);
    ("latency_ms_p90", percentile 0.9 walls);
    ("cpu_ms_per_verdict", per_verdict (per_job (fun s -> s.cpu *. s.scale)));
    ("alloc_words_per_verdict", per_verdict (per_job (fun s -> float_of_int s.alloc_w)));
    ( "peak_heap_mb",
      List.fold_left max 0. (per_job (fun s -> float_of_int s.heap_w)) *. 8. /. 1e6 );
    ("decided_in_limit", decided);
    ("setup_s", setup_s);
  ]

let print_metrics spec values =
  List.iter
    (fun (name, unit) ->
      Printf.printf "  %-38s %16.6g %s\n" name (List.assoc name values) unit)
    spec

let metrics_json spec values =
  Json.Obj
    (List.map
       (fun (name, unit) ->
         ( name,
           Json.Obj
             [
               ("value", Json.Float (List.assoc name values)); ("unit", Json.Str unit);
             ] ))
       spec)

(* ---------- run and trace ---------- *)

type outcome = {
  mode : string;
  attempted : int;
  failed : int;
  metrics : (string * float) list;
  spec : (string * string) list;
  extra : (string * Json.t) list;  (** reported, not gated *)
}

let make_ctx ~root ~cli ~smoke workload ~seed =
  let work = Filename.concat root (sp ".bench_work/run-%d" (Unix.getpid ())) in
  mkdir_p work;
  at_exit (fun () ->
      rm_rf work;
      try Unix.rmdir (Filename.dirname work) with Unix.Unix_error _ -> ());
  let t0 = now () in
  let g = Gen.make ~root workload ~seed in
  List.iter
    (fun (path, contents) ->
      let file = Filename.concat (Filename.concat work "gen") path in
      mkdir_p (Filename.dirname file);
      write_file file contents)
    g.files;
  let baseline = Gen.load_baseline ~root in
  let expected = Array.make (List.length g.jobs) Gen.E_rejected in
  List.iter
    (fun (j : Gen.job) ->
      if j.smoke || not smoke then expected.(j.id) <- Gen.expect ~baseline j)
    g.jobs;
  let drop v =
    List.exists
      (fun p -> String.starts_with ~prefix:(p ^ "=") v)
      [ "TFIRIS_DOMAINS"; "TFIRIS_CACHE"; "OCAMLRUNPARAM"; "CAMLRUNPARAM"; "TMPDIR" ]
  in
  let env =
    Array.append
      (Array.of_list
         (List.filter (fun v -> not (drop v)) (Array.to_list (Unix.environment ()))))
      [| "OCAMLRUNPARAM=v=0x400"; "TMPDIR=" ^ work |]
  in
  ( {
      workload;
      seed;
      cli;
      work;
      env;
      expected;
      seen = Hashtbl.create 16;
      failures = 0;
      quiet = false;
    },
    g,
    now () -. t0 )

let run_or_trace ~root ~cli ~trace ~smoke ~seconds workload ~seed : outcome =
  let ctx, g, gen_s = make_ctx ~root ~cli ~smoke workload ~seed in
  let jobs =
    if smoke then List.filter (fun (j : Gen.job) -> j.smoke) g.jobs else g.jobs
  in
  let before_pass, setup_s = setup_bursts ctx jobs ~seconds in
  (* the sample count [latency_ms_p90] needs; traced runs report no p90 *)
  let min_invocations = if smoke || trace then 0 else 100 in
  let passes = passes ~seconds ~min_invocations ~before_pass in
  let extra_common = [ ("bench.gen_s", Json.Float gen_s) ] in
  if not trace then begin
    let samples = ref [] in
    let n_passes = passes jobs (fun j -> samples := invoke ctx j :: !samples) in
    let n = List.length !samples in
    let failed = ctx.failures in
    {
      mode = "run";
      attempted = n;
      failed;
      metrics = e2e_metrics !samples ~setup_s:(setup_s ());
      spec = e2e_spec;
      extra =
        extra_common
        @ [
            ("passes", Json.Int n_passes);
            ("latency_samples", Json.Int n);
            ("kernel_ms", Json.Float (median !kernels));
            ("error_rate", Json.Float (float_of_int failed /. float_of_int (max 1 n)));
          ];
    }
  end
  else begin
    let version () =
      (spawn ~env:ctx.env ~cwd:ctx.work ~limit_ms:1000. ctx.cli [ "--version" ]).wall_ms
    in
    let spawn_ms = median (List.init (if smoke then 3 else 20) (fun _ -> version ())) in
    let caches = Filename.concat ctx.work "caches" in
    let n = ref 0 in
    (* the job goes to a fresh harness process ([verdicts.exe replay],
       [Layers.replay_process]) by file, and its spans and counts come
       back the same way *)
    let replay (job : Gen.job) =
      let wall = (invoke ctx job).wall in
      let dir = job_dir ctx in
      fresh_dir dir;
      write_file (Filename.concat dir "job.bin")
        (Marshal.to_string (caches, !n, wall, job) []);
      let c =
        spawn ~env:ctx.env ~cwd:dir
          ~limit_ms:(2. *. Gen.limit_ms ctx.workload)
          Sys.executable_name [ "replay" ]
      in
      let out =
        if c.code <> 0 then Error (sp "replay process exited %d: %s" c.code c.err)
        else
          let (e : Layers.export) =
            Marshal.from_string (Gen.read_file (Filename.concat dir "replay.bin")) 0
          in
          Layers.absorb e;
          e.out
      in
      incr n;
      (match Result.bind out (Check.check ~seen:ctx.seen ctx.expected.(job.id)) with
      | Ok () -> ()
      | Error m -> report_failure ctx job "replay" m);
      rm_rf dir
    in
    let n_passes = passes jobs replay in
    let trace_file = sp "BENCH_trace_%s.json" (Gen.name workload) in
    write_file trace_file
      (Json.to_string (Layers.trace_json ~workload:(Gen.name workload) ~seed));
    {
      mode = "trace";
      attempted = !n;
      failed = ctx.failures;
      metrics = Layers.metrics ~passes:n_passes ~spawn_ms;
      spec = Layers.metrics_spec;
      extra =
        extra_common
        @ [ ("passes", Json.Int n_passes); ("trace_file", Json.Str trace_file) ];
    }
  end

let print_outcome workload ~seed o =
  Printf.printf "%s  workload=%s seed=%d  invocations=%d failed=%d\n" o.mode
    (Gen.name workload) seed o.attempted o.failed;
  print_metrics o.spec o.metrics;
  List.iter
    (fun (k, v) -> Printf.printf "  %-38s %16s\n" k (Json.to_string v))
    o.extra

let outcome_json workload ~seed o =
  Json.Obj
    ([
       ("schema", Json.Str "tfiris-verdicts/1");
       ("workload", Json.Str (Gen.name workload));
       ("seed", Json.Int seed);
       ("mode", Json.Str o.mode);
       ("attempted", Json.Int o.attempted);
       ("failed", Json.Int o.failed);
       ("metrics", metrics_json o.spec o.metrics);
     ]
    @ o.extra)

let result_json o =
  Json.Obj
    [
      ("correct", Json.Bool (o.failed = 0));
      ("attempted", Json.Int (max 1 o.attempted));
      ("failed", Json.Int o.failed);
      ("metrics", metrics_json o.spec o.metrics);
    ]

(* ---------- BENCHMARK.json ---------- *)

type bound = {
  b_name : string;
  b_unit : string;
  lower_better : bool;
  bound : float;  (** 0 for per-layer metrics, which have none *)
}

let load_json path =
  match Json.of_string (Gen.read_file path) with
  | Ok j -> j
  | Error m -> die "%s: %s" path m
  | exception Sys_error m -> die "%s" m

(** The end-to-end and per-layer metric lists. *)
let load_benchmark path : bound list * bound list =
  let j = load_json path in
  let section key =
    match Option.bind (Json.member key j) Json.to_list with
    | None -> die "%s: no %S list" path key
    | Some ms ->
      List.map
        (fun m ->
          let s k = Option.bind (Json.member k m) Json.to_str in
          match (s "name", s "unit", s "better") with
          | Some b_name, Some b_unit, Some better ->
            {
              b_name;
              b_unit;
              lower_better = better = "lower";
              bound =
                Option.value ~default:0.
                  (Option.bind (Json.member "bound" m) Json.to_float);
            }
          | _ -> die "%s: malformed %s entry" path key)
        ms
  in
  (section "end_to_end", section "per_layer")

(* ---------- compare ---------- *)

type run_file = {
  r_workload : string;
  r_mode : string;
  r_metrics : (string * float) list;
}

let load_run path =
  let j = load_json path in
  let s k = Option.value ~default:"" (Option.bind (Json.member k j) Json.to_str) in
  let value v = Option.bind (Json.member "value" v) Json.to_float in
  let metrics =
    match Json.member "metrics" j with
    | Some (Json.Obj kvs) ->
      List.filter_map (fun (k, v) -> Option.map (fun x -> (k, x)) (value v)) kvs
    | _ -> []
  in
  { r_workload = s "workload"; r_mode = s "mode"; r_metrics = metrics }

let spread (q1, med, q3) = if med = 0. then 0. else (q3 -. q1) /. med

(* The benchmark's rules for one metric, A the parent and B the change:
   a regression when B's median is worse than A's by more than the
   bound; unresolved when either side's quartile spread is wider than
   the bound, unless every B run beats every A run; improved when B
   wins at least 9 of 10 pairs (files paired in order) and the medians
   differ by more than A's interquartile range. *)
let judge m xa xb =
  let ((q1a, meda, q3a) as qa) = quartiles xa and ((_, medb, _) as qb) = quartiles xb in
  let better x y = if m.lower_better then x < y else x > y in
  let worse = (if m.lower_better then medb -. meda else meda -. medb) /. meda in
  let k = min (List.length xa) (List.length xb) in
  let first l = List.filteri (fun i _ -> i < k) l in
  let pairs = List.combine (first xa) (first xb) in
  let wins = List.length (List.filter (fun (x, y) -> better y x) pairs) in
  let dominates = List.for_all (fun y -> List.for_all (better y) xa) xb in
  if worse > m.bound then "regression"
  else if (spread qa > m.bound || spread qb > m.bound) && not dominates then "unresolved"
  else if
    10 * wins >= 9 * k && Float.abs (medb -. meda) > q3a -. q1a && better medb meda
  then "improved"
  else "unchanged"

let side_json xs =
  let ((q1, med, q3) as q) = quartiles xs in
  Json.Obj
    [
      ("n", Json.Int (List.length xs)); ("median", Json.Float med); ("q1", Json.Float q1);
      ("q3", Json.Float q3); ("spread", Json.Float (spread q));
    ]

(** One block per workload: every end-to-end metric judged from the
    untraced files, and every exact count (unit [count]) of the traced
    files, which must not move at all.  Exit 1 on a regression or a
    behaviour change. *)
let compare_cmd ~json_out a_files b_files =
  let e2e, layers = load_benchmark "BENCHMARK.json" in
  let a = List.map load_run a_files and b = List.map load_run b_files in
  let values runs w mode name =
    List.filter_map
      (fun r ->
        if r.r_workload = w && r.r_mode = mode then List.assoc_opt name r.r_metrics
        else None)
      runs
  in
  let bad = ref false in
  let block w =
    Printf.printf "%s\n  %-26s %34s %34s %7s  %s\n" w "metric" "A median [q1, q3]"
      "B median [q1, q3]" "bound" "status";
    let e2e_rows =
      List.filter_map
        (fun m ->
          match (values a w "run" m.b_name, values b w "run" m.b_name) with
          | [], _ | _, [] -> None
          | xa, xb ->
            let status = judge m xa xb in
            if status = "regression" then bad := true;
            let q1a, meda, q3a = quartiles xa and q1b, medb, q3b = quartiles xb in
            Printf.printf
              "  %-26s %12.6g [%9.6g, %9.6g] %12.6g [%9.6g, %9.6g] %6.1f%%  %s\n" m.b_name
              meda q1a q3a medb q1b q3b (100. *. m.bound) status;
            Some
              ( m.b_name,
                Json.Obj
                  [
                    ("unit", Json.Str m.b_unit); ("bound", Json.Float m.bound);
                    ("a", side_json xa); ("b", side_json xb); ("status", Json.Str status);
                  ] ))
        e2e
    in
    let exact_rows =
      List.filter_map
        (fun m ->
          match values a w "trace" m.b_name @ values b w "trace" m.b_name with
          | [] -> None
          | _ when m.b_unit <> "count" -> None
          | x :: _ as xs ->
            let same = List.for_all (fun y -> y = x) xs in
            if not same then begin
              bad := true;
              Printf.printf "  %-38s behaviour-change: %s\n" m.b_name
                (String.concat " " (List.map (sp "%.17g") xs))
            end;
            Some (m.b_name, Json.Str (if same then "identical" else "behaviour-change")))
        layers
    in
    let changed = List.filter (fun (_, s) -> s <> Json.Str "identical") exact_rows in
    if exact_rows <> [] then
      Printf.printf "  exact counts: %d compared, %d changed\n" (List.length exact_rows)
        (List.length changed);
    ( w,
      Json.Obj
        [ ("end_to_end", Json.Obj e2e_rows); ("exact_counts", Json.Obj exact_rows) ] )
  in
  let rows =
    List.map block (List.sort_uniq compare (List.map (fun r -> r.r_workload) (a @ b)))
  in
  let names files =
    Json.List (List.map (fun f -> Json.Str (Filename.basename f)) files)
  in
  Option.iter
    (fun f ->
      write_file f
        (Json.to_string
           (Json.Obj
              [
                ("schema", Json.Str "tfiris-verdicts-compare/1"); ("a", names a_files);
                ("b", names b_files); ("workloads", Json.Obj rows);
              ])
        ^ "\n"))
    json_out;
  if !bad then 1 else 0

(* ---------- golden and smoke ---------- *)

(* One line per (workload, seed): a digest of the job list and of every
   generated file.  Shipped examples enter by name only, so editing one
   does not move the digest.  Fails when two seeds give the same inputs. *)
let golden ~root =
  let digest w seed =
    let g = Gen.make ~root w ~seed in
    let shipped p =
      List.exists (fun ex -> Filename.basename p = ex ^ ".shl") Gen.shipped_examples
    in
    let text =
      String.concat "\x00"
        (List.map (fun (j : Gen.job) -> String.concat "\x01" j.argv) g.jobs
        @ List.map (fun (p, body) -> if shipped p then p else p ^ "\x01" ^ body) g.files)
    in
    let d = Digest.to_hex (Digest.string text) in
    Printf.printf "%s seed=%d jobs=%d files=%d %s\n" (Gen.name w) seed
      (List.length g.jobs) (List.length g.files) d;
    d
  in
  let same =
    List.filter
      (fun w ->
        let d1 = digest w 1 in
        let d2 = digest w 2 in
        d1 = d2)
      Gen.workloads
  in
  List.iter
    (fun w ->
      Printf.eprintf "verdicts: seeds 1 and 2 give %s the same inputs\n" (Gen.name w))
    same;
  if same = [] then 0 else 1

(* A deliberately wrong expectation, to show the checker catches it. *)
let wrong : Gen.expected -> Gen.expected = function
  | E_shard ({ programs = (p, Gen.Value (v, n), g) :: rest; _ } as e) ->
    E_shard { e with programs = (p, Gen.Value (v ^ "0", n), g) :: rest }
  | E_shard ({ programs = (p, Gen.Stuck _, g) :: rest; _ } as e) ->
    E_shard { e with programs = (p, Gen.Value ("0", 0), g) :: rest }
  | E_shard e -> E_shard e
  | E_terminated e -> E_terminated { e with value = e.value + 1 }
  | E_rejected -> E_terminated { value = 0; steps = 0 }
  | E_accepted e -> E_accepted { e with value = e.value + 1 }
  | E_explored e -> E_explored { e with states = e.states + 1 }
  | E_dead e -> E_dead { chops = e.chops + 1 }
  | E_goodstein l -> E_goodstein (List.tl l)

(* Every workload with a handful of jobs, run and traced: verdicts
   right, a planted wrong expectation caught, and every metric
   BENCHMARK.json names present with its unit.  No timing is asserted. *)
let smoke ~root ~cli =
  let e2e, layers = load_benchmark (Filename.concat root "BENCHMARK.json") in
  let errors = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> errors := m :: !errors) fmt in
  let names spec = List.map (fun m -> (m.b_name, m.b_unit)) spec in
  List.iter
    (fun w ->
      List.iter
        (fun trace ->
          let o = run_or_trace ~root ~cli ~trace ~smoke:true ~seconds:0. w ~seed:1 in
          if o.failed > 0 then
            fail "%s %s: %d failed verdicts" (Gen.name w) o.mode o.failed;
          let want = names (if trace then layers else e2e) in
          if List.sort compare want <> List.sort compare o.spec then
            fail "%s %s: metrics differ from BENCHMARK.json" (Gen.name w) o.mode)
        [ false; true ];
      let ctx, g, _ = make_ctx ~root ~cli ~smoke:true w ~seed:1 in
      let job = List.find (fun (j : Gen.job) -> j.smoke) g.jobs in
      if w = Gen.Corpus_warm then ignore (setup ctx [ job ] : float);
      let planted = wrong ctx.expected.(job.id) in
      let before = ctx.failures in
      ctx.quiet <- true;
      if (invoke ~expected:planted ctx job).ok || ctx.failures = before then
        fail "%s: a wrong expectation was not caught" (Gen.name w))
    Gen.workloads;
  match !errors with
  | [] -> 0
  | es ->
    List.iter (fun m -> prerr_endline ("verdicts: smoke: " ^ m)) (List.rev es);
    1

(* ---------- command line ---------- *)

(* [--k=v] and [--k v] flags *)
let parse_flags args =
  let name a = String.sub a 2 (String.length a - 2) in
  let rec go acc = function
    | [] -> List.rev acc
    | a :: rest when String.starts_with ~prefix:"--" a && String.contains a '=' ->
      let i = String.index a '=' in
      let v = String.sub a (i + 1) (String.length a - i - 1) in
      go ((String.sub a 2 (i - 2), v) :: acc) rest
    | a :: v :: rest when String.starts_with ~prefix:"--" a ->
      go ((name a, v) :: acc) rest
    | a :: _ -> die "unexpected argument %S" a
  in
  go [] args

let () =
  Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> exit 3));
  Sys.set_signal Sys.sigint (Sys.Signal_handle (fun _ -> exit 3));
  (* replays see the environment the CLI children get *)
  Unix.putenv "TFIRIS_DOMAINS" "";
  Unix.putenv "TFIRIS_CACHE" "";
  let cmd, args =
    match List.tl (Array.to_list Sys.argv) with
    | a :: rest when not (String.starts_with ~prefix:"--" a) -> (a, rest)
    | args -> ("flags", args)
  in
  let flag fs k default = Option.value ~default (List.assoc_opt k fs) in
  let absolute p =
    if Filename.is_relative p then Filename.concat (Sys.getcwd ()) p else p
  in
  let paths fs =
    let root = absolute (flag fs "root" ".") in
    let built = Filename.concat root "_build/default/bin/tfiris_cli.exe" in
    let cli = absolute (flag fs "cli" built) in
    if not (Sys.file_exists cli) then
      die "no CLI at %s (dune build bin/tfiris_cli.exe)" cli;
    (root, cli)
  in
  (* [run], [trace], and the flags-only form, where --trace 0|1 picks one *)
  let measure ~trace =
    let fs = parse_flags args in
    let root, cli = paths fs in
    let workload =
      match Gen.of_name (flag fs "workload" "") with
      | Some w -> w
      | None ->
        die "--workload must be one of %s"
          (String.concat ", " (List.map Gen.name Gen.workloads))
    in
    let seed = Option.value ~default:1 (int_of_string_opt (flag fs "seed" "1")) in
    let seconds =
      Option.value ~default:25. (float_of_string_opt (flag fs "seconds" "25"))
    in
    let trace = trace || flag fs "trace" "0" = "1" in
    let o = run_or_trace ~root ~cli ~trace ~smoke:false ~seconds workload ~seed in
    print_outcome workload ~seed o;
    Option.iter
      (fun f -> write_file f (Json.to_string (outcome_json workload ~seed o) ^ "\n"))
      (List.assoc_opt "out" fs);
    print_endline (Json.to_string (result_json o));
    0
  in
  let code =
    match cmd with
    | "flags" | "run" -> measure ~trace:false
    | "trace" -> measure ~trace:true
    | "compare" ->
      let opts, files =
        List.partition (fun a -> a <> "--" && String.starts_with ~prefix:"--" a) args
      in
      let rec split acc = function
        | [] -> (List.rev acc, [])
        | "--" :: b -> (List.rev acc, b)
        | x :: rest -> split (x :: acc) rest
      in
      let a_files, b_files = split [] files in
      if a_files = [] || b_files = [] then
        die "usage: compare [--json=F] A.json... -- B.json...";
      let fs = parse_flags opts in
      compare_cmd ~json_out:(List.assoc_opt "json" fs) a_files b_files
    | "replay" ->
      let caches, idx, e2e_ms, job = Marshal.from_string (Gen.read_file "job.bin") 0 in
      let e = Layers.replay_process ~caches ~idx ~e2e_ms job in
      write_file "replay.bin" (Marshal.to_string e []);
      0
    | "kernel" ->
      kernel ();
      0
    | "golden" -> golden ~root:(flag (parse_flags args) "root" ".")
    | "smoke" ->
      let fs = parse_flags args in
      let root, cli = paths fs in
      smoke ~root ~cli
    | c -> die "unknown subcommand %S (run, trace, compare, golden, smoke)" c
  in
  exit code
