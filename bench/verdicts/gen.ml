(* The inputs of the time-to-verdict benchmark, generated from a seed,
   and the independent expectations every verdict is checked against.

   Cost is fixed, names and data are seeded.  The seed picks
   identifiers, data values (list elements, string bytes, task
   increments) and the order of the jobs within a pass.  It never
   changes how much work a job does: which templates a program strings
   together, recursion depths, list lengths, hydra shapes and Goodstein
   lengths are the same on every seed.  Runs on different seeds thus
   measure the same cost, and their spread is the benchmark's noise
   rather than its input mix.

   Expectations never come from the code path under test: run values
   come from native OCaml arithmetic and from a [Shl.Step.prim_step]
   reference loop (not the frame-stack machine the CLI runs on), state
   counts from the sequential explorer (the CLI explores on two
   domains), analyzer reports of the shipped examples from the committed
   [BENCH_history/baseline-analyze.json]. *)

module Shl = Tfiris.Shl
module Json = Tfiris.Obs.Json

type workload = Corpus_cold | Corpus_warm | Drivers | Ordinal

let workloads = [ Corpus_cold; Corpus_warm; Drivers; Ordinal ]

let name = function
  | Corpus_cold -> "corpus-cold"
  | Corpus_warm -> "corpus-warm"
  | Drivers -> "drivers"
  | Ordinal -> "ordinal"

let of_name s = List.find_opt (fun w -> name w = s) workloads

(* A child past its workload's limit is killed and counts as failed.
   Each limit is at least three times what the workload's slowest job
   takes when the machine runs at half speed, as shared machines do for
   minutes at a time: a kill means a hang, not noise. *)
let limit_ms = function
  | Corpus_cold -> 2000.
  | Corpus_warm -> 1000.
  | Drivers -> 5000.
  | Ordinal -> 10000.

let sp = Printf.sprintf

(* ---------- a small seeded generator ---------- *)

(* A 63-bit LCG rather than [Random]: the job list is pinned by a
   committed digest (jobs.golden), so it must not move when the
   stdlib's generator does. *)
type rng = { mutable s : int }

let next r =
  r.s <- (r.s * 2862933555777941757) + 3037000493;
  (r.s lsr 31) land 0x3FFF_FFFF

let rng seed =
  let r = { s = seed } in
  for _ = 1 to 4 do
    ignore (next r : int)
  done;
  r

let int r n = next r mod n

let shuffle r a =
  for i = Array.length a - 1 downto 1 do
    let j = int r (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* Two seeded letters: identifiers differ between seeds, and the
   underscore the callers put in front keeps them clear of keywords. *)
let letters r = String.init 2 (fun _ -> Char.chr (97 + int r 26))

(* ---------- jobs ---------- *)

type program = {
  path : string;  (** under the generated tree, e.g. ["s03/g10.shl"] *)
  source : string;
  value : int option;
      (** the value native arithmetic predicts; [None] for the shipped
          examples and the stuck mutants, which the reference loop
          alone decides *)
  shipped : string option;
      (** the committed example this copies, as the analyze baseline
          labels it *)
}

type task =
  | Verify of { shard : string; programs : program list; warm : bool }
  | Check_term of { program : string; credits : string; value : int option }
      (** [None]: diverges, so the credit check must reject *)
  | Refine of { target : string; source : string; value : int option }
      (** [None]: the target diverges and the source does not *)
  | Explore of { program : string; finals : int list }
  | Hydra of {
      width : int;
      depth : int;
      regrow : int;
      adversarial : bool;
      chops : int;
    }
  | Goodstein of { n : int; max_len : int }

type job = {
  id : int;  (** position in the canonical (unshuffled) list *)
  argv : string list;  (** tfiris arguments, paths relative to the job dir *)
  task : task;
  warmup : bool;  (** also run, untimed, during set-up *)
  smoke : bool;  (** one of the few jobs [--smoke] runs *)
}

type t = {
  workload : workload;
  seed : int;
  files : (string * string) list;
      (** the generated tree: path relative to it, contents *)
  jobs : job list;  (** one pass, in the seed's order *)
}

(* ---------- native arithmetic (the value oracles) ---------- *)

let rec fib n = if n < 2 then n else fib (n - 1) + fib (n - 2)

let rec ack m n =
  if m = 0 then n + 1 else if n = 0 then ack (m - 1) 1 else ack (m - 1) (ack m (n - 1))

(* A sorted list of digits read back as a number, least significant
   digit first — what the SHL [enc] below computes. *)
let enc sorted = Array.fold_right (fun d acc -> d + (10 * acc)) sorted 0

(* Depth-2 bushes die after the same number of chops under either
   chooser: a node with k leaves costs f k = 1 + (r+1) f (k-1) chops,
   f 0 = 1 (the regrown copies all die the same way). *)
let bush2_chops ~width ~regrow =
  let rec f k = if k = 0 then 1 else 1 + ((regrow + 1) * f (k - 1)) in
  width * f width

(* Overflow-checked Goodstein steps, written independently of
   [Goodstein]: [bump b n] reads [n]'s hereditary base-[b] digits back
   in base [b+1]. *)
let mul_c a b = if a <> 0 && b > max_int / a then None else Some (a * b)

let add_c a b = if a > max_int - b then None else Some (a + b)

let pow_c b e =
  let rec go acc e =
    if e = 0 then Some acc
    else match mul_c acc b with None -> None | Some a -> go a (e - 1)
  in
  go 1 e

let rec bump b n =
  let rec go n e acc =
    if n = 0 then Some acc
    else
      let d = n mod b in
      let term =
        if d = 0 then Some 0
        else
          Option.bind (bump b e) (fun e' ->
              Option.bind (pow_c (b + 1) e') (mul_c d))
      in
      match Option.bind term (add_c acc) with
      | None -> None
      | Some acc -> go (n / b) (e + 1) acc
  in
  go n 0 0

(** [(base, value)] pairs as [tfiris goodstein N --max-len=K] prints
    them: at most [K] lines, ending at 0 or before an overflow. *)
let goodstein ~max_len n =
  let rec go b n k acc =
    if k = 0 then List.rev acc
    else if n = 0 then List.rev ((b, n) :: acc)
    else
      match bump b n with
      | None -> List.rev ((b, n) :: acc)
      | Some v -> go (b + 1) (v - 1) (k - 1) ((b, n) :: acc)
  in
  go 2 n max_len []

(* ---------- SHL templates ---------- *)

let fib_def f = sp "rec %s n. if n < 2 then n else %s (n - 1) + %s (n - 2)" f f f

let ack_def a =
  sp
    "rec %s m. fun n -> if m = 0 then n + 1 else if n = 0 then %s (m - 1) 1 \
     else %s (m - 1) (%s m (n - 1))"
    a a a a

(* memo_rec over the Fib template with the association-list table (§4.3) *)
let memo_defs x =
  [
    sp "let map%s = fun u -> ref (inl ()) in" x;
    sp
      "let get%s = fun tbl k -> (rec go l. match l with | inl u -> inl () | \
       inr c -> if fst (fst c) = k then inr (snd (fst c)) else go (snd c) \
       end) !tbl in"
      x;
    sp "let set%s = fun tbl k v -> tbl := inr ((k, v), !tbl) in" x;
    sp
      "let memo%s = fun t -> let tbl = map%s () in rec g y. match get%s tbl y \
       with | inl u -> let r = t g y in set%s tbl y r; r | inr r -> r end in"
      x x x x;
    sp
      "let mfib%s = memo%s (fun g n -> if n < 2 then n else g (n - 1) + g (n - \
       2)) in"
      x x;
  ]

let sort_defs x =
  [
    sp
      "let ins%s = rec ins v. fun l -> match l with | inl u -> inr (v, inl ()) \
       | inr c -> if v <= fst c then inr (v, l) else inr (fst c, ins v (snd \
       c)) end in"
      x;
    sp
      "let sort%s = rec srt l. match l with | inl u -> inl () | inr c -> \
       ins%s (fst c) (srt (snd c)) end in"
      x x;
    sp
      "let enc%s = rec enc l. match l with | inl u -> 0 | inr c -> fst c + 10 \
       * enc (snd c) end in"
      x;
  ]

let shl_list xs =
  Array.fold_right (fun d acc -> sp "inr (%d, %s)" d acc) xs "inl ()"

(* [length] distinct seeded digits laid out by the fixed [pattern]: the
   comparisons insertion sort makes depend only on the pattern. *)
let sort_data r pattern =
  let digits = Array.init 9 (fun i -> i + 1) in
  shuffle r digits;
  let sorted = Array.sub digits 0 (Array.length pattern) in
  Array.sort compare sorted;
  (Array.map (fun i -> sorted.(i)) pattern, enc sorted)

type template =
  | T_fib of int
  | T_memo of int
  | T_sort of int array  (** the permutation the seeded digits follow *)
  | T_slen of int
  | T_evloop of int
  | T_ack of int * int

(* One template instance: its definitions, the int-valued term the
   program adds up, and the value native arithmetic predicts. *)
let instantiate r ~x = function
  | T_fib n ->
    ([ sp "let fib%s = %s in" x (fib_def ("fib" ^ x)) ], sp "fib%s %d" x n, fib n)
  | T_memo n -> (memo_defs x, sp "mfib%s %d" x n, fib n)
  | T_sort pattern ->
    let xs, v = sort_data r pattern in
    (sort_defs x, sp "enc%s (sort%s (%s))" x x (shl_list xs), v)
  | T_slen n ->
    (* consecutive allocations lay the string out as one block *)
    let cells =
      List.init n (fun i -> sp "let s%s_%d = ref %d in" x i (1 + int r 126))
    in
    ( cells
      @ [
          sp "let z%s = ref 0 in" x;
          sp "let slen%s = rec slen p. if !p = 0 then 0 else slen (p +l 1) + 1 in" x;
        ],
      sp "slen%s s%s_0" x x,
      n )
  | T_evloop tasks ->
    let incs = List.init tasks (fun _ -> 1 + int r 9) in
    let defs =
      [
        sp "let mk%s = fun u -> ref (inl ()) in" x;
        sp "let add%s = fun q f -> q := inr (f, !q) in" x;
        sp
          "let pop%s = fun q -> match !q with | inl u -> inl () | inr c -> q := \
           snd c; inr (fst c) end in"
          x;
        sp
          "let run%s = rec run q. match pop%s q with | inl u -> () | inr f -> f \
           (); run q end in"
          x x;
        sp "let q%s = mk%s () in" x x;
        sp "let n%s = ref 0 in" x;
      ]
    in
    (* the last task re-enters the loop: it adds its increment as a new
       task instead of applying it *)
    let add i k =
      if i = tasks - 1 then
        sp "add%s q%s (fun u -> add%s q%s (fun v -> n%s := !n%s + %d))" x x x x x x k
      else sp "add%s q%s (fun u -> n%s := !n%s + %d)" x x x x k
    in
    ( defs,
      sp "(%s; run%s q%s; !n%s)" (String.concat "; " (List.mapi add incs)) x x x,
      List.fold_left ( + ) 0 incs )
  | T_ack (m, n) ->
    ( [ sp "let ack%s = %s in" x (ack_def ("ack" ^ x)) ],
      sp "ack%s %d %d" x m n,
      ack m n )

(* Stuck mutants wrap the program's first term in a redex no schedule
   can step. *)
let mutate kind t =
  match kind mod 5 with
  | 0 -> sp "!(%s)" t
  | 1 -> sp "(%s) 0" t
  | 2 -> sp "(if %s then 0 else 1)" t
  | 3 -> sp "fst (%s)" t
  | _ -> sp "(%s + ())" t

let n_generated = 57

let shipped_examples =
  [ "ackermann"; "conc_locked"; "event_loop"; "fib"; "memo_fib"; "slen"; "sort" ]

let n_shards = 16

(* The corpus composition is drawn from a fixed stream, so it is the
   same on every seed: program i chains 1 + i mod 5 templates, and about
   one program in ten is a stuck mutant. *)
let compositions =
  let r = rng 2021 in
  List.init n_generated (fun i ->
      let templates =
        List.init (1 + (i mod 5)) (fun _ ->
            match int r 6 with
            | 0 -> T_fib (8 + int r 6)
            | 1 -> T_memo (10 + int r 15)
            | 2 ->
              let p = Array.init (3 + int r 5) Fun.id in
              shuffle r p;
              T_sort p
            | 3 -> T_slen (2 + int r 7)
            | 4 -> T_evloop (2 + int r 3)
            | _ ->
              let m, n = List.nth [ (1, 3); (2, 2); (2, 3); (3, 2) ] (int r 4) in
              T_ack (m, n))
      in
      let mutant = if i mod 10 = 9 || i = 55 then Some (i / 10) else None in
      (templates, mutant))

let generated_program r i (templates, mutant) =
  let parts =
    List.mapi
      (fun j t -> instantiate r ~x:(sp "_%s%d" (letters r) j) t)
      templates
  in
  let defs = List.concat_map (fun (d, _, _) -> d) parts in
  let terms = List.map (fun (_, t, _) -> t) parts in
  let terms, value =
    match mutant with
    | None -> (terms, Some (List.fold_left (fun acc (_, _, v) -> acc + v) 0 parts))
    | Some kind -> (terms @ [ mutate kind (List.hd terms) ], None)
  in
  let source =
    String.concat "\n" (sp "(* generated program %d *)" i :: defs)
    ^ "\n" ^ String.concat " + " terms ^ "\n"
  in
  (source, value)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Sixteen shards of four: shard s < 7 holds the s-th shipped example
   and three generated programs, the others four generated ones. *)
let corpus ~root r =
  let gen = Array.of_list (List.mapi (generated_program r) compositions) in
  let next_gen = ref 0 in
  let take_gen shard =
    let i = !next_gen in
    incr next_gen;
    let source, value = gen.(i) in
    { path = sp "%s/g%02d.shl" shard i; source; value; shipped = None }
  in
  List.init n_shards (fun s ->
      let shard = sp "s%02d" s in
      let shipped =
        match List.nth_opt shipped_examples s with
        | None -> []
        | Some ex ->
          let file = sp "examples/shl/%s.shl" ex in
          [
            {
              path = sp "%s/%s.shl" shard ex;
              source = read_file (Filename.concat root file);
              value = None;
              shipped = Some file;
            };
          ]
      in
      (shard, shipped @ List.init (4 - List.length shipped) (fun _ -> take_gen shard)))

(* ---------- drivers ---------- *)

let memo_fib_program x n =
  String.concat " " (memo_defs x) ^ sp " mfib%s %d" x n

let sort_program r x pattern =
  let xs, v = sort_data r pattern in
  (String.concat " " (sort_defs x) ^ sp " enc%s (sort%s (%s))" x x (shl_list xs), v)

(* [k] forked threads bump a shared counter — through a CAS retry loop,
   or by a plain read then write that can lose updates — and a done
   counter the main thread spins on. *)
let counter_program x ~cas k =
  let bump =
    if cas then sp "inc%s (); done%s ()" x x
    else sp "let v = !c%s in c%s := v + 1; done%s ()" x x x
  in
  sp
    "let c%s = ref 0 in let d%s = ref 0 in let inc%s = rec retry u. let v = \
     !c%s in if cas c%s v (v + 1) then () else retry u in let done%s = rec \
     retry u. let w = !d%s in if cas d%s w (w + 1) then () else retry u in %s \
     (rec wait u. if !d%s = %d then !c%s else wait u) ()"
    x x x x x x x x
    (String.concat " " (List.init k (fun _ -> sp "fork (%s);" bump)))
    x k x

let drivers r =
  let x () = "_" ^ letters r in
  (* sequenced lets, not a list literal: the draws must happen in a
     fixed order for the digest to hold *)
  let fib12 = sp "(%s) 12" (fib_def ("fib" ^ x ())) in
  let fib15 = sp "(%s) 15" (fib_def ("fib" ^ x ())) in
  let ack23 = sp "(%s) 2 3" (ack_def ("ack" ^ x ())) in
  let sort6 = sort_program r (x ()) [| 3; 0; 5; 1; 4; 2 |] in
  let term_programs =
    [ (fib12, fib 12); (fib15, fib 15); (ack23, ack 2 3); sort6 ]
  in
  let check_term =
    List.concat_map
      (fun (program, v) ->
        List.map
          (fun credits ->
            ( [ "check-term"; "-e"; program; "--credits"; credits ],
              Check_term { program; credits; value = Some v } ))
          [ "w"; "w*2"; "w^2" ])
      term_programs
  in
  let diverging =
    let f = "f" ^ x () in
    let program = sp "(rec %s x. %s x) 0" f f in
    ( [ "check-term"; "-e"; program; "--credits"; "w" ],
      Check_term { program; credits = "w"; value = None } )
  in
  let refine =
    List.map
      (fun n ->
        let target = memo_fib_program (x ()) n in
        let source = sp "(%s) %d" (fib_def ("fib" ^ x ())) n in
        ( [ "refine"; "--target"; target; "--source"; source ],
          Refine { target; source; value = Some (fib n) } ))
      [ 6; 8; 10; 12; 14; 16 ]
  in
  let e_loop =
    let l = "loop" ^ x () in
    let target = sp "(rec %s f x. if f () then %s f x else ()) (fun u -> true) ()" l l in
    ( [ "refine"; "--target"; target; "--source"; "()" ],
      Refine { target; source = "()"; value = None } )
  in
  let explore =
    List.concat_map
      (fun k ->
        List.map
          (fun cas ->
            let program = counter_program (x ()) ~cas k in
            let finals = if cas then [ k ] else List.init k (fun i -> i + 1) in
            ([ "run"; "--domains=2"; "-e"; program ], Explore { program; finals }))
          [ true; false ])
      [ 2; 3 ]
  in
  (* smoke jobs are light ones of every kind; warm-ups leave out the
     two-domain explorations, whose time swings with the load on the
     second core, so that set-up time stays steady *)
  let light = function
    | Check_term { value = Some _; _ } | Refine { value = Some _; _ } -> true
    | Explore { finals; _ } -> List.length finals <= 2 && List.mem 2 finals
    | _ -> false
  in
  let two_domains = function Explore _ -> true | _ -> false in
  List.mapi
    (fun id (argv, task) ->
      {
        id;
        argv;
        task;
        warmup = light task && (not (two_domains task)) && id mod 3 = 0;
        smoke = light task && (id = 0 || id = 13 || id = 21);
      })
    (check_term @ [ diverging ] @ refine @ [ e_loop ] @ explore)

(* ---------- ordinal ---------- *)

(* (width, depth, regrow, adversarial), heaviest first: the first six
   take 80 ms to 1.4 s, the rest under 15 ms.  The depth-3 entry's chop
   count is the known answer recorded on first measurement; depth-2
   counts follow from [bush2_chops].  Depth 3 with regrow >= 2, and 3x3
   bushes, run for more than ten seconds and are left out. *)
let hydras =
  [
    (3, 2, 4, true); (4, 2, 2, true); (5, 2, 1, true); (3, 2, 3, true);
    (4, 2, 3, false); (2, 3, 1, false); (3, 2, 2, true); (4, 2, 1, true);
    (2, 2, 4, true); (4, 2, 2, false); (3, 2, 4, false); (5, 2, 1, false);
    (3, 2, 3, false); (2, 2, 2, false);
  ]

let n_heavy_hydras = 6

let ordinal () =
  let hydra (width, depth, regrow, adversarial) =
    let chops =
      match depth with
      | 2 -> bush2_chops ~width ~regrow
      | _ -> 1202 (* (2, 3, 1), greedy *)
    in
    ( [ "hydra"; sp "--width=%d" width; sp "--depth=%d" depth; sp "--regrow=%d" regrow ]
      @ (if adversarial then [ "--adversarial" ] else []),
      Hydra { width; depth; regrow; adversarial; chops } )
  in
  let goodstein (n, max_len) =
    ( [ "goodstein"; string_of_int n; sp "--max-len=%d" max_len ],
      Goodstein { n; max_len } )
  in
  let goodsteins =
    List.concat_map
      (fun n -> List.map (fun k -> (n, k)) [ 50; 200; 500; 2000 ])
      [ 3; 4; 5 ]
  in
  List.mapi
    (fun id (argv, task) ->
      let light =
        match task with
        | Hydra _ -> id >= n_heavy_hydras
        | Goodstein { max_len; _ } -> max_len <= 200
        | _ -> false
      in
      { id; argv; task; warmup = light; smoke = light && id mod 5 = 0 })
    (List.map hydra hydras @ List.map goodstein goodsteins)

(* ---------- a whole workload ---------- *)

let make ~root workload ~seed =
  let tag =
    match workload with Corpus_cold | Corpus_warm -> 1 | Drivers -> 2 | Ordinal -> 3
  in
  let r = rng ((seed * 1_000_003) + tag) in
  let files, jobs =
    match workload with
    | Corpus_cold | Corpus_warm ->
      let warm = workload = Corpus_warm in
      let shards = corpus ~root r in
      ( List.concat_map
          (fun (_, ps) -> List.map (fun p -> (p.path, p.source)) ps)
          shards,
        List.mapi
          (fun id (shard, programs) ->
            let cache =
              if warm then sp "--cache=../caches/%s" shard else "--cache=cache"
            in
            {
              id;
              argv =
                [ "verify-corpus"; "../gen/" ^ shard; cache; "--ledger=ledger.jsonl" ];
              task = Verify { shard; programs; warm };
              warmup = id < 4;
              smoke = id < 2;
            })
          shards )
    | Drivers -> ([], drivers r)
    | Ordinal -> ([], ordinal ())
  in
  let order = Array.of_list jobs in
  shuffle r order;
  { workload; seed; files; jobs = Array.to_list order }

(* ---------- expectations (the oracles) ---------- *)

type run_ref =
  | Value of string * int  (** printed value, steps *)
  | Stuck of string  (** the stuck redex as printed *)

(* The reference stepper: whole-program decompose/fill, independent of
   the frame-stack machine every CLI driver runs on. *)
let reference_run (src : string) : run_ref =
  let e = Shl.Parser.parse_exn src in
  let rec go cfg n =
    if n > 10_000_000 then failwith "reference loop: no verdict in 10M steps"
    else
      match Shl.Step.prim_step cfg with
      | Ok (cfg', _) -> go cfg' (n + 1)
      | Error Shl.Step.Finished -> (
        match cfg.Shl.Step.expr with
        | Shl.Ast.Val v -> Value (Shl.Pretty.value_to_string v, n)
        | _ -> failwith "reference loop: finished on a non-value")
      | Error (Shl.Step.Stuck redex) -> Stuck (Shl.Pretty.expr_to_string redex)
  in
  go (Shl.Step.config e) 0

let steps_of src =
  match reference_run src with
  | Value (_, n) -> n
  | Stuck r -> failwith ("reference loop: expected a value, stuck on " ^ r)

type expected =
  | E_shard of {
      shard : string;
      programs : (program * run_ref * Json.t option) list;
          (** each program in [verify-corpus]'s (file name) order, its
              reference run, and for a shipped example its baseline
              analyzer report without the ["program"] label *)
      warm : bool;
    }
  | E_terminated of { value : int; steps : int }
  | E_rejected
  | E_accepted of { value : int; tgt_steps : int; src_steps : int }
  | E_explored of { finals : int list; states : int }
  | E_dead of { chops : int }
  | E_goodstein of (int * int) list

let drop_label = function
  | Json.Obj kvs -> Json.Obj (List.filter (fun (k, _) -> k <> "program") kvs)
  | j -> j

(** The committed analyzer reports, keyed by their ["program"] label. *)
let load_baseline ~root : (string * Json.t) list =
  let file = Filename.concat root "BENCH_history/baseline-analyze.json" in
  match Json.of_string (read_file file) with
  | Ok (Json.List reports) ->
    List.filter_map
      (fun r ->
        Option.map
          (fun label -> (label, drop_label r))
          (Option.bind (Json.member "program" r) Json.to_str))
      reports
  | Ok _ | Error _ -> failwith (file ^ ": not a list of analyzer reports")

let expect ~baseline (job : job) : expected =
  match job.task with
  | Verify { shard; programs; warm } ->
    let by_name (a, _, _) (b, _, _) =
      compare (Filename.basename a.path) (Filename.basename b.path)
    in
    let golden p =
      Option.map
        (fun file ->
          match List.assoc_opt file baseline with
          | Some r -> r
          | None -> failwith (file ^ ": missing from the analyze baseline"))
        p.shipped
    in
    let runs =
      List.map
        (fun p ->
          let r = reference_run p.source in
          (match (p.value, r) with
          | Some v, Value (s, _) when s <> string_of_int v ->
            failwith (sp "%s: reference loop gives %s, native arithmetic %d" p.path s v)
          | Some _, Stuck s -> failwith (sp "%s: reference loop stuck on %s" p.path s)
          | _ -> ());
          (p, r, golden p))
        programs
    in
    E_shard { shard; programs = List.sort by_name runs; warm }
  | Check_term { value = None; _ } | Refine { value = None; _ } -> E_rejected
  | Check_term { program; value = Some value; _ } ->
    E_terminated { value; steps = steps_of program }
  | Refine { target; source; value = Some value } ->
    E_accepted { value; tgt_steps = steps_of target; src_steps = steps_of source }
  | Explore { program; finals } ->
    let r =
      Shl.Conc.explore ~domains:1 (Shl.Conc.init (Shl.Parser.parse_exn program))
    in
    E_explored { finals; states = r.Shl.Conc.states }
  | Hydra { chops; _ } -> E_dead { chops }
  | Goodstein { n; max_len } -> E_goodstein (goodstein ~max_len n)
