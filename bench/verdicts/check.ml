(* Checking one invocation's output against its expected verdict.

   The same checks run on the CLI child's output (exit code, stdout, the
   ledger it appended) and on the traced in-process replay of the same
   job, which produces that output the way the CLI would; so a replay
   that stopped mirroring the CLI fails like a wrong verdict does. *)

module Json = Tfiris.Obs.Json

type output = {
  code : int;  (** exit code; -1 when killed or signalled *)
  stdout : string;
  ledger : Json.t list;  (** the records the invocation appended *)
}

let sp = Printf.sprintf

let lines s = List.filter (fun l -> l <> "") (String.split_on_char '\n' s)

let str name j = Option.bind (Json.member name j) Json.to_str

let consumed name j =
  Option.bind (Option.bind (Json.member "consumed" j) (Json.member name)) Json.to_int

let cached j = Option.bind (Json.member "cached" j) Json.to_bool = Some true

(* What must repeat byte for byte between a cold run, every later cold
   run of the same shard, and a warm replay: the verdict, its detail and
   the consumption counts — not the wall time, memory or cache flag. *)
let signature records =
  String.concat "\n"
    (List.map
       (fun r ->
         Json.to_string
           (Json.Obj
              (List.filter_map
                 (fun k -> Option.map (fun v -> (k, v)) (Json.member k r))
                 [ "cmd"; "verdict"; "detail"; "consumed" ])))
       records)

(* One program's two ledger records against its reference run and, for
   a shipped example, its committed analyzer report. *)
let check_program ~warm ((p : Gen.program), run_ref, golden) run_rec an_rec =
  let base = Filename.basename p.Gen.path in
  let label_ok r =
    match str "label" r with Some l -> Filename.basename l = base | None -> false
  in
  let run_ok =
    match (run_ref : Gen.run_ref) with
    | Value (v, _) ->
      str "verdict" run_rec = Some "value" && str "detail" run_rec = Some v
    | Stuck redex ->
      str "verdict" run_rec = Some "stuck" && str "detail" run_rec = Some redex
  in
  let findings = Option.value ~default:(-1) (consumed "findings" an_rec) in
  let verdict_ok =
    str "verdict" an_rec
    = Some (if findings = 0 then "clean" else sp "findings:%d" findings)
  in
  let report_ok =
    match golden with
    | Some g -> (
      match Option.map Json.of_string (str "detail" an_rec) with
      | Some (Ok (Json.List [ r ])) ->
        Json.to_string (Gen.drop_label r) = Json.to_string g
      | _ -> false)
    | None -> (
      (* soundness: an error finding means the program cannot finish *)
      match (consumed "sev.error" an_rec, run_ref) with
      | Some 0, _ | Some _, Stuck _ -> true
      | Some _, Value _ | None, _ -> false)
  in
  if not (label_ok run_rec && str "cmd" run_rec = Some "run") then
    Error (sp "%s: no run record" base)
  else if not run_ok then
    Error
      (sp "%s: run verdict %s %s differs from the reference loop" base
         (Option.value ~default:"?" (str "verdict" run_rec))
         (Option.value ~default:"" (str "detail" run_rec)))
  else if not (label_ok an_rec && str "cmd" an_rec = Some "analyze") then
    Error (sp "%s: no analyze record" base)
  else if not verdict_ok then
    Error (sp "%s: analyze verdict disagrees with its counts" base)
  else if not report_ok then
    Error
      (match golden with
      | Some _ -> sp "%s: analyzer report differs from the committed baseline" base
      | None -> sp "%s: error finding on a program the reference loop finishes" base)
  else if not (cached run_rec = warm && cached an_rec = warm) then
    Error (sp "%s: expected %s records" base (if warm then "cached" else "fresh"))
  else Ok ()

let rec first_error = function
  | [] -> Ok ()
  | Ok () :: rest -> first_error rest
  | (Error _ as e) :: _ -> e

(* [seen] maps a shard to the signature of its first cold sweep in this
   process: later cold runs must repeat it, and warm runs replay it. *)
let check_shard ~seen ~shard ~warm programs (o : output) =
  let n = List.length programs in
  let summary =
    sp "corpus: %d programs, %d lookups, %d hits" n (2 * n) (if warm then 2 * n else 0)
  in
  let rec pairs ps rs =
    match (ps, rs) with
    | [], [] -> []
    | p :: ps, r1 :: r2 :: rs -> check_program ~warm p r1 r2 :: pairs ps rs
    | _ -> [ Error "ledger record count differs from the shard size" ]
  in
  let ( let* ) = Result.bind in
  let* () = if o.code = 0 then Ok () else Error (sp "exit code %d" o.code) in
  let* () =
    if List.exists (String.starts_with ~prefix:summary) (lines o.stdout) then Ok ()
    else Error (sp "no %S summary line" summary)
  in
  let* () = first_error (pairs programs o.ledger) in
  let s = signature o.ledger in
  match Hashtbl.find_opt seen shard with
  | Some s0 when s0 <> s -> Error "verdicts differ from this shard's first cold sweep"
  | Some _ -> Ok ()
  | None when warm -> Error "warm run before any cold sweep of this shard"
  | None ->
    Hashtbl.add seen shard s;
    Ok ()

let expect_code want (o : output) =
  if o.code = want then Ok () else Error (sp "exit code %d, expected %d" o.code want)

let has_line line o =
  if List.mem line (lines o.stdout) then Ok ()
  else Error (sp "no line %S in the output" line)

(** [Ok ()] when the output carries the expected verdict. *)
let check ~seen (expected : Gen.expected) (o : output) : (unit, string) result =
  let ( let* ) = Result.bind in
  match expected with
  | E_shard { shard; programs; warm } -> check_shard ~seen ~shard ~warm programs o
  | E_terminated { value; steps } ->
    let* () = expect_code 0 o in
    let want = sp "terminated with %d in %d steps" value steps in
    if List.exists (String.starts_with ~prefix:want) (lines o.stdout) then Ok ()
    else Error (sp "expected %S" want)
  | E_rejected ->
    let* () = expect_code 1 o in
    if
      List.exists
        (fun l ->
          String.starts_with ~prefix:"terminated" l
          || String.starts_with ~prefix:"accepted" l)
        (lines o.stdout)
    then Error "accepted a diverging program"
    else Ok ()
  | E_accepted { value; tgt_steps; src_steps } ->
    let* () = expect_code 0 o in
    has_line
      (sp "accepted: both sides evaluate to %d (tgt %d / src %d steps)" value
         tgt_steps src_steps)
      o
  | E_explored { finals; states } ->
    let* () = expect_code 0 o in
    let want =
      List.map (sp "final: %s") (List.sort compare (List.map string_of_int finals))
      @ [ sp "states: %d" states ]
    in
    if lines o.stdout = want then Ok ()
    else Error (sp "expected %S" (String.concat "; " want))
  | E_dead { chops } ->
    let* () = expect_code 0 o in
    let want = sp "dead after %d chops" chops in
    if List.exists (String.starts_with ~prefix:want) (lines o.stdout) then Ok ()
    else Error (sp "expected %S" want)
  | E_goodstein seq ->
    let* () = expect_code 0 o in
    let got =
      List.map
        (fun l ->
          try Scanf.sscanf l "base %d: value %d" (fun b v -> (b, v))
          with Scanf.Scan_failure _ | Failure _ | End_of_file -> (-1, -1))
        (lines o.stdout)
    in
    if got = seq then Ok ()
    else Error (sp "expected %d (base, value) lines" (List.length seq))
