(** Termination-preserving refinement for {e concurrent} programs —
    the paper's declared future work (§3, §8), in the bounded executable
    form this framework supports.

    The paper leaves step-indexed liveness for concurrency open; what
    {e can} be done with the present machinery is per-scheduler
    reasoning: fixing a (deterministic) scheduler turns a concurrent
    program into a deterministic transition system, to which the ordinal
    stutter-budget discipline of {!Driver} applies verbatim.  A
    certificate here proves: {e under this scheduler}, the concurrent
    target is a termination-preserving refinement of the source.
    Quantifying over schedulers (fair or demonic) is exactly the part
    the paper defers — made tangible by {!certify_all_seeds}, which
    replays the game under many schedulers and reports the set that
    passes. *)

module Ord = Tfiris_ordinal.Ord
module Metrics = Tfiris_obs.Metrics
module Trace = Tfiris_obs.Trace
module Forensics = Tfiris_obs.Forensics
module Json = Tfiris_obs.Json
module Progress = Tfiris_obs.Progress
module Budget = Tfiris_robust.Budget
open Tfiris_shl

type sched_config = {
  cfg : Conc.cfg;
  step_no : int;
}

(** One deterministic step under the scheduler. *)
let sched_step (sched : Conc.scheduler) (sc : sched_config) :
    (sched_config, [ `Done of Ast.value | `Stuck of Ast.expr ]) result =
  match Conc.runnable sc.cfg with
  | [] -> (
    match Conc.main_value sc.cfg with
    | Some v -> Error (`Done v)
    | None -> Error (`Stuck Ast.unit_))
  | rs -> (
    let i = sched ~step_no:sc.step_no ~runnable:rs sc.cfg in
    match Conc.step_thread sc.cfg i with
    | Conc.T_progress cfg' -> Ok { cfg = cfg'; step_no = sc.step_no + 1 }
    | Conc.T_value -> Ok { sc with step_no = sc.step_no + 1 }
    | Conc.T_stuck redex -> Error (`Stuck redex))

type stats = {
  target_steps : int;
  source_steps : int;
  stutters : int;
}

type verdict =
  | Accepted of Ast.value * stats  (** both sides reached this ground value *)
  | Still_running of Budget.resource * stats
      (** the named budget resource ran out with the game healthy *)
  | Rejected of string * stats

let pp_verdict ppf = function
  | Accepted (v, st) ->
    Format.fprintf ppf "accepted: both sides reach %a (tgt %d / src %d steps)"
      Pretty.pp_value v st.target_steps st.source_steps
  | Still_running (r, st) ->
    Format.fprintf ppf "still running, %a budget spent (tgt %d / src %d steps)"
      Budget.pp_resource r st.target_steps st.source_steps
  | Rejected (m, st) ->
    Format.fprintf ppf "rejected after %d target steps: %s" st.target_steps m

(* ---------- observability ---------- *)

let c_runs = Metrics.counter "refinement.conc.runs"
let c_tgt = Metrics.counter "refinement.conc.target_steps"
let c_src = Metrics.counter "refinement.conc.source_steps"
let c_stutters = Metrics.counter "refinement.conc.stutters"
let c_rejections = Metrics.counter "refinement.conc.rejections"
let h_stutter_run = Metrics.histogram "refinement.conc.stutter_run_len"

(* ---------- forensics ---------- *)

let forensic ring ~rule ~(stats : stats) msg =
  match ring with
  | None -> ()
  | Some rg ->
    Forensics.set_last
      (Forensics.report ~component:"refinement.conc" ~rule
         ~step:stats.target_steps ~reason:msg
         ~attrs:
           [
             ("target_steps", Json.Int stats.target_steps);
             ("source_steps", Json.Int stats.source_steps);
             ("stutters", Json.Int stats.stutters);
           ]
         rg)

let record ring ~step ~label data =
  match ring with
  | None -> ()
  | Some rg ->
    Forensics.push rg { Forensics.f_step = step; f_label = label; f_data = data }

let publish (v : verdict) : verdict =
  if Metrics.on () then begin
    let st =
      match v with
      | Accepted (_, st) | Still_running (_, st) | Rejected (_, st) -> st
    in
    Metrics.incr c_runs;
    Metrics.add c_tgt st.target_steps;
    Metrics.add c_src st.source_steps;
    Metrics.add c_stutters st.stutters;
    match v with Rejected _ -> Metrics.incr c_rejections | _ -> ()
  end;
  v

(** The refinement game between a concurrent target (under
    [tgt_sched]) and a {e sequential} source, with the same ordinal
    stutter-budget discipline as {!Driver}: advancing the target without
    the source strictly spends the budget; a source step resets it.
    The built-in strategy is oracle pacing, mirroring
    {!Strategy.oracle}. *)
let certify ?(budget = Budget.of_steps 1_000_000)
    ~(tgt_sched : Conc.scheduler) ~(target : Ast.expr) ~(source : Ast.expr)
    () : verdict =
  (* one meter per phase: the pre-runs, the target's game steps, and
     the source (advances + drain) each get the full allowance *)
  let tm = Budget.meter budget in
  let sm = Budget.meter budget in
  let ring = Forensics.with_ring () in
  let reject rule msg st =
    forensic ring ~rule ~stats:st msg;
    Rejected (msg, st)
  in
  (* pre-run both sides to pace the schedule *)
  let count_target () =
    let m = Budget.meter budget in
    let rec go sc k =
      if not (Budget.step m) then None
      else
        match sched_step tgt_sched sc with
        | Error (`Done _) -> Some k
        | Error (`Stuck _) -> None
        | Ok sc' -> go sc' (k + 1)
    in
    go { cfg = Conc.init target; step_no = 0 } 0
  in
  let count_source () =
    let m = Budget.meter budget in
    let rec go cfg k =
      match Machine.prim_step cfg with
      | Error Step.Finished -> Some k
      | Error (Step.Stuck _) -> None
      | Ok (cfg', _) -> if not (Budget.step m) then None else go cfg' (k + 1)
    in
    go (Machine.config source) 0
  in
  match count_target (), count_source () with
  | None, _ | _, None ->
    publish
      (reject "no_oracle_pacing"
         "no oracle pacing (a side is stuck or non-terminating under this \
          scheduler)"
         { target_steps = 0; source_steps = 0; stutters = 0 })
  | Some t_total, Some s_total ->
    let heartbeat =
      Progress.tracker ~component:"refinement.conc" ~phase:"game" ()
    in
    let heartbeat_info () =
      {
        Progress.no_info with
        Progress.budget_left = Budget.remaining_frac tm;
      }
    in
    let scheduled i = if t_total = 0 then s_total else s_total * i / t_total in
    let stutter_run = ref 0 in
    let flush_stutter_run () =
      if !stutter_run > 0 then begin
        Metrics.observe_int h_stutter_run !stutter_run;
        stutter_run := 0
      end
    in
    let rec go tgt (src : Machine.config) budget st =
      match Conc.runnable tgt.cfg with
      | [] -> (
        match Conc.main_value tgt.cfg with
        | Some v -> (
          (* drain the source, on the source meter *)
          let rec drain cfg extra =
            match Machine.prim_step cfg with
            | Error Step.Finished -> (
              match Machine.view cfg.Machine.thread with
              | Machine.V_value v' ->
                if Ast.value_eq v v' = Some true then
                  Accepted
                    (v, { st with source_steps = st.source_steps + extra })
                else reject "value_mismatch" "value mismatch" st
              | Machine.V_redex _ -> reject "source_stuck" "source stuck" st)
            | Error (Step.Stuck _) -> reject "source_stuck" "source stuck" st
            | Ok (cfg', _) ->
              if not (Budget.step sm) then
                reject "source_did_not_terminate" "source did not terminate" st
              else drain cfg' (extra + 1)
          in
          drain src 0)
        | None -> reject "non_value_terminal" "non-value terminal state" st)
      | _ -> (
        if not (Budget.step tm) then Still_running (Budget.tripped tm, st)
        else (
          (match heartbeat with
          | Some hb -> Progress.tick hb heartbeat_info
          | None -> ());
          match sched_step tgt_sched tgt with
          | Error (`Stuck _) -> reject "target_stuck" "target stuck" st
          | Error (`Done _) -> Still_running (Budget.tripped tm, st)
          | Ok tgt' ->
            let st = { st with target_steps = st.target_steps + 1 } in
            let want = scheduled st.target_steps in
            let had = scheduled (st.target_steps - 1) in
            if want > had then (
              (* advance the source [want-had] steps on the source
                 meter; budget resets *)
              let rec adv cfg k =
                if k = 0 then Some cfg
                else if not (Budget.step sm) then None
                else
                  match Machine.prim_step cfg with
                  | Ok (cfg', _) -> adv cfg' (k - 1)
                  | Error _ -> None
              in
              if Trace.on () then
                Trace.instant "conc.advance"
                  ~attrs:
                    [
                      ("step_no", Trace.I st.target_steps);
                      ("src_steps", Trace.I (want - had));
                    ];
              flush_stutter_run ();
              (match ring with
              | None -> ()
              | Some _ ->
                record ring ~step:st.target_steps ~label:"advance"
                  [
                    ("src_steps", Json.Int (want - had));
                    ( "source",
                      Json.Str
                        (Forensics.trunc
                           (Pretty.expr_to_string (Machine.plug src.Machine.thread))) );
                  ]);
              match adv src (want - had) with
              | Some src' ->
                go tgt' src' (Ord.of_int t_total)
                  {
                    st with
                    source_steps = st.source_steps + (want - had);
                  }
              | None ->
                if Budget.exhausted sm <> None then
                  Still_running (Budget.tripped sm, st)
                else reject "source_stuck_mid_game" "source stuck mid-game" st)
            else if Ord.is_zero budget then
              reject "stutter_budget_exhausted" "stutter budget exhausted" st
            else begin
              if Trace.on () then
                Trace.instant "conc.stutter"
                  ~attrs:[ ("step_no", Trace.I st.target_steps) ];
              record ring ~step:st.target_steps ~label:"stutter"
                [ ("budget", Json.Str (Ord.to_string budget)) ];
              incr stutter_run;
              go tgt' src (Ord.descend budget)
                { st with stutters = st.stutters + 1 }
            end))
    in
    let v =
      go
        { cfg = Conc.init target; step_no = 0 }
        (Machine.config source)
        (Ord.of_int (t_total + 1))
        { target_steps = 0; source_steps = 0; stutters = 0 }
    in
    flush_stutter_run ();
    publish v

(** Replay the certificate under many seeded schedulers: the bounded
    face of "for all fair schedules".  Returns the seeds that passed
    and failed.  [?domains] (default [TFIRIS_DOMAINS], else 1) spreads
    the seed replays over that many OCaml domains; every [certify] is
    deterministic per seed, so the merged verdict vector matches the
    sequential replay exactly. *)
let certify_all_seeds ?budget ?(seeds = 16) ?domains
    ~(target : Ast.expr) ~(source : Ast.expr) () : (int list * int list) =
  let n =
    let d =
      match domains with Some d -> max 1 d | None -> Conc.default_domains ()
    in
    min d (max 1 seeds)
  in
  let run s =
    match
      certify ?budget ~tgt_sched:(Conc.seeded (s * 37)) ~target ~source
        ()
    with
    | Accepted _ -> true
    | Still_running _ | Rejected _ -> false
  in
  let verdicts =
    if n <= 1 then List.init seeds run
    else begin
      let slice wid () =
        let rec go s acc =
          if s >= seeds then List.rev acc else go (s + n) ((s, run s) :: acc)
        in
        go wid []
      in
      let handles = Array.init (n - 1) (fun i -> Domain.spawn (slice (i + 1))) in
      let mine = slice 0 () in
      let parts = mine :: Array.to_list (Array.map Domain.join handles) in
      List.concat parts |> List.sort compare |> List.map snd
    end
  in
  let rec split s vs ok bad =
    match vs with
    | [] -> (List.rev ok, List.rev bad)
    | v :: rest ->
      if v then split (s + 1) rest (s :: ok) bad
      else split (s + 1) rest ok (s :: bad)
  in
  split 0 verdicts [] []
