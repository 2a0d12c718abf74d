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

(** The refinement game between a concurrent target (under
    [tgt_sched]) and a {e sequential} source, played by {!Driver}.
    The target is pre-run under [tgt_sched] (the very run
    [Conc.run ~sched:tgt_sched] makes) with every thread choice
    recorded, and the source is counted; the game then replays the
    recorded choices, so the interleaving certified is the one
    pre-run, and the source is paced {!Strategy.evenly} along it.
    Strategies and forensics see the main thread over the shared heap.
    [None] when either pre-run finds no pacing (stuck, or still running
    when [budget] or the source's depth runs out), as
    {!Strategy.oracle}. *)
let certify ?(budget = Budget.of_steps 1_000_000)
    ~(tgt_sched : Conc.scheduler) ~(target : Ast.expr) ~(source : Ast.expr)
    () : Driver.verdict option =
  let choices = ref [] in
  let recording ~step_no ~runnable cfg =
    let i = tgt_sched ~step_no ~runnable cfg in
    choices := i :: !choices;
    i
  in
  match
    ( Conc.run ~budget ~sched:recording (Conc.init target),
      Machine.steps_to_value ~meter:(Budget.meter budget)
        (Machine.config source) )
  with
  | Conc.All_done _, Some s_total ->
    let choices = Array.of_list (List.rev !choices) in
    let replay ~step_no ~runnable:_ _ = choices.(step_no) in
    let tg =
      {
        Driver.value =
          (fun sc ->
            match Conc.runnable sc.cfg with
            | [] -> Conc.main_value sc.cfg
            | _ :: _ -> None);
        step =
          (fun sc ->
            match sched_step replay sc with
            | Ok sc' -> Ok (sc', ())
            | Error (`Stuck redex) -> Error (Step.Stuck redex)
            | Error (`Done _) -> Error Step.Finished);
        config =
          (fun sc ->
            match sc.cfg.Conc.threads with
            | main :: _ ->
              { Step.expr = Machine.plug main; heap = sc.cfg.Conc.heap }
            | [] -> Step.config ~heap:sc.cfg.Conc.heap Ast.unit_);
      }
    in
    Some
      (Driver.play ~budget tg
         { cfg = Conc.init target; step_no = 0 }
         ~source:(Step.config source)
         (Strategy.evenly ~t_total:(Array.length choices) ~s_total))
  | (Conc.All_done _ | Conc.Thread_stuck _ | Conc.Out_of_fuel _), _ -> None

(** Replay the certificate under many seeded schedulers: the bounded
    face of "for all fair schedules".  Returns the seeds that passed
    and failed. *)
let certify_all_seeds ?budget ?(seeds = 16) ~(target : Ast.expr)
    ~(source : Ast.expr) () : (int list * int list) =
  let run s =
    match
      certify ?budget ~tgt_sched:(Conc.seeded (s * 37)) ~target ~source
        ()
    with
    | Some (Driver.Accepted (Driver.Terminated _, _)) -> true
    | Some (Driver.Accepted (Driver.Fuel_exhausted _, _) | Driver.Rejected _)
    | None ->
      false
  in
  List.partition run (List.init seeds Fun.id)
