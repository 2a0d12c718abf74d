(** Transfinite Iris, executable: the public API.

    An OCaml reproduction of {e Transfinite Iris: Resolving an
    Existential Dilemma of Step-Indexed Separation Logic} (Spies et al.,
    PLDI 2021).  The paper's semantic model, core logic, program logics
    and every case study are implemented as executable, testable
    artifacts; see DESIGN.md for the construction and the
    per-experiment index.

    Layering (Figure 1 of the paper):

    - {!Ord} — ordinals below ε₀ in Cantor normal form (the transfinite
      step-indices, with standard and Hessenberg arithmetic);
    - {!Height} / {!Fin_height} — step-indexed propositions as truth
      heights, over ordinal resp. natural-number indices; {!Resource}
      and {!Upred} extend them to separation-logic propositions;
    - {!Formula} / {!Semantics} / {!Proof} — the core logic: a deep
      embedding with a derivation checker parameterized by the
      finite/transfinite system; {!Existential} is Theorem 6.2,
      {!Dilemma} is §2.7 + Theorem 7.1, end to end;
    - {!Shl} — Sequential HeapLang (Figure 2): syntax, semantics,
      parser, printer, interpreter, and the paper's example programs;
    - {!Ts} / {!Simulation} / {!Counterexample} — abstract simulations
      (§2.2–2.3) and the [t∞ ⪯ s<∞] counterexample;
    - {!Refinement} — RefinementSHL (§4): the Figure 3 rule checker and
      the certified simulation driver with ordinal stutter budgets;
      {!Memo_spec} are the memoization case studies (§4.3);
    - {!Termination} — TerminationSHL (§5): transfinite time credits,
      [TSplit]/[TSource], the event-loop case study;
    - {!Promises} — the linear async-channel language of §5.2 with its
      impredicative polymorphic extension. *)

module Ord = Tfiris_ordinal.Ord

(** Observability: structured tracing, metrics, and a minimal JSON
    layer (see DESIGN.md, "Observability").  Every hot layer below —
    the interpreter, the refinement drivers, the credit checker, the
    promise scheduler and the proof searchers — reports into these
    registries; tracing and metrics are off (and near-free) unless
    switched on. *)
module Obs = struct
  module Trace = Tfiris_obs.Trace
  module Metrics = Tfiris_obs.Metrics
  module Telemetry = Tfiris_obs.Telemetry
  module Json = Tfiris_obs.Json
  module Profile = Tfiris_obs.Profile
  module Forensics = Tfiris_obs.Forensics
  module Progress = Tfiris_obs.Progress
  module Span = Tfiris_obs.Span
  module Ledger = Tfiris_obs.Ledger
  module Certcache = Tfiris_obs.Certcache
  module Report = Tfiris_obs.Report
end

(** Resource governance and robustness (see DESIGN.md, "Robustness"):
    composable execution budgets with deterministic accounting
    ({!Robust.Budget}), the structured failure taxonomy every public
    entry point reports through ({!Robust.Failure}), and the seeded
    fault-injection harness ({!Robust.Chaos}). *)
module Robust = struct
  module Budget = Tfiris_robust.Budget
  module Failure = Tfiris_robust.Failure
  module Chaos = Tfiris_robust_chaos.Chaos
end

module Index = Tfiris_sprop.Index
module Cut = Tfiris_sprop.Cut
module Height = Tfiris_sprop.Height
module Fin_height = Tfiris_sprop.Fin_height
module Resource = Tfiris_sprop.Resource
module Upred = Tfiris_sprop.Upred

module Formula = Tfiris_logic.Formula
module Logic_semantics = Tfiris_logic.Semantics
module Proof = Tfiris_logic.Proof
module Existential = Tfiris_logic.Existential
module Dilemma = Tfiris_logic.Dilemma
module Derived = Tfiris_logic.Derived
module Tauto = Tfiris_logic.Tauto
module Formula_parser = Tfiris_logic.Formula_parser

(** Sequential HeapLang. *)
module Shl = struct
  module Ast = Tfiris_shl.Ast
  module Heap = Tfiris_shl.Heap
  module Ctx = Tfiris_shl.Ctx
  module Step = Tfiris_shl.Step
  module Machine = Tfiris_shl.Machine
  module Interp = Tfiris_shl.Interp
  module Lexer = Tfiris_shl.Lexer
  module Parser = Tfiris_shl.Parser
  module Pretty = Tfiris_shl.Pretty
  module Prog = Tfiris_shl.Prog
  module Types = Tfiris_shl.Types
  module Conc = Tfiris_shl.Conc
  module Path = Tfiris_shl.Path
end

(** The static analyzer (see DESIGN.md, "Static analysis"): a shared
    findings core, a scope/shape lint, a generic monotone dataflow
    engine instantiated with constant propagation and intervals,
    termination-measure inference, and a race detector for [Shl.Conc]
    programs validated against exhaustive interleaving exploration. *)
module Analysis = struct
  module Finding = Tfiris_analysis.Finding
  module Scope = Tfiris_analysis.Scope
  module Dataflow = Tfiris_analysis.Dataflow
  module Domains = Tfiris_analysis.Domains
  module Term_measure = Tfiris_analysis.Term_measure
  module Races = Tfiris_analysis.Races
  module Symheap = Tfiris_analysis.Symheap
  module Biabd = Tfiris_analysis.Biabd
  module Analyzer = Tfiris_analysis.Analyzer
end

module Goodstein = Tfiris_ordinal.Goodstein
module Ts = Tfiris_transition.Ts
module Simulation = Tfiris_transition.Simulation
module Counterexample = Tfiris_transition.Counterexample
module Measure = Tfiris_transition.Measure
module Hydra = Tfiris_transition.Hydra

(** RefinementSHL (§4). *)
module Refinement = struct
  module Driver = Tfiris_refinement.Driver
  module Strategy = Tfiris_refinement.Strategy
  module Rules = Tfiris_refinement.Rules
  module Adequacy = Tfiris_refinement.Adequacy
  module Memo_spec = Tfiris_refinement.Memo_spec
  module Queue_spec = Tfiris_refinement.Queue_spec
  module Conc_refine = Tfiris_refinement.Conc_refine
end

(** The safety logic (Figure 1, "Safety"): assertions, triples checked
    by exhaustive execution (with the frame property validated on every
    run), invariant monitors, and the fuel-indexed logical relation. *)
module Safety = struct
  module Assertion = Tfiris_safety.Assertion
  module Triple = Tfiris_safety.Triple
  module Invariant = Tfiris_safety.Invariant
  module Logrel = Tfiris_safety.Logrel
end

(** TerminationSHL (§5). *)
module Termination = struct
  module Wp = Tfiris_termination.Wp
  module Triple = Tfiris_termination.Triple
  module Event_loop = Tfiris_termination.Event_loop
  module Nested = Tfiris_termination.Nested
end

(** The linear async-channel language (§5.2). *)
module Promises = struct
  module Syntax = Tfiris_promises.Syntax
  module Typing = Tfiris_promises.Typing
  module Semantics = Tfiris_promises.Semantics
  module Termination = Tfiris_promises.Termination
  module Combinators = Tfiris_promises.Combinators
end

(** The verdict pipeline (see DESIGN.md, "Certcache"): cache lookup,
    computation, cache store and ledger record for one verdict, shared
    by the CLI, [verify-corpus] and the bench. *)
module Job = Job

let version = Job.version
