(** The Kirby–Paris Hydra game, as a measured transition system.

    Chopping a head strictly decreases the ordinal measure
    [μ(node ts) = ⊕ ω^(μ t)], so the hydra dies under every strategy of
    Hercules and every regrowth factor — Lemma 2.3 in its most vivid
    form.  Careful with deep hydras: [line 3] has measure [ω^ω^ω] and a
    correspondingly astronomical (but finite!) game length.

    Two implementations play the game.  The list-level one ({!chops},
    {!pick}, {!system}, {!measure}) builds and measures whole trees; it
    is the reference, run by [Measure.run].  {!play} runs on trees whose
    nodes cache their size and measure, so a chop rebuilds and
    re-measures only the path from the root to the chopped head;
    {!trajectory} exposes its states for comparison with the
    reference. *)

module Ord = Tfiris_ordinal.Ord

type tree = Node of tree list

val leaf : tree
val size : tree -> int
val heads : tree -> int
val measure : tree -> Ord.t
val pp : Format.formatter -> tree -> unit

val chops : regrow:int -> tree -> tree list
(** All hydras reachable by chopping one head, with [regrow] copies of
    the maimed limb grown at the grandparent (standard rules: root-level
    heads regrow nothing). *)

val system : regrow:int -> tree Measure.t

val line : int -> tree
(** A path of the given length under the root. *)

val bush : width:int -> depth:int -> tree

type strategy
(** How Hercules picks one of the possible chops. *)

val choose_first : strategy
(** The first chop in {!chops}' order. *)

val choose_fattest : strategy
(** Adversarial Hercules: keep the hydra as big as possible (the first
    of the largest successors in {!chops}' order). *)

val pick : strategy -> tree list -> tree
(** The list-level reference: the successor a strategy picks among
    {!chops}' results, each candidate sized once.  Raises
    [Invalid_argument] on [[]]. *)

val play :
  ?regrow:int ->
  choose:strategy ->
  tree ->
  (int, tree Measure.violation) result
(** Play to the death on annotated trees, re-validating the descent of
    the measure at every chop; [Ok n] is the number of chops.  Each node
    caches its size, its measure and the largest size of a node with a
    head below it, so a chop walks to the head the strategy picks in
    {!chops}' order, rebuilds only the path from the root to it, and
    re-measures only that path.  [play ~regrow ~choose] visits the
    states of [Measure.run (system ~regrow) ~choose:(pick choose)]; a
    violation carries both of its states as plain trees. *)

val trajectory : regrow:int -> choose:strategy -> tree -> (tree * Ord.t) Seq.t
(** The states {!play} visits, each with the measure it cached, from the
    start to the dead hydra, built on demand.  The descent between them
    is not checked. *)
