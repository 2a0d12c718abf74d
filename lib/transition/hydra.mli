(** The Kirby–Paris Hydra game, as a measured transition system.

    Chopping a head strictly decreases the ordinal measure
    [μ(node ts) = ⊕ ω^(μ t)], so the hydra dies under every strategy of
    Hercules and every regrowth factor — Lemma 2.3 in its most vivid
    form.  Careful with deep hydras: [line 3] has measure [ω^ω^ω] and a
    correspondingly astronomical (but finite!) game length. *)

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

type site = { path : int list; size : int }
(** A chop site: the child indices from the root down to a head, and the
    size of the hydra the chop leaves. *)

val sites : regrow:int -> tree -> site Seq.t
(** The chop sites, in {!chops}' order, none of them built.  A site's
    size comes from the size [n] of the maimed node: [size t - 1 +
    regrow * (n - 1)], or [size t - 1] for a head at the root. *)

val chop_at : regrow:int -> tree -> int list -> tree
(** The hydra left by chopping the head at a path from {!sites}:
    [List.map (chop_at ~regrow t) paths = chops ~regrow t]. *)

val successor : regrow:int -> strategy -> tree -> tree option
(** [pick strategy (chops ~regrow t)] with only the picked successor
    built; [None] once the hydra is dead. *)

val play :
  ?regrow:int ->
  choose:strategy ->
  tree ->
  (int, tree Measure.violation) result
(** Play to the death, re-validating the descent of {!measure} at every
    chop; [Ok n] is the number of chops. *)
