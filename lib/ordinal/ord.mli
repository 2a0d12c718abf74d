(** Ordinal numbers below [ε₀] in Cantor normal form.

    An ordinal is represented as a sum [ω^e₁·c₁ + ⋯ + ω^eₖ·cₖ] with
    exponents [eᵢ] (themselves ordinals) strictly decreasing and
    coefficients [cᵢ ≥ 1].  This covers every ordinal below [ε₀], which is
    far more than Transfinite Iris's case studies require (the paper's
    examples use step-indices up to [ω·2], [ω²] and [ω^ω]).

    The module provides both the {e standard} (non-commutative) ordinal
    arithmetic and the {e Hessenberg} (natural, commutative) arithmetic.
    The latter is what the paper's [TSplit] rule for time credits is built
    on: [$(α ⊕ β) ⇔ $α ∗ $β] requires a commutative addition so that
    credits form a commutative monoid (§5.1). *)

type t
(** An ordinal [< ε₀]. Values of this type always satisfy the CNF
    invariant; they are constructed only through the functions below. *)

(** {1 Constants and injections} *)

val zero : t
val one : t
val two : t

val omega : t
(** [ω], the first infinite ordinal. *)

val of_int : int -> t
(** [of_int n] is the finite ordinal [n]. Raises [Invalid_argument] if
    [n < 0]. *)

val omega_pow : t -> t
(** [omega_pow e] is [ω^e]. In particular [omega_pow zero = one] and
    [omega_pow one = omega]. *)

val omega_tower : int -> t
(** [omega_tower n] is the tower [ω^ω^⋯^ω] of height [n];
    [omega_tower 0 = one]. These are the canonical cofinal sequence
    below [ε₀]. *)

(** {1 Ordering} *)

val compare : t -> t -> int
(** Total order; this is the (well-founded) ordinal order. *)

val equal : t -> t -> bool
val lt : t -> t -> bool
val le : t -> t -> bool
val max : t -> t -> t
val min : t -> t -> t

val is_zero : t -> bool

(** {1 Structure} *)

val is_finite : t -> bool
val to_int_opt : t -> int option
(** [to_int_opt a] is [Some n] iff [a] is the finite ordinal [n]. *)

val is_succ : t -> bool
val is_limit : t -> bool
(** A limit ordinal is neither [0] nor a successor. *)

val succ : t -> t

val pred : t -> t option
(** [pred a] is [Some b] with [succ b = a] if [a] is a successor, and
    [None] if [a] is [0] or a limit. *)

val degree : t -> t
(** [degree a] is the leading exponent of [a] (i.e. the largest [e] with
    [ω^e ≤ a]).  [degree zero = zero] by convention. *)

val nat_part : t -> int
(** The coefficient of [ω^0] in the CNF of [a]: the largest [n] with
    [γ + n = a] for a limit-or-zero [γ]. *)

val limit_part : t -> t
(** [a] with its finite part removed, so
    [add (limit_part a) (of_int (nat_part a)) = a]. *)

val terms : t -> (t * int) list
(** The CNF term list [(exponent, coefficient)], exponents strictly
    decreasing, coefficients positive. Exposed for pretty-printers and
    tests; cannot be used to build invalid ordinals. *)

(** {1 Standard arithmetic}

    Standard ordinal arithmetic: associative but {e not} commutative
    ([1 + ω = ω ≠ ω + 1]). *)

val add : t -> t -> t
val mul : t -> t -> t

val sub : t -> t -> t
(** Left subtraction: [sub a b] is the unique [c] with [add b c = a]
    when [b ≤ a], and [zero] when [a ≤ b]. *)

(** {1 Hessenberg (natural) arithmetic}

    Commutative, associative, strictly monotone in both arguments, and
    cancellative — the properties required for ordinals to form a
    separation-logic resource (partial commutative monoid) in §5.1. *)

val hsum : t -> t -> t
(** Natural sum [α ⊕ β]: add CNFs coefficient-wise. *)

val hprod : t -> t -> t
(** Natural product [α ⊗ β]: distribute over CNF terms using [⊕] on
    exponents. *)

val hsum_list : t list -> t

(** {1 Exponentiation} *)

val pow : t -> t -> t
(** [pow a b] is standard ordinal exponentiation [a^b] (so
    [pow (of_int 2) omega = omega] and [pow omega omega = omega_pow
    omega]).  Total on ordinals below ε₀. *)

(** {1 Limits} *)

val fundamental : t -> int -> t
(** [fundamental a n] is the [n]-th element [a[n]] of the canonical
    fundamental sequence of the limit ordinal [a]:
    a strictly increasing sequence with supremum [a].
    Raises [Invalid_argument] if [a] is not a limit ordinal. *)

val sup_list : t list -> t
(** Supremum (= maximum) of a finite, possibly empty list. *)

(** {1 Descent} *)

val descend : t -> t
(** [descend a] for [a > 0] is some canonical ordinal strictly below [a]:
    [pred a] for successors and [fundamental a 1] for limits. Used as a
    default "spend one credit" move. Raises [Invalid_argument] on [0]. *)

val descent_depth : ?fuel:int -> t -> int
(** Length of the descending chain [a > descend a > ⋯ > 0], capped at
    [fuel] (default [10_000]).  Every descending chain is finite
    (well-foundedness); this is the executable face of that fact.
    [fuel] bounds the chain's length, not a program run. *)

(** {1 Printing} *)

val pp : Format.formatter -> t -> unit
(** Prints e.g. [ω^2·3 + ω + 5], [ω^(ω+1)], [ω^ω^ω]. *)

val to_string : t -> string

val hash : t -> int
