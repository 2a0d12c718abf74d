(** Structured failures: the taxonomy every public entry point degrades
    to, instead of leaking a bare [Failure]/[Assert_failure]/
    [Stack_overflow] at the user.

    The classifier {!of_exn} is extensible: libraries that define their
    own exceptions (the SHL lexer/parser, the heap's fault hook) call
    {!register} at module-initialisation time to map them onto the
    taxonomy without inverting the dependency order.  Anything left over
    lands in {!Internal} — the "this is a bug, please report it"
    bucket. *)

type t =
  | Exhausted of Budget.resource
      (** a declared budget ran out — not an error, a bounded answer *)
  | Ill_formed of { pos : int option; msg : string }
      (** user input rejected by a parser, with its offset if known *)
  | Engine_disagreement of { step : int; msg : string }
      (** differential execution diverged (machine vs reference) *)
  | Fault_injected of string
      (** an injected fault (chaos harness) surfaced — structured
          degradation, by design *)
  | Io_error of string
  | Internal of string  (** an escaped exception: a genuine bug *)

exception Error of t
(** The structured carrier {!guard} speaks. *)

val register : (exn -> t option) -> unit
(** Add a classifier consulted by {!of_exn} (later registrations win).
    The classifier must return [None] for exceptions it does not own. *)

val of_exn : exn -> t
(** Classify an exception.  Never raises. *)

val guard : (unit -> 'a) -> ('a, t) result
(** Run [f], converting any escaped exception (including
    [Stack_overflow]) into its classification.  Bumps the
    [robust.failures] counter (and [robust.failures.internal] for
    {!Internal}) when metrics are on. *)

val is_internal : t -> bool

val to_string : t -> string
val pp : Format.formatter -> t -> unit

val kind : t -> string
(** Stable identifier: ["exhausted"], ["ill_formed"],
    ["engine_disagreement"], ["fault_injected"], ["io_error"],
    ["internal"]. *)

val to_json : t -> Tfiris_obs.Json.t
