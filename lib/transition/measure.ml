(** Lemma 2.3, executably: termination by simulation into ordinals.

    §2.6 of the paper observes that the source of a simulation need not
    be a programming language — instantiating it with the inverse of a
    well-founded relation (e.g. [>] on ordinals) turns the simulation
    relation into a termination proof: every step of the target is
    matched by a strictly descending step of the ordinal source, and
    well-founded descent has no infinite chains.

    A {!measured} system packages a finitely-branching transition system
    with an ordinal measure; {!validate} checks the lockstep simulation
    (every successor strictly smaller) on the reachable fragment, and
    {!run} executes the system under {e any} (possibly adversarial)
    successor choice — termination of [run] is unconditional once
    [validate]'s invariant holds, and [run] re-validates the descent at
    every step so that even unvalidated systems cannot make it spin. *)

module Ord = Tfiris_ordinal.Ord

type 'a t = {
  state_pp : Format.formatter -> 'a -> unit;
  step : 'a -> 'a list;  (** finitely branching; [[]] = terminated *)
  measure : 'a -> Ord.t;
}

type 'a violation = {
  from_state : 'a;
  to_state : 'a;
  from_measure : Ord.t;
  to_measure : Ord.t;
}

(** Check the descent invariant on all states reachable from [start]
    within [bound] expansions (the executable face of the simulation
    obligation [∀ t {tgt t'. measure t > measure t']). *)
let validate ?(bound = 10_000) (sys : 'a t) (start : 'a) :
    ('a violation option, string) result =
  let rec go frontier seen n =
    match frontier with
    | [] -> Ok None
    | _ when n <= 0 -> Error "state bound exhausted before full validation"
    | s :: rest -> (
      let m = sys.measure s in
      let succs = sys.step s in
      match
        List.find_opt (fun s' -> not (Ord.lt (sys.measure s') m)) succs
      with
      | Some bad ->
        Ok
          (Some
             {
               from_state = s;
               to_state = bad;
               from_measure = m;
               to_measure = sys.measure bad;
             })
      | None ->
        let fresh = List.filter (fun s' -> not (List.mem s' seen)) succs in
        go (rest @ fresh) (fresh @ seen) (n - 1))
  in
  go [ start ] [ start ] bound

(** Follow [next] until it returns [None], re-validating the strict
    descent of [measure] at every step; the descent makes fuel
    unnecessary.  Each state is measured once, its measure carried into
    the next step.  Returns the visited states (including the terminal
    one) or the violation that stopped the run. *)
let descend ~(measure : 'a -> Ord.t) ~(next : 'a -> 'a option) (start : 'a) :
    ('a list, 'a violation) result =
  let rec go s m acc =
    match next s with
    | None -> Ok (List.rev (s :: acc))
    | Some s' ->
      let m' = measure s' in
      if Ord.lt m' m then go s' m' (s :: acc)
      else
        Error
          { from_state = s; to_state = s'; from_measure = m; to_measure = m' }
  in
  go start (measure start) []

(** Run to termination under a successor-choice function. *)
let run (sys : 'a t) ~(choose : 'a list -> 'a) (start : 'a) :
    ('a list, 'a violation) result =
  descend ~measure:sys.measure
    ~next:(fun s -> match sys.step s with [] -> None | succs -> Some (choose succs))
    start
