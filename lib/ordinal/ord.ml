(* Ordinals below ε₀ in Cantor normal form.

   [Cnf [(e1, c1); ...; (ek, ck)]] denotes ω^e1·c1 + ... + ω^ek·ck with
   e1 > e2 > ... > ek and all ci ≥ 1.  The empty list is 0. *)

type t = Cnf of (t * int) list

(* Counters for the arithmetic/normal-form hot paths, so the ordinal
   experiments aren't metric blind spots.  Entry points only: the
   term-list recursions underneath are not separately counted. *)
module Metrics = Tfiris_obs.Metrics

let c_compare = Metrics.counter "ordinal.compare"
let c_add = Metrics.counter "ordinal.add"
let c_sub = Metrics.counter "ordinal.sub"
let c_mul = Metrics.counter "ordinal.mul"
let c_hsum = Metrics.counter "ordinal.hsum"
let c_hprod = Metrics.counter "ordinal.hprod"
let c_pow = Metrics.counter "ordinal.pow"
let c_fundamental = Metrics.counter "ordinal.fundamental"
let c_descend = Metrics.counter "ordinal.descend"

let zero = Cnf []
let terms (Cnf ts) = ts
let is_zero (Cnf ts) = ts = []

let rec compare_aux (Cnf xs) (Cnf ys) = compare_terms xs ys

and compare_terms xs ys =
  match xs, ys with
  | [], [] -> 0
  | [], _ :: _ -> -1
  | _ :: _, [] -> 1
  | (e1, c1) :: r1, (e2, c2) :: r2 ->
    let c = compare_aux e1 e2 in
    if c <> 0 then c
    else if c1 <> c2 then Stdlib.compare c1 c2
    else compare_terms r1 r2

let compare a b =
  Metrics.incr c_compare;
  compare_aux a b

let equal a b = compare a b = 0
let lt a b = compare a b < 0
let le a b = compare a b <= 0
let max a b = if lt a b then b else a
let min a b = if lt a b then a else b

let of_int n =
  if n < 0 then invalid_arg "Ord.of_int: negative"
  else if n = 0 then zero
  else Cnf [ (zero, n) ]

let one = of_int 1
let two = of_int 2
let omega_pow e = Cnf [ (e, 1) ]
let omega = omega_pow one

let rec omega_tower n =
  if n < 0 then invalid_arg "Ord.omega_tower: negative"
  else if n = 0 then one
  else omega_pow (omega_tower (n - 1))

let is_finite (Cnf ts) =
  match ts with [] -> true | [ (e, _) ] -> is_zero e | _ :: _ -> false

let to_int_opt (Cnf ts) =
  match ts with
  | [] -> Some 0
  | [ (e, c) ] when is_zero e -> Some c
  | _ :: _ -> None

let nat_part (Cnf ts) =
  (* The finite term, if present, is last (exponent 0 is minimal). *)
  match List.rev ts with (e, c) :: _ when is_zero e -> c | _ -> 0

let limit_part (Cnf ts) =
  match List.rev ts with
  | (e, _) :: rest when is_zero e -> Cnf (List.rev rest)
  | _ -> Cnf ts

let is_succ a = nat_part a > 0
let is_limit a = (not (is_zero a)) && nat_part a = 0

(* Standard addition: drop the terms of [a] strictly below the leading
   exponent of [b]; merge coefficients on equality. *)
let add (Cnf xs) (Cnf ys) =
  Metrics.incr c_add;
  match ys with
  | [] -> Cnf xs
  | (e, d) :: ytl ->
    let rec keep = function
      | [] -> ys
      | (e1, c1) :: rest -> (
        match compare e1 e with
        | c when c > 0 -> (e1, c1) :: keep rest
        | 0 -> (e1, c1 + d) :: ytl
        | _ -> ys)
    in
    Cnf (keep xs)

let succ a = add a one

let pred (Cnf ts as a) =
  let n = nat_part a in
  if n = 0 then None
  else
    match List.rev ts with
    | (_, 1) :: rest -> Some (Cnf (List.rev rest))
    | (e, c) :: rest -> Some (Cnf (List.rev ((e, c - 1) :: rest)))
    | [] -> None

let degree (Cnf ts) = match ts with [] -> zero | (e, _) :: _ -> e

(* Standard multiplication.  For β = Σ ω^{bj}·dj + m (limit terms then a
   finite part m), α·β = Σ_j ω^{deg α + bj}·dj + α·m, where
   α·m = ω^{deg α}·(c1·m) + tail α for m ≥ 1. *)
let mul (Cnf xs) (Cnf ys) =
  Metrics.incr c_mul;
  match xs with
  | [] -> zero
  | (e1, c1) :: xtl ->
    let limit_terms, fin =
      List.fold_left
        (fun (acc, fin) (e, c) ->
          if is_zero e then (acc, c) else ((add e1 e, c) :: acc, fin))
        ([], 0) ys
    in
    let limit_terms = List.rev limit_terms in
    let fin_terms = if fin = 0 then [] else (e1, c1 * fin) :: xtl in
    (* [add] re-normalizes the junction between the two halves. *)
    add (Cnf limit_terms) (Cnf fin_terms)

(* Left subtraction: the unique c with b + c = a, when b ≤ a. *)
let sub (Cnf xs) (Cnf ys) =
  Metrics.incr c_sub;
  let rec go xs ys =
    match xs, ys with
    | xs, [] -> xs
    | [], _ :: _ -> []
    | (e1, c1) :: r1, (e2, c2) :: r2 -> (
      match compare e1 e2 with
      | c when c > 0 -> (e1, c1) :: r1
      | 0 ->
        if c1 > c2 then (e1, c1 - c2) :: r1
        else if c1 = c2 then go r1 r2
        else []
      | _ -> [])
  in
  Cnf (go xs ys)

(* Hessenberg sum: merge term lists, adding coefficients on equal
   exponents. *)
let hsum (Cnf xs) (Cnf ys) =
  Metrics.incr c_hsum;
  let rec merge xs ys =
    match xs, ys with
    | xs, [] -> xs
    | [], ys -> ys
    | (e1, c1) :: r1, (e2, c2) :: r2 -> (
      match compare e1 e2 with
      | c when c > 0 -> (e1, c1) :: merge r1 ys
      | 0 -> (e1, c1 + c2) :: merge r1 r2
      | _ -> (e2, c2) :: merge xs r2)
  in
  Cnf (merge xs ys)

let hsum_list l = List.fold_left hsum zero l

(* Hessenberg product: distribute with ⊕ on exponents. *)
let hprod (Cnf xs) (Cnf ys) =
  Metrics.incr c_hprod;
  List.fold_left
    (fun acc (e1, c1) ->
      List.fold_left
        (fun acc (e2, c2) -> hsum acc (Cnf [ (hsum e1 e2, c1 * c2) ]))
        acc ys)
    zero xs

(* Ordinal exponentiation a^b, by the classical closed forms:
     - n^(ω^e·c + rest) = ω^(ω^(e∸1)·c) · n^rest  for finite n ≥ 2,
       where e∸1 is e-1 for finite e and e itself for infinite e;
     - a^(λ + m) = ω^(deg a · λ) · a^m  for a ≥ ω, λ the limit part. *)
let pow (Cnf xs as a) (Cnf ys as b) =
  Metrics.incr c_pow;
  let rec pow_nat a m acc =
    (* repeated multiplication; m is small in practice *)
    if m = 0 then acc else pow_nat a (m - 1) (mul acc a)
  in
  match xs, ys with
  | _, [] -> one
  | [], _ :: _ -> zero
  | [ (e, 1) ], _ when is_zero e -> one
  | [ (e, n) ], _ when is_zero e ->
    (* finite base n ≥ 2 *)
    let limit_exponent =
      List.filter_map
        (fun (ei, ci) ->
          if is_zero ei then None
          else
            let ei' = match pred ei with Some p -> p | None -> ei in
            Some (mul (omega_pow ei') (of_int ci)))
        (terms b)
      |> List.fold_left add zero
    in
    let head = if is_zero limit_exponent then one else omega_pow limit_exponent in
    pow_nat (of_int n) (nat_part b) head
  | _ :: _, _ :: _ ->
    (* infinite base *)
    let lam = limit_part b in
    let head =
      if is_zero lam then one else omega_pow (mul (degree a) lam)
    in
    pow_nat a (nat_part b) head

(* Canonical fundamental sequences for limit ordinals below ε₀:
     (γ + ω^{e}·c)[n]      = γ + ω^e·(c-1) + (ω^e)[n]     (c > 1)
     (ω^{e'+1})[n]         = ω^{e'}·n
     (ω^{e})[n]            = ω^{e[n]}                      (e limit) *)
let rec fundamental a n =
  Metrics.incr c_fundamental;
  if not (is_limit a) then invalid_arg "Ord.fundamental: not a limit"
  else if n < 0 then invalid_arg "Ord.fundamental: negative index"
  else
    let ts = terms a in
    let rts = List.rev ts in
    match rts with
    | [] -> assert false
    | (e, c) :: prefix_rev ->
      let prefix c' =
        let kept = if c' = 0 then prefix_rev else (e, c') :: prefix_rev in
        Cnf (List.rev kept)
      in
      let last_step =
        match pred e with
        | Some e' -> if n = 0 then zero else Cnf [ (e', n) ]
        | None ->
          (* e is a limit (e ≠ 0 since a is a limit). *)
          omega_pow (fundamental e n)
      in
      add (prefix (c - 1)) last_step

let descend a =
  Metrics.incr c_descend;
  if is_zero a then invalid_arg "Ord.descend: zero"
  else
    match pred a with
    | Some b -> b
    | None -> fundamental a 1

let descent_depth ?(fuel = 10_000) a =
  let rec go a n = if is_zero a || n >= fuel then n else go (descend a) (n + 1) in
  go a 0

(* Direct [Format] calls, no format strings: a Goodstein run prints
   thousands of ordinals, and [fprintf] re-reads its format on every
   term.  The output is pinned by [test/cli_ordinal.golden]. *)
let rec pp ppf (Cnf ts) =
  match ts with
  | [] -> Format.pp_print_string ppf "0"
  | t :: rest ->
    pp_term ppf t;
    pp_rest ppf rest

and pp_rest ppf = function
  | [] -> ()
  | t :: rest ->
    Format.pp_print_string ppf " + ";
    pp_term ppf t;
    pp_rest ppf rest

and pp_term ppf (e, c) =
  if is_zero e then Format.pp_print_int ppf c
  else begin
    if equal e one then Format.pp_print_string ppf "\xcf\x89"
    else if atomic_exp e then begin
      Format.pp_print_string ppf "\xcf\x89^";
      pp ppf e
    end
    else begin
      Format.pp_print_string ppf "\xcf\x89^(";
      pp ppf e;
      Format.pp_print_string ppf ")"
    end;
    if c > 1 then begin
      Format.pp_print_string ppf "\xc2\xb7";
      Format.pp_print_int ppf c
    end
  end

and atomic_exp e =
  (* An exponent printable without parentheses: a finite ordinal or a
     single ω-power with coefficient 1. *)
  match terms e with
  | [ (e', 1) ] -> is_zero e' || atomic_exp e'
  | [ (e', _) ] -> is_zero e'
  | _ -> false

let to_string a = Format.asprintf "%a" pp a

let rec hash (Cnf ts) =
  List.fold_left (fun acc (e, c) -> (acc * 31) + (hash e * 7) + c) 17 ts
