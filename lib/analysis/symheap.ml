(** Symbolic heaps: the abstract domain of the separation-logic
    analyzer ({!Biabd}).

    A symbolic heap is a pair of a {e pure} part (equalities in solved
    form plus disequalities over symbolic values) and a {e spatial}
    part (a separating conjunction of atoms):

    - [Pts (a, v)] — the points-to assertion [a ↦ v];
    - [Lseg (a, t)] — a null-terminated {e segment}: [n ≥ 0] cells at
      consecutive addresses [a, a+1, …] each holding a non-zero
      integer, followed by one terminator cell holding [t] (in
      practice [0]).  This is the list shape of the paper's
      Levenshtein case study, where strings are blocks walked by
      pointer increment ([slen (s +ₗ 1)]) — adjacency, not a next
      field, is the linking structure of SHL's idioms;
    - [Junk] — ownership of an unknown region (after havoc).

    Addresses are a symbolic base plus a concrete offset; the
    distinguished base {!conc_base} makes concrete locations
    addressable too ([{base = conc_base; off = l}] is location [l]).

    The domain operations are the classic symbolic-heap toolkit:
    unification ({!unify}, which doubles as the satisfiability-checked
    "assume equal"), disequalities ({!add_neq}), {e subtraction} with
    frame and anti-frame inference ({!subtract} — the engine of
    bi-abduction: consume required atoms, return what is left as the
    frame and what was absent as the missing anti-frame), and
    {e abstraction} ({!abstract}), which collapses maximal points-to
    chains into segments and is the widening that makes the summary
    fixpoint of {!Biabd} converge. *)

(* ------------------------------------------------------------------ *)
(* Terms                                                               *)
(* ------------------------------------------------------------------ *)

(** The distinguished base of concrete locations: address
    [{base = conc_base; off = l}] denotes location [l] itself. *)
let conc_base = -1

type addr = {
  base : int;  (** symbolic base, or {!conc_base} *)
  off : int;  (** concrete offset in cells *)
}

let addr_of_base b = { base = b; off = 0 }
let addr_shift a n = { a with off = a.off + n }

type sval =
  | S_var of int  (** symbolic value variable *)
  | S_unit
  | S_bool of bool
  | S_int of int
  | S_loc of addr
  | S_pair of sval * sval
  | S_inj_l of sval
  | S_inj_r of sval
  | S_fun of int
      (** a closure token — opaque to the domain beyond identity; the
          analyzer resolves tokens to function summaries *)

type atom =
  | Pts of addr * sval  (** [a ↦ v] *)
  | Lseg of addr * sval  (** null-terminated run from [a], ending in a
                             cell holding the terminator *)
  | Junk  (** some unknown owned region *)

(* ------------------------------------------------------------------ *)
(* The symbolic heap                                                   *)
(* ------------------------------------------------------------------ *)

module Imap = Map.Make (Int)

(** An asserted disequality [l ≠ r] with the {!mask} of the ids its
    sides mention. *)
type neq = {
  l : sval;
  r : sval;
  mask : int;
}

type t = {
  eqs : sval Imap.t;  (** svar → value; acyclic, chased by {!norm} *)
  beqs : addr Imap.t;  (** base → address; acyclic, chased likewise *)
  neqs : neq list;
      (** asserted disequalities, each side normalized and the two
          sides different (see {!unify}) *)
  spatial : atom list;
  nvar : int;  (** next fresh svar *)
  nbase : int;  (** next fresh base *)
}

let empty =
  {
    eqs = Imap.empty;
    beqs = Imap.empty;
    neqs = [];
    spatial = [];
    nvar = 0;
    nbase = 0;
  }

let fresh_var (t : t) : t * sval =
  ({ t with nvar = t.nvar + 1 }, S_var t.nvar)

let fresh_base (t : t) : t * addr =
  ({ t with nbase = t.nbase + 1 }, addr_of_base t.nbase)

(* ---------- id masks ---------- *)

(* A disequality's mask has one bit per variable and base id its sides
   mention, ids folded modulo 31 into the low (variables) and high
   (bases) 31 bits.  Two ids may share a bit, so a mask is a filter with
   false positives and no false negatives: a binding whose bit misses a
   mask cannot touch that disequality. *)
let var_bit i = 1 lsl (i mod 31)
let base_bit b = 1 lsl (31 + ((b + 1) mod 31))

let rec mask (v : sval) : int =
  match v with
  | S_var i -> var_bit i
  | S_loc a -> base_bit a.base
  | S_pair (a, b) -> mask a lor mask b
  | S_inj_l a | S_inj_r a -> mask a
  | S_unit | S_bool _ | S_int _ | S_fun _ -> 0

let make_neq l r = { l; r; mask = mask l lor mask r }

(* ---------- normalization ---------- *)

let rec norm_addr (t : t) (a : addr) : addr =
  match Imap.find_opt a.base t.beqs with
  | None -> a
  | Some b -> norm_addr t { b with off = b.off + a.off }

(* A value with nothing bound under it comes back physically unchanged,
   so normalizing an already normal term allocates nothing. *)
let rec norm (t : t) (v : sval) : sval =
  match v with
  | S_var i -> (
    match Imap.find_opt i t.eqs with None -> v | Some w -> norm t w)
  | S_loc a ->
    let a' = norm_addr t a in
    if a' == a then v else S_loc a'
  | S_pair (a, b) ->
    let a' = norm t a and b' = norm t b in
    if a' == a && b' == b then v else S_pair (a', b')
  | S_inj_l a ->
    let a' = norm t a in
    if a' == a then v else S_inj_l a'
  | S_inj_r a ->
    let a' = norm t a in
    if a' == a then v else S_inj_r a'
  | S_unit | S_bool _ | S_int _ | S_fun _ -> v

let norm_atom (t : t) = function
  | Pts (a, v) -> Pts (norm_addr t a, norm t v)
  | Lseg (a, v) -> Lseg (norm_addr t a, norm t v)
  | Junk -> Junk

(* ---------- queries ---------- *)

(** Definite equality: both sides normalize to the same term. *)
let definitely_eq (t : t) (a : sval) (b : sval) = norm t a = norm t b

let rec occurs (i : int) (v : sval) =
  match v with
  | S_var j -> i = j
  | S_pair (a, b) -> occurs i a || occurs i b
  | S_inj_l a | S_inj_r a -> occurs i a
  | S_unit | S_bool _ | S_int _ | S_loc _ | S_fun _ -> false

(** [Some true]/[Some false] when the normalized value is definitely
    non-zero/zero; the non-zero witness is either a literal non-zero
    integer or an asserted disequality against [0] (the shape a failed
    null test leaves behind).  [None] when unknown.  The stored
    disequalities are already normal. *)
let nonzero_int (t : t) (v : sval) =
  match norm t v with
  | S_int n -> Some (n <> 0)
  | v' ->
    if
      List.exists
        (fun { l; r; _ } -> (l = v' && r = S_int 0) || (r = v' && l = S_int 0))
        t.neqs
    then Some true
    else None

(* ---------- satisfiability ---------- *)

(* Structural apartness of two normalized values: [true] means they
   can never be equal under any extension of the pure part. *)
let rec apart (a : sval) (b : sval) =
  match (a, b) with
  | S_var _, _ | _, S_var _ -> false
  | S_unit, S_unit -> false
  | S_bool x, S_bool y -> x <> y
  | S_int x, S_int y -> x <> y
  | S_fun x, S_fun y -> x <> y
  | S_loc x, S_loc y -> x.base = y.base && x.off <> y.off
  | S_pair (a1, a2), S_pair (b1, b2) -> apart a1 b1 || apart a2 b2
  | S_inj_l x, S_inj_l y | S_inj_r x, S_inj_r y -> apart x y
  | _ ->
    (* different ground constructors *)
    true

(* No two points-to atoms share a start address (x ↦ _ * x ↦ _ is
   false). *)
let pts_disjoint (t : t) : bool =
  let starts =
    List.filter_map
      (function
        | Pts (a, _) -> Some (norm_addr t a)
        | Lseg _ | Junk -> None)
      t.spatial
  in
  let sorted = List.sort compare starts in
  let rec no_dup = function
    | a :: (b :: _ as rest) -> a <> b && no_dup rest
    | _ -> true
  in
  no_dup sorted

(** The full check, from scratch: the state is unsatisfiable when a
    disequality collapsed or two points-to atoms share a start address.
    {!unify} checks only what its binding can change; this is its
    reference. *)
let sat (t : t) : bool =
  (not (List.exists (fun d -> definitely_eq t d.l d.r) t.neqs))
  && pts_disjoint t

let rec mentions_base (b : int) (v : sval) =
  match v with
  | S_loc a -> a.base = b
  | S_pair (x, y) -> mentions_base b x || mentions_base b y
  | S_inj_l x | S_inj_r x -> mentions_base b x
  | S_var _ | S_unit | S_bool _ | S_int _ | S_fun _ -> false

exception Collapsed

(* [t] has one binding more than the state its disequalities were
   normal in; [touched] recognizes the terms that binding rewrites.
   Every other disequality is still normal and uncollapsed, so only the
   touched ones are renormalized and re-checked, and the list after the
   last of them is shared.  Raises [Collapsed] when one collapses.  This
   is the full walk, the reference of {!bind_neqs}. *)
let rec renorm_neqs t touched = function
  | [] -> []
  | d :: rest as l ->
    let rest' = renorm_neqs t touched rest in
    if touched d.l || touched d.r then
      let a = norm t d.l and b = norm t d.r in
      if a = b then raise Collapsed else make_neq a b :: rest'
    else if rest' == rest then l
    else d :: rest'

(* Whether the binding whose id has mask bit [bit] touches a stored
   disequality: the mask rules most out before the exact test runs. *)
let rec touches bit touched = function
  | [] -> false
  | d :: rest ->
    (d.mask land bit <> 0 && (touched d.l || touched d.r))
    || touches bit touched rest

(** The disequalities of [t] (one binding more than they are normal in)
    renormalized: [t.neqs] itself when the binding touches none of them,
    without the non-tail walk of {!renorm_neqs}, which is taken only when
    one is touched.  Raises [Collapsed] like it. *)
let bind_neqs (t : t) bit touched : neq list =
  if touches bit touched t.neqs then renorm_neqs t touched t.neqs else t.neqs

let bind (t : t) bit touched : t option =
  match bind_neqs t bit touched with
  | neqs ->
    if not (pts_disjoint t) then None
    else if neqs == t.neqs then Some t
    else Some { t with neqs }
  | exception Collapsed -> None

(* ---------- unification ---------- *)

(** [unify t a b]: assume [a = b]; [None] when that is inconsistent
    with the current pure and spatial parts.  Each binding keeps the
    stored disequalities normal, so [unify t a b] is [Some] exactly when
    {!sat} accepts the state with the binding added. *)
let rec unify (t : t) (a : sval) (b : sval) : t option =
  let a = norm t a and b = norm t b in
  if a = b then Some t
  else
    match (a, b) with
    | S_var i, v | v, S_var i ->
      if occurs i v then None
      else bind { t with eqs = Imap.add i v t.eqs } (var_bit i) (occurs i)
    | S_loc x, S_loc y -> unify_addr t x y
    | S_pair (a1, a2), S_pair (b1, b2) ->
      Option.bind (unify t a1 b1) (fun t -> unify t a2 b2)
    | S_inj_l x, S_inj_l y | S_inj_r x, S_inj_r y -> unify t x y
    | _ -> None

and unify_addr (t : t) (x : addr) (y : addr) : t option =
  let x = norm_addr t x and y = norm_addr t y in
  if x.base = y.base then if x.off = y.off then Some t else None
  else
    (* Bind the younger (larger-index) symbolic base to the older one,
       so callers keep their own naming when a callee's imported bases
       unify with theirs; conc_base is never bound.  Larger always binds
       to strictly smaller, which keeps the chains acyclic. *)
    let b, target =
      if y.base = conc_base || (x.base <> conc_base && x.base > y.base) then
        (x.base, { base = y.base; off = y.off - x.off })
      else (y.base, { base = x.base; off = x.off - y.off })
    in
    bind { t with beqs = Imap.add b target t.beqs } (base_bit b)
      (mentions_base b)

(** Assume [a ≠ b]; [None] when they are already definitely equal. *)
let add_neq (t : t) (a : sval) (b : sval) : t option =
  let a = norm t a and b = norm t b in
  if a = b then None
  else if apart a b then Some t
  else Some { t with neqs = make_neq a b :: t.neqs }

(* ------------------------------------------------------------------ *)
(* Spatial operations                                                  *)
(* ------------------------------------------------------------------ *)

let add_atom (t : t) (a : atom) : t = { t with spatial = a :: t.spatial }

(** The cell at [a], as a points-to atom, with the remaining spatial
    part. *)
let find_pts (t : t) (a : addr) : (sval * t) option =
  let a = norm_addr t a in
  let rec go acc = function
    | [] -> None
    | Pts (b, v) :: rest when norm_addr t b = a ->
      Some (v, { t with spatial = List.rev_append acc rest })
    | atom :: rest -> go (atom :: acc) rest
  in
  go [] t.spatial

(** The segment starting at [a], with the remaining spatial part. *)
let find_lseg (t : t) (a : addr) : (sval * t) option =
  let a = norm_addr t a in
  let rec go acc = function
    | [] -> None
    | Lseg (b, v) :: rest when norm_addr t b = a ->
      Some (v, { t with spatial = List.rev_append acc rest })
    | atom :: rest -> go (atom :: acc) rest
  in
  go [] t.spatial

let has_junk (t : t) = List.mem Junk t.spatial

(** Drop every spatial atom in favour of a single [Junk] — the havoc
    transition after an effect the analysis cannot see through. *)
let havoc (t : t) : t = { t with spatial = [ Junk ] }

(* ---------- subtraction (entailment + bi-abduction) ---------- *)

(** [subtract t required]: consume the [required] atoms from [t].
    Returns the state with the consumed atoms removed (what remains of
    [t.spatial] is the {e frame}) and the list of atoms that could not
    be matched (the {e missing} anti-frame, which a bi-abductive
    caller adds to the precondition).  [None] on a definite value
    mismatch.

    A required [Lseg] can be proved from an exact [Lseg], from a
    terminator cell ([Pts (a, t)] with the run empty), or from a chain
    of non-zero cells ending in either — the [Pts(x,v) * lseg(x+1,t) ⊢
    lseg(x,t)] rule applied greedily.

    A [Junk] atom absorbs any absent requirement: the unknown owned
    region may contain those cells, so nothing is reported missing (and
    nothing is learned about their contents). *)
let subtract (t : t) (required : atom list) : (t * atom list) option =
  let rec consume_lseg (t : t) (a : addr) (term : sval) missing =
    match find_lseg t a with
    | Some (term', t') -> (
      match unify t' term term' with
      | Some t'' -> Some (t'', missing)
      | None -> None)
    | None -> (
      match find_pts t a with
      | Some (v, t') -> (
        match nonzero_int t v with
        | Some true -> consume_lseg t' (addr_shift a 1) term missing
        | _ -> (
          (* the run ends here: the cell must hold the terminator *)
          match unify t' term v with
          | Some t'' -> Some (t'', missing)
          | None -> None))
      | None ->
        if has_junk t then Some (t, missing)
        else Some (t, Lseg (norm_addr t a, norm t term) :: missing))
  in
  let step (acc : (t * atom list) option) (req : atom) =
    Option.bind acc (fun (t, missing) ->
        match req with
        | Pts (a, v) -> (
          match find_pts t a with
          | Some (v', t') ->
            Option.map (fun t'' -> (t'', missing)) (unify t' v v')
          | None ->
            if has_junk t then Some (t, missing)
            else Some (t, Pts (norm_addr t a, norm t v) :: missing))
        | Lseg (a, term) -> consume_lseg t a term missing
        | Junk ->
          if has_junk t then Some (t, missing) else Some (t, Junk :: missing))
  in
  Option.map
    (fun (t, missing) -> (t, List.rev missing))
    (List.fold_left step (Some (t, [])) required)

(** Entailment of a spatial formula with an inferred frame:
    [entails t atoms] is [Some frame] when [t.spatial ⊢ atoms * frame]
    with nothing missing. *)
let entails (t : t) (atoms : atom list) : atom list option =
  match subtract t atoms with
  | Some (t', []) -> Some (List.map (norm_atom t') t'.spatial)
  | Some _ | None -> None

(* ---------- abstraction / widening ---------- *)

(** Collapse points-to chains into segments: a maximal run of cells at
    consecutive addresses holding definite non-zero integers, ended by
    a null cell ([↦ 0]) or an existing null-terminated segment,
    becomes [Lseg (start, 0)].  A lone null cell also collapses (the
    empty run), which is what lets the base and recursive disjuncts of
    a summary meet.  This loses cell contents — it is the widening of
    the summary fixpoint, applied at summary boundaries only. *)
let abstract_atoms (t : t) (atoms : atom list) : atom list =
  let atoms = List.map (norm_atom t) atoms in
  let zero v = norm t v = S_int 0 in
  let nz v = nonzero_int t v = Some true in
  (* index the candidate atoms by start address *)
  let by_addr = Hashtbl.create 16 in
  List.iter
    (fun a ->
      match a with
      | Pts (x, _) | Lseg (x, _) -> Hashtbl.replace by_addr x a
      | Junk -> ())
    atoms;
  (* a cell is interior if some chain continues through it *)
  let consumed = Hashtbl.create 16 in
  let rec chain_end x =
    (* follow nz cells from x; return terminator address when the run
       ends in a collapsible way *)
    match Hashtbl.find_opt by_addr x with
    | Some (Pts (_, v)) when nz v -> chain_end (addr_shift x 1)
    | Some (Pts (_, v)) when zero v -> Some x
    | Some (Lseg (_, v)) when zero v -> Some x
    | _ -> None
  in
  (* heads: addresses that start a collapsible chain and are not the
     continuation of another cell *)
  let is_head x =
    Hashtbl.mem by_addr x
    && (not (Hashtbl.mem by_addr (addr_shift x (-1))))
    && chain_end x <> None
  in
  (* First mark every chain (heads are never interior to another chain,
     so this is order-independent), then emit: one segment per head,
     consumed interiors dropped, everything else kept. *)
  let heads = Hashtbl.create 16 in
  Hashtbl.iter
    (fun x _ ->
      if is_head x then begin
        Hashtbl.replace heads x ();
        let rec mark y =
          Hashtbl.replace consumed y ();
          match Hashtbl.find_opt by_addr y with
          | Some (Pts (_, v)) when nz v -> mark (addr_shift y 1)
          | _ -> ()
        in
        mark x
      end)
    by_addr;
  (* junk is idempotent (junk * junk ⊣⊢ junk): keep at most one, last *)
  let some_junk = ref false in
  let out = ref [] in
  List.iter
    (fun atom ->
      match atom with
      | Pts (x, _) | Lseg (x, _) ->
        if Hashtbl.mem heads x then begin
          Hashtbl.remove heads x;
          out := Lseg (x, S_int 0) :: !out
        end
        else if not (Hashtbl.mem consumed x) then out := atom :: !out
      | Junk -> some_junk := true)
    atoms;
  List.rev (if !some_junk then Junk :: !out else !out)

let abstract (t : t) : t = { t with spatial = abstract_atoms t t.spatial }

(* ------------------------------------------------------------------ *)
(* Renaming and canonical forms                                        *)
(* ------------------------------------------------------------------ *)

(** Apply variable and base renamings everywhere in a value. *)
let rec map_ids (fv : int -> int) (fb : int -> int) (v : sval) : sval =
  match v with
  | S_var i -> S_var (fv i)
  | S_loc a -> S_loc (map_addr fb a)
  | S_pair (a, b) -> S_pair (map_ids fv fb a, map_ids fv fb b)
  | S_inj_l a -> S_inj_l (map_ids fv fb a)
  | S_inj_r a -> S_inj_r (map_ids fv fb a)
  | S_unit | S_bool _ | S_int _ | S_fun _ -> v

and map_addr (fb : int -> int) (a : addr) : addr =
  if a.base = conc_base then a else { a with base = fb a.base }

let map_atom fv fb = function
  | Pts (a, v) -> Pts (map_addr fb a, map_ids fv fb v)
  | Lseg (a, v) -> Lseg (map_addr fb a, map_ids fv fb v)
  | Junk -> Junk

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let string_of_addr (a : addr) : string =
  if a.base = conc_base then string_of_int a.off
  else if a.off = 0 then Printf.sprintf "a%d" a.base
  else if a.off > 0 then Printf.sprintf "a%d+%d" a.base a.off
  else Printf.sprintf "a%d-%d" a.base (-a.off)

(** [string_of_sval ~var_name v]: ASCII rendering; [var_name] may give
    source names to symbolic variables (parameters). *)
let rec string_of_sval ?(var_name = fun _ -> None) (v : sval) : string =
  let go = string_of_sval ~var_name in
  match v with
  | S_var i -> (
    match var_name i with Some n -> n | None -> Printf.sprintf "_%d" i)
  | S_unit -> "()"
  | S_bool b -> string_of_bool b
  | S_int n -> string_of_int n
  | S_loc a -> string_of_addr a
  | S_pair (a, b) -> Printf.sprintf "(%s, %s)" (go a) (go b)
  | S_inj_l a -> Printf.sprintf "inl %s" (go a)
  | S_inj_r a -> Printf.sprintf "inr %s" (go a)
  | S_fun _ -> "<fun>"

let string_of_atom ?var_name (a : atom) : string =
  match a with
  | Pts (x, v) ->
    Printf.sprintf "%s |-> %s" (string_of_addr x)
      (string_of_sval ?var_name v)
  | Lseg (x, v) ->
    Printf.sprintf "lseg(%s, %s)" (string_of_addr x)
      (string_of_sval ?var_name v)
  | Junk -> "junk"

(** The pure constraints worth showing: the disequalities (equalities
    are already applied by normalization). *)
let pure_strings ?var_name (t : t) : string list =
  List.rev_map
    (fun { l; r; _ } ->
      Printf.sprintf "%s != %s"
        (string_of_sval ?var_name (norm t l))
        (string_of_sval ?var_name (norm t r)))
    t.neqs

let to_string (t : t) : string =
  let parts =
    pure_strings t @ List.map (fun a -> string_of_atom (norm_atom t a)) t.spatial
  in
  match parts with [] -> "emp" | _ -> String.concat " * " parts
