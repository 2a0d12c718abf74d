(** The Hydra game (Kirby–Paris), as a measured transition system.

    A hydra is a finite rooted tree.  Hercules chops a head (a leaf);
    if the head was attached at depth ≥ 2, the hydra regrows [n] copies
    of the subtree that contained it (we use a fixed regrowth factor per
    step).  The hydra always dies — regardless of which heads Hercules
    chops and however fast the regrowth — because the tree's ordinal
    measure

    {v   μ(node ts) = ⊕_{t ∈ ts} ω^(μ t)   v}

    strictly decreases at every chop.  This is {!Measure}'s Lemma 2.3
    instance par excellence: the target (the game) is simulated in
    lockstep by the ordinal source, hence terminates, even though the
    number of heads can grow enormously along the way. *)

module Ord = Tfiris_ordinal.Ord

type tree = Node of tree list

let leaf = Node []
let size (Node _ as t) =
  let rec go (Node ts) = 1 + List.fold_left (fun a t -> a + go t) 0 ts in
  go t

let heads (Node _ as t) =
  let rec go (Node ts) =
    if ts = [] then 1 else List.fold_left (fun a t -> a + go t) 0 ts
  in
  go t

(** μ(node ts) = ⊕ ω^(μ t): Hessenberg so the order of children is
    irrelevant. *)
let rec measure (Node ts) : Ord.t =
  Ord.hsum_list (List.map (fun t -> Ord.omega_pow (measure t)) ts)

let rec pp ppf (Node ts) =
  if ts = [] then Format.pp_print_string ppf "\xe2\x80\xa2"
  else
    Format.fprintf ppf "(%a)"
      (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " ") pp)
      ts

(** All hydras reachable by chopping one head, with regrowth [n]:
    - a leaf child of the root disappears;
    - a leaf at depth ≥ 2: its parent loses the leaf, and the
      grandparent gains [n] extra copies of the (post-chop) parent. *)
let chops ~regrow t : tree list =
  (* The chops at or below a node, each as the node it leaves and the
     copies its parent regrows: first its leaf children, in order (the
     copies are of what is left of it), then the chops inside its other
     children (whose copies regrow here). *)
  let rec chop_in (Node ts) : (tree * tree list) list =
    let children = List.mapi (fun i c -> (i, c)) ts in
    let here =
      List.concat_map
        (function
          | i, Node [] ->
            let after = Node (List.filteri (fun j _ -> j <> i) ts) in
            [ (after, List.init regrow (fun _ -> after)) ]
          | _, Node _ -> [])
        children
    in
    let deeper =
      List.concat_map
        (function
          | _, Node [] -> []
          | i, child ->
            List.map
              (fun (child', copies) ->
                (Node (List.mapi (fun j c -> if j = i then child' else c) ts @ copies), []))
              (chop_in child))
        children
    in
    here @ deeper
  in
  (* root-level heads regrow nothing: the root has no parent *)
  List.map fst (chop_in t)

(** The game as a measured transition system. *)
let system ~regrow : tree Measure.t =
  { Measure.state_pp = pp; step = chops ~regrow; measure }

(** Some hydras. *)
let line n =
  (* a path of length n *)
  let rec go k = if k = 0 then leaf else Node [ go (k - 1) ] in
  Node [ go n ]

let bush ~width ~depth =
  let rec go d = if d = 0 then leaf else Node (List.init width (fun _ -> go (d - 1))) in
  go depth

(** Greedy strategies for Hercules (the point is that {e any} strategy
    wins). *)
type strategy = First | Fattest

let choose_first = First

(* adversarial: keep the hydra as big as possible *)
let choose_fattest = Fattest

(** The list-level reference: the first successor, or the first of the
    largest ones; each candidate is sized once. *)
let pick strategy succs =
  match (strategy, succs) with
  | _, [] -> invalid_arg "no successor"
  | First, s :: _ -> s
  | Fattest, s :: rest ->
    fst
      (List.fold_left
         (fun (best, n) s' ->
           let n' = size s' in
           if n' > n then (s', n') else (best, n))
         (s, size s) rest)

(* The game as [play] runs it, on annotated trees: every node caches its
   children, its [size], its measure [mu] with the term [pow = ω^mu] it
   adds to its parent's, and [best], the largest size of a node in its
   subtree (itself included) with a head child, 0 if there is none.  A
   chop walks to the chosen head, rebuilds the path from the root to
   it, and recomputes the caches on that path only. *)
type node = { kids : node list; size : int; mu : Ord.t; pow : Ord.t; best : int }

(* The caches of a node with children [kids], from theirs: [mu] is
   [measure]'s fold, over the cached terms. *)
let mk kids =
  let rec go size mu head best = function
    | [] -> { kids; size; mu; pow = Ord.omega_pow mu; best = (if head then size else best) }
    | k :: ks ->
      go (size + k.size) (Ord.hsum mu k.pow) (head || k.kids = []) (max best k.best) ks
  in
  go 1 Ord.zero false 0 kids

let rec annotate (Node ts) = mk (List.map annotate ts)
let rec plain n = Node (List.map plain n.kids)

let rec index p i = function
  | [] -> None
  | k :: ks -> if p k then Some i else index p (i + 1) ks

(* Where the chosen head is, seen from node [n]: [`Here i] is the head
   child [i], [`Into j] the head inside child [j]. *)
let first n =
  match index (fun k -> k.kids = []) 0 n.kids with
  | Some i -> `Here i
  | None -> `Into 0

(* The first head of the first node of size [b] with a head, in [chops]'
   order: a node's head children come before the heads inside its
   other children, so a node with a head is the first of its subtree. *)
let fattest b n =
  if n.size = b then first n
  else `Into (Option.get (index (fun k -> k.best = b) 0 n.kids))

(* A head at maimed node [p] leaves [size - 1 + regrow * (size p - 1)]
   nodes, [size - 1] at the root: with [regrow > 0] the fattest chop is
   at the largest non-root node with a head, and the first chop in
   order when there is none or [regrow = 0]. *)
let target ~regrow strategy root =
  match strategy with
  | First -> first
  | Fattest ->
    let b = List.fold_left (fun b k -> max b k.best) 0 root.kids in
    if regrow = 0 || b = 0 then first else fattest b

(* The hydra left by one chop, rebuilt the way [chops] builds it; [None]
   once it is dead. *)
let chop ~regrow strategy root =
  let at = target ~regrow strategy root in
  (* [n] after the chop below it, and the copies its parent regrows *)
  let rec go n =
    match at n with
    | `Here i ->
      let n' = mk (List.filteri (fun j _ -> j <> i) n.kids) in
      (n', List.init regrow (fun _ -> n'))
    | `Into j ->
      let rec splice j = function
        | [] -> invalid_arg "Hydra.chop"
        | k :: ks when j = 0 ->
          let k', copies = go k in
          k' :: (ks @ copies)
        | k :: ks -> k :: splice (j - 1) ks
      in
      (mk (splice j n.kids), [])
  in
  if root.kids = [] then None else Some (fst (go root))

(** Play to the death; the result is the number of chops.  The descent
    of the cached measure is re-checked at every chop. *)
let play ?(regrow = 2) ~choose h =
  let rec go n k =
    match chop ~regrow choose n with
    | None -> Ok k
    | Some n' when Ord.lt n'.mu n.mu -> go n' (k + 1)
    | Some n' ->
      Error
        {
          Measure.from_state = plain n;
          to_state = plain n';
          from_measure = n.mu;
          to_measure = n'.mu;
        }
  in
  go (annotate h) 0

let trajectory ~regrow ~choose h =
  Seq.unfold
    (Option.map (fun n -> ((plain n, n.mu), chop ~regrow choose n)))
    (Some (annotate h))
