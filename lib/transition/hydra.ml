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
let chops ~regrow (Node roots) : tree list =
  (* chop inside a grandchild context: returns possible replacements of
     a node together with the list of sibling copies to regrow *)
  let rec chop_in (Node ts) : (tree * tree list) list =
    (* either chop a leaf child of this node (regrow copies of the
       post-chop node at our parent)... *)
    let here =
      List.concat_map
        (fun (i, child) ->
          match child with
          | Node [] ->
            let remaining = List.filteri (fun j _ -> j <> i) ts in
            let after = Node remaining in
            [ (after, List.init regrow (fun _ -> after)) ]
          | Node _ -> [])
        (List.mapi (fun i c -> (i, c)) ts)
    in
    (* ...or recurse into a non-leaf child; the copies regrow HERE *)
    let deeper =
      List.concat_map
        (fun (i, child) ->
          match child with
          | Node [] -> []
          | Node _ ->
            List.map
              (fun (child', copies) ->
                let ts' =
                  List.mapi (fun j c -> if j = i then child' else c) ts
                in
                (Node (ts' @ copies), []))
              (chop_in child))
        (List.mapi (fun i c -> (i, c)) ts)
    in
    here @ deeper
  in
  (* At the root: chopping a root-level leaf just removes it, no
     regrowth (the standard rule). *)
  let root_level =
    List.concat_map
      (fun (i, child) ->
        match child with
        | Node [] -> [ Node (List.filteri (fun j _ -> j <> i) roots) ]
        | Node _ -> [])
      (List.mapi (fun i c -> (i, c)) roots)
  in
  let deeper =
    List.concat_map
      (fun (i, child) ->
        match child with
        | Node [] -> []
        | Node _ ->
          List.map
            (fun (child', copies) ->
              let roots' =
                List.mapi (fun j c -> if j = i then child' else c) roots
              in
              Node (roots' @ copies))
            (chop_in child))
      (List.mapi (fun i c -> (i, c)) roots)
  in
  root_level @ deeper

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

type site = { path : int list; size : int }

(** The chop sites in [chops]' order: at each node its leaf children
    first, then the sites inside its other children.  Chopping a head of
    the maimed node [p] leaves [size t - 1 + regrow * (size p - 1)]
    nodes ([p] loses the head, the grandparent gains [regrow] copies of
    what is left of [p]); a head at the root leaves [size t - 1]. *)
let sites ~regrow t : site Seq.t =
  let total = size t in
  let rec under rpath (Node ts as p) =
    let after =
      if rpath = [] then total - 1 else total - 1 + (regrow * (size p - 1))
    in
    let children = Seq.zip (Seq.ints 0) (List.to_seq ts) in
    let here =
      Seq.filter_map
        (function
          | i, Node [] -> Some { path = List.rev (i :: rpath); size = after }
          | _, Node _ -> None)
        children
    in
    let deeper =
      Seq.concat_map
        (function _, Node [] -> Seq.empty | i, c -> under (i :: rpath) c)
        children
    in
    Seq.append here deeper
  in
  under [] t

(** The hydra left by chopping the head at [path], built the way
    [chops] builds it. *)
let chop_at ~regrow (Node roots) path =
  let without i ts = List.filteri (fun j _ -> j <> i) ts in
  let replace i c' ts = List.mapi (fun j c -> if j = i then c' else c) ts in
  (* the children of a node once the head at [path] below it is chopped *)
  let rec go ts = function
    | [] -> invalid_arg "Hydra.chop_at: empty path"
    | [ i ] -> without i ts
    | [ j; i ] ->
      let (Node p) = List.nth ts j in
      let after = Node (without i p) in
      replace j after ts @ List.init regrow (fun _ -> after)
    | j :: path ->
      let (Node c) = List.nth ts j in
      replace j (Node (go c path)) ts
  in
  Node (go roots path)

let successor ~regrow strategy t =
  let chosen =
    match strategy with
    | First -> Option.map fst (Seq.uncons (sites ~regrow t))
    | Fattest ->
      Seq.fold_left
        (fun best s ->
          match best with Some b when b.size >= s.size -> best | _ -> Some s)
        None (sites ~regrow t)
  in
  Option.map (fun s -> chop_at ~regrow t s.path) chosen

(** Play to the death; the result is the number of chops.  Only the
    chosen successor is built at each step, and {!Measure.descend}
    re-checks the descent of its measure. *)
let play ?(regrow = 2) ~choose (h : tree) : (int, tree Measure.violation) result
    =
  match Measure.descend ~measure ~next:(successor ~regrow choose) h with
  | Ok states -> Ok (List.length states - 1)
  | Error v -> Error v
