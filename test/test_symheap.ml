(* The symbolic-heap domain (Analysis.Symheap) and the bi-abductive
   analyzer over it (Analysis.Biabd): unit tests for unification,
   frame/anti-frame subtraction, entailment and chain abstraction; the
   whole-program checker's verdicts, memory-error findings and leak
   detection; summary goldens for the shipped list examples under the
   tfiris-symheap/1 schema; and the differential property the issue
   asks for — programs the analyzer calls safe run to a value on the
   frame-stack machine with exactly the predicted leak set, and
   programs it calls unsafe get stuck. *)

module Q = QCheck2
module Shl = Tfiris.Shl
module Budget = Tfiris.Robust.Budget
module An = Tfiris.Analysis
module Sh = An.Symheap
module B = An.Biabd
module F = An.Finding
module Json = Tfiris.Obs.Json

let parse = Shl.Parser.parse_exn

let parse_example name = parse (Support.read_file ("../examples/shl/" ^ name))

let prop ?(count = 200) name gen print fn =
  QCheck_alcotest.to_alcotest (Q.Test.make ~count ~name ~print gen fn)

let ids fs = List.map (fun (f : F.t) -> f.F.id) fs
let has_id id fs = List.mem id (ids fs)

(* ---------- the domain: pure layer ---------- *)

let test_unify () =
  let t = Sh.empty in
  let t, x = Sh.fresh_var t in
  let t, y = Sh.fresh_var t in
  (match Sh.unify t x (Sh.S_int 3) with
  | None -> Alcotest.fail "var unifies with a literal"
  | Some t -> (
    Alcotest.(check bool) "equal after unify" true
      (Sh.definitely_eq t x (Sh.S_int 3));
    match Sh.unify t x y with
    | None -> Alcotest.fail "var-var unify"
    | Some t ->
      Alcotest.(check bool) "aliasing propagates the binding" true
        (Sh.definitely_eq t y (Sh.S_int 3))));
  Alcotest.(check bool) "int/bool clash refused" true
    (Sh.unify t (Sh.S_int 1) (Sh.S_bool true) = None);
  (* pairs unify component-wise *)
  let t, a = Sh.fresh_var Sh.empty in
  let t, b = Sh.fresh_var t in
  (match
     Sh.unify t (Sh.S_pair (a, Sh.S_int 2)) (Sh.S_pair (Sh.S_int 1, b))
   with
  | None -> Alcotest.fail "pairs unify component-wise"
  | Some t ->
    Alcotest.(check bool) "fst bound" true
      (Sh.definitely_eq t a (Sh.S_int 1));
    Alcotest.(check bool) "snd bound" true
      (Sh.definitely_eq t b (Sh.S_int 2)));
  (* occurs check: x = (x, 1) must not loop or succeed *)
  let t, x = Sh.fresh_var Sh.empty in
  Alcotest.(check bool) "occurs check" true
    (Sh.unify t x (Sh.S_pair (x, Sh.S_int 1)) = None)

let test_neq () =
  let t, x = Sh.fresh_var Sh.empty in
  match Sh.add_neq t x (Sh.S_int 0) with
  | None -> Alcotest.fail "consistent disequality accepted"
  | Some t ->
    (* the x != 0 witness is what a failed null test leaves behind *)
    Alcotest.(check (option bool)) "neq-0 gives a nonzero witness"
      (Some true) (Sh.nonzero_int t x);
    Alcotest.(check bool) "contradicting unify refused" true
      (Sh.unify t x (Sh.S_int 0) = None);
    (match Sh.unify t x (Sh.S_int 7) with
    | None -> Alcotest.fail "non-contradicting unify fine"
    | Some t -> Alcotest.(check bool) "state stays sat" true (Sh.sat t));
    Alcotest.(check bool) "literal disequality refused" true
      (Sh.add_neq t (Sh.S_int 1) (Sh.S_int 1) = None)

(* ---------- the incremental check vs the full one ---------- *)

(* From-scratch normalization: no sharing, no stored invariant. *)
let rec naive_norm_addr (t : Sh.t) (a : Sh.addr) =
  match Sh.Imap.find_opt a.Sh.base t.Sh.beqs with
  | None -> a
  | Some b -> naive_norm_addr t { b with Sh.off = b.Sh.off + a.Sh.off }

let rec naive_norm (t : Sh.t) (v : Sh.sval) =
  match v with
  | Sh.S_var i -> (
    match Sh.Imap.find_opt i t.Sh.eqs with
    | None -> v
    | Some w -> naive_norm t w)
  | Sh.S_loc a -> Sh.S_loc (naive_norm_addr t a)
  | Sh.S_pair (a, b) -> Sh.S_pair (naive_norm t a, naive_norm t b)
  | Sh.S_inj_l a -> Sh.S_inj_l (naive_norm t a)
  | Sh.S_inj_r a -> Sh.S_inj_r (naive_norm t a)
  | Sh.S_unit | Sh.S_bool _ | Sh.S_int _ | Sh.S_fun _ -> v

(* [Sh.unify] with the naive binding: add it, then run the full
   [Sh.sat] over every disequality. *)
let rec naive_unify (t : Sh.t) a b =
  let a = naive_norm t a and b = naive_norm t b in
  if a = b then Some t
  else
    let checked t = if Sh.sat t then Some t else None in
    match (a, b) with
    | Sh.S_var i, v | v, Sh.S_var i ->
      if Sh.occurs i v then None
      else checked { t with Sh.eqs = Sh.Imap.add i v t.Sh.eqs }
    | Sh.S_loc x, Sh.S_loc y ->
      if x.Sh.base = y.Sh.base then if x.Sh.off = y.Sh.off then Some t else None
      else
        let b, target =
          if
            y.Sh.base = Sh.conc_base
            || (x.Sh.base <> Sh.conc_base && x.Sh.base > y.Sh.base)
          then (x.Sh.base, { y with Sh.off = y.Sh.off - x.Sh.off })
          else (y.Sh.base, { x with Sh.off = x.Sh.off - y.Sh.off })
        in
        checked { t with Sh.beqs = Sh.Imap.add b target t.Sh.beqs }
    | Sh.S_pair (a1, a2), Sh.S_pair (b1, b2) ->
      Option.bind (naive_unify t a1 b1) (fun t -> naive_unify t a2 b2)
    | Sh.S_inj_l x, Sh.S_inj_l y | Sh.S_inj_r x, Sh.S_inj_r y ->
      naive_unify t x y
    | _ -> None

let naive_nonzero t v =
  match naive_norm t v with
  | Sh.S_int n -> Some (n <> 0)
  | v' ->
    let zero x = naive_norm t x = Sh.S_int 0 in
    if
      List.exists
        (fun { Sh.l = a; r = b; _ } ->
          (naive_norm t a = v' && zero b) || (naive_norm t b = v' && zero a))
        t.Sh.neqs
    then Some true
    else None

(* Values over the state's variables and bases, by index (taken modulo
   how many exist when the operation runs). *)
type recipe =
  | R_var of int
  | R_int of int
  | R_loc of int * int  (** base index (or concrete), offset *)
  | R_pair of recipe * recipe
  | R_inl of recipe
  | R_inr of recipe

type op =
  | Fresh_var
  | Fresh_base
  | Neq of recipe * recipe
  | Pts of recipe * recipe  (** a points-to atom at a location recipe *)
  | Unify of recipe * recipe

let rec resolve (t : Sh.t) = function
  | R_var k -> if t.Sh.nvar = 0 then Sh.S_int 0 else Sh.S_var (k mod t.Sh.nvar)
  | R_int n -> Sh.S_int n
  | R_loc (k, off) ->
    let base =
      if t.Sh.nbase = 0 || k = 0 then Sh.conc_base else k mod t.Sh.nbase
    in
    Sh.S_loc { Sh.base; off }
  | R_pair (a, b) -> Sh.S_pair (resolve t a, resolve t b)
  | R_inl a -> Sh.S_inj_l (resolve t a)
  | R_inr a -> Sh.S_inj_r (resolve t a)

let rec recipe_to_string = function
  | R_var k -> Printf.sprintf "v%d" k
  | R_int n -> string_of_int n
  | R_loc (k, off) -> Printf.sprintf "b%d+%d" k off
  | R_pair (a, b) ->
    Printf.sprintf "(%s, %s)" (recipe_to_string a) (recipe_to_string b)
  | R_inl a -> "inl " ^ recipe_to_string a
  | R_inr a -> "inr " ^ recipe_to_string a

let op_to_string op =
  let two a sep b = recipe_to_string a ^ sep ^ recipe_to_string b in
  match op with
  | Fresh_var -> "fresh_var"
  | Fresh_base -> "fresh_base"
  | Neq (a, b) -> two a " != " b
  | Pts (a, v) -> two a " |-> " v
  | Unify (a, b) -> two a " = " b

let recipe : recipe Q.Gen.t =
  let open Q.Gen in
  sized_size (int_bound 3)
  @@ fix (fun self n ->
         let leaf =
           frequency
             [
               (4, map (fun k -> R_var k) (int_bound 9));
               (2, map (fun n -> R_int n) (int_bound 2));
               (2, map2 (fun k o -> R_loc (k, o)) (int_bound 5) (int_bound 2));
             ]
         in
         if n = 0 then leaf
         else
           frequency
             [
               (3, leaf);
               ( 1,
                 map2 (fun a b -> R_pair (a, b)) (self (n / 2)) (self (n / 2))
               );
               (1, map (fun a -> R_inl a) (self (n - 1)));
               (1, map (fun a -> R_inr a) (self (n - 1)));
             ])

let ops : op list Q.Gen.t =
  let open Q.Gen in
  list_size (int_range 1 40)
    (frequency
       [
         (3, return Fresh_var);
         (2, return Fresh_base);
         (3, map2 (fun a b -> Neq (a, b)) recipe recipe);
         (1, map2 (fun k v -> Pts (R_loc (k, 0), v)) (int_bound 5) recipe);
         (6, map2 (fun a b -> Unify (a, b)) recipe recipe);
       ])

(* Every variable and base id a stored disequality mentions has its bit
   in the disequality's mask: the mask may over-approximate, never miss. *)
let check_mask (d : Sh.neq) =
  let rec ids = function
    | Sh.S_var i -> [ Sh.var_bit i ]
    | Sh.S_loc a -> [ Sh.base_bit a.Sh.base ]
    | Sh.S_pair (a, b) -> ids a @ ids b
    | Sh.S_inj_l a | Sh.S_inj_r a -> ids a
    | Sh.S_unit | Sh.S_bool _ | Sh.S_int _ | Sh.S_fun _ -> []
  in
  List.iter
    (fun bit ->
      if d.Sh.mask land bit = 0 then
        Q.Test.fail_reportf "the mask of %s != %s misses an id"
          (Sh.string_of_sval d.Sh.l) (Sh.string_of_sval d.Sh.r))
    (ids d.Sh.l @ ids d.Sh.r)

(* Bind every unbound variable to a literal and every unbound base to a
   concrete address, one at a time.  The masked scan of [Sh.bind_neqs]
   must give what the full [Sh.renorm_neqs] walk gives, and [Sh.bind]
   must return its input state physically exactly when that walk
   returns the list unchanged. *)
let check_bind_fast_path (t : Sh.t) =
  let attempt f = match f () with l -> Some l | exception Sh.Collapsed -> None in
  let check what (t' : Sh.t) bit touched =
    let fast = attempt (fun () -> Sh.bind_neqs t' bit touched)
    and full = attempt (fun () -> Sh.renorm_neqs t' touched t'.Sh.neqs) in
    if fast <> full then
      Q.Test.fail_reportf "binding %s: masked and full renormalization differ"
        what;
    match (Sh.bind t' bit touched, full) with
    | Some t'', Some l ->
      if t'' == t' <> (l == t'.Sh.neqs) then
        Q.Test.fail_reportf
          "binding %s: bind returns its input %b, the full walk keeps the \
           list %b"
          what (t'' == t') (l == t'.Sh.neqs)
    | Some _, None -> Q.Test.fail_reportf "binding %s: bind misses a collapse" what
    | None, Some _ when Sh.pts_disjoint t' ->
      Q.Test.fail_reportf "binding %s: bind refuses a consistent binding" what
    | None, _ -> ()
  in
  for i = 0 to t.Sh.nvar - 1 do
    if not (Sh.Imap.mem i t.Sh.eqs) then
      check (Printf.sprintf "_%d" i)
        { t with Sh.eqs = Sh.Imap.add i (Sh.S_int 7) t.Sh.eqs }
        (Sh.var_bit i) (Sh.occurs i)
  done;
  for b = 0 to t.Sh.nbase - 1 do
    if not (Sh.Imap.mem b t.Sh.beqs) then
      check (Printf.sprintf "a%d" b)
        {
          t with
          Sh.beqs =
            Sh.Imap.add b { Sh.base = Sh.conc_base; off = 3 } t.Sh.beqs;
        }
        (Sh.base_bit b) (Sh.mentions_base b)
  done

(* Run [ops] through the API.  At every unification the incremental
   [Sh.unify] must succeed exactly when the naive binding passes the
   full [Sh.sat], with the same bindings; after every step each stored
   disequality is its own normal form with two different sides, its
   mask covers every id it mentions, the masked fast path of [Sh.bind]
   agrees with the full renormalization, and [norm], [nonzero_int] and
   [definitely_eq] agree with normalizing from scratch. *)
let incremental_sat ops =
  let check_state (t : Sh.t) =
    let probes =
      List.init t.Sh.nvar (fun i -> Sh.S_var i)
      @ List.init t.Sh.nbase (fun b -> Sh.S_loc (Sh.addr_of_base b))
      @ [ Sh.S_int 0; Sh.S_int 1 ]
    in
    List.iter
      (fun { Sh.l = a; r = b; _ } ->
        if naive_norm t a <> a || naive_norm t b <> b || a = b then
          Q.Test.fail_reportf "stored disequality %s != %s is not normal"
            (Sh.string_of_sval a) (Sh.string_of_sval b))
      t.Sh.neqs;
    List.iter check_mask t.Sh.neqs;
    check_bind_fast_path t;
    List.iter
      (fun v ->
        if Sh.norm t v <> naive_norm t v then
          Q.Test.fail_reportf "norm %s differs" (Sh.string_of_sval v);
        if Sh.nonzero_int t v <> naive_nonzero t v then
          Q.Test.fail_reportf "nonzero_int %s differs" (Sh.string_of_sval v);
        List.iter
          (fun w ->
            if Sh.definitely_eq t v w <> (naive_norm t v = naive_norm t w) then
              Q.Test.fail_reportf "definitely_eq %s %s differs"
                (Sh.string_of_sval v) (Sh.string_of_sval w))
          probes)
      probes
  in
  let step (t : Sh.t) op =
    let t =
      match op with
      | Fresh_var -> fst (Sh.fresh_var t)
      | Fresh_base -> fst (Sh.fresh_base t)
      | Neq (a, b) ->
        Option.value ~default:t (Sh.add_neq t (resolve t a) (resolve t b))
      | Pts (a, v) -> (
        match resolve t a with
        | Sh.S_loc x -> Sh.add_atom t (Sh.Pts (x, resolve t v))
        | _ -> t)
      | Unify (a, b) -> (
        let a = resolve t a and b = resolve t b in
        match (Sh.unify t a b, naive_unify t a b) with
        | None, None -> t
        | Some t', Some n ->
          if
            not
              (Sh.Imap.equal ( = ) t'.Sh.eqs n.Sh.eqs
              && Sh.Imap.equal ( = ) t'.Sh.beqs n.Sh.beqs)
          then Q.Test.fail_report "unify and the naive binding bind differently"
          else t'
        | Some _, None -> Q.Test.fail_report "unify accepts what sat refuses"
        | None, Some _ -> Q.Test.fail_report "unify refuses what sat accepts")
    in
    check_state t;
    t
  in
  ignore (List.fold_left step Sh.empty ops);
  true

let incremental_sat_prop =
  prop ~count:500 "unify's incremental check vs full sat" ops
    (fun l -> String.concat "; " (List.map op_to_string l))
    incremental_sat

(* ---------- subtraction: frames, anti-frames, junk ---------- *)

let test_subtract () =
  let t, ax = Sh.fresh_base Sh.empty in
  let t, ay = Sh.fresh_base t in
  let t = Sh.add_atom t (Sh.Pts (ax, Sh.S_int 1)) in
  let t = Sh.add_atom t (Sh.Pts (ay, Sh.S_int 2)) in
  (* exact match: the other cell is the frame, nothing missing *)
  (match Sh.subtract t [ Sh.Pts (ax, Sh.S_int 1) ] with
  | Some (t', []) ->
    Alcotest.(check int) "frame is the untouched cell" 1
      (List.length t'.Sh.spatial)
  | _ -> Alcotest.fail "present cell consumed with empty anti-frame");
  (* absent cell: reported missing — the bi-abduced anti-frame *)
  let az = Sh.addr_of_base 99 in
  (match Sh.subtract t [ Sh.Pts (az, Sh.S_int 3) ] with
  | Some (_, [ Sh.Pts (a, Sh.S_int 3) ]) ->
    Alcotest.(check int) "missing cell keeps its address" 99 a.Sh.base
  | _ -> Alcotest.fail "absent cell lands in the anti-frame");
  (* junk absorbs absent requirements: nothing missing, nothing learned *)
  let tj = Sh.add_atom t Sh.Junk in
  (match Sh.subtract tj [ Sh.Pts (az, Sh.S_int 3) ] with
  | Some (_, []) -> ()
  | _ -> Alcotest.fail "junk absorbs the absent cell");
  (* value mismatch on a present cell is a refusal, not an anti-frame *)
  Alcotest.(check bool) "value clash refused" true
    (Sh.subtract t [ Sh.Pts (ax, Sh.S_int 42) ] = None)

let test_entails_lseg () =
  (* Pts(x,v≠0) * Pts(x+1,0) ⊢ lseg(x,0): the unfolding rule subtract
     applies greedily when asked for a segment *)
  let t, ax = Sh.fresh_base Sh.empty in
  let t = Sh.add_atom t (Sh.Pts (ax, Sh.S_int 7)) in
  let t = Sh.add_atom t (Sh.Pts (Sh.addr_shift ax 1, Sh.S_int 0)) in
  (match Sh.entails t [ Sh.Lseg (ax, Sh.S_int 0) ] with
  | Some [] -> ()
  | Some fr ->
    Alcotest.failf "expected empty frame, got %d atoms" (List.length fr)
  | None -> Alcotest.fail "chain proves the segment");
  (* a lone terminator cell is the empty run *)
  let t, ay = Sh.fresh_base Sh.empty in
  let t = Sh.add_atom t (Sh.Pts (ay, Sh.S_int 0)) in
  (match Sh.entails t [ Sh.Lseg (ay, Sh.S_int 0) ] with
  | Some [] -> ()
  | _ -> Alcotest.fail "terminator cell is an empty segment");
  (* a cell of unknown content proves the segment bi-abductively — by
     committing the content to the terminator.  The strengthening must
     be visible in the returned state *)
  let t, az = Sh.fresh_base Sh.empty in
  let t, v = Sh.fresh_var t in
  let t = Sh.add_atom t (Sh.Pts (az, v)) in
  (match Sh.subtract t [ Sh.Lseg (az, Sh.S_int 0) ] with
  | Some (t', []) ->
    Alcotest.(check bool) "content committed to the terminator" true
      (Sh.definitely_eq t' v (Sh.S_int 0))
  | _ -> Alcotest.fail "unknown cell proves the segment by unification");
  (* but a definitely non-terminator cell with nothing after it cannot:
     the chain runs off the known heap and the tail is reported missing *)
  let t, aw = Sh.fresh_base Sh.empty in
  let t = Sh.add_atom t (Sh.Pts (aw, Sh.S_int 5)) in
  match Sh.subtract t [ Sh.Lseg (aw, Sh.S_int 0) ] with
  | Some (_, [ Sh.Lseg (a, Sh.S_int 0) ]) ->
    Alcotest.(check int) "missing tail starts past the cell" 1 a.Sh.off
  | _ -> Alcotest.fail "unterminated chain abduces its tail"

let test_abstract () =
  (* a 3-cell null-terminated chain collapses to one segment *)
  let t, ax = Sh.fresh_base Sh.empty in
  let t = Sh.add_atom t (Sh.Pts (ax, Sh.S_int 97)) in
  let t = Sh.add_atom t (Sh.Pts (Sh.addr_shift ax 1, Sh.S_int 98)) in
  let t = Sh.add_atom t (Sh.Pts (Sh.addr_shift ax 2, Sh.S_int 0)) in
  (match (Sh.abstract t).Sh.spatial with
  | [ Sh.Lseg (a, Sh.S_int 0) ] ->
    Alcotest.(check int) "segment starts at the chain head" ax.Sh.base
      a.Sh.base
  | l -> Alcotest.failf "expected one segment, got %d atoms" (List.length l));
  (* interior-order independence: listing the terminator first must
     not stop the collapse (regression for the head-marking pass) *)
  let t, ay = Sh.fresh_base Sh.empty in
  let t = Sh.add_atom t (Sh.Pts (Sh.addr_shift ay 1, Sh.S_int 0)) in
  let t = Sh.add_atom t (Sh.Pts (ay, Sh.S_int 5)) in
  (match (Sh.abstract t).Sh.spatial with
  | [ Sh.Lseg _ ] -> ()
  | l ->
    Alcotest.failf "order-independent collapse, got %d atoms"
      (List.length l));
  (* junk is idempotent and kept last *)
  let t = Sh.add_atom (Sh.add_atom Sh.empty Sh.Junk) Sh.Junk in
  (match (Sh.abstract t).Sh.spatial with
  | [ Sh.Junk ] -> ()
  | l -> Alcotest.failf "one junk expected, got %d atoms" (List.length l));
  (* a cell holding an unknown value survives abstraction untouched *)
  let t, az = Sh.fresh_base Sh.empty in
  let t, v = Sh.fresh_var t in
  let t = Sh.add_atom t (Sh.Pts (az, v)) in
  match (Sh.abstract t).Sh.spatial with
  | [ Sh.Pts _ ] -> ()
  | _ -> Alcotest.fail "unknown cell kept"

(* ---------- whole-program checking: errors and leaks ---------- *)

let verdict = Alcotest.testable (fun ppf v ->
    Format.pp_print_string ppf (B.verdict_to_string v)) ( = )

let test_check_errors () =
  let chk src = B.check (parse src) in
  let r = chk "let r = ref 0 in !(r +l 5)" in
  Alcotest.check verdict "load outside any allocation" B.Unsafe r.B.r_verdict;
  Alcotest.(check bool) "deref-unalloc reported" true
    (has_id "symheap/deref-unalloc" r.B.r_findings);
  let r = chk "!5" in
  Alcotest.check verdict "load of a non-location" B.Unsafe r.B.r_verdict;
  Alcotest.(check bool) "deref-non-location reported" true
    (has_id "symheap/deref-non-location" r.B.r_findings);
  let r = chk "1 + true" in
  Alcotest.check verdict "arithmetic on a boolean" B.Unsafe r.B.r_verdict;
  Alcotest.(check bool) "stuck-op reported" true
    (has_id "symheap/stuck-op" r.B.r_findings);
  (* division is total: [n quot 0 = 0] *)
  let r = chk "1 quot 0" in
  Alcotest.check verdict "division by zero is total" B.Safe r.B.r_verdict;
  let r = chk "(1 2)" in
  Alcotest.check verdict "application of a non-function" B.Unsafe
    r.B.r_verdict;
  Alcotest.(check bool) "app-non-function reported" true
    (has_id "symheap/app-non-function" r.B.r_findings);
  (* fork is out of the sequential checker's scope: Unknown, no claim *)
  let r = chk "fork 1; 2" in
  Alcotest.check verdict "fork is unknown" B.Unknown r.B.r_verdict;
  Alcotest.(check (list string)) "and silent" [] (ids r.B.r_findings)

let test_check_leaks () =
  let r = B.check (parse "let r = ref 1 in 0") in
  Alcotest.check verdict "leaky program is still safe" B.Safe r.B.r_verdict;
  Alcotest.(check bool) "leak reported" true
    (has_id "symheap/leak" r.B.r_findings);
  (match r.B.r_leaked with
  | [ (0, _) ] -> ()
  | l -> Alcotest.failf "expected loc 0 leaked, got %d" (List.length l));
  (* reachable through the result: no leak *)
  let r = B.check (parse "let r = ref 1 in r") in
  Alcotest.(check int) "result root keeps the cell" 0
    (List.length r.B.r_leaked);
  (* reachable through a pair inside a returned ref: transitive roots *)
  let r = B.check (parse "let a = ref 3 in let b = ref a in b") in
  Alcotest.(check int) "transitive reachability" 0 (List.length r.B.r_leaked);
  (* leaks are Info, never errors: the analyzer must not fail CI on them *)
  List.iter
    (fun (f : F.t) ->
      if f.F.id = "symheap/leak" then
        Alcotest.(check bool) "leak severity is Info" true
          (f.F.severity = F.Info))
    (B.check (parse "let r = ref 1 in 0")).B.r_findings

(* ---------- summary goldens (tfiris-symheap/1) ---------- *)

(* Figure 4's slen — the linked-list/pointer-walk example the issue
   names: the inferred spec must be the textbook one, with the chain of
   concrete cells collapsed into a null-terminated segment that is both
   required and returned intact. *)
let test_slen_golden () =
  let r = B.check (parse_example "slen.shl") in
  Alcotest.check verdict "slen safe" B.Safe r.B.r_verdict;
  Alcotest.(check string) "slen summary JSON (tfiris-symheap/1)"
    ("{\"schema\":\"tfiris-symheap/1\",\"program\":\"slen\","
   ^ "\"verdict\":\"safe\",\"steps\":57,"
   ^ "\"leaks\":[{\"loc\":0,\"site\":\"/bound\"},"
   ^ "{\"loc\":1,\"site\":\"/in/bound\"},"
   ^ "{\"loc\":2,\"site\":\"/in/in/bound\"},"
   ^ "{\"loc\":3,\"site\":\"/in/in/in/bound\"}],"
   ^ "\"functions\":[{\"name\":\"slen\",\"path\":\"/in/in/in/in/fn\","
   ^ "\"params\":[\"p\"],\"exact\":true,"
   ^ "\"rendered\":\"{lseg(a0, 0)} slen(a0) {ret=_0 * lseg(a0, 0)}\","
   ^ "\"specs\":[{\"pure\":[],\"pre\":[\"lseg(a0, 0)\"],"
   ^ "\"params\":[\"a0\"],\"ret\":\"_0\",\"post\":[\"lseg(a0, 0)\"]}]}]}")
    (Json.to_string (B.to_json ~label:"slen" r))

let test_example_summaries () =
  let rendered name file =
    let r = B.check (parse_example file) in
    match
      List.find_opt (fun s -> s.B.s_name = name) r.B.r_summaries
    with
    | Some s -> B.summary_to_string s
    | None -> Alcotest.failf "no summary for %s in %s" name file
  in
  (* the sum-encoded list sort: structural case split, exact *)
  Alcotest.(check string) "sort summary"
    ("{emp} sort(inl _0) {ret=inl ()} \\/ "
   ^ "{emp} sort(inr (_0, inl _1)) {ret=inr (_0, inl ())} \\/ "
   ^ "{emp} sort(inr (_0, inr (_1, _2))) {ret=_3}")
    (rendered "sort" "sort.shl");
  (* the memo-table writer: a genuine footprint spec — one cell
     required, the consed entry returned *)
  Alcotest.(check string) "memo-table set summary"
    "{a0 |-> _2} set(a0, k, v) {ret=() * a0 |-> inr ((k, v), _2)}"
    (rendered "set" "memo_fib.shl")

(* ---------- the differential property ---------- *)

(* The acceptance property: on random closed programs, a [Safe] verdict
   means the frame-stack machine runs to a value, and the analyzer's
   leak set is exactly the set of locations the final heap holds
   unreachable from the result.  An [Unsafe] verdict means the machine
   gets stuck.  [Unknown] claims nothing.  The analyzer's budget is
   far below the machine fuel, so Safe can never be an artifact of the
   machine running out first. *)
let differential e =
  let r = B.check e in
  match r.B.r_verdict with
  | B.Unknown -> true
  | B.Safe -> (
    match Shl.Interp.exec ~budget:(Budget.of_steps 1_000_000) e with
    | Shl.Interp.Value (v, heap), _ ->
      let predicted = List.sort compare (List.map fst r.B.r_leaked) in
      let actual = List.sort compare (Shl.Heap.unreachable_from [ v ] heap) in
      if predicted = actual then true
      else
        Q.Test.fail_reportf "leak sets differ: analyzer [%s], heap [%s]"
          (String.concat ";" (List.map string_of_int predicted))
          (String.concat ";" (List.map string_of_int actual))
    | Shl.Interp.Stuck _, _ -> Q.Test.fail_report "safe program got stuck"
    | Shl.Interp.Out_of_fuel _, _ ->
      Q.Test.fail_report "safe program ran out of machine fuel")
  | B.Unsafe -> (
    match Shl.Interp.exec ~budget:(Budget.of_steps 1_000_000) e with
    | Shl.Interp.Stuck _, _ -> true
    | Shl.Interp.Value _, _ ->
      Q.Test.fail_report "unsafe program reached a value"
    | Shl.Interp.Out_of_fuel _, _ ->
      Q.Test.fail_report "unsafe program ran out of machine fuel")

let differential_wild =
  prop ~count:300 "analyzer verdicts vs machine (wild programs)"
    Gen.shl_expr Gen.print_shl differential

let differential_typed =
  prop ~count:250 "analyzer verdicts vs machine (well-typed programs)"
    Gen.typed_shl_int Gen.print_shl differential

(* ---------- the summary fixpoint vs plain Jacobi iteration ---------- *)

(* The oracle for [B.summaries]: every round re-analyzes every
   discovered function against the previous round's summaries, until a
   round changes nothing or [B.fix_rounds] rounds have run.  Returns the
   summaries and the number of rounds run. *)
let jacobi prog =
  let fns = Array.of_list (B.discover prog) in
  let n = Array.length fns in
  let ctx = B.context fns in
  let exact = Array.make n true and stable = Array.make n false in
  let rec go round =
    let next =
      Array.init n (fun fid ->
          let ds = B.analyze_fn ctx ~budget:B.fn_budget fid in
          exact.(fid) <- not ctx.B.approx;
          stable.(fid) <- ds = ctx.B.cand.(fid);
          ds)
    in
    Array.blit next 0 ctx.B.cand 0 n;
    if Array.for_all Fun.id stable || round = B.fix_rounds then round
    else go (round + 1)
  in
  let rounds = if n = 0 then 0 else go 1 in
  ( Array.to_list
      (Array.mapi
         (fun fid (f : B.fn) ->
           {
             B.s_name = f.B.f_name;
             s_path = f.B.f_path;
             s_params = f.B.f_params;
             s_exact = exact.(fid) && stable.(fid);
             s_disjuncts = ctx.B.cand.(fid);
           })
         fns),
    rounds )

(* [B.summaries prog], with the counters of that one run *)
let summaries_with_work prog =
  let module Metrics = Tfiris.Obs.Metrics in
  Metrics.reset ();
  Metrics.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Metrics.set_enabled false;
      Metrics.reset ())
    (fun () ->
      let sums = B.summaries prog in
      let s = Metrics.snapshot () in
      let get name = Option.value ~default:0 (Metrics.counter_value s name) in
      (sums, (get "analysis.symheap.fn_analyses", get "analysis.symheap.fn_reused")))

(* Same summaries as the plain loop, and analyses plus reuses add up to
   what the plain loop analyzes. *)
let same_summaries prog =
  let expected, rounds = jacobi prog in
  let got, (analyses, reused) = summaries_with_work prog in
  let render l = String.concat "\n" (List.map B.summary_to_string l) in
  if got <> expected then
    Q.Test.fail_reportf "summaries differ:\njacobi:\n%s\nsummaries:\n%s"
      (render expected) (render got)
  else if analyses + reused <> rounds * List.length expected then
    Q.Test.fail_reportf "%d analyses + %d reused, but %d rounds of %d functions"
      analyses reused rounds (List.length expected)
  else true

(* per shipped example: function analyses run and reused *)
let example_work =
  [
    ("ackermann.shl", 4, 0); ("conc_locked.shl", 7, 8);
    ("event_loop.shl", 7, 9); ("fib.shl", 3, 0); ("memo_fib.shl", 11, 13);
    ("slen.shl", 3, 0); ("sort.shl", 8, 0);
  ]

(* The plain loop's summaries and rendering on every shipped example,
   and the work the dependency tracking saves there, pinned. *)
let test_fixpoint_examples () =
  List.iter
    (fun (file, analyses, reused) ->
      let prog = parse_example file in
      let expected, _ = jacobi prog in
      let got, work = summaries_with_work prog in
      Alcotest.(check (list string))
        (file ^ ": rendered summaries")
        (List.map B.summary_to_string expected)
        (List.map B.summary_to_string got);
      Alcotest.(check bool) (file ^ ": summaries equal") true
        (same_summaries prog);
      Alcotest.(check (pair int int))
        (file ^ ": analyses, reused") (analyses, reused) work)
    example_work

let fixpoint_chains =
  prop ~count:300 "summaries vs plain Jacobi (let-chains of functions)"
    Gen.shl_fn_chain Gen.print_shl same_summaries

let suite =
  [
    Alcotest.test_case "unification" `Quick test_unify;
    Alcotest.test_case "disequalities" `Quick test_neq;
    incremental_sat_prop;
    Alcotest.test_case "subtraction: frame and anti-frame" `Quick
      test_subtract;
    Alcotest.test_case "chain entails segment" `Quick test_entails_lseg;
    Alcotest.test_case "abstraction collapses chains" `Quick test_abstract;
    Alcotest.test_case "memory-error verdicts" `Quick test_check_errors;
    Alcotest.test_case "leak detection" `Quick test_check_leaks;
    Alcotest.test_case "slen golden (tfiris-symheap/1)" `Quick
      test_slen_golden;
    Alcotest.test_case "example summaries golden" `Quick
      test_example_summaries;
    Alcotest.test_case "fixpoint vs plain Jacobi (examples)" `Quick
      test_fixpoint_examples;
    fixpoint_chains;
    differential_wild;
    differential_typed;
  ]
