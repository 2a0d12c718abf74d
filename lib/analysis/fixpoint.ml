(** The function table and the round loop of the analyzer's three
    fixpoints: {!Dataflow.Engine}, {!Races} and {!Biabd}.

    A function is the path of its [rec] node.  A table gives each path
    it registers a dense int id in first-registration order ([0], [1],
    …); lookup by path or by id is O(1). *)

open Tfiris_shl

type 'a t = {
  mutable buckets : (Path.t * int) list array;  (** paths by {!slot} *)
  mutable entries : 'a array;  (** [entries.(id)] for [id < length] *)
  mutable length : int;
}

let create () = { buckets = [| [] |]; entries = [||]; length = 0 }
let length t = t.length

let get t id =
  if id < 0 || id >= t.length then invalid_arg "Fixpoint.get";
  t.entries.(id)

(* [Hashtbl.hash] reads a path's first ten steps only, and the
   functions of a let-chain share a prefix of [Let_body] steps. *)
let slot t p = Hashtbl.hash_param 256 256 p land (Array.length t.buckets - 1)

let rec id_in p = function
  | [] -> -1
  | (q, id) :: rest -> if Path.equal p q then id else id_in p rest

let add_path t p id =
  let b = slot t p in
  t.buckets.(b) <- (p, id) :: t.buckets.(b)

let find t p =
  let id = id_in p t.buckets.(slot t p) in
  if id < 0 then None else Some t.entries.(id)

(** [register t p v]: the entry of [p].  If [p] is new, that is [v],
    under the next id. *)
let register t p v =
  let id = id_in p t.buckets.(slot t p) in
  if id >= 0 then t.entries.(id)
  else begin
    let id = t.length in
    if id = Array.length t.entries then begin
      (* grow, and rehash to two buckets per entry *)
      t.entries <- Array.append t.entries (Array.make (max 8 id) v);
      let old = t.buckets in
      t.buckets <- Array.make (2 * Array.length t.entries) [];
      Array.iter (List.iter (fun (q, i) -> add_path t q i)) old
    end;
    t.entries.(id) <- v;
    add_path t p id;
    t.length <- id + 1;
    v
  end

(** [iter f t] applies [f] to the entries in id order, including those
    registered while it runs. *)
let iter f t =
  let id = ref 0 in
  while !id < t.length do
    f t.entries.(!id);
    incr id
  done

(** [loop ~cap round] runs [round ()], which says whether it dirtied
    anything, until a round is clean or [cap] rounds have run.  Returns
    the rounds run and whether the last one was clean. *)
let loop ~cap round =
  let rec go n =
    if n >= cap then (n, false)
    else if round () then go (n + 1)
    else (n + 1, true)
  in
  go 0
