(** The content-addressed certificate cache ([tfiris-cert/1]).

    Verdicts are deterministic proof objects: the same (program, spec,
    engine, tool version) always yields the same answer.  The
    {!Ledger.content_key} hashes exactly that tuple — and deliberately
    excludes budgets, seeds and observability settings — so it doubles
    as a cache key: a stored certificate can stand in for re-running
    the driver, making corpus re-verification O(changes) (ROADMAP
    item 3).

    On-disk layout is two-level content addressing, git-style: a key
    [abcdef…] lives at [<dir>/ab/cdef….json], one JSON object per file.
    Writes are atomic (a staging file opened once with [O_EXCL] in the
    same directory, then [rename(2)]), so a reader never observes a
    half-written certificate and two processes racing to store the same
    key both leave a complete entry behind.

    Reads are corruption-tolerant by contract: a missing file is a
    miss, and an unreadable, truncated, ill-formed or mis-keyed entry
    is a miss {e plus} a counted [cache.corrupt] — never a crash and
    never a wrong verdict (the chaos battery drives a corrupting read
    fault through {!set_read_fault} to hold this).  The worst a broken
    cache can do is cost a re-verification.

    Only {e budget-independent} outcomes may be cached: a definitive
    verdict (value, stuck, terminated, accepted, rejected-by-rule)
    holds at every budget, while an exhaustion verdict merely reports
    that {e this} budget ran out — and budgets are exactly what the
    content key excludes.  {!cacheable_verdict} encodes the split. *)

let schema = "tfiris-cert/1"

type cert = {
  key : string;  (** the {!Ledger.content_key} this cert is stored under *)
  cmd : string;  (** producing subcommand: run, check-term, refine, analyze *)
  label : string;  (** human handle from the producing run *)
  engine : string;
  version : string;  (** tool version the verdict was produced by *)
  verdict : string;
  ok : bool;
  detail : string option;  (** e.g. the final value *)
  consumed : (string * int) list;
      (** budget consumption of the producing run — informational
          (replays the cost of the original verification) *)
  replay : Json.t option;
      (** rejections carry a replay pointer (the forensics component /
          rule / step of the producing run) so a cached rejection can
          still be explained *)
}

(* ---------- cacheability ---------- *)

let has_prefix p s =
  String.length s >= String.length p && String.sub s 0 (String.length p) = p

(** Budget-dependent (exhaustion) verdicts and engine disagreements are
    never cached: the former depend on a budget the key excludes, the
    latter are tool defects that must be re-witnessed, not replayed. *)
let cacheable_verdict (v : string) : bool =
  not
    (has_prefix "out_of_fuel" v
    || has_prefix "fuel_exhausted" v
    || v = "rejected:out_of_budget"
    || has_prefix "disagree" v)

(* ---------- session counters and metrics ---------- *)

let m_hit = Metrics.counter "cache.hit"
let m_miss = Metrics.counter "cache.miss"
let m_corrupt = Metrics.counter "cache.corrupt"
let m_store = Metrics.counter "cache.store"

type session = {
  mutable hits : int;
  mutable misses : int;
  mutable corrupt : int;  (** entries that parsed as garbage (⊆ misses) *)
  mutable stores : int;
}

let s = { hits = 0; misses = 0; corrupt = 0; stores = 0 }

let session () = (s.hits, s.misses, s.corrupt, s.stores)

let reset_session () =
  s.hits <- 0;
  s.misses <- 0;
  s.corrupt <- 0;
  s.stores <- 0

let count_hit () =
  s.hits <- s.hits + 1;
  if Metrics.on () then Metrics.incr m_hit

let count_miss () =
  s.misses <- s.misses + 1;
  if Metrics.on () then Metrics.incr m_miss

let count_corrupt () =
  s.corrupt <- s.corrupt + 1;
  if Metrics.on () then Metrics.incr m_corrupt

let count_store () =
  s.stores <- s.stores + 1;
  if Metrics.on () then Metrics.incr m_store

(* ---------- JSON (fixed field order, golden-tested) ---------- *)

let to_json (c : cert) : Json.t =
  let opt name f = function None -> [] | Some v -> [ (name, f v) ] in
  Json.Obj
    ([
       ("schema", Json.Str schema);
       ("key", Json.Str c.key);
       ("cmd", Json.Str c.cmd);
       ("label", Json.Str c.label);
       ("engine", Json.Str c.engine);
       ("version", Json.Str c.version);
       ("verdict", Json.Str c.verdict);
       ("ok", Json.Bool c.ok);
       ("consumed", Json.Obj (List.map (fun (k, n) -> (k, Json.Int n)) c.consumed));
     ]
    @ opt "detail" (fun d -> Json.Str d) c.detail
    @ opt "replay" Fun.id c.replay)

let of_json (j : Json.t) : (cert, string) result =
  let ( let* ) = Result.bind in
  let req name conv =
    match Option.bind (Json.member name j) conv with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "missing or ill-typed field %S" name)
  in
  let* sch = req "schema" Json.to_str in
  if sch <> schema then Error (Printf.sprintf "unknown cert schema %S" sch)
  else
    let* key = req "key" Json.to_str in
    let* cmd = req "cmd" Json.to_str in
    let* label = req "label" Json.to_str in
    let* engine = req "engine" Json.to_str in
    let* version = req "version" Json.to_str in
    let* verdict = req "verdict" Json.to_str in
    let* ok = req "ok" Json.to_bool in
    let* consumed =
      match Json.member "consumed" j with
      | Some (Json.Obj kvs) ->
        List.fold_left
          (fun acc (k, v) ->
            let* acc = acc in
            match Json.to_int v with
            | Some n -> Ok ((k, n) :: acc)
            | None -> Error (Printf.sprintf "ill-typed consumed entry %S" k))
          (Ok []) kvs
        |> Result.map List.rev
      | Some _ -> Error "ill-typed field \"consumed\""
      | None -> Ok []
    in
    let* detail =
      match Json.member "detail" j with
      | None -> Ok None
      | Some (Json.Str d) -> Ok (Some d)
      | Some _ -> Error "ill-typed field \"detail\""
    in
    Ok
      {
        key;
        cmd;
        label;
        engine;
        version;
        verdict;
        ok;
        detail;
        consumed;
        replay = Json.member "replay" j;
      }

(* ---------- the on-disk store ---------- *)

type t = { dir : string }

let dir t = t.dir

(* EINTR-safe mkdir -p; an existing directory is success (two processes
   racing to create the cache both win). *)
let rec mkdir_p path =
  if path = "" || path = "." || path = "/" || Sys.file_exists path then ()
  else begin
    mkdir_p (Filename.dirname path);
    match Unix.mkdir path 0o755 with
    | () -> ()
    | exception Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> mkdir_p path
  end

let open_ ~dir : t =
  mkdir_p dir;
  { dir }

(* Keys are 32-char MD5 hex; anything that could escape the cache
   directory (separators, dots) is refused outright. *)
let valid_key key =
  String.length key >= 8
  && String.for_all
       (function 'a' .. 'f' | '0' .. '9' -> true | _ -> false)
       key

let entry_path (t : t) ~key =
  Filename.concat
    (Filename.concat t.dir (String.sub key 0 2))
    (String.sub key 2 (String.length key - 2) ^ ".json")

(* ---------- reading ---------- *)

(* The chaos harness mangles raw bytes between read and parse to prove
   that a corrupt or truncated entry degrades to a miss (a
   re-verification), never a wrong verdict or a crash. *)
let read_fault : (string -> string) option ref = ref None
let set_read_fault f = read_fault := f

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(** Look up [key].  A missing entry is a miss; an entry that cannot be
    read, parsed, whose stored key disagrees with its address, or that
    [validate] rejects (the caller's cmd/shape check — bytes that are
    not a certificate this invocation can replay) is a miss plus a
    counted [cache.corrupt].  Never raises. *)
let find ?(validate = fun (_ : cert) -> true) (t : t) ~key : cert option =
  if not (valid_key key) then begin
    count_miss ();
    None
  end
  else
    let path = entry_path t ~key in
    if not (Sys.file_exists path) then begin
      count_miss ();
      None
    end
    else
      let parsed =
        match read_file path with
        | exception _ -> Error "unreadable"
        | raw ->
          let raw = match !read_fault with None -> raw | Some f -> f raw in
          Result.bind (Json.of_string raw) of_json
      in
      match parsed with
      | Ok cert when cert.key = key && validate cert ->
        count_hit ();
        Some cert
      | Ok _ | Error _ ->
        (* mis-keyed and validate-rejected entries are corruption too:
           the address is the content hash, so a disagreeing key (or a
           certificate shape the caller cannot replay) means the bytes
           are not the certificate for this tuple *)
        count_corrupt ();
        count_miss ();
        None

(* ---------- writing ---------- *)

let rec write_all fd bytes pos len =
  if len > 0 then begin
    let n =
      try Unix.write fd bytes pos len
      with Unix.Unix_error (Unix.EINTR, _, _) -> 0
    in
    write_all fd bytes (pos + n) (len - n)
  end

(* Staging names are [cert-<pid>-<seq>.tmp]: unique within a process by
   the sequence number, across processes by the pid.  A name left over
   by a crashed process that had this pid is skipped ([EEXIST]). *)
let tmp_seq = Atomic.make 0

(* Create a fresh staging file in [subdir] with [O_EXCL], creating the
   subdirectory (once) only when the open says it is missing. *)
let rec open_tmp ?(mkdir = true) subdir =
  let tmp =
    Filename.concat subdir
      (Printf.sprintf "cert-%d-%d.tmp" (Unix.getpid ())
         (Atomic.fetch_and_add tmp_seq 1))
  in
  match
    Unix.openfile tmp
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_EXCL; Unix.O_CLOEXEC ]
      0o644
  with
  | fd -> (tmp, fd)
  | exception Unix.Unix_error (Unix.ENOENT, _, _) when mkdir ->
    mkdir_p subdir;
    open_tmp ~mkdir:false subdir
  | exception Unix.Unix_error ((Unix.EEXIST | Unix.EINTR), _, _) ->
    open_tmp ~mkdir subdir

(** Store a certificate under its key, atomically: the bytes go to a
    staging file in the entry's own subdirectory, then [rename(2)] onto
    the final name.  Uncacheable verdicts (see {!cacheable_verdict})
    are refused with [false]; genuine I/O failures escape as
    [Unix.Unix_error]/[Sys_error], which the {!Tfiris_robust.Failure}
    taxonomy classifies as structured [Io_error]s at the CLI
    boundary. *)
let store (t : t) (c : cert) : bool =
  if not (cacheable_verdict c.verdict && valid_key c.key) then false
  else begin
    let path = entry_path t ~key:c.key in
    let line = Json.to_line (to_json c) in
    let tmp, fd = open_tmp (Filename.dirname path) in
    (try
       Fun.protect
         ~finally:(fun () -> Unix.close fd)
         (fun () ->
           (* the umask may have narrowed the create mode; committed
              entries must be world-readable like any content-addressed
              store (the cache dir is shared between users and uploaded
              from CI) *)
           Unix.fchmod fd 0o644;
           write_all fd line 0 (Bytes.length line));
       Sys.rename tmp path
     with e ->
       (try Sys.remove tmp with Sys_error _ -> ());
       raise e);
    count_store ();
    true
  end

(* ---------- walking, stats and eviction ---------- *)

(* Every committed entry under the two-level layout, with its mtime and
   size.  Leftover temp files (a crashed writer) are reported
   separately so [gc] can sweep them. *)
let entries (t : t) : (string * float * int) list * string list =
  let certs = ref [] and tmps = ref [] in
  let subdirs =
    match Sys.readdir t.dir with
    | exception Sys_error _ -> [||]
    | names -> names
  in
  Array.iter
    (fun sub ->
      let subpath = Filename.concat t.dir sub in
      if String.length sub = 2 && Sys.is_directory subpath then
        Array.iter
          (fun f ->
            let path = Filename.concat subpath f in
            if Filename.check_suffix f ".json" then begin
              match Unix.stat path with
              | st -> certs := (path, st.Unix.st_mtime, st.Unix.st_size) :: !certs
              | exception Unix.Unix_error _ -> ()
            end
            else if Filename.check_suffix f ".tmp" then tmps := path :: !tmps)
          (match Sys.readdir subpath with
          | exception Sys_error _ -> [||]
          | fs -> fs))
    subdirs;
  (!certs, !tmps)

type stats = {
  st_entries : int;
  st_bytes : int;
  st_corrupt : int;  (** entries that fail to parse back *)
  st_tmp : int;  (** leftover temp files from interrupted writers *)
}

let stats (t : t) : stats =
  let certs, tmps = entries t in
  let corrupt =
    List.length
      (List.filter
         (fun (path, _, _) ->
           match read_file path with
           | exception _ -> true
           | raw -> Result.is_error (Result.bind (Json.of_string raw) of_json))
         certs)
  in
  {
    st_entries = List.length certs;
    st_bytes = List.fold_left (fun acc (_, _, sz) -> acc + sz) 0 certs;
    st_corrupt = corrupt;
    st_tmp = List.length tmps;
  }

type gc_result = {
  gc_scanned : int;
  gc_deleted : int;
  gc_kept : int;
  gc_freed_bytes : int;
  gc_tmp_swept : int;
}

(** Evict entries, oldest first: everything older than [max_age_s]
    (by mtime, against [now]) goes, then the oldest survivors beyond
    [max_entries].  Leftover temp files are always swept.  Deletion
    failures are ignored — a file someone else already removed is a
    success. *)
let gc ?max_entries ?max_age_s ~(now : float) (t : t) : gc_result =
  let certs, tmps = entries t in
  List.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) tmps;
  let by_age =
    List.sort (fun (_, a, _) (_, b, _) -> compare a b) certs
  in
  let expired, fresh =
    match max_age_s with
    | None -> ([], by_age)
    | Some age ->
      List.partition (fun (_, mtime, _) -> now -. mtime > age) by_age
  in
  let overflow, kept =
    match max_entries with
    | None -> ([], fresh)
    | Some cap ->
      let n = List.length fresh in
      if n <= cap then ([], fresh)
      else
        (* oldest first in [fresh]: the head overflows, the tail stays *)
        let rec split i = function
          | e :: rest when i < n - cap ->
            let o, k = split (i + 1) rest in
            (e :: o, k)
          | rest -> ([], rest)
        in
        split 0 fresh
  in
  let victims = expired @ overflow in
  let freed =
    List.fold_left
      (fun acc (path, _, sz) ->
        match Sys.remove path with
        | () -> acc + sz
        | exception Sys_error _ -> acc)
      0 victims
  in
  {
    gc_scanned = List.length certs;
    gc_deleted = List.length victims;
    gc_kept = List.length kept;
    gc_freed_bytes = freed;
    gc_tmp_swept = List.length tmps;
  }
