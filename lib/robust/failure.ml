module Metrics = Tfiris_obs.Metrics
module Json = Tfiris_obs.Json

type t =
  | Exhausted of Budget.resource
  | Ill_formed of { pos : int option; msg : string }
  | Engine_disagreement of { step : int; msg : string }
  | Fault_injected of string
  | Io_error of string
  | Internal of string

exception Error of t

let classifiers : (exn -> t option) list ref = ref []
let register f = classifiers := f :: !classifiers

(* The [Obs.Json] parser is below this library in the dependency order,
   so its exception is classified here rather than via {!register}. *)
let builtin : exn -> t option = function
  | Error t -> Some t
  | Tfiris_obs.Json.Parse_error m -> Some (Ill_formed { pos = None; msg = m })
  | Sys_error m -> Some (Io_error m)
  (* Raw [Unix] errors escape the ledger and certificate cache (both
     below this library, both writing through [Unix.write]); a failed
     append or cert store is an I/O error, not an internal crash. *)
  | Unix.Unix_error (e, fn, arg) ->
    Some
      (Io_error
         (Printf.sprintf "%s%s: %s" fn
            (if arg = "" then "" else " " ^ arg)
            (Unix.error_message e)))
  | Stack_overflow -> Some (Internal "stack overflow")
  | Out_of_memory -> Some (Internal "out of memory")
  | Stdlib.Failure m -> Some (Internal m)
  | Invalid_argument m -> Some (Internal ("invalid argument: " ^ m))
  | Assert_failure (file, line, _) ->
    Some (Internal (Printf.sprintf "assertion failed at %s:%d" file line))
  | Not_found -> Some (Internal "not found")
  | _ -> None

let of_exn (e : exn) : t =
  let rec first = function
    | [] -> (
      match builtin e with
      | Some t -> t
      | None -> Internal (Printexc.to_string e))
    | f :: fs -> ( match f e with Some t -> t | None -> first fs)
  in
  first !classifiers

let is_internal = function Internal _ -> true | _ -> false

let kind = function
  | Exhausted _ -> "exhausted"
  | Ill_formed _ -> "ill_formed"
  | Engine_disagreement _ -> "engine_disagreement"
  | Fault_injected _ -> "fault_injected"
  | Io_error _ -> "io_error"
  | Internal _ -> "internal"

let to_string = function
  | Exhausted r ->
    Printf.sprintf "budget exhausted (%s)" (Budget.resource_name r)
  | Ill_formed { pos = Some p; msg } ->
    Printf.sprintf "ill-formed input at offset %d: %s" p msg
  | Ill_formed { pos = None; msg } -> "ill-formed input: " ^ msg
  | Engine_disagreement { step; msg } ->
    Printf.sprintf "engine disagreement at step %d: %s" step msg
  | Fault_injected m -> "injected fault: " ^ m
  | Io_error m -> "i/o error: " ^ m
  | Internal m -> "internal error: " ^ m

let pp ppf t = Format.pp_print_string ppf (to_string t)

let to_json (t : t) : Json.t =
  let base = [ ("kind", Json.Str (kind t)); ("msg", Json.Str (to_string t)) ] in
  let extra =
    match t with
    | Exhausted r -> [ ("resource", Json.Str (Budget.resource_name r)) ]
    | Ill_formed { pos = Some p; _ } -> [ ("pos", Json.Int p) ]
    | Engine_disagreement { step; _ } -> [ ("step", Json.Int step) ]
    | Ill_formed { pos = None; _ } | Fault_injected _ | Io_error _ | Internal _
      -> []
  in
  Json.Obj (base @ extra)

let c_failures = Metrics.counter "robust.failures"
let c_internal = Metrics.counter "robust.failures.internal"

let guard (f : unit -> 'a) : ('a, t) result =
  match f () with
  | v -> Ok v
  | exception e ->
    let t = of_exn e in
    if Metrics.on () then begin
      Metrics.incr c_failures;
      if is_internal t then Metrics.incr c_internal
    end;
    Result.error t
