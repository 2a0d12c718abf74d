(** A minimal JSON representation with a printer and a parser.

    The observability sinks must emit machine-readable output (JSONL,
    Chrome [trace_event]) and the test suite must be able to read it
    back, but the toolchain deliberately carries no JSON dependency —
    this module is the small, total subset the sinks need: objects,
    arrays, strings, numbers (emitted as ints or floats), booleans and
    null.  Strings are escaped per RFC 8259; the parser accepts exactly
    what the printer produces (plus whitespace), which is all the
    round-trip tests require. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

(* ---------- printing ---------- *)

let escape_string b s =
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

let rec to_buffer b (j : t) =
  match j with
  | Null -> Buffer.add_string b "null"
  | Bool true -> Buffer.add_string b "true"
  | Bool false -> Buffer.add_string b "false"
  | Int n -> Buffer.add_string b (string_of_int n)
  | Float f ->
    (* RFC 8259 has no non-finite numbers; [%.17g] would print "nan" /
       "inf", which the parser (rightly) rejects.  Emit null instead so
       every printed document stays parseable. *)
    if Float.is_nan f || f = Float.infinity || f = Float.neg_infinity then
      Buffer.add_string b "null"
    else if Float.is_integer f && Float.abs f < 1e15 then
      Buffer.add_string b (Printf.sprintf "%.1f" f)
    else Buffer.add_string b (Printf.sprintf "%.17g" f)
  | Str s -> escape_string b s
  | List js ->
    Buffer.add_char b '[';
    List.iteri
      (fun i j ->
        if i > 0 then Buffer.add_char b ',';
        to_buffer b j)
      js;
    Buffer.add_char b ']'
  | Obj kvs ->
    Buffer.add_char b '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char b ',';
        escape_string b k;
        Buffer.add_char b ':';
        to_buffer b v)
      kvs;
    Buffer.add_char b '}'

let to_string (j : t) =
  let b = Buffer.create 256 in
  to_buffer b j;
  Buffer.contents b

(* [to_string j ^ "\n"] as bytes, built in one buffer and copied out
   once: the form in which the ledger and the certificate cache write a
   record. *)
let to_line (j : t) =
  let b = Buffer.create 256 in
  to_buffer b j;
  Buffer.add_char b '\n';
  Buffer.to_bytes b

(* ---------- parsing ---------- *)

exception Parse_error of string

(* The reader works on indices: it allocates nothing per byte, and a
   string body without escapes is one [String.sub].  It accepts the
   same language, with the same error messages and offsets, as the
   reference reader under [test/]. *)
type cursor = {
  src : string;
  mutable pos : int;
}

let at_end c = c.pos >= String.length c.src

(* the current byte; only called when [not (at_end c)] *)
let cur c = String.unsafe_get c.src c.pos

let at c ch = c.pos < String.length c.src && String.unsafe_get c.src c.pos = ch

let advance c = c.pos <- c.pos + 1

let fail c msg = raise (Parse_error (Printf.sprintf "at %d: %s" c.pos msg))

(* The first index at or after [i] that is not JSON whitespace. *)
let rec ws_end s i =
  if i < String.length s then
    match String.unsafe_get s i with
    | ' ' | '\t' | '\n' | '\r' -> ws_end s (i + 1)
    | _ -> i
  else i

let skip_ws c = c.pos <- ws_end c.src c.pos

let expect c ch = if at c ch then advance c else fail c (Printf.sprintf "expected %C" ch)

let literal c word (v : t) =
  for k = 0 to String.length word - 1 do
    expect c word.[k]
  done;
  v

(* The end of the run of plain bytes at [i]: the first quote or
   backslash, or the end of the input. *)
let rec plain_run s i =
  if i < String.length s then
    match String.unsafe_get s i with '"' | '\\' -> i | _ -> plain_run s (i + 1)
  else i

(* One escape: [c.pos] is just past the backslash. *)
let parse_escape c b =
  if at_end c then fail c "bad escape";
  match cur c with
  | 'n' -> advance c; Buffer.add_char b '\n'
  | 't' -> advance c; Buffer.add_char b '\t'
  | 'r' -> advance c; Buffer.add_char b '\r'
  | ('"' | '\\' | '/') as ch ->
    advance c;
    Buffer.add_char b ch
  | 'u' ->
    advance c;
    if c.pos + 4 > String.length c.src then begin
      c.pos <- String.length c.src;
      fail c "truncated \\u escape"
    end;
    let hex = String.sub c.src c.pos 4 in
    c.pos <- c.pos + 4;
    let code =
      match int_of_string_opt ("0x" ^ hex) with
      | Some code -> code
      | None -> fail c (Printf.sprintf "bad \\u escape %S" hex)
    in
    (* only BMP codepoints ≤ 0x7f are emitted unescaped by us; decode
       the rest as UTF-8 for completeness *)
    if code < 0x80 then Buffer.add_char b (Char.chr code)
    else if code < 0x800 then begin
      Buffer.add_char b (Char.chr (0xc0 lor (code lsr 6)));
      Buffer.add_char b (Char.chr (0x80 lor (code land 0x3f)))
    end
    else begin
      Buffer.add_char b (Char.chr (0xe0 lor (code lsr 12)));
      Buffer.add_char b (Char.chr (0x80 lor ((code lsr 6) land 0x3f)));
      Buffer.add_char b (Char.chr (0x80 lor (code land 0x3f)))
    end
  | _ -> fail c "bad escape"

(* A string body; [c.pos] is just past the opening quote. *)
let parse_string_body c =
  let s = c.src in
  let start = c.pos in
  let j = plain_run s start in
  c.pos <- j;
  if at_end c then fail c "unterminated string"
  else if cur c = '"' then begin
    advance c;
    String.sub s start (j - start)
  end
  else begin
    (* copy the runs between escapes *)
    let b = Buffer.create (j - start + 16) in
    Buffer.add_substring b s start (j - start);
    let rec escaped () =
      advance c;
      parse_escape c b;
      let start = c.pos in
      let j = plain_run s start in
      Buffer.add_substring b s start (j - start);
      c.pos <- j;
      if at_end c then fail c "unterminated string"
      else if cur c = '"' then advance c
      else escaped ()
    in
    escaped ();
    Buffer.contents b
  end

let rec number_end s i =
  if i < String.length s then
    match String.unsafe_get s i with
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> number_end s (i + 1)
    | _ -> i
  else i

let parse_number c =
  let s = c.src in
  let start = c.pos in
  c.pos <- number_end s start;
  let s = String.sub s start (c.pos - start) in
  match int_of_string_opt s with
  | Some n -> Int n
  | None -> (
    match float_of_string_opt s with
    | Some f -> Float f
    | None -> fail c (Printf.sprintf "bad number %S" s))

let rec parse_value c : t =
  skip_ws c;
  if at_end c then fail c "unexpected end of input";
  match cur c with
  | 'n' -> literal c "null" Null
  | 't' -> literal c "true" (Bool true)
  | 'f' -> literal c "false" (Bool false)
  | '"' ->
    advance c;
    Str (parse_string_body c)
  | '[' ->
    advance c;
    skip_ws c;
    if at c ']' then begin
      advance c;
      List []
    end
    else
      let rec items acc =
        let v = parse_value c in
        skip_ws c;
        if at c ',' then begin
          advance c;
          items (v :: acc)
        end
        else if at c ']' then begin
          advance c;
          List (List.rev (v :: acc))
        end
        else fail c "expected ',' or ']'"
      in
      items []
  | '{' ->
    advance c;
    skip_ws c;
    if at c '}' then begin
      advance c;
      Obj []
    end
    else
      let rec fields acc =
        skip_ws c;
        expect c '"';
        let k = parse_string_body c in
        skip_ws c;
        expect c ':';
        let v = parse_value c in
        skip_ws c;
        if at c ',' then begin
          advance c;
          fields ((k, v) :: acc)
        end
        else if at c '}' then begin
          advance c;
          Obj (List.rev ((k, v) :: acc))
        end
        else fail c "expected ',' or '}'"
      in
      fields []
  | '0' .. '9' | '-' -> parse_number c
  | ch -> fail c (Printf.sprintf "unexpected %C" ch)

let of_string (s : string) : (t, string) result =
  let c = { src = s; pos = 0 } in
  match parse_value c with
  | v ->
    skip_ws c;
    if at_end c then Ok v
    else Error (Printf.sprintf "trailing input at %d" c.pos)
  | exception Parse_error m -> Error m

(* ---------- accessors (for tests and consumers) ---------- *)

let member key = function Obj kvs -> List.assoc_opt key kvs | _ -> None

let to_list = function List js -> Some js | _ -> None

let to_int = function Int n -> Some n | _ -> None

let to_float = function
  | Int n -> Some (float_of_int n)
  | Float f -> Some f
  | _ -> None

let to_str = function Str s -> Some s | _ -> None

let to_bool = function Bool b -> Some b | _ -> None
