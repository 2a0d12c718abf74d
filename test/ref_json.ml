(* The option-per-byte JSON reader that [Obs.Json.of_string] replaced,
   kept only as the oracle of the equivalence property in [Test_obs]:
   the indexed reader must return the same value, or the same error
   message, on every input.  Not used anywhere else. *)

open Tfiris.Obs.Json

type cursor = {
  src : string;
  mutable pos : int;
}

let peek c = if c.pos < String.length c.src then Some c.src.[c.pos] else None

let advance c = c.pos <- c.pos + 1

let fail c msg = raise (Parse_error (Printf.sprintf "at %d: %s" c.pos msg))

let rec skip_ws c =
  match peek c with
  | Some (' ' | '\t' | '\n' | '\r') ->
    advance c;
    skip_ws c
  | Some _ | None -> ()

let expect c ch =
  match peek c with
  | Some x when x = ch -> advance c
  | _ -> fail c (Printf.sprintf "expected %C" ch)

let literal c word (v : t) =
  String.iter (fun ch -> expect c ch) word;
  v

let parse_string_body c =
  let b = Buffer.create 16 in
  let rec go () =
    match peek c with
    | None -> fail c "unterminated string"
    | Some '"' -> advance c
    | Some '\\' -> (
      advance c;
      match peek c with
      | Some 'n' -> advance c; Buffer.add_char b '\n'; go ()
      | Some 't' -> advance c; Buffer.add_char b '\t'; go ()
      | Some 'r' -> advance c; Buffer.add_char b '\r'; go ()
      | Some ('"' | '\\' | '/') ->
        Buffer.add_char b (Option.get (peek c));
        advance c;
        go ()
      | Some 'u' ->
        advance c;
        let hex = String.init 4 (fun _ ->
            match peek c with
            | Some ch -> advance c; ch
            | None -> fail c "truncated \\u escape")
        in
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
        end;
        go ()
      | _ -> fail c "bad escape")
    | Some ch ->
      advance c;
      Buffer.add_char b ch;
      go ()
  in
  go ();
  Buffer.contents b

let parse_number c =
  let start = c.pos in
  let is_num_char = function
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  let rec go () =
    match peek c with
    | Some ch when is_num_char ch ->
      advance c;
      go ()
    | Some _ | None -> ()
  in
  go ();
  let s = String.sub c.src start (c.pos - start) in
  match int_of_string_opt s with
  | Some n -> Int n
  | None -> (
    match float_of_string_opt s with
    | Some f -> Float f
    | None -> fail c (Printf.sprintf "bad number %S" s))

let rec parse_value c : t =
  skip_ws c;
  match peek c with
  | None -> fail c "unexpected end of input"
  | Some 'n' -> literal c "null" Null
  | Some 't' -> literal c "true" (Bool true)
  | Some 'f' -> literal c "false" (Bool false)
  | Some '"' ->
    advance c;
    Str (parse_string_body c)
  | Some '[' ->
    advance c;
    skip_ws c;
    if peek c = Some ']' then begin
      advance c;
      List []
    end
    else
      let rec items acc =
        let v = parse_value c in
        skip_ws c;
        match peek c with
        | Some ',' ->
          advance c;
          items (v :: acc)
        | Some ']' ->
          advance c;
          List (List.rev (v :: acc))
        | _ -> fail c "expected ',' or ']'"
      in
      items []
  | Some '{' ->
    advance c;
    skip_ws c;
    if peek c = Some '}' then begin
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
        match peek c with
        | Some ',' ->
          advance c;
          fields ((k, v) :: acc)
        | Some '}' ->
          advance c;
          Obj (List.rev ((k, v) :: acc))
        | _ -> fail c "expected ',' or '}'"
      in
      fields []
  | Some ch -> (
    match ch with
    | '0' .. '9' | '-' -> parse_number c
    | _ -> fail c (Printf.sprintf "unexpected %C" ch))

let of_string (s : string) : (t, string) result =
  let c = { src = s; pos = 0 } in
  match parse_value c with
  | v ->
    skip_ws c;
    if c.pos = String.length s then Ok v
    else Error (Printf.sprintf "trailing input at %d" c.pos)
  | exception Parse_error m -> Error m
