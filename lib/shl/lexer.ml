(** Lexer for the SHL concrete syntax.

    Tokens carry their source offset for error reporting.  Comments are
    OCaml-style [(* ... *)] and nest. *)

type token =
  | Int of int
  | Ident of string
  | Kw of string  (** keywords: let in rec fun if then else match with end … *)
  | Lparen
  | Rparen
  | Comma
  | Semi
  | Bang
  | Hash
  | Assign  (** [:=] *)
  | Arrow  (** [->] *)
  | Dot
  | Bar
  | Op of string  (** [+ - * < <= = +l && ||] and friends *)
  | Eof

type located = {
  tok : token;
  pos : int;
}

let keywords =
  [
    "let"; "in"; "rec"; "fun"; "if"; "then"; "else"; "match"; "with"; "end";
    "ref"; "fst"; "snd"; "inl"; "inr"; "not"; "true"; "false"; "quot"; "rem";
    "fork"; "cas";
  ]

(* [List.mem word keywords] as a compiled string match: the lexer asks
   it of every identifier.  The lexer test holds the two to each
   other. *)
let is_keyword = function
  | "let" | "in" | "rec" | "fun" | "if" | "then" | "else" | "match" | "with"
  | "end" | "ref" | "fst" | "snd" | "inl" | "inr" | "not" | "true" | "false"
  | "quot" | "rem" | "fork" | "cas" ->
    true
  | _ -> false

exception Error of string * int

let error pos fmt = Format.kasprintf (fun m -> raise (Error (m, pos))) fmt

let is_digit c = c >= '0' && c <= '9'
let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_ident_char c = is_ident_start c || is_digit c || c = '\''

let tokenize (s : string) : located list =
  let n = String.length s in
  let toks = ref [] in
  let emit pos tok = toks := { tok; pos } :: !toks in
  let rec skip_comment i depth =
    if i >= n then error i "unterminated comment"
    else if i + 1 < n && s.[i] = '(' && s.[i + 1] = '*' then
      skip_comment (i + 2) (depth + 1)
    else if i + 1 < n && s.[i] = '*' && s.[i + 1] = ')' then
      if depth = 1 then i + 2 else skip_comment (i + 2) (depth - 1)
    else skip_comment (i + 1) depth
  in
  let rec go i =
    if i >= n then emit i Eof
    else
      let c = s.[i] in
      if c = ' ' || c = '\t' || c = '\n' || c = '\r' then go (i + 1)
      else if i + 1 < n && c = '(' && s.[i + 1] = '*' then
        go (skip_comment i 0)
      else if is_digit c then begin
        let j = ref i in
        while !j < n && is_digit s.[!j] do
          incr j
        done;
        let lit = String.sub s i (!j - i) in
        (match int_of_string_opt lit with
        | Some v -> emit i (Int v)
        | None -> error i "integer literal %s out of range" lit);
        go !j
      end
      else if is_ident_start c then begin
        let j = ref i in
        while !j < n && is_ident_char s.[!j] do
          incr j
        done;
        let word = String.sub s i (!j - i) in
        emit i (if is_keyword word then Kw word else Ident word);
        go !j
      end
      else
        (* operators are recognised on the character pair, not on a
           [String.sub] of it *)
        let c2 = if i + 1 < n then s.[i + 1] else ' ' in
        match c, c2 with
        | ':', '=' -> punct i 2 Assign
        | '-', '>' -> punct i 2 Arrow
        | '+', 'l' when i + 2 < n && is_ident_char s.[i + 2] ->
          (* [x+len] is [x + len]: the pointer-add operator only claims
             its [l] when no identifier continues it *)
          punct i 1 (Op "+")
        | '+', 'l' -> punct i 2 (Op "+l")
        | '<', '=' -> punct i 2 (Op "<=")
        | '&', '&' -> punct i 2 (Op "&&")
        | '|', '|' -> punct i 2 (Op "||")
        | '(', _ -> punct i 1 Lparen
        | ')', _ -> punct i 1 Rparen
        | ',', _ -> punct i 1 Comma
        | ';', _ -> punct i 1 Semi
        | '!', _ -> punct i 1 Bang
        | '#', _ -> punct i 1 Hash
        | '.', _ -> punct i 1 Dot
        | '|', _ -> punct i 1 Bar
        | '+', _ -> punct i 1 (Op "+")
        | '-', _ -> punct i 1 (Op "-")
        | '*', _ -> punct i 1 (Op "*")
        | '<', _ -> punct i 1 (Op "<")
        | '=', _ -> punct i 1 (Op "=")
        | _ -> error i "unexpected character %C" c
  (* a [len]-character punctuation token at [i] *)
  and punct i len tok =
    emit i tok;
    go (i + len)
  in
  go 0;
  List.rev !toks

let pp_token ppf = function
  | Int n -> Format.fprintf ppf "integer %d" n
  | Ident x -> Format.fprintf ppf "identifier %s" x
  | Kw k -> Format.fprintf ppf "keyword %s" k
  | Lparen -> Format.pp_print_string ppf "("
  | Rparen -> Format.pp_print_string ppf ")"
  | Comma -> Format.pp_print_string ppf ","
  | Semi -> Format.pp_print_string ppf ";"
  | Bang -> Format.pp_print_string ppf "!"
  | Hash -> Format.pp_print_string ppf "#"
  | Assign -> Format.pp_print_string ppf ":="
  | Arrow -> Format.pp_print_string ppf "->"
  | Dot -> Format.pp_print_string ppf "."
  | Bar -> Format.pp_print_string ppf "|"
  | Op o -> Format.fprintf ppf "operator %s" o
  | Eof -> Format.pp_print_string ppf "end of input"

let () =
  Tfiris_robust.Failure.register (function
    | Error (msg, pos) ->
      Some (Tfiris_robust.Failure.Ill_formed { pos = Some pos; msg })
    | _ -> None)
