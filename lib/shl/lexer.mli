(** Lexer for the SHL concrete syntax.  Used by {!Parser}; exposed for
    testing and for tools that want token-level access. *)

type token =
  | Int of int
  | Ident of string
  | Kw of string
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
  | Op of string
  | Eof

type located = {
  tok : token;
  pos : int;  (** byte offset in the input *)
}

exception Error of string * int

val keywords : string list
(** The reserved words, the only list of them. *)

val is_keyword : string -> bool
(** [is_keyword w] iff [List.mem w keywords]; what {!tokenize} asks of
    every identifier. *)

val tokenize : string -> located list
(** Tokenize a whole input (ends with {!Eof}); raises {!Error} on
    unexpected characters or unterminated comments. *)

val pp_token : Format.formatter -> token -> unit
