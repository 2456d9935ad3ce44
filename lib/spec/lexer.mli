(** Hand-written lexer for the specification language. *)

type token =
  | IDENT of string  (** Identifiers: [\[A-Za-z_\]\[A-Za-z0-9_#\]*]. *)
  | INT of int  (** Non-negative integer literals. *)
  | STRING of string  (** Double-quoted strings (no escapes). *)
  | LBRACE
  | RBRACE
  | LBRACKET
  | RBRACKET
  | COMMA
  | SEMI
  | ARROW  (** [->] *)
  | EOF

type position = { line : int; col : int }

exception Lex_error of position * string
(** Raised on an unexpected character or an unterminated string. *)

val tokenize : string -> (token * position) list
(** [tokenize src] converts the whole input to tokens (ending with
    [EOF]).  ['#'] starts a comment running to end of line.  A ['-']
    immediately followed by a digit lexes as a negative integer; any
    other ['-'] must begin ["->"]. *)

val is_identifier : string -> bool
(** [is_identifier s] holds when [s] lexes back as exactly one
    {!IDENT} token. *)

val token_to_string : token -> string
(** For diagnostics. *)
