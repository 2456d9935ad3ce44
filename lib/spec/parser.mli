(** Recursive-descent parser for the specification language.

    Grammar (keywords are ordinary identifiers with fixed spellings):

    {v
    system      ::= "system" STRING "{" item* "}"
    item        ::= element | edge | assert | constraint
    element     ::= "element" IDENT "weight" INT ("pipelinable"|"atomic") ";"
    edge        ::= "edge" IDENT "->" IDENT ";"
    assert      ::= "assert" IDENT "->" IDENT "in" "[" INT "," INT "]" ";"
    constraint  ::= "constraint" IDENT kind timing "{" chain* "}"
    kind        ::= "periodic" | "asynchronous"
    timing      ::= ("period"|"separation") INT "deadline" INT
                    ("offset" INT)?            (periodic only)
    chain       ::= IDENT ("->" IDENT)* ";"
    v} *)

exception Parse_error of Lexer.position * string
(** Raised with the position of the offending token. *)

val parse : string -> Ast.system
(** [parse src] parses a complete system.  Raises {!Parse_error} or
    [Lexer.Lex_error]. *)

val parse_result : string -> (Ast.system, string) result
(** Exception-free wrapper with a formatted "line:col: message"
    diagnostic. *)

val parse_declaration : string -> (Ast.constraint_decl, string) result
(** [parse_declaration src] parses exactly one [constraint] declaration
    (no elements, edges or asserts), as written in a system body. *)
