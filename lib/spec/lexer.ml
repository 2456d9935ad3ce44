type token =
  | IDENT of string
  | INT of int
  | STRING of string
  | LBRACE
  | RBRACE
  | LBRACKET
  | RBRACKET
  | COMMA
  | SEMI
  | ARROW
  | EOF

type position = { line : int; col : int }

exception Lex_error of position * string

let is_ident_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'

let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9') || c = '#'

let is_digit c = c >= '0' && c <= '9'

let is_identifier s =
  s <> "" && is_ident_start s.[0] && String.for_all is_ident_char s

(* A literal too large for the native int must be a diagnostic, not an
   uncaught [Failure]: spec files cross trust boundaries (certificates
   embed them, the daemon journal replays them). *)
let int_literal p s =
  match int_of_string_opt s with
  | Some v -> v
  | None -> raise (Lex_error (p, Printf.sprintf "integer literal %s out of range" s))

let tokenize src =
  let n = String.length src in
  let tokens = ref [] in
  let line = ref 1 and col = ref 1 in
  let i = ref 0 in
  let pos () = { line = !line; col = !col } in
  let advance () =
    if !i < n then begin
      if src.[!i] = '\n' then begin
        incr line;
        col := 1
      end
      else incr col;
      incr i
    end
  in
  let emit tok p = tokens := (tok, p) :: !tokens in
  while !i < n do
    let c = src.[!i] in
    let p = pos () in
    if c = ' ' || c = '\t' || c = '\r' || c = '\n' then advance ()
    else if c = '#' then
      while !i < n && src.[!i] <> '\n' do
        advance ()
      done
    else if c = '{' then (emit LBRACE p; advance ())
    else if c = '}' then (emit RBRACE p; advance ())
    else if c = '[' then (emit LBRACKET p; advance ())
    else if c = ']' then (emit RBRACKET p; advance ())
    else if c = ',' then (emit COMMA p; advance ())
    else if c = ';' then (emit SEMI p; advance ())
    else if c = '-' then begin
      advance ();
      if !i < n && src.[!i] = '>' then (emit ARROW p; advance ())
      else if !i < n && is_digit src.[!i] then begin
        let start = !i in
        while !i < n && is_digit src.[!i] do
          advance ()
        done;
        emit (INT (-int_literal p (String.sub src start (!i - start)))) p
      end
      else raise (Lex_error (p, "expected '>' or a digit after '-'"))
    end
    else if c = '"' then begin
      advance ();
      let start = !i in
      while !i < n && src.[!i] <> '"' do
        advance ()
      done;
      if !i >= n then raise (Lex_error (p, "unterminated string"));
      emit (STRING (String.sub src start (!i - start))) p;
      advance ()
    end
    else if is_digit c then begin
      let start = !i in
      while !i < n && is_digit src.[!i] do
        advance ()
      done;
      emit (INT (int_literal p (String.sub src start (!i - start)))) p
    end
    else if is_ident_start c then begin
      let start = !i in
      while !i < n && is_ident_char src.[!i] do
        advance ()
      done;
      emit (IDENT (String.sub src start (!i - start))) p
    end
    else raise (Lex_error (p, Printf.sprintf "unexpected character %C" c))
  done;
  emit EOF (pos ());
  List.rev !tokens

let token_to_string = function
  | IDENT s -> Printf.sprintf "identifier %S" s
  | INT k -> Printf.sprintf "integer %d" k
  | STRING s -> Printf.sprintf "string %S" s
  | LBRACE -> "'{'"
  | RBRACE -> "'}'"
  | LBRACKET -> "'['"
  | RBRACKET -> "']'"
  | COMMA -> "','"
  | SEMI -> "';'"
  | ARROW -> "'->'"
  | EOF -> "end of input"
