exception Parse_error of Lexer.position * string

type state = { mutable toks : (Lexer.token * Lexer.position) list }

let peek st =
  match st.toks with
  | (t, p) :: _ -> (t, p)
  | [] -> assert false (* the token list always ends with EOF *)

let advance st =
  match st.toks with _ :: rest when rest <> [] -> st.toks <- rest | _ -> ()

let error st msg =
  let t, p = peek st in
  raise
    (Parse_error
       (p, Printf.sprintf "%s (found %s)" msg (Lexer.token_to_string t)))

let expect st tok msg =
  let t, _ = peek st in
  if t = tok then advance st else error st msg

let ident st =
  match peek st with
  | Lexer.IDENT s, _ ->
      advance st;
      s
  | _ -> error st "expected an identifier"

let keyword st kw =
  match peek st with
  | Lexer.IDENT s, _ when s = kw -> advance st
  | _ -> error st (Printf.sprintf "expected keyword %S" kw)

let int_lit st =
  match peek st with
  | Lexer.INT k, _ ->
      advance st;
      k
  | _ -> error st "expected an integer"

let string_lit st =
  match peek st with
  | Lexer.STRING s, _ ->
      advance st;
      s
  | _ -> error st "expected a string"

let parse_element st =
  keyword st "element";
  let name = ident st in
  keyword st "weight";
  let weight = int_lit st in
  let pipelinable =
    match peek st with
    | Lexer.IDENT "pipelinable", _ ->
        advance st;
        true
    | Lexer.IDENT "atomic", _ ->
        advance st;
        false
    | _ -> error st "expected 'pipelinable' or 'atomic'"
  in
  expect st Lexer.SEMI "expected ';' after element declaration";
  { Ast.el_name = name; el_weight = weight; el_pipelinable = pipelinable }

let parse_edge st =
  keyword st "edge";
  let src = ident st in
  expect st Lexer.ARROW "expected '->' in edge declaration";
  let dst = ident st in
  expect st Lexer.SEMI "expected ';' after edge declaration";
  { Ast.ed_src = src; ed_dst = dst }

let parse_assert st =
  keyword st "assert";
  let src = ident st in
  expect st Lexer.ARROW "expected '->' in assert declaration";
  let dst = ident st in
  keyword st "in";
  expect st Lexer.LBRACKET "expected '[' opening the bounds";
  let lo = int_lit st in
  expect st Lexer.COMMA "expected ',' between bounds";
  let hi = int_lit st in
  expect st Lexer.RBRACKET "expected ']' closing the bounds";
  expect st Lexer.SEMI "expected ';' after assert declaration";
  { Ast.as_src = src; as_dst = dst; as_lo = lo; as_hi = hi }

let parse_chain st =
  let first = ident st in
  let rec more acc =
    match peek st with
    | Lexer.ARROW, _ ->
        advance st;
        more (ident st :: acc)
    | _ -> List.rev acc
  in
  let chain = more [ first ] in
  expect st Lexer.SEMI "expected ';' after task chain";
  chain

let parse_constraint st =
  keyword st "constraint";
  let name = ident st in
  let kind =
    match peek st with
    | Lexer.IDENT "periodic", _ ->
        advance st;
        Ast.K_periodic
    | Lexer.IDENT "asynchronous", _ ->
        advance st;
        Ast.K_asynchronous
    | _ -> error st "expected 'periodic' or 'asynchronous'"
  in
  (match (kind, peek st) with
  | Ast.K_periodic, (Lexer.IDENT "period", _) -> advance st
  | Ast.K_asynchronous, (Lexer.IDENT "separation", _) -> advance st
  | Ast.K_periodic, _ -> error st "expected 'period'"
  | Ast.K_asynchronous, _ -> error st "expected 'separation'");
  let period = int_lit st in
  keyword st "deadline";
  let deadline = int_lit st in
  let offset =
    match (kind, peek st) with
    | Ast.K_periodic, (Lexer.IDENT "offset", _) ->
        advance st;
        int_lit st
    | _ -> 0
  in
  expect st Lexer.LBRACE "expected '{' opening the task graph";
  let rec chains acc =
    match peek st with
    | Lexer.RBRACE, _ ->
        advance st;
        List.rev acc
    | _ -> chains (parse_chain st :: acc)
  in
  let body = chains [] in
  {
    Ast.co_name = name;
    co_kind = kind;
    co_period = period;
    co_deadline = deadline;
    co_offset = offset;
    co_chains = body;
  }

let parse_system st =
  keyword st "system";
  let name = string_lit st in
  expect st Lexer.LBRACE "expected '{' opening the system";
  let elements = ref [] and edges = ref [] and constraints = ref [] in
  let asserts = ref [] in
  let rec items () =
    match peek st with
    | Lexer.RBRACE, _ -> advance st
    | Lexer.IDENT "element", _ ->
        elements := parse_element st :: !elements;
        items ()
    | Lexer.IDENT "edge", _ ->
        edges := parse_edge st :: !edges;
        items ()
    | Lexer.IDENT "assert", _ ->
        asserts := parse_assert st :: !asserts;
        items ()
    | Lexer.IDENT "constraint", _ ->
        constraints := parse_constraint st :: !constraints;
        items ()
    | _ -> error st "expected 'element', 'edge', 'assert', 'constraint' or '}'"
  in
  items ();
  (match peek st with
  | Lexer.EOF, _ -> ()
  | _ -> error st "expected end of input after the system");
  {
    Ast.sy_name = name;
    sy_elements = List.rev !elements;
    sy_edges = List.rev !edges;
    sy_asserts = List.rev !asserts;
    sy_constraints = List.rev !constraints;
  }

let parse src =
  let st = { toks = Lexer.tokenize src } in
  parse_system st

let parse_result src =
  match parse src with
  | sys -> Ok sys
  | exception Parse_error (p, msg) ->
      Error (Printf.sprintf "%d:%d: %s" p.Lexer.line p.Lexer.col msg)
  | exception Lexer.Lex_error (p, msg) ->
      Error (Printf.sprintf "%d:%d: %s" p.Lexer.line p.Lexer.col msg)

let parse_declaration src =
  match parse_result ("system \"d\" {\n" ^ src ^ "\n}") with
  | Error e -> Error ("declaration: " ^ e)
  | Ok
      {
        Ast.sy_elements = [];
        sy_edges = [];
        sy_asserts = [];
        sy_constraints = [ c ];
        _;
      } ->
      Ok c
  | Ok _ ->
      Error
        "declaration must be exactly one constraint (no elements, edges or \
         asserts)"
