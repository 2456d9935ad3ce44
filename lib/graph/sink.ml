type dst = Buf of Buffer.t | Hash of Fnv.t

type t = { dst : dst; escaping : bool }

let of_buffer b = { dst = Buf b; escaping = false }

let of_fnv h = { dst = Hash h; escaping = false }

let json_escaping s = { s with escaping = true }

let raw_char dst c =
  match dst with Buf b -> Buffer.add_char b c | Hash h -> Fnv.add_char h c

let raw_string dst s =
  match dst with Buf b -> Buffer.add_string b s | Hash h -> Fnv.add_string h s

let hex = "0123456789abcdef"

let escape_char dst c =
  match c with
  | '"' -> raw_string dst "\\\""
  | '\\' -> raw_string dst "\\\\"
  | '\n' -> raw_string dst "\\n"
  | c when Char.code c < 0x20 ->
      raw_string dst "\\u00";
      raw_char dst hex.[Char.code c lsr 4];
      raw_char dst hex.[Char.code c land 15]
  | c -> raw_char dst c

let raw_substring dst s pos len =
  match dst with
  | Buf b -> Buffer.add_substring b s pos len
  | Hash h -> Fnv.add_substring h s pos len

(* Runs of bytes that need no escape go through in one piece. *)
let escape_string dst s =
  let start = ref 0 in
  for i = 0 to String.length s - 1 do
    match String.unsafe_get s i with
    | '"' | '\\' | '\000' .. '\031' as c ->
        raw_substring dst s !start (i - !start);
        escape_char dst c;
        start := i + 1
    | _ -> ()
  done;
  raw_substring dst s !start (String.length s - !start)

let add_char s c = if s.escaping then escape_char s.dst c else raw_char s.dst c

let add_string s str =
  if s.escaping then escape_string s.dst str else raw_string s.dst str

(* Digits and a minus sign need no escaping. *)
let add_decimal s n =
  match s.dst with
  | Buf b -> Intmath.add_decimal b n
  | Hash h -> Fnv.add_decimal h n

let quote dst str =
  raw_char dst '"';
  escape_string dst str;
  raw_char dst '"'

let json_string str =
  let b = Buffer.create (String.length str + 16) in
  quote (Buf b) str;
  Buffer.contents b

let add_json_string s str =
  if s.escaping then escape_string s.dst (json_string str) else quote s.dst str
