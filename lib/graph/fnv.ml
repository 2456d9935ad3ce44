(* The 64-bit state lives in an 8-byte [Bytes].  ocamlopt keeps the
   [Int64] arithmetic between a load and a store unboxed, so no step
   allocates.  The state is only ever read back by this module, so it is
   stored in native byte order and, the buffer being 8 bytes, without a
   bounds check. *)
type t = Bytes.t

external get : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let prime = 0x100000001b3L

let step h c = Int64.mul (Int64.logxor h (Int64.of_int (Char.code c))) prime

let create () =
  let h = Bytes.create 8 in
  set h 0 0xcbf29ce484222325L;
  h

let add_char h c = set h 0 (step (get h 0) c)

let add_substring h s pos len =
  if pos < 0 || len < 0 || pos > String.length s - len then
    invalid_arg "Fnv.add_substring";
  let x = ref (get h 0) in
  for i = pos to pos + len - 1 do
    x := step !x (String.unsafe_get s i)
  done;
  set h 0 !x

let add_string h s = add_substring h s 0 (String.length s)

let rec add_digits h n =
  if n >= 10 then add_digits h (n / 10);
  add_char h (Char.unsafe_chr (48 + (n mod 10)))

let add_decimal h n =
  if n = min_int then add_string h (string_of_int n)
  else if n < 0 then begin
    add_char h '-';
    add_digits h (-n)
  end
  else add_digits h n

let to_string h = Printf.sprintf "fnv1a:%016Lx" (get h 0)

let string s =
  let h = create () in
  add_string h s;
  to_string h
