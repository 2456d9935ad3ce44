(** One text renderer, two destinations.

    The certificate file, the model source it embeds and the digest the
    daemon journals are the same bytes.  Renderers write them to a sink:
    a [Buffer] when the text is wanted, or an {!Fnv} hasher when only its
    digest is, so a digest never builds the text it hashes.

    A sink may be a JSON-escaping view of another: every byte written
    through the view reaches the destination escaped, which is how a
    rendering is embedded in a JSON string without building it first.
    The escaping is the one every JSON writer here uses: ["\""],
    ["\\"] and newline get a backslash escape, other bytes below [0x20]
    become [\u00XX], and everything else passes unchanged. *)

type t

val of_buffer : Buffer.t -> t

val of_fnv : Fnv.t -> t

val json_escaping : t -> t
(** [json_escaping s] writes to [s]'s destination, JSON-escaping every
    byte on the way (the quotes around the string are the caller's). *)

val add_char : t -> char -> unit

val add_string : t -> string -> unit

val add_decimal : t -> int -> unit
(** [add_decimal s n] writes [string_of_int n] without formatting it
    first. *)

val add_json_string : t -> string -> unit
(** [add_json_string s str] writes [str] as a quoted, escaped JSON
    string. *)

val json_string : string -> string
(** [json_string str] is the quoted, escaped JSON string
    {!add_json_string} writes. *)
