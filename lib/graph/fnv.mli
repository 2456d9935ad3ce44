(** Streaming 64-bit FNV-1a.

    The digests this repository stamps on models, certificates and
    journal records are FNV-1a over a canonical rendering.  A hasher
    takes the rendering byte by byte as it is produced, so the text is
    never built.  The state lives unboxed in an 8-byte buffer; adding
    bytes, strings or decimals allocates nothing.  Not cryptographic:
    the digests defend against stale or mismatched artifacts, not
    against an adversary forging a collision. *)

type t
(** A running hash.  Mutable; not safe to share between domains. *)

val create : unit -> t
(** A hasher in the initial state (the FNV-1a 64-bit offset basis). *)

val add_char : t -> char -> unit

val add_string : t -> string -> unit

val add_substring : t -> string -> int -> int -> unit
(** [add_substring h s pos len] hashes [String.sub s pos len] without
    copying it.  Raises [Invalid_argument] if the range is not within
    [s]. *)

val add_decimal : t -> int -> unit
(** [add_decimal h n] hashes the bytes of [string_of_int n]. *)

val to_string : t -> string
(** The digest so far, rendered ["fnv1a:%016x"] (lower-case hex, 16
    digits). *)

val string : string -> string
(** [string s] is the rendered digest of [s]. *)
