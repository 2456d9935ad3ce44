(** Small integer helpers used throughout the scheduling code.

    All scheduling arithmetic in this repository is done on non-negative
    OCaml [int]s (time is discrete, as in the paper).  The helpers here
    guard the few places where overflow or division subtleties could
    silently corrupt an analysis (e.g. hyperperiod computation). *)

val gcd : int -> int -> int
(** [gcd a b] is the non-negative greatest common divisor.  [gcd 0 0 = 0]. *)

val lcm : int -> int -> int
(** [lcm a b] is the least common multiple.  Raises [Overflow] if the
    result does not fit in an [int].  [lcm 0 x = 0]. *)

val lcm_list : int list -> int
(** [lcm_list xs] folds {!lcm} over [xs]; the lcm of the empty list is 1. *)

val gcd_list : int list -> int
(** [gcd_list xs] folds {!gcd} over [xs]; the gcd of the empty list is 0. *)

val ceil_div : int -> int -> int
(** [ceil_div a b] is [a / b] rounded towards positive infinity, for
    [a >= 0] and [b > 0]. *)

val pow2_floor : int -> int
(** [pow2_floor n] is the largest power of two [<= n], for [n >= 1]. *)

val sum : int list -> int
(** [sum xs] adds up [xs], raising [Overflow] on overflow. *)

exception Overflow
(** Raised by {!lcm}, {!lcm_list} and {!sum} when a result exceeds the
    native integer range. *)

val add_decimal : Buffer.t -> int -> unit
(** [add_decimal b n] appends [string_of_int n] to [b] without going
    through the formatting machinery, for signatures built once per
    constraint on large models. *)
