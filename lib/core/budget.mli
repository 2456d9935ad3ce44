(** Cooperative engine budgets: wall-clock deadline + state-count fuel.

    A hostile (or merely NP-hard — Theorem 2) model can pin the exact
    engines arbitrarily long.  A [Budget.t] bounds a solve: engines
    call {!spend} at every branch expansion and stop cooperatively
    once either resource runs out, returning a distinguished [Timeout]
    verdict instead of hanging.

    A budget is shared state: one [t] threaded through a whole solve,
    including every pool lane (all fields are atomics).  Exhaustion is
    sticky — once spent, every later {!spend} is [false] —
    so concurrent lanes wind down promptly.  With no budget the
    engines' exploration is untouched (the bench counters pin the
    default path exactly). *)

type t

val create : ?wall_s:float -> ?fuel:int -> unit -> t
(** [create ()] starts the clock now.  [wall_s] is the wall-clock
    allowance in seconds; [fuel] the number of {!spend} units (state
    expansions).  Omitted resources are unlimited.  Raises
    [Invalid_argument] on a negative allowance. *)

val spend : t -> int -> bool
(** [spend b n] consumes [n] fuel units and checks the clock; [false]
    once the budget is exhausted (and forever after).  Safe to call
    from any domain. *)

val check : t -> bool
(** [check b] is {!spend} without fuel: [false] once the budget is
    exhausted or its wall-clock allowance has passed (which exhausts
    it).  For cut points inside one unit of work. *)

val exhausted : t -> string option
(** The reason the budget ran out, once it has. *)

val wall_elapsed : t -> float
(** Seconds since {!create} (for reporting). *)
