(** Execution traces and execution instances.

    A trace is a finite prefix [F(0), F(1), ...] of an execution trace
    (slot [i] covers the real-time interval [\[i, i+1)]).  The paper's
    pipeline-ordering rule makes instance identity canonical: the slots
    labelled with an element [e], taken in increasing order, group into
    executions of [e] of [weight e] slots each — the first [w] slots are
    the first execution, the next [w] the second, and so on (an earlier
    start must finish earlier, so executions cannot interleave). *)

type instance = {
  elem : int;  (** Element executed. *)
  index : int;  (** 0-based execution count of this element. *)
  start : int;  (** First slot index. *)
  finish : int;  (** One past the last slot index. *)
}
(** One execution instance of a functional element. *)

type t
(** A finite trace together with its per-element instance decomposition. *)

val of_slots : Comm_graph.t -> Schedule.slot array -> t
(** [of_slots g a] decomposes the finite trace [a].  A trailing
    incomplete execution (fewer than [weight] slots) is dropped; it has
    not finished within the trace. *)

val of_executions : Comm_graph.t -> horizon:int -> (int * int * int) list -> t
(** [of_executions g ~horizon records] is the trace of [horizon] slots
    whose completed executions are the [(elem, start, finish)] records,
    [finish] exclusive: a realized log in which overruns stretch
    executions and aborts lose them, so no slot array describes it.
    Each element's records, in list order, become its instances.
    Raises [Invalid_argument] on a negative horizon, an unknown
    element, [start < 0], [start >= finish] or [finish > horizon], and on
    records out of pipeline order: per element, starts and finishes
    must both strictly ascend. *)

val max_horizon : int
(** [2^23] slots: the longest trace an analysis unrolls (a few hundred
    MB of instances).  A question that would need a longer trace gets
    no answer (latency, response or certificate) instead of an
    allocation that can exhaust memory.  The longest trace any bundled
    test, bench experiment or benchmark workload unrolls is under
    [2^17] slots. *)

val of_schedule : Comm_graph.t -> Schedule.t -> horizon:int -> t
(** [of_schedule g l ~horizon] unrolls the static schedule [l] for
    [horizon] slots and decomposes the result. *)

val horizon : t -> int
(** Length of the underlying finite trace. *)

val instances : t -> int -> instance array
(** [instances tr e] are the completed executions of element [e],
    ascending by start. *)

val all_instances : t -> instance list
(** Every completed instance, sorted by [(start, elem)]. *)

val instance_count : t -> int -> int
(** Number of completed executions of an element. *)

val first_at_or_after : t -> elem:int -> time:int -> instance option
(** [first_at_or_after tr ~elem ~time] is the earliest completed
    instance of [elem] whose start is [>= time], if any. *)

val first_index_at_or_after : t -> elem:int -> time:int -> int option
(** Like {!first_at_or_after} but returns the instance index. *)

val nth_instance : t -> elem:int -> int -> instance option
(** [nth_instance tr ~elem k] is execution number [k] of [elem]. *)
