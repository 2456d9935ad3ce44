(** Timing constraints: the tuples [(C, p, d)] of the paper.

    A {e periodic} constraint is invoked automatically every [p] time
    units starting at time 0; an {e asynchronous} constraint may be
    invoked at any integer instant provided two invocations are at least
    [p] apart.  When invoked at time [t], the task graph [C] must be
    executed within the interval [\[t, t+d\]].

    For asynchronous constraints, meeting the deadline for {e every}
    possible invocation time is exactly the latency condition: every
    window of length [d] of the execution trace must contain a complete
    execution of [C] (see {!Latency}). *)

type kind =
  | Periodic  (** Member of [T_p]: invoked at [0, p, 2p, ...]. *)
  | Asynchronous
      (** Member of [T_a]: sporadic, minimum separation [p]. *)

type t = private {
  name : string;  (** Unique constraint name, for reporting. *)
  graph : Task_graph.t;  (** The task graph [C]. *)
  period : int;  (** [p]: period or minimum separation; [> 0]. *)
  deadline : int;  (** [d]: relative deadline / latency bound; [> 0]. *)
  offset : int;
      (** Release offset of a periodic constraint: invocations occur at
          [offset, offset + p, ...].  Asynchronous constraints ignore
          it (their invocation instants are the environment's choice).
          [0 <= offset < period]. *)
  kind : kind;
  mutable signature_memo : string;
      (** [""] until {!signature} first renders it; read {!signature},
          not this field. *)
}

val signature : t -> string
(** The name-free signature: kind, period, offset, the task graph's
    {!Task_graph.signature} and the deadline ([a1024@0:3/,d=512]).
    Rendered on the first call and kept in the constraint, so code that
    never reads it (loading and checking a certificate) never pays for
    it; concurrent first calls from two domains render equal strings.
    Two constraints over one communication graph with equal signatures
    demand the same executions in the same windows. *)

val max_time : int
(** [2^40], the largest period or deadline {!make} accepts.  The
    analyses form window sums such as a schedule cycle plus twice a
    deadline plus a constant; with both bounds below [2^40] and a cycle
    no longer than an array, every such sum fits a 63-bit [int]. *)

val make :
  name:string ->
  graph:Task_graph.t ->
  period:int ->
  deadline:int ->
  kind:kind ->
  t
(** [make ~name ~graph ~period ~deadline ~kind] constructs a constraint
    with offset 0.  Raises [Invalid_argument] if [period <= 0],
    [deadline <= 0], either exceeds {!max_time}, or the name is
    empty. *)

val with_offset : t -> int -> t
(** [with_offset c o] is [c] released with phase [o].  Raises
    [Invalid_argument] unless [0 <= o < period] (or the constraint is
    asynchronous, for which offsets are meaningless). *)

type class_key = kind * int * int * string
(** Kind, period, offset and task-graph signature. *)

val latency_class : t -> class_key
(** What a constraint's achieved bound under a fixed schedule depends
    on: the kind and task graph, plus the period and offset of a
    periodic constraint (an asynchronous constraint's latency ignores
    its separation, and its key carries [0] for both).  Neither the name
    nor the deadline is part of it, so constraints of one class share
    one achieved latency or worst response, and with equal deadlines
    one window witness. *)

val is_periodic : t -> bool
(** [is_periodic c] is [true] for members of [T_p]. *)

val is_asynchronous : t -> bool
(** [is_asynchronous c] is [true] for members of [T_a]. *)

val computation_time : Comm_graph.t -> t -> int
(** Total computation time of the constraint's task graph. *)

val utilization : Comm_graph.t -> t -> float
(** [computation_time / period] — long-run processor share demanded by a
    periodic constraint (or by an asynchronous constraint at its maximum
    invocation rate). *)

val density : Comm_graph.t -> t -> float
(** [computation_time / min period deadline] — the density used by
    deadline-aware feasibility tests. *)

val kind_to_string : kind -> string
(** ["periodic"] or ["asynchronous"]. *)

val pp : Format.formatter -> t -> unit
(** One-line dump [name(kind p=.. d=..): <task graph>]. *)
