(** Latency analysis of static schedules — the core algorithm of the
    paper's latency-scheduling technique.

    An execution trace has latency [k] w.r.t. a timing constraint
    [(C,p,d)] iff it contains an execution of [C] in {e every} time
    window of length [>= k]; a static schedule is feasible w.r.t. the
    asynchronous constraints [T_a] iff its latency w.r.t. every
    [(C,p,d) ∈ T_a] is at most [d].  Because the induced trace is
    periodic and well-formed schedules repeat their instance structure
    with the cycle, all quantities below are computed exactly in finite
    time.

    Window convention: the window of length [d] starting at [t] consists
    of slots [t .. t+d-1]; an execution lies inside it iff every one of
    its slots does (instance [start >= t] and [finish <= t+d]). *)

val executes_within :
  Comm_graph.t ->
  Task_graph.t ->
  Trace.t ->
  t0:int ->
  t1:int ->
  (int * Trace.instance) list option
(** [executes_within g c tr ~t0 ~t1] searches for an execution of the
    task graph [c] entirely inside slots [\[t0, t1)]: an injective
    assignment of completed instances to task-graph nodes such that
    nodes map to instances of their elements, distinct nodes get
    distinct instances, and for every task-graph edge [u -> v] the
    instance of [u] finishes no later than the instance of [v] starts.
    Returns the node -> instance assignment, or [None].  Complete
    backtracking search (task graphs are small; candidate instances per
    window are few). *)

val contains_execution :
  Comm_graph.t -> Task_graph.t -> Trace.t -> t0:int -> t1:int -> bool
(** [contains_execution g c tr ~t0 ~t1] is
    [executes_within ... <> None]. *)

val next_completion :
  Comm_graph.t -> Task_graph.t -> Trace.t -> from:int -> int option
(** [next_completion g c tr ~from] is the smallest [f] such that the
    window [\[from, f)] contains an execution of [c], or [None] if no
    execution completes within the trace horizon. *)

module Cache : sig
  (** Reusable analysis state for asking many window questions against
      one (trace, task graph) pair.

      A cache holds the topological order, predecessor lists, the
      sorted array of instance finish times and the backtracking
      scratch buffers, all computed once instead of per question.
      Answers are identical to the corresponding context-free
      functions; only the work is shared.  A cache is single-domain
      state: create one per domain, do not share across domains. *)

  type t

  val create : Comm_graph.t -> Task_graph.t -> Trace.t -> t
  (** [create g c tr] prepares reusable state for questions about
      executions of [c] within [tr]. *)

  val next_completion : t -> from:int -> int option
  (** Same answer as {!val:next_completion} on the cache's trace. *)

  val contains_execution : t -> t0:int -> t1:int -> bool
  (** Same answer as {!val:contains_execution} on the cache's trace. *)
end

val analysis_horizon :
  Comm_graph.t -> Task_graph.t -> Schedule.t -> last_question:int -> int
(** [analysis_horizon g tg l ~last_question] is a trace length that
    holds the earliest execution of [tg] starting at or after any time
    up to [last_question], for a well-formed [l] in which every element
    of [tg] occurs: [(total weight + size + 3)] cycles past
    [last_question]. *)

val latency : Comm_graph.t -> Schedule.t -> Task_graph.t -> int option
(** [latency g l c] is the least [k] such that the trace induced by [l]
    contains an execution of [c] in every window of length [k] —
    [Some k] — or [None] when no finite [k] works (some element of [c]
    never runs, or runs without completing executions), or when the
    analysis would unroll more than {!Trace.max_horizon} slots.
    Requires a schedule that passes [Schedule.validate]. *)

val worst_window : Comm_graph.t -> Schedule.t -> Task_graph.t -> (int * int) option
(** [worst_window g l c] is a window [(t0, t1)] witnessing the latency:
    [t0] is a start offset within the first cycle maximizing the wait,
    and [t1] the earliest completion of an execution of [c] starting at
    or after [t0] (so [t1 - t0 = latency]).  [None] when the latency is
    unbounded.  Useful for diagnosing why a bound is missed. *)

val meets_asynchronous : Comm_graph.t -> Schedule.t -> Timing.t -> bool
(** [meets_asynchronous g l c] tests [latency g l c.graph <= c.deadline]
    — i.e. every possible invocation of the asynchronous constraint
    meets its deadline under the round-robin scheduler. *)

val meets_all_asynchronous :
  Comm_graph.t -> Schedule.t -> Timing.t list -> bool
(** [meets_all_asynchronous g l cs] is
    [List.for_all (meets_asynchronous g l) cs], computed over one
    shared trace instead of one per constraint (each constraint is
    questioned under its own horizon, so the answers are identical).
    Prefer it when verifying a candidate schedule against a whole
    constraint set: the trace build dominates small verifications. *)

val periodic_response : Comm_graph.t -> Schedule.t -> Timing.t -> int option
(** [periodic_response g l c] is the worst-case response time over the
    periodic invocations at [offset, offset + p, ...] (exact:
    invocation phases repeat with [lcm p (length l)]): the maximum over invocations [t] of
    [completion - t] where [completion] is the earliest finish of an
    execution of [c.graph] inside [\[t, ∞)].  [None] if some invocation
    never completes, or if [lcm p (length l)] overflows the native
    integer range or its analysis would unroll more than
    {!Trace.max_horizon} slots (the phase structure is then too large
    to enumerate). *)

val meets_periodic : Comm_graph.t -> Schedule.t -> Timing.t -> bool
(** [meets_periodic g l c] tests [periodic_response <= c.deadline]. *)

type verdict = {
  constraint_name : string;  (** Which constraint this verdict is about. *)
  kind : Timing.kind;
  bound : int;  (** The deadline [d] that had to be met. *)
  achieved : int option;
      (** Measured latency (asynchronous) or worst response (periodic);
          [None] when unbounded. *)
  ok : bool;  (** Whether the constraint is satisfied. *)
}
(** Verification outcome for one timing constraint. *)

val verify : ?cached:bool -> Model.t -> Schedule.t -> verdict list
(** [verify m l] checks the schedule against every constraint of the
    model (asynchronous ones via latency, periodic ones via worst
    response) and reports one verdict per constraint, in declaration
    order.  Raises [Invalid_argument] if [l] fails
    [Schedule.validate].

    With [cached] (the default) one trace long enough for every
    constraint is unrolled and shared, each constraint's questions are
    clamped to the horizon it would have used alone, and periodic
    responses are memoized per invocation phase (sound because a
    well-formed schedule's instance structure repeats with the cycle).
    [~cached:false] runs the plain per-constraint engine; both paths
    return identical verdicts — a property the test suite pins.

    The phase memo is size-capped (64Ki residues, FIFO eviction) so
    lcm-driven memo cycles cannot grow it without bound; an evicted
    entry only costs a repeated containment search, never a different
    verdict.  Current size and cap-forced drops are published as the
    [Rt_obs.Metrics] gauge ["cache/size"] and counter
    ["cache/evictions"]. *)

val verify_budgeted :
  ?cached:bool ->
  budget:Budget.t ->
  Model.t ->
  Schedule.t ->
  (verdict list, string) result
(** Budgeted {!verify}: the budget is checked (one fuel unit) before
    each constraint's analysis, so a spent budget cuts the report off
    with [Error reason] instead of analysing the remaining
    constraints.  Granularity is per constraint — one constraint's
    analysis, once started, runs to completion.  Verdicts are
    identical to {!verify}'s (the per-constraint engine is modular);
    only the cross-constraint trace sharing of the cached path is
    forgone. *)

val all_ok : verdict list -> bool
(** [all_ok vs] is true when every verdict is satisfied. *)

val pp_verdict : Format.formatter -> verdict -> unit
(** One-line rendering of a verdict. *)
