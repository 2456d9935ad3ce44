(** Cyclic schedule construction by earliest-deadline-first simulation.

    Builds one cycle of a static schedule by dispatching an explicit set
    of jobs (task-graph invocations with releases and absolute deadlines)
    under EDF over a finite horizon.  This is the engine behind the
    heuristic of the paper ("first computes a static schedule to satisfy
    the periodic timing constraints...") and behind the constructive
    proof of Theorem 3.

    Operations are dispatched {e non-preemptively at operation
    granularity}: once an operation (one task-graph node) starts it runs
    to completion.  After the software-pipelining rewrite every
    operation has unit weight, so this coincides with fully preemptive
    EDF; without the rewrite it models the fact that a non-pipelinable
    functional element cannot be split. *)

type job = {
  job_name : string;  (** For diagnostics, e.g. ["px@20"]. *)
  graph : Task_graph.t;  (** Operations to execute, with precedence. *)
  release : int;  (** Earliest start slot. *)
  abs_deadline : int;  (** Slot by which the whole job must finish. *)
}
(** One invocation of a timing constraint. *)

type failure = {
  failed_job : string;  (** Name of the first job to miss. *)
  at_time : int;  (** Slot at which the miss was detected. *)
  reason : string;  (** Human-readable explanation. *)
}
(** Why construction failed. *)

val jobs_of_periodic : horizon:int -> Timing.t -> job list
(** [jobs_of_periodic ~horizon c] expands the periodic constraint [c]
    into its invocations at [offset, offset + p, ...] below [horizon].
    Raises [Invalid_argument] if [c] is not periodic, or if
    [c.offset + c.deadline > c.period] (the construction requires every
    job to finish within its own period slice so the cycle boundary
    stays clean). *)

val jobs_of_polling :
  horizon:int -> name:string -> graph:Task_graph.t -> period:int ->
  rel_deadline:int -> job list
(** [jobs_of_polling ~horizon ~name ~graph ~period ~rel_deadline]
    expands a polling server executing [graph] every [period] slots with
    relative deadline [rel_deadline <= period] — the transformation that
    turns an asynchronous latency constraint into periodic work. *)

type policy =
  | Edf  (** Earliest absolute deadline first (optimal). *)
  | Dm
      (** Deadline-monotonic: jobs with smaller {e relative} deadlines
          always win, FIFO within a class — the fixed-priority
          alternative, for backend comparisons. *)

val build :
  ?policy:policy ->
  ?budget:Budget.t ->
  Comm_graph.t -> horizon:int -> job list -> (Schedule.t, failure) result
(** [build g ~horizon jobs] runs the dispatcher (default {!Edf}) for
    [horizon] slots.  Ties are broken by (key, release, name) so the
    result is deterministic.  Fails if any job misses its deadline or
    does not fit in the horizon.  All job deadlines must be
    [<= horizon] for the result to be a sound cycle.  Note the miss
    fast-path (checking only the queue head) is exact for EDF; under
    {!Dm} a miss is still always detected, at the latest when the job
    finishes late or the horizon ends.

    With a [budget], {!Budget.check} runs after the per-job set-up and
    every 1024 slots of the dispatch: a spent budget fails the build
    with reason ["budget exhausted"] and no job name.  Jobs released at
    or after [horizon] are never dispatched. *)

val utilization : Comm_graph.t -> horizon:int -> job list -> float
(** Total work of the jobs divided by the horizon — a quick infeasibility
    screen ([> 1.0] can never succeed). *)
