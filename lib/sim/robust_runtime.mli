(** The overrun-aware run-time scheduler: injection -> detection ->
    recovery.

    {!Runtime} replays a static schedule under the assumption that the
    offline analysis holds — every execution fits its computation-time
    bound.  This engine drops that assumption: a {!Timing_fault.plan}
    makes chosen executions overrun, stall, or complete without output;
    a {!Watchdog} detects budget violations at slot granularity; and a
    recovery {!policy} decides what happens next, up to switching the
    whole system onto a pre-synthesized degraded schedule
    ({!Rt_core.Modes}) and re-admitting the primary mode once the fault
    clears.

    {2 Execution semantics}

    The dispatcher is a time-triggered table: slot [t] of the mode in
    force runs its scheduled element.  An execution accrues one slot of
    work whenever its element is dispatched; within its budget (the
    element weight) it yields at every slot boundary, so pipelined
    executions interleave exactly as in the nominal semantics.  The
    moment an execution exhausts its budget without completing it stops
    yielding: it {e hogs} every subsequent slot — displacing the table
    — until it completes or is killed.  This is precisely the failure
    the offline analysis cannot see and the watchdog exists to bound.

    Completed executions that produce output are recorded as
    [(element, start, finish)] records, [finish] one past the last
    slot; the realized log is read as a [Trace.of_executions], and
    [Rt_core.Latency] answers every invocation's completion over it,
    the search the offline analysis uses.
    Aborted executions and transient (no-output) completions serve no
    invocation.

    {2 Recovery policies}

    - {!Abort_job}: kill the overrunning execution at detection; its
      work is lost, the table resumes immediately.
    - {!Skip_next}: tolerate the overrun to completion (the work is
      kept), then skip the element's next execution to repay the stolen
      slots; stalls are still killed at the watchdog's [stall_limit].
    - {!Retry}: kill and re-execute, after [backoff] scheduled slots of
      cool-down, at most [max_attempts] consecutive times.
    - {!Degrade_to}: switch to a named degraded mode at the next slot
      boundary; the primary mode is re-admitted after [readmit_after]
      consecutive fault-free slots. *)

type policy =
  | Abort_job
  | Skip_next
  | Retry of { max_attempts : int; backoff : int }
  | Degrade_to of string  (** Name of a mode in the supplied mode list. *)

type event =
  | Overrun_detected of Watchdog.detection
  | Stall_killed of { elem : int; start : int; at : int }
  | Aborted of { elem : int; start : int; at : int; wasted : int }
  | Output_lost of { elem : int; start : int; at : int }
  | Retry_scheduled of { elem : int; at : int; attempt : int }
  | Gave_up of { elem : int; at : int }
  | Skip_scheduled of { elem : int; at : int }
  | Degraded of { at : int; to_mode : string }
  | Readmitted of { at : int }  (** Back to the primary mode. *)

type invocation = {
  constraint_name : string;
  criticality : Rt_core.Criticality.level;
  arrival : int;
  deadline : int;  (** Relative deadline in force at arrival. *)
  completion : int option;
  response : int option;
  met : bool;
  shed : bool;
      (** Arrived while a degraded mode had shed the constraint; not
          served and not counted as a miss. *)
  mode : string;  (** Mode in force at arrival. *)
}

type report = {
  invocations : invocation list;  (** Ordered by arrival, then name. *)
  events : event list;  (** Chronological fault/recovery log. *)
  detections : Watchdog.detection list;
  executions : (int * int * int) list;
      (** Realized good executions [(elem, start, finish)]. *)
  misses : int;  (** Non-shed invocations whose deadline was missed. *)
  shed : int;
  mode_switches : int;
  degraded_slots : int;  (** Slots before the horizon spent degraded. *)
  final_mode : string;  (** Mode in force at the horizon. *)
}

val run :
  ?crit:Rt_core.Criticality.assignment ->
  ?faults:Timing_fault.plan ->
  ?policy:policy ->
  ?watchdog:Watchdog.config ->
  ?readmit_after:int ->
  horizon:int ->
  arrivals:(string * int list) list ->
  Rt_core.Modes.mode list ->
  report
(** [run modes ~horizon ~arrivals] replays the head of [modes] (the
    primary) for [horizon] slots plus an internal margin.  All modes
    must share one communication graph (guaranteed when they come from
    {!Rt_core.Modes.derive}).  [readmit_after] defaults to twice the
    longest mode cycle.  Arrivals follow the same contract as
    {!Runtime.run}; periodic releases are generated dynamically, at the
    period in force at each release.  Raises [Invalid_argument] on an
    empty mode list, a fault plan that fails {!Timing_fault.validate},
    a [Degrade_to] target that is missing or is the primary, or illegal
    arrivals. *)

val pp_policy : Format.formatter -> policy -> unit

val pp_event :
  Rt_core.Comm_graph.t -> Format.formatter -> event -> unit

val pp_report :
  Rt_core.Comm_graph.t -> Format.formatter -> report -> unit
(** Counters followed by the chronological event log. *)
