(** End-to-end multiprocessor synthesis: partition, decompose, schedule
    each processor, schedule the bus.

    Feasibility is compositional: every segment and message is given a
    window inside its constraint's invocation interval ({!Decompose});
    per-processor EDF meets every segment window
    ([Rt_core.Edf_cyclic]); bus EDF meets every message window
    ({!Netsched}); chained windows imply the end-to-end deadline.  The
    trusted [Rt_check.Checker.check_multi] re-derives every window from
    the model and replays the tables independently ({!Mcert} builds its
    certificate). *)

type result = {
  partition : Partition.t;
  plans : Decompose.plan list;
  hyperperiod : int;
  processor_schedules : Rt_core.Schedule.t array;
      (** One cycle per processor (idle where another processor works). *)
  bus : Netsched.bus_schedule;
  proc_loads : float array;  (** Busy fraction per processor. *)
  bus_load : float;
  cut : int;  (** Number of cut communication edges. *)
  msg_cost : int;  (** Real bus slots per cross-processor transmission. *)
  arq_slack : int;
      (** Retransmission slots reserved {e per message} on top of
          [msg_cost]: every message window and the bus reservation carry
          [msg_cost + arq_slack] slots, so up to [arq_slack] lost or
          corrupted transmissions per message window are absorbed
          without any deadline miss (the {!Netsched.schedule_arq}
          bound). *)
}

val synthesize :
  ?n_procs:int ->
  ?msg_cost:int ->
  ?arq_slack:int ->
  ?max_hyperperiod:int ->
  Rt_core.Model.t ->
  (result, string) Stdlib.result
(** [synthesize m] runs the whole flow ([n_procs] defaults to 2,
    [msg_cost] to 1, [arq_slack] to 0, [max_hyperperiod] to 1_000_000).
    Periodic constraints must have [deadline <= period] and zero
    offset.  Window allotment strategies are tried in order
    (proportional, back-loaded, front-loaded) until one yields feasible
    per-processor and bus schedules; the reported error is the first
    strategy's when all fail.  On success, every piece of every
    constraint meets its window. *)

val synthesize_with :
  ?msg_cost:int ->
  ?arq_slack:int ->
  ?max_hyperperiod:int ->
  Rt_core.Model.t ->
  Partition.t ->
  (result, string) Stdlib.result
(** Like {!synthesize} but from a caller-supplied partition instead of
    the built-in greedy+refine placement — the entry point for
    contingency synthesis, which re-partitions around a dead processor
    with {!Partition.repair} and must keep the surviving assignment.
    [n_procs] is the partition's. *)

val walk_pieces :
  Rt_core.Comm_graph.t ->
  slot:(int -> int -> Rt_core.Schedule.slot) ->
  bus:(int -> string option) ->
  msg_slots:(int -> int) ->
  Decompose.plan ->
  arrival:int ->
  int * bool
(** [walk_pieces g ~slot ~bus ~msg_slots plan ~arrival] follows the
    invocation of [plan] arriving at [arrival] through its pieces'
    windows and answers its completion and whether every piece fit.
    A segment's ops are found in order, each op's weight worth of
    [slot processor t = Run op] slots, by one cursor that starts at the
    window's start; a message needs [msg_slots cost] slots [t] with
    [bus t = Some "name@arrival/index"] (a message planned at cost 0,
    or needing 0 slots, is not on the bus).  A piece completes where
    its last slot was found, or at its window's end when the window
    closes first, which makes the answer's [bool] false.  The
    completion is the latest piece completion, and at least
    [arrival].  Both lookups are total: outside the log they answer
    [Idle] and [None]. *)

val response_bounds : Rt_core.Model.t -> result -> (string * int) list
(** [response_bounds m r] measures, per constraint (by name, in plan
    order), the worst realized end-to-end response over one
    hyperperiod: for every invocation, each piece's completion is
    located in the assembled tables (processor schedules for segments,
    the bus reservation for messages — counting the full reserved
    [msg_cost + arq_slack] slots, conservatively) and the response is
    the final piece's completion minus the arrival.  The slack
    [deadline - bound] is what a reconfiguration latency must fit
    into ({!Contingency.admits_reconfiguration}). *)

val pp_result : Rt_core.Model.t -> Format.formatter -> result -> unit
(** Human-readable summary (partition, loads, cut, feasibility). *)
