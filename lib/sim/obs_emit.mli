(** Render replayed schedules onto the tracer's virtual timeline.

    The sim runtimes call these helpers (all no-ops when tracing is
    disabled) to emit slot-level complete events on {!Rt_obs.Tracer}'s
    simulation pid: one track per processor, one schedule slot scaled to
    {!Rt_obs.Tracer.slot_us} microseconds, so a replayed run opens in
    Perfetto as a Gantt chart of who ran when.  Consecutive slots of the
    same element merge into one span. *)

open Rt_core

val track : tid:int -> string -> unit
(** Label a virtual-time track (e.g. ["p0"], ["cpu"]). *)

val schedule : Comm_graph.t -> Schedule.t -> tid:int -> horizon:int -> unit
(** Emit the first [horizon] slots of [sched] (unrolled cyclically) as
    merged element spans on track [tid]. *)

val executions : Comm_graph.t -> tid:int -> (int * int * int) list -> unit
(** Emit explicit [(elem, start, finish)] execution records as recorded
    by {!Robust_runtime} — [finish] is one past the last busy slot, so
    the span covers [finish - start] slots. *)

val instant : tid:int -> at:int -> string -> unit
(** Flag a simulation event (miss, fault, detection) at slot [at]. *)
