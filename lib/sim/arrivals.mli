(** Invocation-time (arrival) sequences for asynchronous constraints.

    An asynchronous constraint [(C, p, d)] "can be invoked at any
    integral time instant t with the provision that two successive
    invocations of the same timing constraint must be at least p time
    units apart".  These generators produce legal arrival sequences
    inside a horizon; the adversarial ones are used to stress the
    run-time executor. *)

val max_rate : horizon:int -> separation:int -> int list
(** Arrivals at [0, p, 2p, ...] — the densest legal sequence (the
    worst case for processor demand). *)

val single : at:int -> horizon:int -> int list
(** One arrival at [at] (if inside the horizon). *)

val random :
  Rt_graph.Prng.t -> horizon:int -> separation:int -> density:float -> int list
(** [random g ~horizon ~separation ~density] draws arrivals with mean
    inter-arrival time [separation /. density] (clamped to the legal
    minimum [separation]); [density] in [(0, 1]]. *)

val adversarial_phases :
  Rt_graph.Prng.t -> horizon:int -> separation:int -> int list
(** Arrivals at maximal rate but with a random initial phase — the
    latency condition must hold for every phase, so phase randomization
    probes window alignments the periodic pattern misses. *)

val legal : separation:int -> int list -> bool
(** Whether a sequence is sorted, non-negative and respects the minimum
    separation. *)

val validate :
  caller:string ->
  Rt_core.Model.t ->
  horizon:int ->
  (string * int list) list ->
  unit
(** [validate ~caller m ~horizon arrivals] checks the replay runtimes'
    arrival argument: every name is an asynchronous constraint of [m]
    and its sequence is {!legal} and inside the horizon.  Raises
    [Invalid_argument] prefixed with [caller] otherwise. *)
