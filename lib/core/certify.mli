(** Certificate construction — the untrusted half of the trust split.

    Builds the per-constraint window witnesses of
    {!Rt_check.Certificate} from a schedule, using the full analysis
    stack ({!Latency}, {!Trace}).  Nothing here is trusted: every
    certificate is re-validated by {!Rt_check.Checker}, which shares
    no code with this module beyond the model vocabulary.

    Certification is a pure function of [(model, schedule)], so every
    engine's output can be certified at the API boundary without
    perturbing the engine's own exploration (the bench counters pin
    the default path bit-for-bit). *)

val schedule : Model.t -> Schedule.t -> (Rt_check.Certificate.t, string) result
(** [schedule m l] extracts witnesses for every constraint of [m]:
    for an asynchronous constraint, a covering chain of executions
    (greedy: the execution witnessing window start [t] yields the next
    window start); for a periodic constraint, one execution per
    invocation phase over [lcm(period, cycle)].  Fails if [l] is not
    well-formed or some window has no execution — i.e. if the
    schedule is not actually feasible.

    A witness depends only on the constraint's
    {!Timing.latency_class} and deadline, so it is computed once per
    such pair and reused for every constraint sharing it.  The
    certificate still lists one witness per constraint, in declaration
    order, with the bytes each constraint certified alone would give;
    the checker still checks each of them. *)

val plan : Synthesis.plan -> (Rt_check.Certificate.t, string) result
(** [plan p] certifies [p.schedule] against [p.model_used] (the model
    the synthesis pipeline actually scheduled, after merging or
    pipelining rewrites — the same model {!Rt_spec.Persist} stores). *)
