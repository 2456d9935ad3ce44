(** The trusted certificate checker.

    Re-validates a schedule against a model in one pass over the
    certificate, depending only on the model vocabulary
    ([Model]/[Schedule]/[Timing]/[Trace]) — no engines, no pool, no
    caches; the dune boundary of this library is the trust boundary.

    Soundness argument (uniprocessor): the checker first insists the
    schedule is well-formed ({!Rt_base.Schedule.validate}), so the
    induced trace's instance structure repeats with the cycle.  Each
    witness execution is then re-validated slot-by-slot against the
    checker's own trace decomposition (instances exist, distinct nodes
    take distinct instances, precedence edges respect finish-before-
    start).  For an asynchronous constraint [(C,p,d)] the covering
    chain [e_1 .. e_k] proves every window of length [d] starting in
    [\[0, cycle)] contains an execution ([finish e_1 <= d] covers
    starts [0..start e_1]; [finish e_(i+1) <= start e_i + 1 + d]
    covers starts [(start e_i, start e_(i+1)]]; [start e_k >= cycle-1]
    reaches the cycle boundary), and periodicity extends the proof to
    every window.  For a periodic constraint, one witnessed execution
    per invocation phase over [lcm(p, cycle)] covers all invocations
    for the same reason.

    Each distinct (shape, witness) is checked once.  The shape is what
    the witness check reads from a constraint besides its name (kind,
    deadline, the task graph's node map and edges, and a periodic
    constraint's period and offset); the name appears only in error
    text.  So constraints of one shape carrying structurally equal
    witnesses pass or fail together.  Only a passed check is reused: a
    failing witness is checked for each constraint that carries it, so
    each reports its own errors. *)

open Rt_base

val check : Model.t -> Certificate.t -> (unit, string list) result
(** [check m cert] accepts iff [cert] proves its schedule feasible
    for [m].  All diagnostics are returned on failure. *)

val witness_checks : unit -> int
(** Witness checks run by {!check} since start-up, counted on every
    domain: one per distinct (shape, witness) of a certificate that
    passes, and one more per further constraint carrying a failing
    witness. *)

val check_multi : Model.t -> Certificate.mp -> (unit, string list) result
(** Multiprocessor counterpart: re-derives the window arithmetic
    (polling transformation, window chaining, topological op order)
    from the model and replays the dispatcher cursor over the
    processor tables and the bus. *)

val check_table : Model.t -> Certificate.mp_table -> (unit, string list) result
(** Contingency counterpart: checks the nominal system, every crash
    scenario (degradations applied as recorded in the scenario
    certificate), the reconfiguration-bound arithmetic
    [reconfig = detect + 1 + migration], that the dead processor is
    idle in its scenario, and that every retained constraint's nominal
    response leaves room for the reconfiguration latency
    ([response + reconfig <= scenario deadline]). *)
