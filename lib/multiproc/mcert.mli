(** Certificate builders for multiprocessor synthesis.

    Maps the engine-side artifacts ({!Msched.result},
    {!Contingency.table}) onto the trusted certificate vocabulary
    ([Rt_check.Certificate.mp] / [mp_table]) that the independent
    checker re-validates.  The mapping is purely structural — window
    offsets, piece contents and bus reservations are copied verbatim;
    the checker re-derives every claim from the model, so nothing here
    is trusted. *)

val result_cert : Rt_core.Model.t -> Msched.result -> Rt_check.Certificate.mp
(** [result_cert m r] is the certificate for a nominal synthesis of the
    full model [m]: no dropped constraints, no overrides.  Message
    pieces carry the full reserved cost ([msg_cost + arq_slack] bus
    slots), matching both the decomposition windows and the bus
    reservation, so the checker's replay counts exactly the slots EDF
    laid down. *)

val scenario_cert :
  Rt_core.Model.t -> Contingency.scenario -> Rt_check.Certificate.mp
(** [scenario_cert m s] is the certificate for a contingency scenario
    of the {e original} model [m] (the digest binds to [m], not to the
    degraded variant): [s.dropped] becomes the certificate's dropped
    list and every stretch note becomes a [(name, period, deadline)]
    override with the {e effective} parameters the degraded plans were
    decomposed against — a periodic stretch multiplies period and
    deadline by the same factor, an asynchronous stretch relaxes only
    the deadline (the environment's invocation rate is not ours to slow
    down). *)

val table_cert :
  Rt_core.Model.t -> Contingency.table -> Rt_check.Certificate.mp_table
(** [table_cert m t] packages the nominal system plus every {e
    feasible} scenario (infeasible crash slots carry no schedule to
    certify) with the table's reconfiguration bounds. *)
