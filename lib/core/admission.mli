(** Analytic admission control: decide (parts of) feasibility without
    constructing a schedule.

    Three-valued: a model is {e impossible} when it violates a
    necessary condition (no execution trace at all can meet the
    constraints), {e guaranteed} when it satisfies a sufficient
    condition backed by a constructive scheduler, and
    {e inconclusive} otherwise — Theorem 2 says the exact boundary is
    strongly NP-hard, so a gap is unavoidable for a fast test. *)

type verdict =
  | Guaranteed of string
      (** Feasible; the payload names the sufficient condition that
          fired ("theorem3" or "edf-periodic"). *)
  | Impossible of string
      (** Infeasible; the payload names the violated necessary
          condition. *)
  | Inconclusive
      (** Neither test fired; run {!Synthesis.synthesize} or
          {!Exact}. *)

val constraint_deadline : Comm_graph.t -> Timing.t -> (unit, string) result
(** Necessary, for one constraint: its computation time fits its
    deadline ([w_i <= d_i]) and so does its critical path. *)

val deadline_check : Model.t -> (unit, string) result
(** {!constraint_deadline} for every constraint; the first failure in
    declaration order. *)

val element_rates : Comm_graph.t -> Timing.t -> (int * float) list
(** One constraint's demand rate on each element it uses, ascending by
    element id: the per-constraint terms of {!rate_bound}. *)

val rate_bound : Model.t -> float
(** The element-rate lower bound on processor share.  For an
    asynchronous constraint [(C, d)], {e every} window of [d] slots
    must contain [occ(e,C)] complete distinct instances of each element
    [e] it uses, forcing a rate of at least
    [max (w_e / (d + 1 - w_e)) (occ * w_e / d)]; for a periodic
    constraint only the invocation windows matter, giving
    [occ * w_e / p] (disjoint windows when [d <= p]) or
    [occ * w_e / (p + d)] otherwise.  Instances may be shared between
    constraints (and between overlapping executions), so per element
    the {e maximum} demand over constraints is taken, and the bound is
    the sum over elements, in ascending element order.  A value
    [> 1.0] is a certificate of infeasibility. *)

val rate_check : float -> (unit, string) result
(** The verdict of {!necessary} on a {!rate_bound} value: [Error] names
    the rate when it exceeds the processor. *)

val necessary : Model.t -> (unit, string) result
(** All necessary conditions ({!deadline_check} and [rate_bound <= 1]). *)

val sufficient : Model.t -> string option
(** [Some name] when a sufficient condition fires:
    - ["theorem3"]: the paper's Theorem 3 premises hold;
    - ["edf-periodic"]: no asynchronous constraints, no element is
      shared between constraints, every element pipelinable or of unit
      weight, [offset + deadline <= period] for every constraint (so
      [Edf_cyclic] can realize the certificate), and the processor-
      demand criterion holds — classic exact EDF schedulability (the
      demand test ignores offsets, which is conservative: synchronous
      release is the worst case);
    - ["edf-periodic-merged"]: the same test passes after
      [Merge.apply] removed the element sharing (sound: a schedule for
      the merged model satisfies the original constraints). *)

val edf_sufficient : Model.t -> string option
(** The EDF conditions of {!sufficient} alone (["edf-periodic"] and
    ["edf-periodic-merged"]).  [None] without further work when the
    model has an asynchronous constraint: merging never rewrites one,
    so neither test can apply. *)

val admit : Model.t -> verdict
(** Combine: {!necessary} else [Impossible]; {!sufficient} else
    [Inconclusive]. *)

val demand_bound : Model.t -> int -> int
(** [demand_bound m t] is the total work of periodic jobs that must
    complete within any interval of length [t] under synchronous
    release: [Σ max(0, (t - d_i)/p_i + 1) * w_i] over periodic
    constraints.  The building block of the ["edf-periodic"] test. *)
