(** Top-level synthesis driver: from a graph-based model to a verified
    static schedule.

    Implements the paper's heuristic pipeline: "we can employ a good
    heuristic algorithm which first computes a static schedule to
    satisfy the periodic timing constraints and then incorporates
    additional operations to satisfy the asynchronous timing
    constraints."  Concretely:

    {ol
    {- optionally merge same-period periodic constraints so shared
       operations execute once ({!Merge});}
    {- optionally software-pipeline multi-unit elements so EDF can
       preempt at unit granularity ({!Pipeline});}
    {- turn each asynchronous constraint [(C,p,d)] into a polling
       periodic task with period [q] and relative deadline [D] such
       that [q + D <= d + 1] and [D >= w], trying a small set of
       candidate [q]s from cheapest ([q = d + 1 - w], least processor
       time) down to most slack ([q = D = ⌈(d+1)/2⌉]), including
       power-of-two variants that keep the overall hyperperiod — and
       hence verification cost — small;}
    {- dispatch all jobs with EDF over the hyperperiod
       ({!Edf_cyclic});}
    {- verify the resulting schedule against the (rewritten)
       constraints with the independent latency analyser
       ({!Latency.verify}) — synthesis only returns schedules whose
       verdicts all pass.}} *)

type plan = {
  model_used : Model.t;
      (** The model actually scheduled (after merge / pipelining). *)
  schedule : Schedule.t;  (** One cycle of the synthesized schedule. *)
  verdicts : Latency.verdict list;
      (** All-pass verification of [model_used] against [schedule]. *)
  merge_report : Merge.report option;
      (** Present when merging was enabled and applied. *)
  polling : (string * int * int) list;
      (** Asynchronous constraint name, polling period [q], polling
          relative deadline [D]. *)
  hyperperiod : int;  (** Cycle length of the schedule. *)
}
(** A successful synthesis outcome. *)

type error = {
  stage : string;  (** Which stage gave up. *)
  message : string;  (** Why. *)
}
(** A diagnosable failure. *)

val polling_candidates : w:int -> d:int -> (int * int) list
(** [polling_candidates ~w ~d] is the ordered list of
    [(period q, relative deadline D)] candidates for polling an
    asynchronous constraint of computation time [w] and latency bound
    [d]: every candidate satisfies [q + D <= d + 1], [D >= w] and
    [D <= q] (so consecutive polling completions cover every window of
    length [d]), listed cheapest first — descending [q], ties broken by
    ascending [D] — with no duplicates.  Empty iff [w > d]. *)

val synthesize :
  ?pool:Rt_par.Pool.t ->
  ?budget:Budget.t ->
  ?game_table:Game.table ->
  ?merge:bool ->
  ?pipeline:bool ->
  ?backend:Edf_cyclic.policy ->
  ?max_hyperperiod:int ->
  ?exact_fallback:bool ->
  ?decompose:bool ->
  Model.t ->
  (plan, error) Stdlib.result
(** [synthesize m] runs the pipeline above.  [merge] and [pipeline]
    default to [true]; [backend] selects the dispatcher for step 4
    (default [Edf_cyclic.Edf]; [Dm] gives the fixed-priority
    alternative, useful for backend comparisons); [max_hyperperiod]
    (default 1_000_000 slots) caps the cycle length.  Periodic
    constraints must satisfy [offset + deadline <= period].  A [plan]
    is returned only if verification passes.

    [exact_fallback] (default [false]): when the heuristic fails on a
    purely asynchronous model in one of Theorem 2's decidable classes
    (all-unit weights, or all-single-operation graphs), consult the
    exact game engine ({!Exact}).  A game cycle becomes the plan (no
    polling rewrite; [polling = []], [merge_report = None]); a
    completed search upgrades the error to stage ["exact"] with a
    proof of infeasibility; a state-budget [Unknown] leaves the
    original heuristic error untouched.

    [game_table] supplies a resident {!Game.table} threaded into the
    exact fallback, so dead facts survive across repeated synthesis
    attempts on the same model (the daemon's warm-solve path); it is
    only sound to reuse a table for one model.

    [budget] bounds the whole synthesis cooperatively, checked once per
    candidate round, once inside each round's EDF construction (before
    its release sort, which takes seconds on a large job set; see
    {!Edf_cyclic.build}) and threaded into the exact fallback.
    Degradation is graceful, never an exception: rounds completed
    before the cut-off still count (a feasible plan found early is
    returned normally); if the budget trips mid-sweep the error has
    stage ["budget"] and says how many rounds completed; if only the exact rescue
    is cut off, the heuristic's own error stands, annotated with the
    cut-off reason.

    With [pool], candidate configurations — every polling round of the
    merged variant followed by every round of the unmerged fallback —
    are dispatched and verified concurrently; the first success in
    preference order wins, so the returned plan (and, on failure, the
    reported error) is identical to the sequential result.

    [decompose] (default [false]; the [rtsyn synth] CLI turns it on):
    split the model into interaction components ({!Decompose}), solve
    each component independently — deduplicated by
    {!Decompose.representatives}, fanned out on [pool], each inner sweep
    sequential and without the caller's [game_table] (which is keyed to
    the whole model) — then interleave the component schedules and
    re-verify the merged schedule against the whole model.  Fail-closed:
    any interleave or verification failure falls back to the
    undecomposed pipeline, so a returned plan is always whole-model
    verified.  Two component outcomes short-circuit the fallback: a
    component's stage-["exact"] infeasibility is definitive for the
    whole model (its constraints are a subset), and a stage-["budget"]
    error propagates (retrying undecomposed would burn no fuel).
    Single-component and empty models take the plain path unchanged. *)

val pp_plan : Model.t -> Format.formatter -> plan -> unit
(** Render a plan (schedule, polling choices, verdicts) for humans;
    the first argument is the original model, used for naming. *)

val pp_error : Format.formatter -> error -> unit
(** Render a failure. *)
