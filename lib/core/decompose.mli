(** Interaction-component decomposition of a model.

    Two timing constraints {e interact} when their task graphs share a
    functional element: whatever a schedule does for one can affect the
    windows available to the other.  Constraints whose element sets are
    disjoint interact only through slot occupancy, which the interleave
    step below resolves.  The {e interaction graph} is therefore the
    constraint–element bipartite graph; its connected components
    partition the constraint set, and each component can be synthesized
    or decided independently.

    Component submodels keep the {e whole} communication graph, so all
    schedules remain over one shared element-id space and interleave
    without renaming; the exact engines and EDF derive their working
    element sets from the constraints, so an unconstrained element costs
    nothing.

    The interleave is {e not} sound by construction (it preserves each
    component schedule's internal spacing only approximately), so every
    caller must re-verify the merged schedule against the whole model
    and fall back to the undecomposed path on failure — decomposition is
    an accelerator, never an authority.  The one {e definitive} signal a
    component can produce is exact infeasibility: a component's
    constraints are a subset of the model's, so a completed exact search
    proving the submodel infeasible proves the whole model infeasible. *)

type component = {
  rank : int;  (** position in the deterministic component order *)
  indices : int list;
      (** indices into the model's constraint list, ascending *)
  constraints : Timing.t list;  (** in declaration order *)
  elements : int list;  (** sorted element ids the component touches *)
}

val components : Model.t -> component list
(** Connected components of the interaction graph, ordered by first
    constraint index (deterministic under constraint reordering within a
    component).  Elements no constraint touches belong to no component.
    A model with no constraints has no components. *)

val submodel : Model.t -> component -> Model.t
(** The component's constraints over the model's full communication
    graph. *)

val representatives : Model.t -> Model.t * int
(** [representatives m] drops constraints dominated by a sibling with
    the same kind, period, offset and task graph but a smaller-or-equal
    deadline, returning the reduced model and the number dropped.  Sound
    for verification-driven synthesis: a window of the minimum deadline
    is contained in every larger window over the same graph, for both
    asynchronous and periodic constraints.  Kept constraints appear in
    original order at their class's first position.  Callers that need
    the {e definitive}-infeasibility property keep it: the reduced
    constraint set is a subset of the original. *)

val interleave :
  Comm_graph.t -> Schedule.t list -> (Schedule.t, string) result
(** Merge component schedules into one cycle of length
    [lcm] of the component cycle lengths.  Each component's maximal
    same-element slot runs are placed as atomic blocks (preserving
    non-pipelinable contiguity) at the first idle run at or after their
    native position, never earlier than the previous block of the same
    component (preserving intra-component execution order).  Fails —
    rather than producing a wrong schedule — when the lcm overflows or
    exceeds a safety cap, when blocks do not fit, or when the result is
    not well-formed.  The result {e must} still be verified against the
    whole model by the caller. *)

val map_components :
  ?pool:Rt_par.Pool.t ->
  solve:(sub:Model.t -> component -> 'a) ->
  Model.t ->
  component list ->
  'a list
(** Fan the components out on [pool] (order-preserving, deterministic;
    sequential without a pool or on a 1-job pool), calling
    [solve ~sub c] with [sub] = {!representatives} of {!submodel}.
    Updates the [decompose/*] metrics: the component counter, the
    largest-component gauge and the per-component solve-time histogram.
    Callers account [decompose/component_solves] (and [..._reuses])
    themselves, since only they know whether a component was answered
    from a cache. *)

val account_pass : int list -> unit
(** [account_pass sizes] records one decomposition pass over components
    of [sizes] constraints each, as {!map_components} does: it bumps the
    component counter and sets the largest-component gauge.  For callers
    that drive their own component loop. *)

val run_component : (unit -> 'a) -> 'a
(** [run_component f] runs one component's solve as {!map_components}
    runs each: inside a [decompose/component] tracer span, observed on
    the per-component solve-time histogram. *)
