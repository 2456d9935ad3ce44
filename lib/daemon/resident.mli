(** The daemon's index of its resident constraints.

    In Mok's model [M = (G, T)] a daemon request changes only [T], one
    constraint at a time, and the change stays inside one interaction
    component (Boode's decomposition: the component is the unit of
    composition).  The index keeps what the engine used to recompute
    from the whole constraint list on every request:

    - constraints by name, each with its declaration position;
    - for each element, its component; for each component, its
      constraints in declaration order, its sorted elements and its
      {!Canon} key;
    - for each element, its admission demand as a multiset of
      per-constraint rates, so that a retire can lower its maximum;
    - the multiset of component keys, from which the whole-model cache
      key is derived.

    The index is persistent: {!add} and {!remove} return a new index
    and leave the old one as it was, so a what-if or a failed admit is
    simply dropped.  {!add} touches only the components the new
    constraint joins.  {!remove} rebuilds only the component the
    constraint leaves, which may split: a union-find cannot delete, so
    that component is partitioned again from its remaining members.

    {!Decompose.components}, {!Canon.of_model} and {!Admission.admit}
    remain the definitions; the index answers what they answer on
    {!model}, which a property test checks after random request
    sequences.  {!model} is the {!Rt_core.Model.t} the engines, the
    certifier and the trusted checker take; it is built on first use. *)

open Rt_core

type t

type component
(** One interaction component of the indexed model. *)

val of_model : Model.t -> t
(** Index every constraint of a model, in declaration order. *)

val add : t -> Timing.t -> t
(** [add t c] is [t] with [c] declared last.  [c] must already be
    valid on its own ({!Rt_core.Model.constraint_errors} is empty) and
    its name must not be resident; raises [Invalid_argument] on a
    resident name.  Costs time in the size of the components [c]
    joins, not in the number of residents. *)

val remove : t -> string -> t
(** [remove t name] is [t] without constraint [name] ([t] itself when
    no such constraint is resident).  Re-partitions only the component
    [name] leaves; its model drops the constraint from the list
    without re-validating the rest. *)

val comm : t -> Comm_graph.t
val model : t -> Model.t
val mem : t -> string -> bool

val is_empty : t -> bool
(** No constraint is resident. *)

val components : t -> component list
(** The interaction components in {!Rt_core.Decompose.components}'
    order (by first constraint in declaration order). *)

val constraints : component -> Timing.t list
(** In declaration order. *)

val elements : component -> int list
(** Sorted element ids the component's constraints use. *)

val size : component -> int
(** The number of constraints. *)

val component_key : component -> string
(** {!Canon.of_constraints} of {!constraints}. *)

val key : t -> string
(** The whole model's answer-cache key, {!Canon.of_model}, from the
    component keys alone. *)

val admission : t -> Admission.verdict
(** {!Admission.admit} of {!model}.  The necessary conditions and
    Theorem 3 come from the index; only a model whose constraints are
    all periodic and which fails Theorem 3 runs
    {!Admission.edf_sufficient} on the whole model. *)
