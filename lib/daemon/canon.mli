(** The key of the admission daemon's answer cache.

    In the daemon's model [M = (G, T)] only [T] ever changes: admits,
    retires and replayed records are elaborated against the resident
    communication graph [G] and cannot add elements or edges, so element
    ids are fixed for the daemon's life.  Two constraint multisets over
    [G] that differ only in constraint names and declaration order
    describe the same scheduling problem, and a schedule solving one
    solves the other verbatim.

    The key is the sorted multiset of the constraints' name-free
    signatures ({!Rt_core.Timing.signature}: kind, period, offset,
    deadline and task graph over element ids), hashed with
    [Digest.string] to a fixed size.  That is the key of one
    interaction component ({!Rt_core.Decompose}); a model is keyed by
    the sorted multiset of its component keys.  The partition into
    components depends only on the constraints' element sets, so two
    models get one key exactly when their constraint multisets are
    equal, and the daemon's resident index keeps the key per component
    instead of re-sorting every resident signature per request.
    Renaming or reordering constraints leaves it unchanged; renaming
    elements is out of scope, because [G] is fixed.  A collision can only cost a lost or spurious
    cache hit: every hit is certified against the whole model and
    re-checked by the trusted core before use. *)

val of_constraints : Rt_core.Timing.t list -> string
(** The key of a constraint multiset. *)

val of_component_keys : string list -> string
(** The key of a model from its component keys, sorted ascending: the
    one key itself for a one-component model (so it equals
    [of_constraints] of the whole constraint list), otherwise a digest
    of their concatenation; [of_component_keys []] is
    [of_constraints []]. *)

val of_model : Rt_core.Model.t -> string
(** [of_component_keys] of [of_constraints] of each component of
    {!Rt_core.Decompose.components}. *)
