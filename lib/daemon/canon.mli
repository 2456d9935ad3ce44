(** The key of the admission daemon's answer cache.

    In the daemon's model [M = (G, T)] only [T] ever changes: admits,
    retires and replayed records are elaborated against the resident
    communication graph [G] and cannot add elements or edges, so element
    ids are fixed for the daemon's life.  Two constraint multisets over
    [G] that differ only in constraint names and declaration order
    describe the same scheduling problem, and a schedule solving one
    solves the other verbatim.

    The key is the sorted multiset of the constraints' name-free
    signatures (the [signature] field of {!Rt_core.Timing.t}, computed
    once per constraint: kind, period, offset, deadline and task graph
    over element ids), hashed with
    [Digest.string] to a fixed size.  Renaming or reordering
    constraints leaves it unchanged; renaming elements is out of scope,
    because [G] is fixed.  A collision can only cost a lost or spurious
    cache hit: every hit is re-verified against the whole model,
    certified and re-checked by the trusted core before use. *)

val of_constraints : Rt_core.Timing.t list -> string
(** The key of a constraint multiset. *)

val of_model : Rt_core.Model.t -> string
(** [of_constraints] of the model's constraints. *)
