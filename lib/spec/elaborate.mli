(** Elaboration: AST -> graph-based model.

    This is the "precise translation of user requirements into an
    instance of our graph-based model" step.  Each constraint's task
    graph is assembled from its chains: every element named in some
    chain becomes one node, and consecutive chain members contribute
    precedence edges (so DAG shapes are written as several overlapping
    chains).  All semantic validation — unknown elements, edges without
    matching communication paths, cyclic task graphs, duplicate names —
    is reported with the constraint it occurred in. *)

val elaborate : Ast.system -> (Rt_core.Model.t, string list) result
(** [elaborate sys] builds and validates the model; [Error] collects
    every diagnostic. *)

val constraint_decl :
  Rt_core.Comm_graph.t ->
  Ast.constraint_decl ->
  (Rt_core.Timing.t, string list) result
(** [constraint_decl comm c] elaborates one constraint declaration
    against the communication graph [comm] — the step {!elaborate}
    applies to every constraint of a system.  Checks the constraint on
    its own (unknown elements, cyclic chains, invalid timing); the
    checks against the other constraints are {!Rt_core.Model.validate}'s. *)

val add_constraint :
  Rt_core.Model.t -> Ast.constraint_decl -> (Rt_core.Model.t, string list) result
(** [add_constraint m c] is [m] with [c], elaborated against [m]'s
    communication graph, appended to its constraints and the result
    validated.  Equivalent to printing [m], adding [c] to the source and
    elaborating it again, without the round trip. *)

val elaborate_exn : Ast.system -> Rt_core.Model.t
(** Raising variant ([Invalid_argument] with joined diagnostics). *)

val load : string -> (Rt_core.Model.t, string list) result
(** [load src] parses and elaborates in one step (assert declarations
    are validated and dropped). *)

val load_with_assertions :
  string ->
  (Rt_core.Model.t * (string * string * float * float) list, string list)
  result
(** [load_with_assertions src] additionally returns the edge assertions
    [(src, dst, lo, hi)] declared in the specification, each validated
    against the communication graph; feed them to the value-carrying
    simulator ([Rt_sim.Data]) as range predicates. *)
