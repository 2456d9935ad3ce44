(** Pretty-printer: graph-based model -> specification source.

    The output parses back ({!Parser.parse}) and elaborates to a model
    with the same communication graph and the same constraints (task
    graphs compared up to node renumbering — the spec language
    identifies task-graph nodes with the elements they execute).

    Restriction: the spec language cannot express a task graph in which
    the same element occurs more than once, so {!print} raises
    [Invalid_argument] for such models. *)

val print :
  ?name:string ->
  ?assertions:(string * string * float * float) list ->
  Rt_core.Model.t ->
  string
(** [print m] renders [m] as specification source ([name] defaults to
    ["system"]).  [assertions] adds [assert src -> dst in [lo, hi];]
    declarations (bounds are truncated to integers — the spec language
    is integral). *)

val render :
  ?name:string ->
  ?assertions:(string * string * float * float) list ->
  Rt_graph.Sink.t ->
  Rt_core.Model.t ->
  unit
(** [render s m] writes {!print}'s text to [s] without building it: the
    certificate file embeds it through a JSON-escaping sink, and the
    daemon's certificate digest hashes it as it is produced. *)

val print_constraint : Rt_core.Model.t -> Rt_core.Timing.t -> string
(** Render a single constraint declaration. *)
