(** The graph-based model [M = (G, T)].

    Packages a communication graph with its set of timing constraints
    and provides the validation, partitioning and load metrics that the
    synthesis algorithms rely on. *)

type t = private {
  comm : Comm_graph.t;  (** The communication graph [G]. *)
  constraints : Timing.t list;  (** The timing constraints [T]. *)
}

val make : comm:Comm_graph.t -> constraints:Timing.t list -> t
(** [make ~comm ~constraints] validates and builds a model.  Raises
    [Invalid_argument] if validation fails; see {!validate} for the
    conditions. *)

val create :
  comm:Comm_graph.t -> constraints:Timing.t list -> (t, string list) result
(** [create ~comm ~constraints] validates (see {!validate}) and builds
    the model in one walk over the constraints; [Error] carries every
    diagnostic, in {!validate}'s order. *)

val validate :
  comm:Comm_graph.t -> constraints:Timing.t list -> (unit, string list) result
(** Checks that every task graph is compatible with [comm] (the
    homomorphism condition of the paper), that constraint names are
    unique and non-empty, that every task graph is non-empty, and that
    no task graph uses an element of weight 0 (whose executions would be
    unobservable in the discrete trace semantics).  Returns all
    diagnostics on failure. *)

val periodic : t -> Timing.t list
(** The subset [T_p], in declaration order. *)

val asynchronous : t -> Timing.t list
(** The subset [T_a], in declaration order. *)

val find : t -> string -> Timing.t
(** [find m name] retrieves a constraint by name.  Raises [Not_found]. *)

val utilization : t -> float
(** Sum of per-constraint utilizations — total long-run demand assuming
    no sharing of common operations. *)

val density : t -> float
(** Sum of per-constraint densities [c_i / min(p_i, d_i)]. *)

val theorem3_premises : t -> (unit, string list) result
(** Checks the three premises of the paper's sufficient condition
    (Theorem 3): (i) [Σ w_i/d_i <= 1/2]; (ii) [⌈d_i/2⌉ >= w_i] for every
    constraint; (iii) every functional element is pipelinable.  Returns
    the violated premises on failure. *)

val hyperperiod : t -> int
(** Least common multiple of the periodic constraints' periods (1 when
    there are none).  Raises [Rt_graph.Intmath.Overflow] if it does not
    fit an [int]. *)

val elements_shared : t -> (int * string list) list
(** Elements used by two or more constraints, with the names of the
    constraints using them — the candidates for monitors in the naive
    implementation and for sharing in latency scheduling. *)

val pp : Format.formatter -> t -> unit
(** Multi-line dump of the whole model. *)
