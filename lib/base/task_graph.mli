(** Task graphs: the bodies [C] of timing constraints.

    A task graph is an acyclic digraph together with a mapping [h] from
    its nodes to functional elements of a communication graph.  Nodes
    denote executions of the corresponding elements; edges denote data
    transmissions that must precede the consumer's execution.  Several
    task-graph nodes may map to the {e same} element (the element is then
    executed several times per constraint invocation, and the bijective
    matching in the execution semantics must pick distinct instances). *)

type t
(** A task graph.  Node ids are dense [0 .. size-1]; each node carries
    the id of the element it maps to. *)

val create : nodes:int array -> edges:(int * int) list -> t
(** [create ~nodes ~edges] builds a task graph whose node [i] maps to
    element [nodes.(i)]; [edges] are over task-graph node ids.  Raises
    [Invalid_argument] if the edge relation is cyclic or an endpoint is
    out of range. *)

val of_chain : int list -> t
(** [of_chain [e1; ...; ek]] is the chain task graph
    [e1 -> e2 -> ... -> ek] (nodes mapping to the listed elements). *)

val singleton : int -> t
(** [singleton e] is the one-node task graph executing element [e]
    (Theorem 2(ii) shape). *)

val size : t -> int
(** Number of task-graph nodes. *)

val element_of_node : t -> int -> int
(** [element_of_node c v] is the element id node [v] maps to. *)

val node_elements : t -> int array
(** The full node -> element mapping (a fresh copy). *)

val graph : t -> Rt_graph.Digraph.t
(** The underlying precedence digraph over task-graph node ids. *)

val edges : t -> (int * int) list
(** Precedence edges over task-graph node ids. *)

val signature : t -> string
(** A rendering of the graph over global element ids, computed on the
    first call and kept: the node-to-element mapping in node order,
    then the sorted edge set ([1,2/0>1;]).  Equal signatures mean equal
    graphs, with the same topological order and predecessor lists, so
    every analysis of one against a fixed schedule answers the same for
    the other. *)

val topological_order : t -> int list
(** A deterministic linearization of the precedence relation. *)

val elements_used : t -> int list
(** Sorted, deduplicated element ids appearing in the task graph. *)

val occurrences : t -> int -> int
(** [occurrences c e] counts nodes mapping to element [e]. *)

val computation_time : Comm_graph.t -> t -> int
(** Sum of the weights of all nodes ("the computation time of a timing
    constraint ... is the sum of all the weights of the nodes in C"). *)

val critical_path : Comm_graph.t -> t -> int
(** Longest weight-sum along a precedence path; a lower bound on the
    span of any execution of the graph. *)

val compatible : Comm_graph.t -> t -> (unit, string) result
(** [compatible g c] checks the paper's compatibility condition: every
    node maps to an element of [g] and every task-graph edge [u -> v]
    maps to a communication edge [h(u) -> h(v)] of [g].  Returns a
    diagnostic on failure. *)

val is_chain : t -> bool
(** Whether the precedence graph is a simple chain. *)

val straight_line : t -> int list
(** [straight_line c] is the element-id sequence of a topological sort of
    [c] — the "straight-line program" body of the naive process-based
    implementation. *)

val map_elements : t -> f:(int -> int) -> t
(** [map_elements c ~f] renames the elements the nodes map to (used when
    embedding a task graph into a rewritten communication graph). *)

val disjoint_union : t -> t -> t * int array * int array
(** [disjoint_union a b] places [a] and [b] side by side; returns the
    union and the node-id translations for [a] and [b]. *)

val equal : t -> t -> bool
(** Structural equality (same nodes, mapping and edges). *)

val pp : Format.formatter -> t -> unit
(** One-line dump [nodes=[e0 e1 ...] edges=[...]]. *)
