(** Immutable directed graphs over integer nodes [0 .. n-1].

    This is the structural substrate shared by the communication graphs
    and task graphs of the model (lib/core), the workload generators and
    the multiprocessor partitioner.  Nodes are dense integers; callers
    attach their own labels by index.  All operations are pure. *)

type t
(** A directed graph.  Parallel edges are collapsed; self-loops are
    allowed (the model layer rejects them where the paper requires
    acyclicity). *)

val create : n:int -> edges:(int * int) list -> t
(** [create ~n ~edges] builds a graph with nodes [0..n-1].  Raises
    [Invalid_argument] if an endpoint is out of range. *)

val empty : int -> t
(** [empty n] is the edgeless graph on [n] nodes. *)

val n_nodes : t -> int
(** Number of nodes. *)

val n_edges : t -> int
(** Number of (distinct) directed edges. *)

val edges : t -> (int * int) list
(** All edges: sources in descending order, each source's targets in
    ascending order.  Model digests and printed specifications list
    edges in this order, so it is part of their bytes. *)

val iter_edges : t -> f:(int -> int -> unit) -> unit
(** [iter_edges g ~f] calls [f u v] on every edge, in the order of
    {!edges}, without building the list. *)

val succ : t -> int -> int list
(** [succ g v] are the direct successors of [v], ascending. *)

val pred : t -> int -> int list
(** [pred g v] are the direct predecessors of [v], ascending. *)

val mem_edge : t -> int -> int -> bool
(** [mem_edge g u v] tests the presence of edge [u -> v]. *)

val out_degree : t -> int -> int
(** Out-degree of a node. *)

val in_degree : t -> int -> int
(** In-degree of a node. *)

val add_edge : t -> int -> int -> t
(** [add_edge g u v] is [g] plus the edge [u -> v]. *)

val remove_edge : t -> int -> int -> t
(** [remove_edge g u v] is [g] without the edge [u -> v]. *)

val sources : t -> int list
(** Nodes with in-degree 0. *)

val sinks : t -> int list
(** Nodes with out-degree 0. *)

val is_acyclic : t -> bool
(** [is_acyclic g] is [true] iff [g] contains no directed cycle
    (self-loops count as cycles). *)

val topological_sort : t -> int list option
(** [topological_sort g] is [Some order] (a linearization in which every
    edge goes forward) iff [g] is acyclic, [None] otherwise.  Ties are
    broken by smallest node id so the order is deterministic. *)

val reachable : t -> int -> bool array
(** [reachable g v] marks every node reachable from [v] (including [v]
    itself). *)

val reaches : t -> int -> int -> bool
(** [reaches g u v] tests whether there is a directed path from [u] to
    [v] (a node reaches itself). *)

val transitive_closure : t -> t
(** [transitive_closure g] has an edge [u -> v] whenever [v] is reachable
    from [u] by a non-empty path in [g]. *)

val transitive_reduction : t -> t
(** [transitive_reduction g] for an acyclic [g] is the unique minimal
    graph with the same reachability.  Raises [Invalid_argument] if [g]
    is cyclic. *)

val longest_path : t -> weight:(int -> int) -> int
(** [longest_path g ~weight] is the maximum, over directed paths of an
    acyclic [g], of the sum of node weights along the path (the critical
    path length).  Returns 0 for the empty graph.  Raises
    [Invalid_argument] if [g] is cyclic. *)

val induced_subgraph : t -> keep:(int -> bool) -> t * int array
(** [induced_subgraph g ~keep] restricts [g] to the nodes satisfying
    [keep], renumbering them densely.  Returns the subgraph and the map
    from new ids to original ids. *)

val union : t -> t -> t
(** [union g h] over the same node set (max of the two sizes) contains
    the edges of both. *)

val map_nodes : t -> f:(int -> int) -> n:int -> t
(** [map_nodes g ~f ~n] is the image graph on [n] nodes with an edge
    [f u -> f v] for every edge [u -> v] of [g].  Distinct nodes may be
    identified by [f]. *)

val strongly_connected_components : t -> int list list
(** [strongly_connected_components g] partitions the nodes into SCCs
    (Tarjan's algorithm), returned in reverse topological order of the
    condensation (every edge between components goes from a later list
    element to an earlier one).  Each component's nodes are ascending. *)

val feedback_components : t -> int list list
(** The non-trivial SCCs: components with at least two nodes, or a
    single node with a self-loop — the feedback loops of a
    communication graph. *)

val is_chain : t -> bool
(** [is_chain g] is [true] iff [g] is a simple directed path covering all
    its nodes (the "chain" task-graph shape of Theorem 2, case i). *)

val equal : t -> t -> bool
(** Structural equality (same node count and edge set). *)

val pp : Format.formatter -> t -> unit
(** Human-readable dump ["n=3 edges=[0->1; 1->2]"]. *)

val to_dot : ?name:string -> ?label:(int -> string) -> t -> string
(** [to_dot g] renders Graphviz DOT source for [g]. *)

val fold_edges : t -> init:'a -> f:('a -> int -> int -> 'a) -> 'a
(** [fold_edges g ~init ~f] folds over all edges in the order of
    {!edges}. *)
