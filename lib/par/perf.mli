(** The engine work counters that [bench --json] writes in its counters
    block and CI gates at tolerance 0 against [bench/baseline/].

    Each is the {!Rt_obs.Metrics} counter of the same name: bump it
    with [Rt_obs.Metrics.incr]/[add].  The cells are atomics, so they
    can be bumped from any domain of a {!Pool} without synchronization;
    numbers are exact under sequential runs and exact-up-to-races under
    parallel ones (the counters themselves never tear, but "nodes
    expanded" depends on how far each branch ran before pruning). *)

val windows_checked : Rt_obs.Metrics.counter
(** Containment searches run ({!Rt_core.Latency}-level window checks). *)

val cache_hits : Rt_obs.Metrics.counter
(** Latency questions answered from the periodicity memo instead of a
    fresh containment search. *)

val cache_misses : Rt_obs.Metrics.counter
(** Latency questions that had to run the containment search and then
    seeded the memo. *)

val dfs_nodes : Rt_obs.Metrics.counter
(** Nodes expanded by the exact solvers' DFS. *)

val schedules_built : Rt_obs.Metrics.counter
(** EDF cyclic schedules constructed during synthesis candidate
    exploration. *)

val game_states : Rt_obs.Metrics.counter
(** States expanded by the game engine ({!Rt_core.Game}); the
    game-engine counterpart of {!dfs_nodes}. *)

val table_hits : Rt_obs.Metrics.counter
(** Game-engine probes answered by the shared transposition table
    ({!Shard_tbl}): a state some schedule prefix had already settled. *)

val table_misses : Rt_obs.Metrics.counter
(** Game-engine transposition probes that found no prior verdict. *)

val dominance_kills : Rt_obs.Metrics.counter
(** Game-engine states discarded because a recorded dead state
    dominates them (antichain pruning) without ever being expanded. *)

val decompose_components : Rt_obs.Metrics.counter
(** Interaction components fanned out by a decomposition pass
    ({!Rt_core.Decompose}); bumped once per component per pass. *)

val decompose_component_solves : Rt_obs.Metrics.counter
(** Component submodels actually solved (synthesized or decided) by a
    decomposition pass — as opposed to answered from a cache. *)

val decompose_component_reuses : Rt_obs.Metrics.counter
(** Component solves answered from the daemon's answer cache (its
    component-local re-admission path) without re-solving. *)

val counters : (string * Rt_obs.Metrics.counter) list
(** The counters above with their registry names, in the order of the
    bench counters block. *)

val value : Rt_obs.Metrics.counter -> int
(** [Rt_obs.Metrics.value].  perfbench's in-process tracer
    ([perfbench/trace/layers.ml]) reads the counters through it. *)
