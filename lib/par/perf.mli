(** Process-wide performance counters for the analysis engine.

    DEPRECATION PATH: this module is now a thin compatibility facade
    over {!Rt_obs.Metrics} — each counter below is the registry cell of
    the same name, [time] records onto a registry histogram
    (["stage/<name>"]) and emits a tracer span, and {!reset} resets the
    whole registry.  Existing call sites keep working unchanged; new
    instrumentation should register its own metrics with
    {!Rt_obs.Metrics} directly, and this facade can be retired once the
    in-tree engines have migrated.

    All counters are atomics, so they can be bumped from any domain of
    a {!Pool} without synchronization; numbers are exact under
    sequential runs and exact-up-to-races under parallel ones (the
    counters themselves never tear, but "nodes expanded" depends on how
    far each branch ran before pruning).

    Counters accumulate until {!reset}; [rtsyn --stats] and
    [bench --json] print a {!snapshot} after the work they measure. *)

type counter

val windows_checked : counter
(** Containment searches run ({!Rt_core.Latency}-level window checks). *)

val cache_hits : counter
(** Latency questions answered from the periodicity memo instead of a
    fresh containment search. *)

val cache_misses : counter
(** Latency questions that had to run the containment search and then
    seeded the memo. *)

val dfs_nodes : counter
(** Nodes expanded by the exact solvers' DFS. *)

val schedules_built : counter
(** EDF cyclic schedules constructed during synthesis candidate
    exploration. *)

val game_states : counter
(** States expanded by the game engine ({!Rt_core.Game}); the
    game-engine counterpart of {!dfs_nodes}. *)

val table_hits : counter
(** Game-engine probes answered by the shared transposition table
    ({!Shard_tbl}): a state some schedule prefix had already settled. *)

val table_misses : counter
(** Game-engine transposition probes that found no prior verdict. *)

val dominance_kills : counter
(** Game-engine states discarded because a recorded dead state
    dominates them (antichain pruning) without ever being expanded. *)

val decompose_components : counter
(** Interaction components fanned out by a decomposition pass
    ({!Rt_core.Decompose}); bumped once per component per pass. *)

val decompose_component_solves : counter
(** Component submodels actually solved (synthesized or decided) by a
    decomposition pass — as opposed to answered from a cache. *)

val decompose_component_reuses : counter
(** Component solves answered from the daemon's answer cache (its
    component-local re-admission path) without re-solving. *)

val incr : counter -> unit
val add : counter -> int -> unit
val value : counter -> int

val time : string -> (unit -> 'a) -> 'a
(** [time stage f] runs [f ()] and records its wall-clock duration as
    one observation on the registry histogram ["stage/" ^ stage] (and as
    a tracer span of category ["stage"] when tracing is enabled).  The
    histogram cells are atomic, so spans completing concurrently on pool
    domains accumulate without tearing or dropping time.

    Nesting semantics: stages nest dynamically (e.g. ["verify"] inside
    ["synthesis"]); each stage's histogram counts its own spans only, so
    nested stages {e overlap} rather than partition the total — summing
    [stage_seconds] across stages double-counts nested time, and a stage
    entered concurrently on [k] domains accumulates up to [k] seconds of
    stage time per wall-clock second. *)

val stage_seconds : unit -> (string * float) list
(** Accumulated wall-clock seconds per stage, sorted by stage name. *)

val snapshot : unit -> (string * int) list
(** All counters by name, in a fixed order. *)

val reset : unit -> unit
(** Zero every counter and stage accumulator.  Since the cells live in
    the shared registry, this is {!Rt_obs.Metrics.reset} — it also
    zeroes any metrics registered outside this facade. *)

val pp : Format.formatter -> unit -> unit
(** Human-readable dump of {!snapshot} and {!stage_seconds}. *)
