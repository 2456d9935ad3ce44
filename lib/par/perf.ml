(* Each counter is declared once: [counter] registers it and appends it
   to [counters], which keeps the declaration order. *)

let declared = ref []

let counter name =
  let c = Rt_obs.Metrics.counter name in
  declared := (name, c) :: !declared;
  c

let windows_checked = counter "windows_checked"
let cache_hits = counter "cache_hits"
let cache_misses = counter "cache_misses"
let dfs_nodes = counter "dfs_nodes"
let schedules_built = counter "schedules_built"
let game_states = counter "game_states"
let table_hits = counter "table_hits"
let table_misses = counter "table_misses"
let dominance_kills = counter "dominance_kills"
let decompose_components = counter "decompose/components"
let decompose_component_solves = counter "decompose/component_solves"
let decompose_component_reuses = counter "decompose/component_reuses"
let counters = List.rev !declared
let value = Rt_obs.Metrics.value
