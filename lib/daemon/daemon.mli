(** The [rtsynd] serving core: one request line in, one response line
    out, against the resident engine.

    {!Transport.run} is the only request loop.  It serves stdin/stdout
    as one connection, or many socket clients, and passes every request
    through {!serve_line} one at a time, so mutations stay serialized
    through the journal whatever the transport.  Robustness properties
    owned here (see [docs/DAEMON.md]):

    - every request runs under a per-request {!Rt_core.Budget} (wall
      clock + fuel; defaults from the config, overridable per request)
      and a spent budget returns a structured ["timeout"] error instead
      of wedging the loop;
    - queue depth drives the degradation ladder: beyond
      [degrade_heuristic] the exact game-engine rescue is dropped,
      beyond [degrade_analytic] admits are answered from the analytic
      {!Rt_core.Admission} gap tests alone (and not committed);
    - a request that raises is answered with a structured ["internal"]
      error; resident state is unchanged and serving goes on.

    Queueing, shedding past [max_queue] and framing under [max_frame]
    belong to the loop ({!Transport}). *)

type config = {
  journal : string;
  spec : string option;  (** Base system source (fresh start only). *)
  max_queue : int;  (** Pending requests across all connections. *)
  max_frame : int;  (** Per-frame byte limit. *)
  degrade_heuristic : int;  (** Queue depth at which exact rescue drops. *)
  degrade_analytic : int;  (** Queue depth for analytic-only answers. *)
  default_budget_ms : int;  (** 0 = unlimited. *)
  default_fuel : int;  (** 0 = unlimited. *)
  jobs : int;  (** Pool lanes for synthesis; 1 = sequential. *)
}

val default_config : config

val create_engine :
  config -> (Engine.t * Rt_par.Pool.t option, string) result
(** Replay/open the journal and bring up the resident engine (plus the
    synthesis pool when [jobs > 1]).  On error the pool is already shut
    down. *)

val serve_line :
  config ->
  Engine.t ->
  started:float ->
  depth:int ->
  string ->
  [ `Continue of string | `Stop of string ]
(** Serve one raw request line against the engine at the given queue
    [depth] (which drives the degradation ladder) and render the
    response line.  [`Stop] is a [shutdown] acknowledgement. *)
