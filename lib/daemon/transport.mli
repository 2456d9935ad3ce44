(** The [rtsynd] request loop: one [Unix.select] event loop for every
    transport.

    With [socket] and/or [tcp] set, Unix-domain and loopback-TCP
    listeners accept many clients at once; with neither, stdin/stdout
    is served as the loop's one connection.  Every connection speaks
    the newline-delimited jsonl protocol ({!Protocol}), framed per
    connection by {!Framing}.  Reads, parsing and response writes fan
    out across connections, while every state mutation still flows one
    request at a time through {!Daemon.serve_line} — the
    single-writer journal/crash-safety story is untouched by
    concurrency.

    Robustness (see [docs/DAEMON.md] for the full contract):

    - {b fairness} — queued requests are served round-robin across
      connections, so one chatty tenant cannot starve the others;
    - {b backpressure} — per-connection ([conn_queue]) and global
      ([Daemon.max_queue]) pending caps; beyond either, the newest
      request is shed immediately with an ["overloaded"] +
      [retry_after_ms] answer (counted by [daemon/shed]).  A client
      that stops reading its responses is disconnected once
      [max_out_bytes] of unsent replies accumulate;
    - {b stalled/malicious clients} — frames above [Daemon.max_frame]
      are dropped with a structured ["oversize"] error; a connection
      idle past [idle_timeout_s], or holding a partial frame longer
      than [read_timeout_s], is closed ([daemon/conn_timeouts]);
    - {b graceful drain} — a [shutdown] request closes the listeners,
      stops reading, lets every already-queued request finish, flushes
      the response buffers (bounded by [drain_timeout_s]), fsyncs the
      journal and exits 0.

    The stdin connection keeps the stdin contract: only the global
    [Daemon.max_queue] cap applies to it, no timeout or output cap
    closes it, its inherited descriptors stay blocking (it is read once
    per readiness), and EOF on stdin ends the loop once its queued
    requests are answered and flushed.

    Per-connection responses preserve request order (the per-connection
    queue is FIFO and responses are written in serve order); shed,
    oversize and EOF-mid-frame answers are the only reordering. *)

type config = {
  socket : string option;  (** Unix-domain listener path. *)
  tcp : int option;  (** Loopback TCP listener port. *)
  max_conns : int;  (** Accept cap; excess connections wait in the backlog. *)
  conn_queue : int;  (** Per-connection pending-request cap. *)
  idle_timeout_s : float;  (** Idle-connection close; 0 = never. *)
  read_timeout_s : float;  (** Partial-frame (stalled read) close; 0 = never. *)
  drain_timeout_s : float;  (** Shutdown drain bound. *)
  max_out_bytes : int;  (** Unread-response cap before disconnect. *)
}

val default : config
(** No listeners configured (serve stdin/stdout); [max_conns = 64], [conn_queue = 32],
    [idle_timeout_s = 300.], [read_timeout_s = 30.],
    [drain_timeout_s = 10.], [max_out_bytes = 8 MiB]. *)

val run : config -> Daemon.config -> int
(** Serve until a [shutdown] request has drained, or, with no listener
    configured, until stdin closes.  Returns the process exit code: 0
    on clean shutdown, 1 when startup fails — corrupt journal, failed
    replay, infeasible base system, or a listener that cannot bind. *)
