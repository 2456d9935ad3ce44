(* rtsynd — the resident admission/synthesis daemon.

   Speaks the versioned jsonl protocol of Rt_daemon.Protocol through one
   event loop (Rt_daemon.Transport): to clients of --socket / --tcp, or,
   with neither, to stdin/stdout as its one connection.  Every state
   mutation is journaled (write-ahead, fsynced) before it is
   acknowledged, so kill -9 + restart replays to the digest-verified
   pre-crash certified state.  See docs/DAEMON.md. *)

open Cmdliner

let read_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | s -> Ok s
  | exception Sys_error e -> Error e

let run spec journal max_queue max_frame degrade_heuristic degrade_analytic
    budget_ms fuel jobs socket tcp max_conns conn_queue idle_timeout_s =
  let cfg =
    {
      Rt_daemon.Daemon.journal;
      spec = None;
      max_queue;
      max_frame;
      degrade_heuristic;
      degrade_analytic;
      default_budget_ms = budget_ms;
      default_fuel = fuel;
      jobs;
    }
  in
  let serve cfg =
    Rt_daemon.Transport.run
      {
        Rt_daemon.Transport.default with
        Rt_daemon.Transport.socket;
        tcp;
        max_conns;
        conn_queue;
        idle_timeout_s;
      }
      cfg
  in
  match spec with
  | None -> serve cfg
  | Some path -> (
      match read_file path with
      | Error e ->
          prerr_endline ("rtsynd: " ^ e);
          1
      | Ok src -> serve { cfg with Rt_daemon.Daemon.spec = Some src })

let spec_arg =
  let doc =
    "Base system specification (elements, edges, optional initial \
     constraints).  Required on a fresh start; ignored when the journal \
     already holds an init record."
  in
  Arg.(value & opt (some file) None & info [ "spec" ] ~docv:"FILE" ~doc)

let journal_arg =
  let doc = "Write-ahead journal path (created if missing)." in
  Arg.(
    value
    & opt string Rt_daemon.Daemon.default_config.Rt_daemon.Daemon.journal
    & info [ "journal" ] ~docv:"FILE" ~doc)

let max_queue_arg =
  let doc =
    "Pending requests across all connections (stdin included); requests \
     beyond this depth are shed with an $(i,overloaded) response."
  in
  Arg.(value & opt int 64 & info [ "max-queue" ] ~docv:"N" ~doc)

let max_frame_arg =
  let doc =
    "Per-frame (request line) byte limit on every transport; an oversized \
     frame is dropped with a structured $(i,oversize) error and the stream \
     resynchronizes at the next newline."
  in
  Arg.(
    value
    & opt int Rt_daemon.Daemon.default_config.Rt_daemon.Daemon.max_frame
    & info [ "max-frame" ] ~docv:"BYTES" ~doc)

let socket_arg =
  let doc =
    "Serve the jsonl protocol to many concurrent clients over a Unix-domain \
     socket at $(docv) instead of stdin/stdout.  May be combined with \
     $(b,--tcp)."
  in
  Arg.(value & opt (some string) None & info [ "socket" ] ~docv:"PATH" ~doc)

let tcp_arg =
  let doc =
    "Additionally (or instead) listen on 127.0.0.1:$(docv) for concurrent \
     clients."
  in
  Arg.(value & opt (some int) None & info [ "tcp" ] ~docv:"PORT" ~doc)

let max_conns_arg =
  let doc =
    "Concurrent-connection cap in socket mode; excess connections wait in \
     the listen backlog."
  in
  Arg.(
    value
    & opt int Rt_daemon.Transport.default.Rt_daemon.Transport.max_conns
    & info [ "max-conns" ] ~docv:"N" ~doc)

let conn_queue_arg =
  let doc =
    "Per-connection pending-request cap in socket mode (stdin has only the \
     $(b,--max-queue) cap); beyond it the newest request from that \
     connection is shed with an $(i,overloaded) response."
  in
  Arg.(
    value
    & opt int Rt_daemon.Transport.default.Rt_daemon.Transport.conn_queue
    & info [ "conn-queue" ] ~docv:"N" ~doc)

let idle_timeout_arg =
  let doc =
    "Close socket connections idle for more than $(docv) seconds (0 = \
     never).  Stdin is never closed for idleness."
  in
  Arg.(
    value
    & opt float Rt_daemon.Transport.default.Rt_daemon.Transport.idle_timeout_s
    & info [ "idle-timeout-s" ] ~docv:"S" ~doc)

let degrade_heuristic_arg =
  let doc =
    "Queue depth at which the exact game-engine rescue is dropped from \
     admits (first degradation step)."
  in
  Arg.(value & opt int 8 & info [ "degrade-heuristic" ] ~docv:"N" ~doc)

let degrade_analytic_arg =
  let doc =
    "Queue depth at which admits are answered from the analytic admission \
     tests alone, without committing (second degradation step)."
  in
  Arg.(value & opt int 24 & info [ "degrade-analytic" ] ~docv:"N" ~doc)

let budget_ms_arg =
  let doc =
    "Default per-request wall-clock budget in milliseconds (0 = unlimited; \
     requests may override with $(i,budget_ms))."
  in
  Arg.(value & opt int 2000 & info [ "budget-ms" ] ~docv:"MS" ~doc)

let fuel_arg =
  let doc =
    "Default per-request fuel (state expansions; 0 = unlimited; requests \
     may override with $(i,fuel))."
  in
  Arg.(value & opt int 2_000_000 & info [ "fuel" ] ~docv:"N" ~doc)

let jobs_arg =
  let doc = "Domain-pool lanes for synthesis (1 = sequential)." in
  Arg.(value & opt int 1 & info [ "jobs"; "j" ] ~docv:"N" ~doc)

let cmd =
  let doc = "resident admission daemon for graph-based real-time models" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "$(tname) keeps a graph-based model, its certified schedule and the \
         exact engine's learned state resident, and serves admit / retire / \
         what-if / reverify / stats / snapshot / shutdown requests as one \
         JSON object per line.  One event loop serves them: with \
         $(b,--socket) / $(b,--tcp), to many concurrent clients at once \
         (round-robin fairness, per-connection and global backpressure, \
         idle/read timeouts); with neither, to stdin/stdout as its one \
         connection.  Mutations stay serialized through the journal.  A \
         $(i,shutdown) request drains: requests already queued are \
         answered before the process exits.";
      `P
        "Every acknowledged mutation has passed the trusted certificate \
         checker and been fsynced to the write-ahead journal first; restart \
         replays the journal and re-verifies every digest.  Overload sheds \
         deterministically and degrades exact $(b,->) heuristic $(b,->) \
         analytic as queue depth grows.";
      `S Manpage.s_exit_status;
      `P
        "0 on clean shutdown: stdin closed (once its queued requests are \
         answered) or a $(i,shutdown) request drained;";
      `P
        "1 when startup fails: corrupt journal, digest mismatch on replay, \
         or an infeasible base system;";
      `P "124 on usage errors (cmdliner).";
    ]
  in
  Cmd.v
    (Cmd.info "rtsynd" ~version:"1.0.0" ~doc ~man)
    Term.(
      const run $ spec_arg $ journal_arg $ max_queue_arg $ max_frame_arg
      $ degrade_heuristic_arg $ degrade_analytic_arg $ budget_ms_arg
      $ fuel_arg $ jobs_arg $ socket_arg $ tcp_arg $ max_conns_arg
      $ conn_queue_arg $ idle_timeout_arg)

let () = exit (Cmd.eval' cmd)
