type config = {
  socket : string option;
  tcp : int option;
  max_conns : int;
  conn_queue : int;
  idle_timeout_s : float;
  read_timeout_s : float;
  drain_timeout_s : float;
  max_out_bytes : int;
}

let default =
  {
    socket = None;
    tcp = None;
    max_conns = 64;
    conn_queue = 32;
    idle_timeout_s = 300.;
    read_timeout_s = 30.;
    drain_timeout_s = 10.;
    max_out_bytes = 8 * 1024 * 1024;
  }

let conn_opened_ctr = Rt_obs.Metrics.counter "daemon/conn_opened"
let conn_closed_ctr = Rt_obs.Metrics.counter "daemon/conn_closed"
let conn_active_gauge = Rt_obs.Metrics.gauge "daemon/conn_active"
let conn_timeout_ctr = Rt_obs.Metrics.counter "daemon/conn_timeouts"
let conn_request_us = Rt_obs.Metrics.histogram "daemon/conn_request_us"
let depth_gauge = Rt_obs.Metrics.gauge "daemon/queue_depth"
let overloaded_ctr = Rt_obs.Metrics.counter "daemon/overloaded"
let shed_ctr = Rt_obs.Metrics.counter "daemon/shed"
let oversize_ctr = Rt_obs.Metrics.counter "daemon/frame_oversize"

(* ------------------------------------------------------------------ *)
(* Answers the loop gives without consulting the engine.               *)
(* ------------------------------------------------------------------ *)

let overloaded_response (dcfg : Daemon.config) ~depth line =
  Rt_obs.Metrics.incr overloaded_ctr;
  Rt_obs.Metrics.incr shed_ctr;
  Protocol.error
    ~id:(Protocol.parse_request_id line)
    ~kind:"overloaded"
    ~retry_after_ms:(max 100 (depth * max 1 dcfg.default_budget_ms))
    (Printf.sprintf "queue full (%d pending)" depth)

let oversize_response (dcfg : Daemon.config) dropped =
  Rt_obs.Metrics.incr oversize_ctr;
  Protocol.error ~id:"" ~kind:"oversize"
    (Printf.sprintf "frame of %d bytes exceeds max-frame %d (dropped)" dropped
       dcfg.max_frame)

let eof_mid_frame_response origin pending =
  Protocol.error ~id:"" ~kind:"parse"
    (Printf.sprintf "%s closed mid-frame (%d bytes discarded)" origin pending)

(* ------------------------------------------------------------------ *)
(* Connections.                                                        *)
(* ------------------------------------------------------------------ *)

type conn = {
  fd : Unix.file_descr;  (* read side *)
  out : Unix.file_descr;  (* write side: [fd] itself, or stdout *)
  stdio : bool;
      (* The stdin/stdout session: its descriptors are inherited, so
         they stay blocking and open; only the global queue cap applies
         to it, and no timeout closes it. *)
  framer : Framing.t;
  reqs : (string * float) Queue.t;  (* raw line, enqueue time *)
  outq : string Queue.t;  (* rendered responses awaiting write *)
  mutable sent : int;  (* bytes of [Queue.peek outq] already written *)
  mutable out_bytes : int;
  mutable last_read : float;
  mutable partial_since : float;  (* -1. when on a frame boundary *)
  mutable eof : bool;  (* half-closed: drain reqs, flush, then close *)
  mutable dead : bool;
}

let make_conn ?(stdio = false) ~max_frame ~out fd now =
  {
    fd;
    out;
    stdio;
    framer = Framing.create ~max_frame;
    reqs = Queue.create ();
    outq = Queue.create ();
    sent = 0;
    out_bytes = 0;
    last_read = now;
    partial_since = -1.;
    eof = false;
    dead = false;
  }

let out_add c s =
  let line = s ^ "\n" in
  Queue.add line c.outq;
  c.out_bytes <- c.out_bytes + String.length line

(* Write as much as the kernel will take right now (all of it, on the
   blocking stdout).  [`Closed] means the peer is gone (EPIPE/reset)
   and the connection must be reaped. *)
let flush_out c =
  try
    let blocked = ref false in
    while (not !blocked) && not (Queue.is_empty c.outq) do
      let s = Queue.peek c.outq in
      let len = String.length s - c.sent in
      let n = Unix.write_substring c.out s c.sent len in
      c.out_bytes <- c.out_bytes - n;
      if n = len then begin
        ignore (Queue.pop c.outq);
        c.sent <- 0
      end
      else begin
        c.sent <- c.sent + n;
        blocked := true
      end
    done;
    `Ok
  with
  | Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> `Ok
  | Unix.Unix_error _ -> `Closed

(* ------------------------------------------------------------------ *)
(* Listeners.                                                          *)
(* ------------------------------------------------------------------ *)

let listen_unix path =
  (* A stale socket file from a crashed run would fail the bind; only a
     socket is ever silently replaced. *)
  (match Unix.stat path with
  | { Unix.st_kind = Unix.S_SOCK; _ } -> ( try Unix.unlink path with _ -> ())
  | _ -> ()
  | exception Unix.Unix_error _ -> ());
  let fd = Unix.socket PF_UNIX SOCK_STREAM 0 in
  try
    Unix.set_nonblock fd;
    Unix.bind fd (ADDR_UNIX path);
    Unix.listen fd 128;
    Ok fd
  with Unix.Unix_error (e, _, _) ->
    (try Unix.close fd with _ -> ());
    Error (Printf.sprintf "cannot listen on %s: %s" path (Unix.error_message e))

let listen_tcp port =
  let fd = Unix.socket PF_INET SOCK_STREAM 0 in
  try
    Unix.set_nonblock fd;
    Unix.setsockopt fd Unix.SO_REUSEADDR true;
    Unix.bind fd (ADDR_INET (Unix.inet_addr_loopback, port));
    Unix.listen fd 128;
    Ok fd
  with Unix.Unix_error (e, _, _) ->
    (try Unix.close fd with _ -> ());
    Error
      (Printf.sprintf "cannot listen on 127.0.0.1:%d: %s" port
         (Unix.error_message e))

(* ------------------------------------------------------------------ *)
(* The event loop.                                                     *)
(* ------------------------------------------------------------------ *)

let run tcfg dcfg =
  (match Sys.os_type with
  | "Unix" -> Sys.set_signal Sys.sigpipe Sys.Signal_ignore
  | _ -> ());
  let listeners_r =
    let add acc mk =
      Result.bind acc (fun fds -> Result.map (fun fd -> fd :: fds) (mk ()))
    in
    let acc =
      match tcfg.socket with
      | None -> Ok []
      | Some p -> add (Ok []) (fun () -> listen_unix p)
    in
    match tcfg.tcp with None -> acc | Some p -> add acc (fun () -> listen_tcp p)
  in
  match listeners_r with
  | Error e ->
      prerr_endline ("rtsynd: " ^ e);
      1
  | Ok listeners -> (
      let cleanup_listeners () =
        List.iter (fun fd -> try Unix.close fd with _ -> ()) listeners;
        match tcfg.socket with
        | Some p -> ( try Unix.unlink p with _ -> ())
        | None -> ()
      in
      match Daemon.create_engine dcfg with
      | Error e ->
          prerr_endline ("rtsynd: " ^ e);
          cleanup_listeners ();
          1
      | Ok (engine, pool) ->
          let started = Unix.gettimeofday () in
          let conns : (Unix.file_descr, conn) Hashtbl.t = Hashtbl.create 64 in
          let rr : conn Queue.t = Queue.create () in
          let total_pending = ref 0 in
          let draining = ref false in
          let drain_deadline = ref infinity in
          let listening = ref true in
          let chunk = Bytes.create 65536 in
          let all_conns () = Hashtbl.fold (fun _ c acc -> c :: acc) conns [] in
          let open_conn ?stdio ~out fd now =
            let c =
              make_conn ?stdio ~max_frame:dcfg.Daemon.max_frame ~out fd now
            in
            Hashtbl.replace conns fd c;
            Queue.add c rr;
            Rt_obs.Metrics.incr conn_opened_ctr;
            Rt_obs.Metrics.set conn_active_gauge (Hashtbl.length conns)
          in
          let close_conn ?(timeout = false) c =
            if not c.dead then begin
              c.dead <- true;
              (* Responses for requests that can never be delivered are
                 dropped with the connection. *)
              total_pending := !total_pending - Queue.length c.reqs;
              Queue.clear c.reqs;
              Hashtbl.remove conns c.fd;
              if not c.stdio then (try Unix.close c.fd with _ -> ());
              Rt_obs.Metrics.incr conn_closed_ctr;
              if timeout then Rt_obs.Metrics.incr conn_timeout_ctr;
              Rt_obs.Metrics.set conn_active_gauge (Hashtbl.length conns)
            end
          in
          let flush_conn c =
            match flush_out c with `Ok -> () | `Closed -> close_conn c
          in
          let accept_on lfd now =
            let continue = ref true in
            while !continue do
              match Unix.accept ~cloexec:true lfd with
              | cfd, _ ->
                  Unix.set_nonblock cfd;
                  (try Unix.setsockopt cfd Unix.TCP_NODELAY true
                   with Unix.Unix_error _ -> ());
                  open_conn ~out:cfd cfd now
              | exception
                  Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) ->
                  continue := false
              | exception Unix.Unix_error (_, _, _) -> continue := false
            done
          in
          let enqueue c now ev =
            match ev with
            | Framing.Oversized dropped ->
                out_add c (oversize_response dcfg dropped)
            | Framing.Line line ->
                if String.trim line = "" then ()
                else if
                  ((not c.stdio) && Queue.length c.reqs >= tcfg.conn_queue)
                  || !total_pending >= dcfg.Daemon.max_queue
                then
                  (* Backpressure: bounce the newest request now, with a
                     retry hint, rather than queueing without bound. *)
                  out_add c (overloaded_response dcfg ~depth:!total_pending line)
                else begin
                  Queue.add (line, now) c.reqs;
                  incr total_pending
                end
          in
          (* One read per readiness: [select] said it will not block,
             and a second read on the blocking stdin could. *)
          let read_conn c now =
            match Unix.read c.fd chunk 0 (Bytes.length chunk) with
            | 0 -> (
                c.eof <- true;
                c.last_read <- now;
                match Framing.finish c.framer with
                | `Clean -> ()
                | `Partial n ->
                    out_add c
                      (eof_mid_frame_response
                         (if c.stdio then "stdin" else "connection")
                         n))
            | n ->
                c.last_read <- now;
                List.iter (enqueue c now)
                  (Framing.feed c.framer (Bytes.sub_string chunk 0 n));
                c.partial_since <-
                  (if Framing.pending c.framer = 0 then -1.
                   else if c.partial_since < 0. then now
                   else c.partial_since)
            | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _)
              ->
                ()
            | exception Unix.Unix_error (_, _, _) ->
                (* Hard error: the peer is gone; queued requests were
                   never acknowledged and are dropped with it. *)
                close_conn c
          in
          (* Round-robin fairness: rotate the ring, serve the first
             connection holding a queued request. *)
          let pick_next () =
            let rec go k =
              if k = 0 then None
              else
                match Queue.take_opt rr with
                | None -> None
                | Some c when c.dead -> go (k - 1)
                | Some c ->
                    Queue.add c rr;
                    if Queue.is_empty c.reqs then go (k - 1) else Some c
            in
            go (Queue.length rr)
          in
          let serve_one () =
            match pick_next () with
            | None -> ()
            | Some c ->
                let line, enq_t = Queue.pop c.reqs in
                decr total_pending;
                let depth = !total_pending in
                Rt_obs.Metrics.set depth_gauge depth;
                (match Daemon.serve_line dcfg engine ~started ~depth line with
                | `Continue r -> out_add c r
                | `Stop r ->
                    out_add c r;
                    draining := true;
                    drain_deadline :=
                      Unix.gettimeofday () +. tcfg.drain_timeout_s;
                    if !listening then begin
                      listening := false;
                      List.iter
                        (fun fd -> try Unix.close fd with _ -> ())
                        listeners
                    end);
                Rt_obs.Metrics.observe conn_request_us
                  (int_of_float ((Unix.gettimeofday () -. enq_t) *. 1e6));
                flush_conn c
          in
          let check_timeouts now =
            List.iter
              (fun c ->
                if not (c.dead || c.stdio) then begin
                  if
                    tcfg.read_timeout_s > 0. && c.partial_since >= 0.
                    && now -. c.partial_since > tcfg.read_timeout_s
                  then begin
                    out_add c
                      (Protocol.error ~id:"" ~kind:"timeout"
                         (Printf.sprintf
                            "read timed out mid-frame after %.0fs"
                            tcfg.read_timeout_s));
                    ignore (flush_out c);
                    close_conn ~timeout:true c
                  end
                  else if
                    tcfg.idle_timeout_s > 0.
                    && Queue.is_empty c.reqs
                    && Queue.is_empty c.outq
                    && (not c.eof)
                    && now -. c.last_read > tcfg.idle_timeout_s
                  then close_conn ~timeout:true c
                  else if c.out_bytes > tcfg.max_out_bytes then
                    (* Slow consumer: it is not reading its answers; cut
                       it loose rather than buffer without bound. *)
                    close_conn ~timeout:true c
                end)
              (all_conns ())
          in
          (* With no listener, stdin/stdout is the one connection, and
             the loop ends when it closes. *)
          let stdio = listeners = [] in
          if stdio then open_conn ~stdio ~out:Unix.stdout Unix.stdin started;
          let last_timeout_check = ref 0. in
          let running = ref true in
          while !running do
            let now = Unix.gettimeofday () in
            let flushed =
              Hashtbl.fold (fun _ c acc -> acc && Queue.is_empty c.outq) conns
                true
            in
            if
              (!draining
              && ((!total_pending = 0 && flushed) || now > !drain_deadline))
              || (stdio && Hashtbl.length conns = 0)
            then running := false
            else begin
              let reads =
                (if !listening && Hashtbl.length conns < tcfg.max_conns then
                   listeners
                 else [])
                @ (if !draining then []
                   else
                     Hashtbl.fold
                       (fun fd c acc ->
                         if (not c.eof) && not c.dead then fd :: acc else acc)
                       conns [])
              in
              let writes =
                Hashtbl.fold
                  (fun _ c acc ->
                    if (not c.dead) && not (Queue.is_empty c.outq) then
                      c.out :: acc
                    else acc)
                  conns []
              in
              let timeout =
                if !total_pending > 0 then 0.0
                else if !draining then 0.05
                else 0.25
              in
              let rd, wr =
                match Unix.select reads writes [] timeout with
                | rd, wr, _ -> (rd, wr)
                | exception Unix.Unix_error (EINTR, _, _) -> ([], [])
                | exception Unix.Unix_error (EBADF, _, _) -> ([], [])
              in
              let now = Unix.gettimeofday () in
              List.iter
                (fun fd ->
                  if List.memq fd listeners then accept_on fd now
                  else
                    match Hashtbl.find_opt conns fd with
                    | Some c -> read_conn c now
                    | None -> ())
                rd;
              serve_one ();
              if wr <> [] then
                List.iter
                  (fun c -> if List.mem c.out wr then flush_conn c)
                  (all_conns ());
              (* A half-closed connection is done once its queue is
                 served and its answers are on the wire. *)
              List.iter
                (fun c ->
                  if
                    (not c.dead) && c.eof
                    && Queue.is_empty c.reqs
                    && Queue.is_empty c.outq
                  then close_conn c)
                (all_conns ());
              if now -. !last_timeout_check > 1.0 then begin
                last_timeout_check := now;
                check_timeouts now
              end
            end
          done;
          List.iter (fun c -> close_conn c) (all_conns ());
          if !listening then cleanup_listeners ()
          else (
            match tcfg.socket with
            | Some p -> ( try Unix.unlink p with _ -> ())
            | None -> ());
          Engine.close engine;
          Option.iter Rt_par.Pool.shutdown pool;
          0)
