open Rt_core

type config = {
  journal : string;
  spec : string option;
  max_queue : int;
  max_frame : int;
  degrade_heuristic : int;
  degrade_analytic : int;
  default_budget_ms : int;
  default_fuel : int;
  jobs : int;
}

let default_config =
  {
    journal = "rtsynd.journal";
    spec = None;
    max_queue = 64;
    max_frame = 262_144;
    degrade_heuristic = 8;
    degrade_analytic = 24;
    default_budget_ms = 2000;
    default_fuel = 2_000_000;
    jobs = 1;
  }

let requests_ctr = Rt_obs.Metrics.counter "daemon/requests"
let degraded_ctr = Rt_obs.Metrics.counter "daemon/degraded"
let request_us = Rt_obs.Metrics.histogram "daemon/request_us"
let admit_us = Rt_obs.Metrics.histogram "daemon/admit_us"

let mk_budget cfg (req : Protocol.request) =
  let ms = Option.value ~default:cfg.default_budget_ms req.budget_ms in
  let fuel = Option.value ~default:cfg.default_fuel req.fuel in
  if ms <= 0 && fuel <= 0 then None
  else
    Some
      (Budget.create
         ?wall_s:(if ms > 0 then Some (float_of_int ms /. 1000.) else None)
         ?fuel:(if fuel > 0 then Some fuel else None)
         ())

let level_for cfg depth =
  if depth >= cfg.degrade_analytic then Engine.Analytic
  else if depth >= cfg.degrade_heuristic then Engine.Heuristic
  else Engine.Full

let level_name = function
  | Engine.Full -> "full"
  | Engine.Heuristic -> "heuristic"
  | Engine.Analytic -> "analytic"

let outcome_response ~id ~level (o : Engine.outcome) =
  match o with
  | Engine.Admitted { path; verdict } ->
      Protocol.ok ~id
        [
          ("path", Protocol.S path);
          ("verdict", Protocol.S verdict);
          ("level", Protocol.S (level_name level));
        ]
  | Engine.Analytic_only { verdict } ->
      Protocol.ok ~id
        [
          ("path", Protocol.S "analytic");
          ("verdict", Protocol.S verdict);
          ("level", Protocol.S (level_name level));
          ("committed", Protocol.B false);
        ]
  | Engine.Rejected diags ->
      Protocol.error ~id ~kind:"rejected" (String.concat "; " diags)
  | Engine.Timed_out reason -> Protocol.error ~id ~kind:"timeout" reason
  | Engine.Check_failed diags ->
      Protocol.error ~id ~kind:"check-failed"
        ("trusted checker rejected the result (rolled back): "
        ^ String.concat "; " diags)
  | Engine.Journal_failed e ->
      Protocol.error ~id ~kind:"internal" ("journal append failed: " ^ e)

let stats_response engine ~id ~depth ~started =
  let c name = Rt_obs.Metrics.value (Rt_obs.Metrics.counter name) in
  let g name = Rt_obs.Metrics.gauge_value (Rt_obs.Metrics.gauge name) in
  let h name =
    let hist = Rt_obs.Metrics.histogram name in
    let q p = Option.value ~default:0 (Rt_obs.Metrics.quantile hist p) in
    Printf.sprintf "{\"count\":%d,\"p50\":%d,\"p95\":%d,\"p99\":%d}"
      (Rt_obs.Metrics.h_count hist) (q 0.5) (q 0.95) (q 0.99)
  in
  let m = Engine.model engine in
  Protocol.ok ~id
    [
      ("uptime_s", Protocol.F (Unix.gettimeofday () -. started));
      ("queue_depth", Protocol.I depth);
      ("constraints", Protocol.I (List.length m.Model.constraints));
      ("digest", Protocol.S (Rt_check.Certificate.digest_of_model m));
      ("cert", Protocol.S (Engine.cert_digest engine));
      ("memo_size", Protocol.I (Engine.memo_size engine));
      ("resident_tables", Protocol.I (Engine.resident_tables engine));
      ("requests", Protocol.I (c "daemon/requests"));
      ("admits_ok", Protocol.I (c "daemon/admits_ok"));
      ("admits_rejected", Protocol.I (c "daemon/admits_rejected"));
      ("timeouts", Protocol.I (c "daemon/timeouts"));
      ("overloaded", Protocol.I (c "daemon/overloaded"));
      ("shed", Protocol.I (c "daemon/shed"));
      ("frames_oversized", Protocol.I (c "daemon/frame_oversize"));
      ("degraded", Protocol.I (c "daemon/degraded"));
      ("memo_hits", Protocol.I (c "daemon/memo_hits"));
      ("memo_misses", Protocol.I (c "daemon/memo_misses"));
      ("warm_hits", Protocol.I (c "daemon/warm_hits"));
      ("check_failures", Protocol.I (c "daemon/check_failures"));
      ("check_witnesses", Protocol.I (Rt_check.Checker.witness_checks ()));
      ("journal_records", Protocol.I (c "daemon/journal_records"));
      ("replayed_records", Protocol.I (c "daemon/replayed_records"));
      ("conn_opened", Protocol.I (c "daemon/conn_opened"));
      ("conn_closed", Protocol.I (c "daemon/conn_closed"));
      ("conn_active", Protocol.I (g "daemon/conn_active"));
      ("conn_timeouts", Protocol.I (c "daemon/conn_timeouts"));
      ("request_us", Protocol.Raw (h "daemon/request_us"));
      ("admit_us", Protocol.Raw (h "daemon/admit_us"));
      ("solve_us", Protocol.Raw (h "daemon/solve_us"));
      ("check_us", Protocol.Raw (h "daemon/check_us"));
      ("conn_request_us", Protocol.Raw (h "daemon/conn_request_us"));
      ( "stages",
        Protocol.Raw
          ("{"
          ^ String.concat ","
              (List.map
                 (fun name ->
                   Printf.sprintf "\"%s\":%s" name
                     (h ("daemon/stage/" ^ name ^ "_us")))
                 Engine.stages)
          ^ "}") );
    ]

let dispatch cfg engine ~started ~depth line =
  match Protocol.parse line with
  | Error (kind, msg) ->
      `Continue (Protocol.error ~id:(Protocol.parse_request_id line) ~kind msg)
  | Ok req -> (
      let id = req.Protocol.id in
      let level = level_for cfg depth in
      if level <> Engine.Full then Rt_obs.Metrics.incr degraded_ctr;
      match req.Protocol.op with
      | Protocol.Admit decl ->
          let budget = mk_budget cfg req in
          let o =
            Rt_obs.Metrics.time admit_us (fun () ->
                Engine.admit ?budget ~level engine decl)
          in
          `Continue (outcome_response ~id ~level o)
      | Protocol.What_if decl ->
          let budget = mk_budget cfg req in
          `Continue
            (outcome_response ~id ~level
               (Engine.what_if ?budget ~level engine decl))
      | Protocol.Retire name ->
          `Continue (outcome_response ~id ~level (Engine.retire engine name))
      | Protocol.Reverify -> (
          match Engine.reverify engine with
          | Ok digest ->
              `Continue (Protocol.ok ~id [ ("digest", Protocol.S digest) ])
          | Error diags ->
              `Continue
                (Protocol.error ~id ~kind:"check-failed"
                   (String.concat "; " diags)))
      | Protocol.Stats -> `Continue (stats_response engine ~id ~depth ~started)
      | Protocol.Snapshot -> (
          match Engine.snapshot engine with
          | Ok (spec, digest) ->
              `Continue
                (Protocol.ok ~id
                   [ ("digest", Protocol.S digest); ("spec", Protocol.S spec) ])
          | Error e -> `Continue (Protocol.error ~id ~kind:"internal" e))
      | Protocol.Shutdown ->
          `Stop (Protocol.ok ~id [ ("bye", Protocol.B true) ]))

let serve_line cfg engine ~started ~depth line =
  Rt_obs.Metrics.incr requests_ctr;
  Rt_obs.Metrics.time request_us @@ fun () ->
  (* The engine applies a mutation only after it is journaled, which
     is the last step of an answer: a request that raises has touched
     no resident state, so it is answered and the daemon serves on. *)
  try dispatch cfg engine ~started ~depth line
  with e ->
    `Continue
      (Protocol.error
         ~id:(Protocol.parse_request_id line)
         ~kind:"internal"
         ("uncaught exception: " ^ Printexc.to_string e))

let create_engine cfg =
  let pool =
    if cfg.jobs > 1 then Some (Rt_par.Pool.create ~jobs:cfg.jobs ()) else None
  in
  let startup_budget =
    if cfg.default_budget_ms > 0 then
      Some
        (Budget.create
           ~wall_s:(float_of_int (cfg.default_budget_ms * 10) /. 1000.)
           ())
    else None
  in
  match
    Engine.create ?pool ?startup_budget ~journal:cfg.journal ?spec:cfg.spec ()
  with
  | Error e ->
      Option.iter Rt_par.Pool.shutdown pool;
      Error e
  | Ok engine -> Ok (engine, pool)
