(* In-process layer profile for the perfbench workloads.

   Replays a workload's generated inputs inside one process and times
   the calls into each layer's public functions on the same inputs the
   daemon or the CLI sees, reading Rt_par.Perf, Rt_obs.Metrics and
   Gc.quick_stat around each call.  It adds nothing to the program.
   Prints one JSON object of per-layer figures on stdout.

     layers.exe daemon SPEC OPS DIR FIRST
       OPS is the jsonl request stream (one request per line); requests
       from index FIRST on, snapshots excepted, are the measured ones,
       the earlier ones only bring the engine to the same state.  DIR
       holds the journals.
     layers.exe offline MANIFEST
       MANIFEST (JSON, written by run.py) names the exact-solver specs,
       the plan and certificate set-up produced, the control spec and
       the replay horizons. *)

open Rt_core
module Metrics = Rt_obs.Metrics
module Perf = Rt_par.Perf
module Engine = Rt_daemon.Engine
module Protocol = Rt_daemon.Protocol
module Json = Rt_obs.Json

let now = Unix.gettimeofday
let read_file path = In_channel.with_open_bin path In_channel.input_all

let fail fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("layers: " ^ s);
      exit 1)
    fmt

let get = function Ok v -> v | Error e -> fail "%s" e

(* Samples per figure; the reported value is their median. *)
let samples : (string, float list) Hashtbl.t = Hashtbl.create 32
let recording = ref true

let add name v =
  if !recording then
    Hashtbl.replace samples name
      (v :: Option.value ~default:[] (Hashtbl.find_opt samples name))

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.0
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let timed_ms name f =
  let t0 = now () in
  let r = f () in
  add name ((now () -. t0) *. 1000.);
  r

let counter name = Metrics.value (Metrics.counter name)

(* ------------------------------------------------------------------ *)
(* Daemon workloads.                                                   *)
(* ------------------------------------------------------------------ *)

let insert_decl src decl =
  match String.rindex_opt src '}' with
  | None -> fail "printed model has no closing brace"
  | Some i ->
      String.sub src 0 i ^ "\n" ^ decl ^ "\n}"
      ^ String.sub src (i + 1) (String.length src - i - 1)

(* The stages of one admit or what-if, called one by one on the
   engine's current state and the request's declaration, in the order
   the engine runs them.  Returns the declared constraint's name. *)
let profile_candidate eng decl =
  let m = Engine.model eng in
  let name =
    match
      timed_ms "parser.decl_ms" (fun () ->
          Rt_spec.Parser.parse_result ("system \"d\" {\n" ^ decl ^ "\n}"))
    with
    | Ok { Rt_spec.Ast.sy_constraints = [ c ]; _ } -> c.Rt_spec.Ast.co_name
    | _ -> fail "declaration does not parse: %s" decl
  in
  let src = timed_ms "printer.print_ms" (fun () -> Rt_spec.Printer.print m) in
  (match
    timed_ms "elaborate.load_ms" (fun () ->
        Rt_spec.Elaborate.load (insert_decl src decl))
  with
  | Error _ -> () (* refused before elaboration matters; nothing to time *)
  | Ok m' -> (
      match timed_ms "admission.admit_ms" (fun () -> Admission.admit m') with
      | Admission.Impossible _ -> ()
      | _ ->
          ignore
            (timed_ms "canon.of_model_ms" (fun () -> Rt_daemon.Canon.of_model m'));
          let comps =
            timed_ms "decompose.components_ms" (fun () -> Decompose.components m')
          in
          (match Engine.schedule eng with
          | None -> ()
          | Some sched ->
              ignore
                (timed_ms "latency.verify_ms" (fun () -> Latency.verify m' sched)));
          (* The component the new constraint lands in, solved as the
             engine's component-local rung solves it. *)
          List.iter
            (fun (c : Decompose.component) ->
              if
                List.exists
                  (fun (t : Timing.t) -> t.Timing.name = name)
                  c.Decompose.constraints
              then
                let sub, _ = Decompose.representatives (Decompose.submodel m' c) in
                ignore
                  (timed_ms "synthesis.component_ms" (fun () ->
                       Synthesis.synthesize ~merge:false ~pipeline:false
                         ~exact_fallback:true sub)))
            comps));
  name

(* Certify, check and persist the resident (model, schedule) pair: the
   fail-closed step every committed mutation ends with. *)
let profile_certify eng =
  let m = Engine.model eng in
  match Engine.schedule eng with
  | None -> ()
  | Some sched -> (
      match timed_ms "certify.schedule_ms" (fun () -> Certify.schedule m sched) with
      | Error e -> fail "certify: %s" e
      | Ok cert ->
          (match
             timed_ms "checker.check_ms" (fun () -> Rt_check.Checker.check m cert)
           with
          | Ok () -> ()
          | Error e -> fail "checker: %s" (String.concat "; " e));
          ignore
            (timed_ms "persist.save_certificate_ms" (fun () ->
                 Rt_spec.Persist.save_certificate_string m cert)))

(* The record the engine journaled for the admit just served, appended
   (and fsynced) again to a scratch journal. *)
let profile_journal eng scratch scratch_path name decl =
  let m = Engine.model eng in
  let record =
    Rt_daemon.Journal.Admit
      {
        name;
        decl;
        digest = Rt_check.Certificate.digest_of_model m;
        schedule =
          (match Engine.schedule eng with
          | Some s -> Rt_base.Schedule.to_string m.Model.comm s
          | None -> "");
        cert = Engine.cert_digest eng;
      }
  in
  let b0 = (Unix.stat scratch_path).Unix.st_size in
  get (timed_ms "journal.append_ms" (fun () -> Rt_daemon.Journal.append scratch record));
  add "journal.record_bytes"
    (float_of_int ((Unix.stat scratch_path).Unix.st_size - b0))

let parse_request line =
  match Protocol.parse line with
  | Ok r -> r.Protocol.op
  | Error (_, e) -> fail "bad request %s: %s" line e

let engine_for dir name spec =
  let cfg =
    {
      Rt_daemon.Daemon.default_config with
      Rt_daemon.Daemon.journal = Filename.concat dir name;
      spec = Some spec;
    }
  in
  (cfg, fst (get (Rt_daemon.Daemon.create_engine cfg)))

let committed resp = Json.member "ok" (get (Json.parse resp)) = Some (Json.Bool true)

(* Pass 1 serves the requests exactly as the daemon does and times
   nothing else, so daemon.serve_line_ms compares with the socket
   latencies and the GC figures belong to serving alone. *)
(* Whether request [i] of the stream is a measured one. *)
let measured first i op = i >= first && op <> Protocol.Snapshot

let serve_pass dir spec ops first =
  let cfg, eng = engine_for dir "served.journal" spec in
  let started = now () in
  let admits = ref 0 and served = ref 0 and solves = ref 0 in
  let memo = ref 0 and warm = ref 0 in
  let minor = ref 0.0 and major = ref 0 in
  List.iteri
    (fun i line ->
      let op = parse_request line in
      recording := measured first i op;
      let s0 = Perf.value Perf.decompose_component_solves in
      let w0 = Perf.value Perf.windows_checked in
      let m0 = counter "daemon/memo_hits" and h0 = counter "daemon/warm_hits" in
      let g0 = Gc.quick_stat () in
      let resp =
        timed_ms "daemon.serve_line_ms" (fun () ->
            match Rt_daemon.Daemon.serve_line cfg eng ~started ~depth:0 line with
            | `Continue r | `Stop r -> r)
      in
      let g1 = Gc.quick_stat () in
      add "latency.windows_per_op"
        (float_of_int (Perf.value Perf.windows_checked - w0));
      if !recording then begin
        incr served;
        minor := !minor +. (g1.Gc.minor_words -. g0.Gc.minor_words);
        major := !major + (g1.Gc.major_collections - g0.Gc.major_collections);
        match op with
        | Protocol.Admit _ when committed resp ->
            incr admits;
            solves := !solves + Perf.value Perf.decompose_component_solves - s0;
            memo := !memo + counter "daemon/memo_hits" - m0;
            warm := !warm + counter "daemon/warm_hits" - h0
        | _ -> ()
      end)
    ops;
  recording := true;
  Engine.close eng;
  (* Restart: replay the journal (a snapshot plus the tail records). *)
  let journal = cfg.Rt_daemon.Daemon.journal in
  let records = List.length (get (Rt_daemon.Journal.load journal)) - 1 in
  let t0 = now () in
  Engine.close (get (Engine.create ~journal ()));
  let replay_ms = (now () -. t0) *. 1000. in
  let per_admit x = float_of_int x /. float_of_int (max 1 !admits) in
  let per_op x = x /. float_of_int (max 1 !served) in
  [
    ("engine.replay_ms_per_record", replay_ms /. float_of_int (max 1 records));
    ("engine.memo_hit_share", per_admit !memo);
    ("engine.warm_hit_share", per_admit !warm);
    ("decompose.solves_per_admit", per_admit !solves);
    ("gc.minor_words_per_op", per_op !minor);
    ("gc.major_collections_per_op", per_op (float_of_int !major));
    ("memo_hits", float_of_int !memo);
    ("admits", float_of_int !admits);
  ]

(* Pass 2 replays the same requests on a second engine and, around
   each one, calls the layers the engine would call on the same inputs. *)
let stage_pass dir spec ops first =
  let cfg, eng = engine_for dir "stages.journal" spec in
  let scratch_path = Filename.concat dir "scratch.journal" in
  let scratch = get (Rt_daemon.Journal.open_append scratch_path) in
  let started = now () in
  List.iteri
    (fun i line ->
      let op = parse_request line in
      recording := measured first i op;
      let name =
        match op with
        | Protocol.Admit decl | Protocol.What_if decl -> profile_candidate eng decl
        | _ -> ""
      in
      let resp =
        match Rt_daemon.Daemon.serve_line cfg eng ~started ~depth:0 line with
        | `Continue r | `Stop r -> r
      in
      match op with
      | Protocol.Admit decl when committed resp ->
          profile_certify eng;
          profile_journal eng scratch scratch_path name decl
      | Protocol.Retire _ when committed resp -> profile_certify eng
      | _ -> ())
    ops;
  recording := true;
  Rt_daemon.Journal.close scratch;
  Engine.close eng

let run_daemon spec_path ops_path dir first =
  let spec = read_file spec_path in
  let ops =
    String.split_on_char '\n' (read_file ops_path)
    |> List.filter (fun l -> String.trim l <> "")
  in
  let figures = serve_pass dir spec ops first in
  stage_pass dir spec ops first;
  figures

(* ------------------------------------------------------------------ *)
(* Offline pipeline: the engines and runtimes rtsyn's commands call.    *)
(* ------------------------------------------------------------------ *)

let load_model path =
  match Rt_spec.Elaborate.load (read_file path) with
  | Ok m -> m
  | Error e -> fail "%s: %s" path (String.concat "; " e)

let arrivals_for m ~horizon seed =
  let prng = Rt_graph.Prng.create seed in
  List.map
    (fun (c : Timing.t) ->
      ( c.Timing.name,
        Rt_sim.Arrivals.random prng ~horizon ~separation:c.Timing.period
          ~density:0.9 ))
    (Model.asynchronous m)

let run_offline manifest_path =
  let man = get (Json.parse (read_file manifest_path)) in
  let field k =
    match Json.member k man with Some v -> v | None -> fail "manifest: %s" k
  in
  let str k =
    match Json.to_string (field k) with Some s -> s | None -> fail "manifest: %s" k
  in
  let int k =
    match Json.to_float (field k) with
    | Some f -> int_of_float f
    | None -> fail "manifest: %s" k
  in
  let exact_specs =
    match Json.to_list (field "exact") with
    | Some xs ->
        List.map
          (fun x ->
            match Json.to_string x with Some s -> s | None -> fail "manifest: exact")
          xs
    | None -> fail "manifest: exact"
  in
  let infeasible = int "infeasible" in
  let verdicts_ok = ref true in
  let states = ref 0 and hits = ref 0 and misses = ref 0 in
  List.iteri
    (fun i path ->
      let m = load_model path in
      let s0 = Perf.value Perf.game_states in
      let h0 = Perf.value Perf.table_hits and x0 = Perf.value Perf.table_misses in
      let stats =
        timed_ms "exact.solve_ms" (fun () ->
            Exact.solve_single_ops ~max_states:500_000 m)
      in
      states := !states + Perf.value Perf.game_states - s0;
      hits := !hits + Perf.value Perf.table_hits - h0;
      misses := !misses + Perf.value Perf.table_misses - x0;
      let want_infeasible = i < infeasible in
      match stats.Exact.outcome with
      | Exact.Infeasible when want_infeasible -> ()
      | Exact.Feasible _ when not want_infeasible -> ()
      | _ -> verdicts_ok := false)
    exact_specs;
  (* replay: the plan set-up persisted, re-verified on load. *)
  let m, sched =
    match
      timed_ms "persist.load_plan_ms" (fun () -> Rt_spec.Persist.load_file (str "plan"))
    with
    | Ok p -> p
    | Error e -> fail "plan: %s" e
  in
  let horizon = int "replay_horizon" in
  for seed = 1 to 3 do
    let arrivals = arrivals_for m ~horizon seed in
    ignore
      (timed_ms "runtime.run_ms" (fun () ->
           Rt_sim.Runtime.run m sched ~horizon ~arrivals))
  done;
  for _ = 1 to 3 do
    match
      timed_ms "persist.load_certificate_ms" (fun () ->
          Rt_spec.Persist.load_certificate_file (str "cert"))
    with
    | Ok _ -> ()
    | Error e -> fail "certificate: %s" e
  done;
  (* faultsim: the nominal mode of the control system, no faults. *)
  let control = load_model (str "control") in
  let derivation = { Modes.stretch = 2; max_hyperperiod = 1_000_000 } in
  let modes =
    match Modes.derive ~derivation control [] with
    | Ok ms -> ms
    | Error e -> fail "modes: %s" e
  in
  let horizon = int "faultsim_horizon" in
  for seed = 1 to 3 do
    let arrivals = arrivals_for control ~horizon seed in
    ignore
      (timed_ms "robust_runtime.run_ms" (fun () ->
           Rt_sim.Robust_runtime.run ~horizon ~arrivals modes))
  done;
  (* distsim: two processors, failover table, no crashes. *)
  let nominal =
    match Rt_multiproc.Msched.synthesize ~n_procs:2 control with
    | Ok r -> r
    | Error e -> fail "msched: %s" e
  in
  let detect_bound = Rt_sim.Heartbeat.detection_bound Rt_sim.Heartbeat.default in
  let table =
    match
      Rt_multiproc.Contingency.synthesize ~derivation ~detect_bound control nominal
    with
    | Ok t -> t
    | Error e -> fail "contingency: %s" e
  in
  let horizon = int "distsim_horizon" in
  for _ = 1 to 3 do
    ignore
      (timed_ms "dist_runtime.run_ms" (fun () ->
           Rt_sim.Dist_runtime.run ~horizon control table))
  done;
  Hashtbl.remove samples "persist.load_plan_ms";
  let solves = float_of_int (max 1 (List.length exact_specs)) in
  [
    ("game.states_per_solve", float_of_int !states /. solves);
    ( "game.table_hit_share",
      float_of_int !hits /. float_of_int (max 1 (!hits + !misses)) );
    ("verdicts_ok", if !verdicts_ok then 1.0 else 0.0);
  ]

let () =
  let extra =
    match List.tl (Array.to_list Sys.argv) with
    | [ "daemon"; spec; ops; dir; first ] ->
        run_daemon spec ops dir (int_of_string first)
    | [ "offline"; manifest ] -> run_offline manifest
    | _ ->
        fail "usage: layers.exe daemon SPEC OPS DIR FIRST | offline MANIFEST"
  in
  let medians =
    Hashtbl.fold (fun k xs acc -> (k, median xs) :: acc) samples []
  in
  let fields =
    List.map (fun (k, v) -> Printf.sprintf "%S: %.17g" k v) (medians @ extra)
  in
  print_endline ("{" ^ String.concat ", " fields ^ "}")
