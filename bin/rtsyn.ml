(* rtsyn: command-line front end for the graph-based synthesis library.

   Subcommands:
     check      parse and validate a specification (or check a certificate)
     synth      synthesize, verify and certify a static schedule
     analyze    latency/response report for a user-supplied schedule
     simulate   replay a synthesized schedule against random arrivals
     faultsim   replay under injected timing faults with recovery
     distsim    multiprocessor replay under crashes and bus faults
     dot        Graphviz export
     multiproc  partition across processors and schedule the bus
     example    print example specifications (control system, E3 family)

   Exit codes (uniform across subcommands):
     0  success (feasible, verified, certified)
     1  infeasible / failed verification or check / misses observed
     2  command-line usage error
     3  a --budget-ms/--fuel budget was exhausted (TIMEOUT)
     4  internal error (unexpected exception, or an engine result the
        independent certificate checker rejected — fail closed)
     5  the analytic admission test was inconclusive (admit only —
        shared contract with the rtsynd daemon's degraded answers) *)

open Cmdliner
open Rt_core
module Certificate = Rt_check.Certificate
module Checker = Rt_check.Checker

let exit_ok = 0
let exit_infeasible = 1
let exit_usage = 2
let exit_timeout = 3
let exit_internal = 4

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let load_model path =
  match Rt_spec.Elaborate.load (read_file path) with
  | Ok m -> Ok m
  | Error errs -> Error (String.concat "\n" errs)

let or_die = function
  | Ok v -> v
  | Error msg ->
      prerr_endline msg;
      exit exit_infeasible

let usage_error msg =
  Format.eprintf "rtsyn: %s@." msg;
  exit_usage

(* Fail closed: every schedule the tool publishes with exit 0 has been
   re-validated by the independent checker (Rt_check, which shares no
   code with the engines beyond the model vocabulary).  An engine
   result the checker rejects is an internal error, never a published
   schedule. *)
let internal_check_failure what errs =
  Format.eprintf "INTERNAL ERROR: %s rejected by the independent checker:@."
    what;
  List.iter (fun e -> Format.eprintf "  %s@." e) errs;
  exit_internal

let certified m sched =
  match Certify.schedule m sched with
  | Error e ->
      Format.eprintf "INTERNAL ERROR: certificate construction failed: %s@." e;
      None
  | Ok cert -> (
      match Checker.check m cert with
      | Ok () -> Some cert
      | Error errs ->
          ignore (internal_check_failure "schedule certificate" errs);
          None)

(* ------------------------------------------------------------------ *)
(* Common arguments                                                    *)
(* ------------------------------------------------------------------ *)

let exits =
  [
    Cmd.Exit.info 0 ~doc:"on success (feasible, verified, certified).";
    Cmd.Exit.info 1
      ~doc:
        "on an infeasible instance, a failed verification or certificate \
         check, or observed deadline misses.";
    Cmd.Exit.info 2 ~doc:"on command-line usage errors.";
    Cmd.Exit.info 3
      ~doc:
        "when a $(b,--budget-ms)/$(b,--fuel) budget was exhausted before \
         the engines finished (TIMEOUT).";
    Cmd.Exit.info 4
      ~doc:
        "on internal errors: an unexpected exception, or an engine result \
         that the independent certificate checker rejected (the tool fails \
         closed — such a schedule is never published with exit 0).";
  ]

let cmd_info name ~doc = Cmd.info name ~doc ~exits

let spec_file =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"SPEC" ~doc:"Specification file (see rtsyn example).")

let no_merge =
  Arg.(value & flag & info [ "no-merge" ] ~doc:"Disable shared-operation merging.")

let no_pipeline =
  Arg.(value & flag & info [ "no-pipeline" ] ~doc:"Disable software pipelining.")

let no_decompose =
  Arg.(
    value & flag
    & info [ "no-decompose" ]
        ~doc:
          "Disable compositional synthesis.  By default models whose \
           constraints split into several interaction components \
           (disjoint element sets) are solved component-wise and the \
           component schedules interleaved, with a whole-model \
           re-verification gating the result; this flag forces the \
           undecomposed pipeline.")

let max_hyperperiod =
  Arg.(
    value & opt int 1_000_000
    & info [ "max-hyperperiod" ] ~docv:"N"
        ~doc:"Abort if the cyclic schedule would exceed $(docv) slots.")

let jobs_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:
          "Domains for the parallel search engine.  Defaults to the \
           $(b,RTSYN_JOBS) environment variable if set, else 1 \
           (sequential).  Results are identical at every setting; only \
           wall-clock time changes.")

let stats_arg =
  Arg.(
    value & flag
    & info [ "stats" ]
        ~doc:
          "Print the engine's performance counters (windows checked, cache \
           hits, DFS nodes, wall time per stage in microseconds) after the \
           run.")

(* --jobs beats RTSYN_JOBS beats 1.  The CLI default is sequential even
   on many-core machines so that output (including explored-state
   counts) is reproducible unless parallelism is asked for. *)
let resolve_jobs = function
  | Some j -> max 1 j
  | None -> (
      match Sys.getenv_opt "RTSYN_JOBS" with
      | Some s -> (
          match int_of_string_opt (String.trim s) with
          | Some j when j >= 1 -> j
          | _ -> 1)
      | None -> 1)

let with_jobs jobs f =
  match resolve_jobs jobs with
  | 1 -> f None
  | jobs -> Rt_par.Pool.with_pool ~jobs (fun p -> f (Some p))

(* The bench-pinned counters in their fixed order, then every other
   registered metric by name; a histogram (the stage/<name> wall times
   in microseconds among them) once it has been observed. *)
let print_stats stats =
  if stats then begin
    let module M = Rt_obs.Metrics in
    let pinned = Rt_par.Perf.counters in
    let rest =
      List.filter
        (function
          | M.Counter_v { name; _ } -> not (List.mem_assoc name pinned)
          | M.Gauge_v _ -> true
          | M.Histogram_v { count; _ } -> count > 0)
        (M.snapshot ())
    in
    let pinned_v =
      List.map (fun (name, c) -> M.Counter_v { name; value = M.value c }) pinned
    in
    Format.printf "=== engine counters ===@.";
    List.iter (Format.printf "%a@." M.pp_stat) (pinned_v @ rest)
  end

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Write a Chrome trace_event JSON of the run to $(docv); open it in \
           Perfetto (ui.perfetto.dev) or chrome://tracing.  Wall-clock spans \
           cover the synthesis, exact/game and latency engines; the \
           simulate, faultsim and distsim replays add a virtual-time Gantt \
           of the executed schedule.")

let with_trace trace f =
  match trace with
  | None -> f ()
  | Some file -> Rt_obs.Tracer.with_trace ~file f

let budget_ms_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "budget-ms" ] ~docv:"MS"
        ~doc:
          "Wall-clock budget in milliseconds, checked cooperatively at \
           every state expansion / candidate round.  Exhausting it reports \
           TIMEOUT (exit 3); with no budget the search is bit-for-bit the \
           default path.")

let fuel_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "fuel" ] ~docv:"N"
        ~doc:
          "Work budget: game states, DFS nodes and candidate rounds drawn \
           from one shared pool across the whole run (and across --jobs \
           lanes).  Exhausting it reports TIMEOUT (exit 3).")

let make_budget budget_ms fuel =
  let negative = function Some v -> v < 0 | None -> false in
  match (budget_ms, fuel) with
  | None, None -> Ok None
  | _ ->
      if negative budget_ms then Error "--budget-ms must be non-negative"
      else if negative fuel then Error "--fuel must be non-negative"
      else
        Ok
          (Some
             (Budget.create
                ?wall_s:
                  (Option.map (fun ms -> float_of_int ms /. 1000.) budget_ms)
                ?fuel ()))

(* Budgeted synthesis front end shared by the subcommands that
   synthesize as a means to another end (simulate, gantt, emit-c): a
   budget cut reports TIMEOUT (exit 3), any other failure is
   infeasible (exit 1), and the continuation gets the plan. *)
let budgeted_synthesis ?budget m k =
  match Synthesis.synthesize ?budget m with
  | Error e when e.Synthesis.stage = "budget" ->
      Format.eprintf "synthesis timed out: %a@." Synthesis.pp_error e;
      exit_timeout
  | Error e ->
      Format.eprintf "synthesis failed: %a@." Synthesis.pp_error e;
      exit_infeasible
  | Ok plan -> k plan

let cert_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "cert" ] ~docv:"FILE"
        ~doc:
          "Write the checked witness certificate (JSON) to $(docv); \
           re-validate it later with $(b,rtsyn check --certificate).")

(* ------------------------------------------------------------------ *)
(* check                                                               *)
(* ------------------------------------------------------------------ *)

let check_cmd =
  let certificate_arg =
    Arg.(
      value
      & opt (some file) None
      & info [ "certificate" ] ~docv:"CERT"
          ~doc:
            "Check the witness certificate in $(docv) (written by \
             $(b,rtsyn synth --cert) or $(b,rtsyn exact --cert)) against \
             the specification with the independent checker; exit 0 iff it \
             proves its schedule feasible for this model.")
  in
  let run path certificate trace =
    with_trace trace @@ fun () ->
    let m = or_die (load_model path) in
    match certificate with
    | Some cert_file -> (
        match Rt_spec.Persist.load_certificate_file cert_file with
        | Error e ->
            Format.printf "CERTIFICATE REJECTED: %s@." e;
            exit_infeasible
        | Ok (cm, cert) -> (
            match Checker.check cm cert with
            | Ok () ->
                Format.printf
                  "CERTIFICATE OK (%d witnesses, schedule cycle %d)@."
                  (List.length cert.Certificate.witnesses)
                  (Schedule.length cert.Certificate.schedule);
                if cert.Certificate.digest = Certificate.digest_of_model m
                then Format.printf "binds to: %s (this specification)@." path
                else
                  Format.printf
                    "binds to: a synthesis rewrite of the input (digest %s; \
                     this specification elaborates to %s)@."
                    cert.Certificate.digest
                    (Certificate.digest_of_model m);
                exit_ok
            | Error errs ->
                List.iter (fun e -> Format.printf "  %s@." e) errs;
                Format.printf "CERTIFICATE REJECTED@.";
                exit_infeasible))
    | None ->
        Format.printf "%a" Model.pp m;
        Format.printf "utilization (no sharing): %.3f@." (Model.utilization m);
        Format.printf "density: %.3f@." (Model.density m);
        (match Model.hyperperiod m with
        | h -> Format.printf "hyperperiod of T_p: %d@." h
        | exception Rt_graph.Intmath.Overflow ->
            Format.printf "hyperperiod of T_p: overflow@.");
        let shared = Model.elements_shared m in
        if shared <> [] then begin
          Format.printf "shared elements:@.";
          List.iter
            (fun (e, users) ->
              Format.printf "  %s used by {%s}@."
                (Comm_graph.element m.Model.comm e).Element.name
                (String.concat " " users))
            shared
        end;
        (match Model.theorem3_premises m with
        | Ok () -> Format.printf "Theorem 3 premises: satisfied@."
        | Error es ->
            Format.printf "Theorem 3 premises: violated (%s)@."
              (String.concat "; " es));
        (match
           Rt_graph.Digraph.feedback_components (Comm_graph.graph m.Model.comm)
         with
        | [] -> ()
        | loops ->
            Format.printf "feedback loops:@.";
            List.iter
              (fun comp ->
                Format.printf "  {%s}@."
                  (String.concat " "
                     (List.map
                        (fun e ->
                          (Comm_graph.element m.Model.comm e).Element.name)
                        comp)))
              loops);
        exit_ok
  in
  Cmd.v
    (cmd_info "check"
       ~doc:"Parse and validate a specification, or check a certificate.")
    Term.(const run $ spec_file $ certificate_arg $ trace_arg)

(* ------------------------------------------------------------------ *)
(* synth                                                               *)
(* ------------------------------------------------------------------ *)

let synth_cmd =
  let output =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"PLAN"
          ~doc:"Write the verified plan (model + schedule) to $(docv).")
  in
  let run path no_merge no_pipeline no_decompose max_hyperperiod output cert
      budget_ms fuel jobs stats trace =
    with_trace trace @@ fun () ->
    let m = or_die (load_model path) in
    match make_budget budget_ms fuel with
    | Error msg -> usage_error msg
    | Ok budget -> (
        match
          with_jobs jobs (fun pool ->
              Synthesis.synthesize ?pool ?budget ~merge:(not no_merge)
                ~pipeline:(not no_pipeline)
                ~decompose:(not no_decompose) ~max_hyperperiod m)
        with
        | Error e when e.Synthesis.stage = "budget" ->
            Format.eprintf "synthesis timed out: %a@." Synthesis.pp_error e;
            print_stats stats;
            exit_timeout
        | Error e ->
            Format.eprintf "synthesis failed: %a@." Synthesis.pp_error e;
            print_stats stats;
            exit_infeasible
        | Ok plan -> (
            Format.printf "%a" (Synthesis.pp_plan m) plan;
            match
              certified plan.Synthesis.model_used plan.Synthesis.schedule
            with
            | None -> exit_internal
            | Some c ->
                Format.printf "certificate: OK (%d witnesses)@."
                  (List.length c.Certificate.witnesses);
                Option.iter
                  (fun f ->
                    Rt_spec.Persist.save_certificate_file f
                      plan.Synthesis.model_used c;
                    Format.printf "certificate written to %s@." f)
                  cert;
                (match output with
                | None -> ()
                | Some out ->
                    Rt_spec.Persist.save_file out plan.Synthesis.model_used
                      plan.Synthesis.schedule;
                    Format.printf "plan written to %s@." out);
                (* when tracing, replay the plan so the trace also carries
                   the synthesized schedule as a virtual-time Gantt *)
                if Rt_obs.Tracer.enabled () then
                  ignore
                    (Rt_sim.Runtime.run plan.Synthesis.model_used
                       plan.Synthesis.schedule
                       ~horizon:(2 * plan.Synthesis.hyperperiod)
                       ~arrivals:[]);
                print_stats stats;
                exit_ok))
  in
  Cmd.v
    (cmd_info "synth"
       ~doc:"Synthesize, verify and certify a static schedule.")
    Term.(
      const run $ spec_file $ no_merge $ no_pipeline $ no_decompose
      $ max_hyperperiod $ output $ cert_out_arg $ budget_ms_arg $ fuel_arg
      $ jobs_arg $ stats_arg $ trace_arg)

(* ------------------------------------------------------------------ *)
(* analyze                                                             *)
(* ------------------------------------------------------------------ *)

let analyze_cmd =
  let schedule_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "schedule"; "s" ] ~docv:"SLOTS"
          ~doc:
            "Space-separated schedule: element names and '.' for idle, e.g. \
             \"f_x f_s f_s . f_k\".")
  in
  let run path sched_str budget_ms fuel trace =
    with_trace trace @@ fun () ->
    let m = or_die (load_model path) in
    match make_budget budget_ms fuel with
    | Error msg -> usage_error msg
    | Ok budget -> (
        match Schedule.of_string m.Model.comm sched_str with
        | Error e -> usage_error e
        | Ok sched -> (
            match Schedule.validate m.Model.comm sched with
            | Error errs ->
                List.iter prerr_endline errs;
                Format.printf "INFEASIBLE@.";
                exit_infeasible
            | Ok () -> (
                let result =
                  match budget with
                  | None -> Ok (Latency.verify m sched)
                  | Some b -> Latency.verify_budgeted ~budget:b m sched
                in
                match result with
                | Error reason ->
                    Format.printf "TIMEOUT: %s@." reason;
                    exit_timeout
                | Ok verdicts ->
                    List.iter
                      (fun v -> Format.printf "%a@." Latency.pp_verdict v)
                      verdicts;
                    if Latency.all_ok verdicts then begin
                      Format.printf "FEASIBLE@.";
                      exit_ok
                    end
                    else begin
                      Format.printf "INFEASIBLE@.";
                      exit_infeasible
                    end)))
  in
  Cmd.v
    (cmd_info "analyze"
       ~doc:"Latency/response verdicts for a user-supplied schedule.")
    Term.(
      const run $ spec_file $ schedule_arg $ budget_ms_arg $ fuel_arg
      $ trace_arg)

(* ------------------------------------------------------------------ *)
(* simulate                                                            *)
(* ------------------------------------------------------------------ *)

let simulate_cmd =
  let horizon =
    Arg.(
      value & opt int 1000
      & info [ "horizon" ] ~docv:"N" ~doc:"Slots to simulate.")
  in
  let seed =
    Arg.(
      value & opt int 1
      & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed for arrivals.")
  in
  let run path horizon seed budget_ms fuel trace =
    with_trace trace @@ fun () ->
    let m = or_die (load_model path) in
    match make_budget budget_ms fuel with
    | Error msg -> usage_error msg
    | Ok budget ->
        budgeted_synthesis ?budget m @@ fun plan ->
        let prng = Rt_graph.Prng.create seed in
        let arrivals =
          List.map
            (fun (c : Timing.t) ->
              ( c.name,
                Rt_sim.Arrivals.random prng ~horizon ~separation:c.period
                  ~density:0.9 ))
            (Model.asynchronous plan.Synthesis.model_used)
        in
        let report =
          Rt_sim.Runtime.run plan.Synthesis.model_used plan.Synthesis.schedule
            ~horizon ~arrivals
        in
        Format.printf "%a" Rt_sim.Runtime.pp_report report;
        List.iter
          (fun s -> Format.printf "%a@." Rt_sim.Stats.pp_summary s)
          (Rt_sim.Stats.summarize report);
        if report.Rt_sim.Runtime.misses = 0 then exit_ok
        else begin
          Format.eprintf "deadline misses observed@.";
          exit_infeasible
        end
  in
  Cmd.v
    (cmd_info "simulate"
       ~doc:"Synthesize, then replay against random arrivals.")
    Term.(
      const run $ spec_file $ horizon $ seed $ budget_ms_arg $ fuel_arg
      $ trace_arg)

(* ------------------------------------------------------------------ *)
(* dot                                                                 *)
(* ------------------------------------------------------------------ *)

let dot_cmd =
  let what =
    Arg.(
      value
      & opt (enum [ ("comm", `Comm); ("full", `Full) ]) `Full
      & info [ "what" ] ~docv:"WHAT"
          ~doc:"Which graph to render: $(b,comm) or $(b,full).")
  in
  let run path what trace =
    with_trace trace @@ fun () ->
    let m = or_die (load_model path) in
    (match what with
    | `Comm -> print_string (Rt_spec.Dot.comm_graph m)
    | `Full -> print_string (Rt_spec.Dot.full m));
    exit_ok
  in
  Cmd.v
    (cmd_info "dot" ~doc:"Graphviz export of the model.")
    Term.(const run $ spec_file $ what $ trace_arg)

(* ------------------------------------------------------------------ *)
(* multiproc                                                           *)
(* ------------------------------------------------------------------ *)

let multiproc_cmd =
  let procs =
    Arg.(
      value & opt int 2 & info [ "procs" ] ~docv:"N" ~doc:"Number of processors.")
  in
  let msg_cost =
    Arg.(
      value & opt int 1
      & info [ "msg-cost" ] ~docv:"C"
          ~doc:"Bus slots per cross-processor transmission.")
  in
  let run path procs msg_cost cert trace =
    with_trace trace @@ fun () ->
    let m = or_die (load_model path) in
    match Rt_multiproc.Msched.synthesize ~n_procs:procs ~msg_cost m with
    | Error e ->
        Format.eprintf "multiprocessor synthesis failed: %s@." e;
        exit_infeasible
    | Ok r -> (
        Format.printf "%a" (Rt_multiproc.Msched.pp_result m) r;
        Array.iteri
          (fun i s ->
            Format.printf "p%d: %s@." i (Schedule.to_string m.Model.comm s))
          r.Rt_multiproc.Msched.processor_schedules;
        let c = Rt_multiproc.Mcert.result_cert m r in
        match Checker.check_multi m c with
        | Error errs -> internal_check_failure "multiprocessor certificate" errs
        | Ok () ->
            Format.printf "certificate: OK (%d plans)@."
              (List.length c.Certificate.mp_plans);
            Option.iter
              (fun f ->
                write_file f (Certificate.mp_to_json c);
                Format.printf "certificate written to %s@." f)
              cert;
            exit_ok)
  in
  Cmd.v
    (cmd_info "multiproc"
       ~doc:"Partition over processors, schedule the bus, certify.")
    Term.(const run $ spec_file $ procs $ msg_cost $ cert_out_arg $ trace_arg)

(* ------------------------------------------------------------------ *)
(* replay                                                              *)
(* ------------------------------------------------------------------ *)

let replay_cmd =
  let plan_file =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"PLAN" ~doc:"Plan file written by 'rtsyn synth -o'.")
  in
  let horizon =
    Arg.(
      value & opt int 1000
      & info [ "horizon" ] ~docv:"N" ~doc:"Slots to replay.")
  in
  let seed =
    Arg.(
      value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"Arrival seed.")
  in
  let run plan_file horizon seed trace =
    with_trace trace @@ fun () ->
    match Rt_spec.Persist.load_file plan_file with
    | Error e ->
        Format.eprintf "plan rejected: %s@." e;
        exit_infeasible
    | Ok (m, sched) ->
        Format.printf "plan verified on load.@.";
        let prng = Rt_graph.Prng.create seed in
        let arrivals =
          List.map
            (fun (c : Timing.t) ->
              ( c.name,
                Rt_sim.Arrivals.random prng ~horizon ~separation:c.period
                  ~density:0.9 ))
            (Model.asynchronous m)
        in
        let report = Rt_sim.Runtime.run m sched ~horizon ~arrivals in
        Format.printf "%a" Rt_sim.Runtime.pp_report report;
        if report.Rt_sim.Runtime.misses = 0 then exit_ok
        else begin
          Format.eprintf "deadline misses observed@.";
          exit_infeasible
        end
  in
  Cmd.v
    (cmd_info "replay"
       ~doc:"Load a saved plan (re-verifying it) and replay it.")
    Term.(const run $ plan_file $ horizon $ seed $ trace_arg)

(* ------------------------------------------------------------------ *)
(* admit                                                               *)
(* ------------------------------------------------------------------ *)

let admit_cmd =
  (* Shares the daemon's analytic answer path (Rt_daemon.Engine.admission)
     so the standalone tool and a degraded rtsynd render the same verdict
     with the same contract: 0 guaranteed, 1 impossible, 5 inconclusive. *)
  let admit_exits =
    exits
    @ [
        Cmd.Exit.info 5
          ~doc:
            "when the analytic gap tests are inconclusive — the exact \
             boundary is NP-hard (Theorem 2); run $(b,rtsyn synth) or \
             $(b,rtsyn exact) for a definitive answer.";
      ]
  in
  let run path trace =
    with_trace trace @@ fun () ->
    let m = or_die (load_model path) in
    let line, code = Rt_daemon.Engine.admission m in
    Format.printf "%s@." line;
    if code = 5 then
      Format.printf "(run 'rtsyn synth' — the exact boundary is NP-hard)@.";
    Format.printf "element demand rate bound: %.3f@." (Admission.rate_bound m);
    code
  in
  Cmd.v
    (Cmd.info "admit" ~exits:admit_exits
       ~doc:"Fast analytic admission test (no synthesis).")
    Term.(const run $ spec_file $ trace_arg)

(* ------------------------------------------------------------------ *)
(* gantt                                                               *)
(* ------------------------------------------------------------------ *)

let gantt_cmd =
  let width =
    Arg.(
      value & opt int 72
      & info [ "width" ] ~docv:"N" ~doc:"Columns per chart row.")
  in
  let optimize =
    Arg.(
      value & flag
      & info [ "optimize" ] ~doc:"Trim removable idle slots first.")
  in
  let run path width optimize budget_ms fuel trace =
    with_trace trace @@ fun () ->
    let m = or_die (load_model path) in
    match make_budget budget_ms fuel with
    | Error msg -> usage_error msg
    | Ok budget ->
        budgeted_synthesis ?budget m @@ fun plan ->
        let mu = plan.Synthesis.model_used in
        let sched =
          if optimize then
            let s, report = Optimize.trim_idle mu plan.Synthesis.schedule in
            Format.printf "trimmed %d idle slot(s)@."
              report.Optimize.removed_idle;
            s
          else plan.Synthesis.schedule
        in
        print_string (Gantt.render ~width mu.Model.comm sched);
        print_newline ();
        print_endline (Gantt.legend mu.Model.comm sched);
        exit_ok
  in
  Cmd.v
    (cmd_info "gantt" ~doc:"Synthesize and draw the schedule as ASCII Gantt.")
    Term.(
      const run $ spec_file $ width $ optimize $ budget_ms_arg $ fuel_arg
      $ trace_arg)

(* ------------------------------------------------------------------ *)
(* exact                                                               *)
(* ------------------------------------------------------------------ *)

let exact_cmd =
  let solver =
    Arg.(
      value
      & opt (enum [ ("game", `Game); ("atomic", `Atomic); ("unit", `Unit) ])
          `Game
      & info [ "solver" ] ~docv:"WHICH"
          ~doc:
            "$(b,game): the Theorem-1 simulation game (single-operation \
             constraints, exact); $(b,atomic): execution-granularity \
             enumeration; $(b,unit): unit-weight slot enumeration.")
  in
  let engine =
    Arg.(
      value
      & opt
          (enum [ ("game", `Game); ("game-ref", `Game_ref); ("dfs", `Dfs) ])
          `Game
      & info [ "engine" ] ~docv:"ENGINE"
          ~doc:
            "Search engine behind the $(b,atomic) and $(b,unit) solvers: \
             $(b,game) (default) plays the state-space simulation game with \
             memoization and dominance pruning — INFEASIBLE is definitive \
             and $(b,--budget) bounds the states explored; $(b,game-ref) is \
             the same game on the frozen reference engine (slower, kept as \
             an independent cross-check); $(b,dfs) is the bounded schedule \
             enumeration — $(b,--budget) bounds the schedule length (capped \
             at 64) and exhaustion reports UNKNOWN.")
  in
  let bound =
    Arg.(
      value & opt int 500_000
      & info [ "budget" ] ~docv:"N"
          ~doc:
            "The engine's own resource bound: state budget ($(b,game) \
             engine) or maximum schedule length ($(b,dfs) engine).  \
             Exhaustion reports UNKNOWN (exit 1); for a caller-owned \
             wall-clock/fuel cut-off that reports TIMEOUT (exit 3) use \
             $(b,--budget-ms)/$(b,--fuel).")
  in
  let decompose_flag =
    Arg.(
      value & flag
      & info [ "decompose" ]
          ~doc:
            "Decide component-wise: split the model into interaction \
             components (constraints whose element sets are disjoint), \
             run the chosen solver on each component independently, and \
             combine — a component INFEASIBLE is definitive for the \
             whole model; all-FEASIBLE interleaves the component \
             schedules and re-verifies the whole model.  Off by default \
             so the budget/timeout contract of whole-model search is \
             unchanged.")
  in
  let run path solver engine bound decompose cert budget_ms fuel jobs
      stats_flag trace =
    with_trace trace @@ fun () ->
    let m = or_die (load_model path) in
    match make_budget budget_ms fuel with
    | Error msg -> usage_error msg
    | Ok budget ->
        let stats =
          with_jobs jobs (fun pool ->
              match solver with
              | (`Game | `Atomic | `Unit) when decompose ->
                  (* Component-wise: the single-op game is the atomic-
                     granularity game, so `Game maps onto `Atomic. *)
                  let granularity =
                    match solver with `Unit -> `Unit | _ -> `Atomic
                  in
                  (if solver = `Game
                   && not
                        (List.for_all
                           (fun (c : Timing.t) -> Task_graph.size c.graph = 1)
                           (Model.asynchronous m))
                  then
                    Format.printf
                      "note: not all constraints are single operations — \
                       playing the game at execution granularity@.");
                  Exact.solve_decomposed ?pool ?budget ~engine
                    ~max_len:(min bound 64) ~max_states:bound ~granularity m
              | `Game
                when List.for_all
                       (fun (c : Timing.t) -> Task_graph.size c.graph = 1)
                       (Model.asynchronous m) ->
                  Exact.solve_single_ops ?pool ?budget ~max_states:bound m
              | `Game ->
                  (* A constraint with a real task graph has no budget-
                     vector state; the residue-state game at execution
                     granularity decides it instead of raising. *)
                  Format.printf
                    "note: not all constraints are single operations — \
                     playing the game at execution granularity@.";
                  Exact.enumerate_atomic ?pool ?budget ~engine
                    ~max_len:(min bound 64) ~max_states:bound m
              | `Atomic ->
                  Exact.enumerate_atomic ?pool ?budget ~engine
                    ~max_len:(min bound 64) ~max_states:bound m
              | `Unit ->
                  Exact.enumerate ?pool ?budget ~engine
                    ~max_len:(min bound 64) ~max_states:bound m)
        in
        Format.printf "explored: %d@." stats.Exact.explored;
        let ret =
          match stats.Exact.outcome with
          | Exact.Feasible sched -> (
              Format.printf "FEASIBLE: %s@."
                (Schedule.to_string m.Model.comm sched);
              List.iter
                (fun v -> Format.printf "%a@." Latency.pp_verdict v)
                (Latency.verify m sched);
              (* The exact deciders answer for the asynchronous
                 constraints only, so the certificate binds to the
                 async fragment of the model. *)
              let m_async =
                Model.make ~comm:m.Model.comm
                  ~constraints:(Model.asynchronous m)
              in
              if Model.periodic m <> [] then
                Format.printf
                  "note: the certificate covers the asynchronous \
                   constraints only (the exact solvers decide T_p = {})@.";
              match certified m_async sched with
              | None -> exit_internal
              | Some c ->
                  Format.printf "certificate: OK (%d witnesses)@."
                    (List.length c.Certificate.witnesses);
                  Option.iter
                    (fun f ->
                      Rt_spec.Persist.save_certificate_file f m_async c;
                      Format.printf "certificate written to %s@." f)
                    cert;
                  exit_ok)
          | Exact.Infeasible ->
              Format.printf
                "INFEASIBLE (no execution trace meets the latencies)@.";
              exit_infeasible
          | Exact.Timeout msg ->
              Format.printf "TIMEOUT: %s@." msg;
              exit_timeout
          | Exact.Unknown msg ->
              Format.printf "UNKNOWN: %s@." msg;
              exit_infeasible
        in
        print_stats stats_flag;
        ret
  in
  Cmd.v
    (cmd_info "exact"
       ~doc:"Exact feasibility decision (asynchronous constraints).")
    Term.(
      const run $ spec_file $ solver $ engine $ bound $ decompose_flag
      $ cert_out_arg $ budget_ms_arg $ fuel_arg $ jobs_arg $ stats_arg
      $ trace_arg)

(* ------------------------------------------------------------------ *)
(* sensitivity                                                         *)
(* ------------------------------------------------------------------ *)

let sensitivity_cmd =
  (* The binary searches call synthesis many times; the budget is one
     shared sticky pool across all probes, surfaced through the
     ?synthesize hook so a cut aborts the whole analysis as TIMEOUT
     rather than mislabelling the probe infeasible. *)
  let exception Budget_cut of string in
  let run path budget_ms fuel trace =
    with_trace trace @@ fun () ->
    let m = or_die (load_model path) in
    match make_budget budget_ms fuel with
    | Error msg -> usage_error msg
    | Ok budget -> (
        let synthesize m =
          match Synthesis.synthesize ?budget m with
          | Ok _ -> true
          | Error e when e.Synthesis.stage = "budget" ->
              raise (Budget_cut (Format.asprintf "%a" Synthesis.pp_error e))
          | Error _ -> false
        in
        match
          (match Sensitivity.critical_speed ~synthesize ~resolution:16 m with
          | None -> Format.printf "the model does not synthesize as given@."
          | Some s ->
              Format.printf
                "critical time scale: %.3f (timing can shrink to %.0f%%)@." s
                (100.0 *. s);
              List.iter
                (fun (c : Timing.t) ->
                  match Sensitivity.tightest_deadline ~synthesize m c.name with
                  | Some d ->
                      Format.printf "  %s: deadline %d could tighten to %d@."
                        c.name c.deadline d
                  | None -> ())
                m.Model.constraints);
          exit_ok
        with
        | code -> code
        | exception Budget_cut reason ->
            Format.printf "TIMEOUT: %s@." reason;
            exit_timeout)
  in
  Cmd.v
    (cmd_info "sensitivity"
       ~doc:"Margin analysis: tightest deadlines and critical time scale.")
    Term.(const run $ spec_file $ budget_ms_arg $ fuel_arg $ trace_arg)

(* ------------------------------------------------------------------ *)
(* emit-c                                                              *)
(* ------------------------------------------------------------------ *)

let emit_c_cmd =
  let run path budget_ms fuel trace =
    with_trace trace @@ fun () ->
    let m = or_die (load_model path) in
    match make_budget budget_ms fuel with
    | Error msg -> usage_error msg
    | Ok budget ->
        budgeted_synthesis ?budget m @@ fun plan ->
        print_string
          (Emit_c.emit plan.Synthesis.model_used plan.Synthesis.schedule);
        exit_ok
  in
  Cmd.v
    (cmd_info "emit-c"
       ~doc:
         "Synthesize and emit the C run-time scheduler (schedule table + \
          rt_tick dispatcher).")
    Term.(const run $ spec_file $ budget_ms_arg $ fuel_arg $ trace_arg)

(* ------------------------------------------------------------------ *)
(* faultsim                                                            *)
(* ------------------------------------------------------------------ *)

let faultsim_cmd =
  let horizon =
    Arg.(
      value & opt int 1000
      & info [ "horizon" ] ~docv:"N" ~doc:"Slots to simulate.")
  in
  let seed =
    Arg.(
      value & opt int 1
      & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed for arrivals.")
  in
  let inject =
    Arg.(
      value & opt_all string []
      & info [ "inject" ] ~docv:"FAULT"
          ~doc:
            "Inject a timing fault (repeatable): \
             $(b,overrun:ELEM:FROM-UNTIL:+K) makes executions of ELEM \
             starting in [FROM, UNTIL) take K extra slots; \
             $(b,transient:ELEM:FROM-UNTIL) makes them complete without \
             output; $(b,stuck:ELEM:FROM-UNTIL) makes them never \
             complete.")
  in
  let policy =
    Arg.(
      value & opt string "abort"
      & info [ "policy" ] ~docv:"POLICY"
          ~doc:
            "Recovery policy: $(b,abort), $(b,skip), $(b,retry:N:B) (N \
             attempts, backoff B slots) or $(b,degrade)[:MODE] (switch to \
             the named degraded mode, default the most degraded one).")
  in
  let crit_spec =
    Arg.(
      value & opt string ""
      & info [ "criticality" ] ~docv:"SPEC"
          ~doc:
            "Criticality assignment, e.g. $(b,telemetry=low,nav=medium); \
             levels are low, medium, high.  Unlisted constraints default \
             to high.")
  in
  let stretch =
    Arg.(
      value & opt int 2
      & info [ "stretch" ] ~docv:"F"
          ~doc:
            "Stretch factor for sub-high constraints retained in degraded \
             modes.")
  in
  let readmit =
    Arg.(
      value & opt (some int) None
      & info [ "readmit" ] ~docv:"N"
          ~doc:
            "Fault-free slots before the primary mode is re-admitted \
             (default: twice the longest mode cycle).")
  in
  let check_period =
    Arg.(
      value & opt int 4
      & info [ "check-period" ] ~docv:"N"
          ~doc:"Watchdog check period in slots.")
  in
  let stall_limit =
    Arg.(
      value & opt int 16
      & info [ "stall-limit" ] ~docv:"N"
          ~doc:"Overshoot at which an overrun is treated as a stall.")
  in
  let parse_policy modes s =
    match String.split_on_char ':' s with
    | [ p ] when String.lowercase_ascii p = "abort" ->
        Ok Rt_sim.Robust_runtime.Abort_job
    | [ p ] when String.lowercase_ascii p = "skip" ->
        Ok Rt_sim.Robust_runtime.Skip_next
    | [ p; n; b ] when String.lowercase_ascii p = "retry" -> (
        match (int_of_string_opt n, int_of_string_opt b) with
        | Some max_attempts, Some backoff when max_attempts > 0 && backoff >= 0
          ->
            Ok (Rt_sim.Robust_runtime.Retry { max_attempts; backoff })
        | _ -> Error (Printf.sprintf "bad retry spec %S (want retry:N:B)" s))
    | p :: rest when String.lowercase_ascii p = "degrade" -> (
        let target =
          match rest with
          | [ name ] -> Some name
          | [] -> (
              (* Default to the most degraded mode. *)
              match List.rev modes with
              | last :: _ when last.Modes.name <> "primary" ->
                  Some last.Modes.name
              | _ -> None)
          | _ -> None
        in
        match target with
        | Some name when Modes.find modes name <> None ->
            Ok (Rt_sim.Robust_runtime.Degrade_to name)
        | Some name -> Error (Printf.sprintf "no mode named %S" name)
        | None ->
            Error
              "no degraded mode to switch to (assign criticalities below \
               high)")
    | _ -> Error (Printf.sprintf "unknown policy %S" s)
  in
  let run path horizon seed inject policy_s crit_s stretch readmit check_period
      stall_limit trace =
    with_trace trace @@ fun () ->
    let m = or_die (load_model path) in
    let crit =
      if crit_s = "" then []
      else
        let a = or_die (Criticality.of_spec crit_s) in
        or_die
          (Result.map_error (String.concat "\n") (Criticality.make m a))
    in
    let derivation = { Modes.stretch; max_hyperperiod = 1_000_000 } in
    let modes = or_die (Modes.derive ~derivation m crit) in
    let faults =
      List.map
        (fun s -> or_die (Rt_sim.Timing_fault.of_string m.Model.comm s))
        inject
    in
    match parse_policy modes policy_s with
    | Error msg -> usage_error msg
    | Ok policy ->
        let watchdog =
          { Rt_sim.Watchdog.check_period; stall_limit }
        in
        Format.printf "=== modes ===@.";
        List.iter (fun md -> Format.printf "%a@." Modes.pp md) modes;
        Format.printf "=== transition analysis (bound %d slots) ===@."
          (Modes.transition_slots ~check_period);
        List.iter
          (fun md ->
            match Modes.admits_transition ~check_period md with
            | Ok () -> Format.printf "%s: admitted@." md.Modes.name
            | Error errs ->
                Format.printf "%s: REJECTED@.  %s@." md.Modes.name
                  (String.concat "\n  " errs))
          modes;
        if faults <> [] then
          Format.printf "@.=== fault plan ===@.%a@."
            (Rt_sim.Timing_fault.pp_plan m.Model.comm)
            faults;
        let prng = Rt_graph.Prng.create seed in
        let arrivals =
          List.map
            (fun (c : Timing.t) ->
              ( c.name,
                Rt_sim.Arrivals.random prng ~horizon ~separation:c.period
                  ~density:0.9 ))
            (Model.asynchronous m)
        in
        let report =
          Rt_sim.Robust_runtime.run ~crit ~faults ~policy ~watchdog
            ?readmit_after:readmit ~horizon ~arrivals modes
        in
        Format.printf "@.=== replay (policy %a) ===@.%a@."
          Rt_sim.Robust_runtime.pp_policy policy
          (Rt_sim.Robust_runtime.pp_report m.Model.comm)
          report;
        List.iter
          (fun s ->
            Format.printf "%a@." Rt_sim.Stats.pp_criticality_summary s)
          (Rt_sim.Stats.by_criticality report);
        List.iter
          (fun s -> Format.printf "%a@." Rt_sim.Stats.pp_summary s)
          (Rt_sim.Stats.summarize_robust report);
        exit_ok
  in
  Cmd.v
    (cmd_info "faultsim"
       ~doc:
         "Replay a schedule under injected timing faults with watchdog \
          detection and a recovery policy.")
    Term.(
      const run $ spec_file $ horizon $ seed $ inject $ policy $ crit_spec
      $ stretch $ readmit $ check_period $ stall_limit $ trace_arg)

(* ------------------------------------------------------------------ *)
(* distsim                                                             *)
(* ------------------------------------------------------------------ *)

let distsim_cmd =
  let procs =
    Arg.(
      value & opt int 2 & info [ "procs" ] ~docv:"N" ~doc:"Number of processors.")
  in
  let msg_cost =
    Arg.(
      value & opt int 1
      & info [ "msg-cost" ] ~docv:"C"
          ~doc:"Bus slots per cross-processor transmission.")
  in
  let arq =
    Arg.(
      value & opt int 0
      & info [ "arq" ] ~docv:"K"
          ~doc:
            "ARQ retransmission slots reserved per message on top of the \
             transmission cost; up to K lost or corrupted transmissions per \
             message window are absorbed without a miss.")
  in
  let crash =
    Arg.(
      value & opt_all string []
      & info [ "crash" ] ~docv:"P:AT[:RET]"
          ~doc:
            "Crash processor P at slot AT (repeatable); with :RET it \
             returns at slot RET and the nominal table is re-admitted.")
  in
  let msg_loss =
    Arg.(
      value & opt float 0.0
      & info [ "msg-loss" ] ~docv:"RATE"
          ~doc:"Per-slot bus fault probability (deterministic in the seed).")
  in
  let policy =
    Arg.(
      value & opt string "failover"
      & info [ "policy" ] ~docv:"POLICY"
          ~doc:
            "$(b,failover) swaps in the pre-synthesized contingency table \
             for a detected crash; $(b,none) only detects.")
  in
  let crit_spec =
    Arg.(
      value & opt string ""
      & info [ "criticality" ] ~docv:"SPEC"
          ~doc:
            "Criticality assignment, e.g. $(b,telemetry=low,nav=medium); \
             scenarios that cannot carry the full load degrade by shedding \
             below medium, then below high.  Unlisted constraints default \
             to high.")
  in
  let stretch =
    Arg.(
      value & opt int 2
      & info [ "stretch" ] ~docv:"F"
          ~doc:"Stretch factor for sub-high constraints in degraded scenarios.")
  in
  let hb_period =
    Arg.(
      value & opt int 5
      & info [ "hb-period" ] ~docv:"N" ~doc:"Slots between heartbeats.")
  in
  let hb_miss =
    Arg.(
      value & opt int 2
      & info [ "hb-miss" ] ~docv:"N"
          ~doc:"Consecutive missed heartbeats before declaring a crash.")
  in
  let migration =
    Arg.(
      value & opt int 0
      & info [ "migration" ] ~docv:"N"
          ~doc:"Slots to migrate the dead processor's state at failover.")
  in
  let horizon =
    Arg.(
      value & opt int 200
      & info [ "horizon" ] ~docv:"N" ~doc:"Slots to simulate.")
  in
  let seed =
    Arg.(
      value & opt int 1
      & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed for bus faults.")
  in
  let parse_crash s =
    match String.split_on_char ':' s with
    | [ p; at ] -> (
        match (int_of_string_opt p, int_of_string_opt at) with
        | Some proc, Some at ->
            Ok { Rt_sim.Dist_runtime.proc; at; return_at = None }
        | _ -> Error (Printf.sprintf "bad crash spec %S (want P:AT)" s))
    | [ p; at; ret ] -> (
        match (int_of_string_opt p, int_of_string_opt at, int_of_string_opt ret)
        with
        | Some proc, Some at, Some ret ->
            Ok { Rt_sim.Dist_runtime.proc; at; return_at = Some ret }
        | _ -> Error (Printf.sprintf "bad crash spec %S (want P:AT:RET)" s))
    | _ -> Error (Printf.sprintf "bad crash spec %S (want P:AT[:RET])" s)
  in
  let parse_crashes specs =
    List.fold_left
      (fun acc s ->
        match (acc, parse_crash s) with
        | Error _, _ -> acc
        | Ok cs, Ok c -> Ok (c :: cs)
        | Ok _, (Error _ as e) -> e)
      (Ok []) specs
    |> Result.map List.rev
  in
  (* Certify the contingency table with the independent checker (fail
     closed).  When the reconfiguration slack is not admitted the table
     as a whole carries no slack claim, so each system is certified
     individually instead. *)
  let certify_table m table ~admits_ok =
    if admits_ok then
      match
        Checker.check_table m (Rt_multiproc.Mcert.table_cert m table)
      with
      | Ok () ->
          Format.printf "contingency certificate: OK@.";
          None
      | Error errs ->
          Some (internal_check_failure "contingency certificate" errs)
    else begin
      let check_one what c =
        match Checker.check_multi m c with
        | Ok () -> None
        | Error errs -> Some (internal_check_failure what errs)
      in
      let results =
        check_one "nominal certificate"
          (Rt_multiproc.Mcert.result_cert m
             table.Rt_multiproc.Contingency.nominal)
        :: List.map
             (fun (s : Rt_multiproc.Contingency.scenario) ->
               check_one
                 (Printf.sprintf "crash-p%d scenario certificate"
                    s.Rt_multiproc.Contingency.dead)
                 (Rt_multiproc.Mcert.scenario_cert m s))
             (Rt_multiproc.Contingency.feasible_scenarios table)
      in
      match List.find_opt Option.is_some results with
      | Some code -> code
      | None ->
          Format.printf "scenario certificates: OK@.";
          None
    end
  in
  let run path procs msg_cost arq crash_specs msg_loss policy_s crit_s stretch
      hb_period hb_miss migration horizon seed jobs trace =
    with_trace trace @@ fun () ->
    let m = or_die (load_model path) in
    let crit =
      if crit_s = "" then None
      else
        let a = or_die (Criticality.of_spec crit_s) in
        Some
          (or_die
             (Result.map_error (String.concat "\n") (Criticality.make m a)))
    in
    let policy =
      match String.lowercase_ascii policy_s with
      | "failover" -> Ok Rt_sim.Dist_runtime.Failover
      | "none" -> Ok Rt_sim.Dist_runtime.No_failover
      | _ -> Error (Printf.sprintf "unknown policy %S" policy_s)
    in
    match policy with
    | Error msg -> usage_error msg
    | Ok policy -> (
        match parse_crashes crash_specs with
        | Error msg -> usage_error msg
        | Ok crashes -> (
            let heartbeat =
              { Rt_sim.Heartbeat.hb_period; miss_threshold = hb_miss }
            in
            match Rt_sim.Heartbeat.validate heartbeat with
            | Error msg -> usage_error msg
            | Ok heartbeat -> (
                let detect_bound =
                  Rt_sim.Heartbeat.detection_bound heartbeat
                in
                match
                  Rt_multiproc.Msched.synthesize ~n_procs:procs ~msg_cost
                    ~arq_slack:arq m
                with
                | Error e ->
                    Format.eprintf "nominal synthesis failed: %s@." e;
                    exit_infeasible
                | Ok nominal -> (
                    let derivation =
                      { Modes.stretch; max_hyperperiod = 1_000_000 }
                    in
                    match
                      with_jobs jobs (fun pool ->
                          Rt_multiproc.Contingency.synthesize ?pool
                            ?criticality:crit ~derivation ~detect_bound
                            ~migration m nominal)
                    with
                    | Error e ->
                        Format.eprintf "contingency synthesis failed: %s@." e;
                        exit_infeasible
                    | Ok table -> (
                        Format.printf "=== contingency table ===@.%a@."
                          (Rt_multiproc.Contingency.pp m)
                          table;
                        let admits_ok =
                          match
                            Rt_multiproc.Contingency.admits_reconfiguration m
                              table
                          with
                          | Ok () ->
                              Format.printf
                                "reconfiguration admitted: the %d-slot bound \
                                 fits every in-flight invocation's slack@."
                                table
                                  .Rt_multiproc.Contingency.reconfig_bound;
                              true
                          | Error es ->
                              Format.printf
                                "reconfiguration NOT admitted for in-flight \
                                 invocations:@.";
                              List.iter
                                (fun e -> Format.printf "  %s@." e)
                                es;
                              Format.printf
                                "(invocations arriving after the bound are \
                                 still safe)@.";
                              false
                        in
                        match certify_table m table ~admits_ok with
                        | Some code -> code
                        | None ->
                            let net_faults =
                              if msg_loss <= 0.0 then []
                              else
                                Rt_sim.Net_fault.random_plan
                                  (Rt_graph.Prng.create seed)
                                  ~horizon:(2 * horizon) ~loss_rate:msg_loss
                            in
                            let report =
                              try
                                Rt_sim.Dist_runtime.run ?crit ~crashes
                                  ~net_faults ~policy ~heartbeat ~horizon m
                                  table
                              with Invalid_argument msg ->
                                or_die (Error msg)
                            in
                            Format.printf "@.=== replay ===@.%a@."
                              Rt_sim.Dist_runtime.pp_report report;
                            Format.printf "=== per-processor rollup ===@.";
                            List.iter
                              (fun s ->
                                Format.printf "%a@."
                                  Rt_sim.Stats.pp_processor_summary s)
                              (Rt_sim.Stats.by_processor m.Model.comm report);
                            exit_ok)))))
  in
  Cmd.v
    (cmd_info "distsim"
       ~doc:
         "Lockstep multiprocessor replay under processor crashes and bus \
          faults, with heartbeat detection and failover to pre-synthesized \
          contingency schedules.")
    Term.(
      const run $ spec_file $ procs $ msg_cost $ arq $ crash $ msg_loss
      $ policy $ crit_spec $ stretch $ hb_period $ hb_miss $ migration
      $ horizon $ seed $ jobs_arg $ trace_arg)

(* ------------------------------------------------------------------ *)
(* example                                                             *)
(* ------------------------------------------------------------------ *)

let example_cmd =
  let family =
    Arg.(
      value
      & opt (enum [ ("control", `Control); ("e3", `E3) ]) `Control
      & info [ "family" ] ~docv:"FAMILY"
          ~doc:
            "$(b,control): the paper's example control system; $(b,e3): a \
             Theorem-2 3-PARTITION reduction yes-instance (the NP-hard \
             family of the exact-solver scaling experiment), sized by \
             $(b,--m)/$(b,--b).")
  in
  let m_arg =
    Arg.(
      value & opt int 3
      & info [ "m"; "triples" ] ~docv:"M" ~doc:"E3 family: number of triples.")
  in
  let b_arg =
    Arg.(
      value & opt int 16
      & info [ "b"; "sum" ] ~docv:"B"
          ~doc:"E3 family: triple sum (at least 13).")
  in
  let seed =
    Arg.(
      value & opt int 1
      & info [ "seed" ] ~docv:"SEED" ~doc:"E3 family: instance seed.")
  in
  let run family m_triples b seed trace =
    with_trace trace @@ fun () ->
    match family with
    | `Control ->
        let m =
          Rt_workload.Suite.control_system Rt_workload.Suite.default_params
        in
        print_string (Rt_spec.Printer.print ~name:"control" m);
        exit_ok
    | `E3 ->
        if m_triples < 1 then usage_error "--m must be at least 1"
        else if b < 13 then usage_error "--b must be at least 13"
        else begin
          let items =
            Rt_workload.Npc.three_partition_yes
              (Rt_graph.Prng.create seed)
              ~m:m_triples ~b
          in
          let model = Rt_workload.Npc.reduction_model items ~b in
          print_string (Rt_spec.Printer.print ~name:"e3" model);
          exit_ok
        end
  in
  Cmd.v
    (cmd_info "example"
       ~doc:
         "Print an example specification: the paper's control system, or \
          an NP-hard E3 instance.")
    Term.(const run $ family $ m_arg $ b_arg $ seed $ trace_arg)

let () =
  let info =
    Cmd.info "rtsyn" ~version:"1.0.0" ~exits
      ~doc:
        "Synthesis of run-time schedulers from graph-based real-time models \
         (Mok, ICPP 1985)."
      ~man:
        [
          `S Manpage.s_description;
          `P
            "Every schedule rtsyn publishes with exit 0 has been \
             re-validated by an independent certificate checker that \
             shares no code with the synthesis engines beyond the model \
             vocabulary; see docs/CERTIFICATES.md for the format and the \
             trust boundary.";
        ]
  in
  exit
    (match
       Cmd.eval_value
         (Cmd.group info
            [
              check_cmd;
              synth_cmd;
              analyze_cmd;
              admit_cmd;
              gantt_cmd;
              replay_cmd;
              sensitivity_cmd;
              exact_cmd;
              emit_c_cmd;
              simulate_cmd;
              faultsim_cmd;
              distsim_cmd;
              dot_cmd;
              multiproc_cmd;
              example_cmd;
            ])
     with
    | Ok (`Ok code) -> code
    | Ok (`Version | `Help) -> exit_ok
    | Error (`Parse | `Term) -> exit_usage
    | Error `Exn -> exit_internal)
