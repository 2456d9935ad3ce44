(* Tests for the parallel execution layer (Rt_par) and the determinism
   contract of every engine that uses it: with a pool and without one,
   the exact solvers, the synthesis pipeline and the contingency tables
   must produce bit-identical results.  The equality properties here
   are the CI gate for the parallel engine — their names are grepped by
   the workflow, so keep them stable. *)

open Rt_core
module Pool = Rt_par.Pool
module Bound = Rt_par.Bound
module Perf = Rt_par.Perf
module Metrics = Rt_obs.Metrics

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

(* ------------------------------------------------------------------ *)
(* Pool                                                                *)
(* ------------------------------------------------------------------ *)

let test_map_preserves_order () =
  Pool.with_pool ~jobs:4 (fun p ->
      let a = Array.init 100 Fun.id in
      let r = Pool.parallel_map p (fun x -> x * x) a in
      Alcotest.(check (array int)) "squares in order"
        (Array.init 100 (fun i -> i * i))
        r)

let test_map_empty_and_single () =
  Pool.with_pool ~jobs:4 (fun p ->
      Alcotest.(check (array int)) "empty" [||]
        (Pool.parallel_map p (fun x -> x) [||]);
      Alcotest.(check (array int)) "single" [| 7 |]
        (Pool.parallel_map p (fun x -> x + 1) [| 6 |]))

let test_find_first_lowest_index () =
  Pool.with_pool ~jobs:4 (fun p ->
      (* Matches at indices 3, 7 and 50: the contract is lowest index
         wins, regardless of which lane finishes first. *)
      let f i = if i = 3 || i = 7 || i = 50 then Some (i * 10) else None in
      checki "lowest match" 30
        (Option.get (Pool.parallel_find_first p f (Array.init 64 Fun.id))))

let test_find_first_none () =
  Pool.with_pool ~jobs:4 (fun p ->
      checkb "no match" true
        (Pool.parallel_find_first p (fun _ -> None) (Array.init 20 Fun.id)
        = None))

let test_nested_fanout_runs_inline () =
  (* A task submitted from inside a pool task must not deadlock: the
     inner fan-out runs inline on the submitting domain. *)
  Pool.with_pool ~jobs:3 (fun p ->
      let r =
        Pool.parallel_map p
          (fun i ->
            let inner =
              Pool.parallel_map p (fun j -> (10 * i) + j) (Array.init 4 Fun.id)
            in
            Array.fold_left ( + ) 0 inner)
          (Array.init 8 Fun.id)
      in
      Alcotest.(check (array int)) "nested totals"
        (Array.init 8 (fun i -> (40 * i) + 6))
        r)

exception Boom

let test_exception_propagates () =
  Pool.with_pool ~jobs:4 (fun p ->
      checkb "raises" true
        (try
           ignore
             (Pool.parallel_map p
                (fun i -> if i = 13 then raise Boom else i)
                (Array.init 32 Fun.id));
           false
         with Boom -> true);
      (* The pool must survive a failed job and accept new work. *)
      checki "still works" 10
        (Array.fold_left ( + ) 0
           (Pool.parallel_map p Fun.id (Array.init 5 Fun.id))))

let test_jobs_clamped () =
  Pool.with_pool ~jobs:1 (fun p -> checki "one lane" 1 (Pool.jobs p));
  Pool.with_pool ~jobs:0 (fun p -> checki "clamped up" 1 (Pool.jobs p))

(* ------------------------------------------------------------------ *)
(* Bound                                                               *)
(* ------------------------------------------------------------------ *)

let test_bound_monotone_min () =
  let b = Bound.create () in
  checkb "initially unset" false (Bound.found b);
  Bound.update_min b 42;
  Bound.update_min b 17;
  Bound.update_min b 99;
  checki "keeps the minimum" 17 (Bound.get b);
  Bound.reset b;
  checkb "reset clears" false (Bound.found b)

(* ------------------------------------------------------------------ *)
(* Perf                                                                *)
(* ------------------------------------------------------------------ *)

let test_perf_counters () =
  Metrics.reset ();
  Metrics.incr Perf.cache_hits;
  Metrics.add Perf.cache_hits 4;
  checki "accumulates" 5 (Perf.value Perf.cache_hits);
  let stage = Metrics.histogram "stage/stage-a" in
  let x = Metrics.time stage (fun () -> 41 + 1) in
  checki "time passes result through" 42 x;
  checki "stage recorded" 1 (Metrics.h_count stage);
  Alcotest.(check (list string))
    "the bench counters, in bench order"
    [
      "windows_checked"; "cache_hits"; "cache_misses"; "dfs_nodes";
      "schedules_built"; "game_states"; "table_hits"; "table_misses";
      "dominance_kills"; "decompose/components"; "decompose/component_solves";
      "decompose/component_reuses";
    ]
    (List.map fst Perf.counters);
  checkb "each listed cell is the registry cell of its name" true
    (List.for_all (fun (name, c) -> Metrics.counter name == c) Perf.counters);
  Metrics.reset ();
  checki "reset zeroes" 0 (Perf.value Perf.cache_hits);
  checki "reset zeroes the stage" 0 (Metrics.h_count stage)

(* ------------------------------------------------------------------ *)
(* Plan equality: pooled engines = sequential engines                  *)
(* ------------------------------------------------------------------ *)

let outcome_equal a b =
  match (a, b) with
  | Exact.Feasible sa, Exact.Feasible sb -> Schedule.equal sa sb
  | Exact.Infeasible, Exact.Infeasible -> true
  | Exact.Unknown la, Exact.Unknown lb -> la = lb
  | _ -> false

let test_parallel_exact_equals_sequential () =
  let prng = Rt_graph.Prng.create 6001 in
  Pool.with_pool ~jobs:4 (fun p ->
      for _ = 1 to 8 do
        let m =
          Rt_workload.Model_gen.unit_chain_model prng
            ~n_constraints:(1 + Rt_graph.Prng.int prng 3)
            ~n_elements:3 ~max_deadline:6
        in
        let seq = Exact.enumerate ~max_len:5 m in
        let par = Exact.enumerate ~pool:p ~max_len:5 m in
        checkb "same outcome" true
          (outcome_equal seq.Exact.outcome par.Exact.outcome)
      done;
      (* The atomic-execution enumerator too, on a weighted model. *)
      let m = Rt_workload.Suite.control_system Rt_workload.Suite.default_params in
      let seq = Exact.enumerate_atomic ~max_len:8 m in
      let par = Exact.enumerate_atomic ~pool:p ~max_len:8 m in
      checkb "atomic same outcome" true
        (outcome_equal seq.Exact.outcome par.Exact.outcome))

let plan_equal (a : Synthesis.plan) (b : Synthesis.plan) =
  Schedule.equal a.Synthesis.schedule b.Synthesis.schedule
  && a.Synthesis.hyperperiod = b.Synthesis.hyperperiod
  && a.Synthesis.verdicts = b.Synthesis.verdicts

let test_parallel_synthesis_equals_sequential () =
  let prng = Rt_graph.Prng.create 6002 in
  Pool.with_pool ~jobs:4 (fun p ->
      for _ = 1 to 10 do
        let m =
          Rt_workload.Model_gen.shared_block_model prng
            ~n_pairs:(1 + Rt_graph.Prng.int prng 3)
            ~shared_weight:2 ~private_weight:1
            ~period:(12 + (4 * Rt_graph.Prng.int prng 4))
        in
        match (Synthesis.synthesize m, Synthesis.synthesize ~pool:p m) with
        | Ok a, Ok b -> checkb "same plan" true (plan_equal a b)
        | Error ea, Error eb ->
            checkb "same error stage" true (ea.Synthesis.stage = eb.Synthesis.stage)
        | _ -> Alcotest.fail "feasibility diverged under the pool"
      done)

let test_parallel_contingency_equals_sequential () =
  let module Cg = Rt_multiproc.Contingency in
  let module Ms = Rt_multiproc.Msched in
  let m = Rt_workload.Suite.replicated_control ~n:3 in
  let nominal =
    match Ms.synthesize ~n_procs:3 ~msg_cost:1 m with
    | Ok r -> r
    | Error e -> Alcotest.fail ("nominal synthesis: " ^ e)
  in
  let seq =
    match Cg.synthesize ~detect_bound:2 m nominal with
    | Ok t -> t
    | Error e -> Alcotest.fail ("sequential contingency: " ^ e)
  in
  let par =
    Pool.with_pool ~jobs:4 (fun p ->
        match Cg.synthesize ~pool:p ~detect_bound:2 m nominal with
        | Ok t -> t
        | Error e -> Alcotest.fail ("pooled contingency: " ^ e))
  in
  let scenario_equal a b =
    match (a, b) with
    | Ok (sa : Cg.scenario), Ok (sb : Cg.scenario) ->
        sa.Cg.dead = sb.Cg.dead
        && sa.Cg.threshold = sb.Cg.threshold
        && sa.Cg.dropped = sb.Cg.dropped
        && sa.Cg.stretched = sb.Cg.stretched
        && Array.for_all2 Schedule.equal
             sa.Cg.result.Ms.processor_schedules
             sb.Cg.result.Ms.processor_schedules
    | Error ea, Error eb -> ea = eb
    | _ -> false
  in
  checki "same scenario count" (Array.length seq.Cg.scenarios)
    (Array.length par.Cg.scenarios);
  checkb "same table" true
    (Array.for_all2 scenario_equal seq.Cg.scenarios par.Cg.scenarios)

let () =
  Alcotest.run "par"
    [
      ( "pool",
        [
          Alcotest.test_case "map preserves order" `Quick
            test_map_preserves_order;
          Alcotest.test_case "map edge sizes" `Quick test_map_empty_and_single;
          Alcotest.test_case "find_first lowest index" `Quick
            test_find_first_lowest_index;
          Alcotest.test_case "find_first none" `Quick test_find_first_none;
          Alcotest.test_case "nested fan-out inline" `Quick
            test_nested_fanout_runs_inline;
          Alcotest.test_case "exception propagates" `Quick
            test_exception_propagates;
          Alcotest.test_case "jobs clamped" `Quick test_jobs_clamped;
        ] );
      ( "bound",
        [ Alcotest.test_case "monotone minimum" `Quick test_bound_monotone_min ] );
      ( "perf",
        [ Alcotest.test_case "counters" `Quick test_perf_counters ] );
      ( "determinism",
        [
          Alcotest.test_case "parallel exact = sequential" `Quick
            test_parallel_exact_equals_sequential;
          Alcotest.test_case "parallel synthesis = sequential" `Quick
            test_parallel_synthesis_equals_sequential;
          Alcotest.test_case "parallel contingency = sequential" `Quick
            test_parallel_contingency_equals_sequential;
        ] );
    ]
