(* Cross-module property tests: invariants that tie the synthesis
   pipeline, the analyses and the persistence layer together on random
   models.  These run fewer iterations than unit-level qcheck tests
   because each case synthesizes and verifies whole schedules. *)

open Rt_core

let checkb = Alcotest.check Alcotest.bool

let seeded_prng =
  (* Each property gets its own deterministic stream. *)
  fun seed -> Rt_graph.Prng.create seed

(* 1. Theorem-3 models: construct -> trim -> still verified, never
   longer. *)
let prop_trim_preserves_feasibility () =
  let g = seeded_prng 101 in
  for _ = 1 to 15 do
    let m = Rt_workload.Model_gen.theorem3_model g ~n_constraints:3 ~max_weight:2 in
    match Theorem3.schedule m with
    | Error e -> Alcotest.failf "construction failed: %s" e
    | Ok r when Schedule.length r.Theorem3.schedule > 64 ->
        (* Trimming re-verifies per removal; keep the property cheap by
           only exercising small cycles. *)
        ()
    | Ok r ->
        let pm = r.Theorem3.pipelined.Pipeline.model in
        let trimmed, report =
          Optimize.trim_idle ~max_rounds:1 pm r.Theorem3.schedule
        in
        checkb "trimmed verifies" true
          (Latency.all_ok (Latency.verify pm trimmed));
        checkb "never longer" true
          (Schedule.length trimmed <= Schedule.length r.Theorem3.schedule);
        checkb "report adds up" true
          (report.Optimize.optimized_length
           + report.Optimize.removed_idle
          = report.Optimize.original_length)
  done

(* 2. Synthesized plans survive persistence round-trips. *)
let prop_persist_roundtrip_random () =
  let g = seeded_prng 202 in
  for _ = 1 to 10 do
    let m =
      Rt_workload.Model_gen.shared_block_model g
        ~n_pairs:(1 + Rt_graph.Prng.int g 3)
        ~shared_weight:2 ~private_weight:1
        ~period:(12 + (4 * Rt_graph.Prng.int g 3))
    in
    match Synthesis.synthesize m with
    | Error _ -> () (* some random workloads are simply infeasible *)
    | Ok plan -> (
        let text =
          Rt_spec.Persist.save_string plan.Synthesis.model_used
            plan.Synthesis.schedule
        in
        match Rt_spec.Persist.load_string text with
        | Error e -> Alcotest.failf "round-trip failed: %s" e
        | Ok (m', sched') ->
            checkb "reloaded plan verifies" true
              (Latency.all_ok (Latency.verify m' sched')))
  done

(* 3. Gantt rows are faithful: '#' count per element = slot count. *)
let prop_gantt_faithful () =
  let g = seeded_prng 303 in
  for _ = 1 to 20 do
    let n_elems = 2 + Rt_graph.Prng.int g 3 in
    let comm =
      Comm_graph.create
        ~elements:(List.init n_elems (fun i -> (Printf.sprintf "e%d" i, 1, true)))
        ~edges:[]
    in
    let len = 5 + Rt_graph.Prng.int g 20 in
    let slots =
      List.init len (fun _ ->
          if Rt_graph.Prng.chance g 0.3 then Schedule.Idle
          else Schedule.Run (Rt_graph.Prng.int g n_elems))
    in
    let sched = Schedule.of_slots slots in
    let rendered = Gantt.render ~width:1000 comm sched in
    List.iteri
      (fun e _ ->
        let name = Printf.sprintf "e%d" e in
        let row =
          String.split_on_char '\n' rendered
          |> List.find_opt (fun l ->
                 String.length l > String.length name
                 && String.sub l 0 (String.length name) = name)
        in
        let occ = Schedule.occurrences sched e in
        match row with
        | Some r ->
            let hashes =
              String.fold_left
                (fun acc c -> if c = '#' then acc + 1 else acc)
                0 r
            in
            Alcotest.(check int) "hash count = occurrences" occ hashes
        | None -> checkb "row present iff element used" true (occ = 0))
      (List.init n_elems Fun.id)
  done

(* 4. Canonical rotation: idempotent and invariant across the rotation
   class. *)
let prop_canonical_rotation () =
  let g = seeded_prng 404 in
  for _ = 1 to 50 do
    let len = 1 + Rt_graph.Prng.int g 8 in
    let slots =
      List.init len (fun _ ->
          if Rt_graph.Prng.chance g 0.3 then Schedule.Idle
          else Schedule.Run (Rt_graph.Prng.int g 3))
    in
    let sched = Schedule.of_slots slots in
    let canon = Optimize.canonical_rotation sched in
    checkb "idempotent" true
      (Schedule.equal canon (Optimize.canonical_rotation canon));
    let k = Rt_graph.Prng.int g len in
    checkb "class invariant" true
      (Schedule.equal canon (Optimize.canonical_rotation (Schedule.rotate sched k)))
  done

(* 5. The admission test's Impossible verdict is consistent with the
   exact single-op solver. *)
let prop_admission_consistent_with_exact () =
  let g = seeded_prng 505 in
  for _ = 1 to 30 do
    let m =
      Rt_workload.Model_gen.single_op_model ~max_deadline:12 g
        ~n_constraints:(1 + Rt_graph.Prng.int g 3)
        ~max_weight:3
        ~target_ratio_sum:(0.3 +. Rt_graph.Prng.float g 1.2)
    in
    match (Admission.admit m, (Exact.solve_single_ops m).Exact.outcome) with
    | Admission.Impossible why, Exact.Feasible _ ->
        Alcotest.failf "admission said impossible (%s) but a schedule exists"
          why
    | _ -> ()
  done

(* 6. Merge soundness on random shared workloads: a schedule verified
   for the merged model also verifies the original constraints. *)
let prop_merge_sound () =
  let g = seeded_prng 606 in
  for _ = 1 to 10 do
    let m =
      Rt_workload.Model_gen.shared_block_model g ~n_pairs:2 ~shared_weight:2
        ~private_weight:1 ~period:14
    in
    let merged, _ = Merge.apply m in
    match Synthesis.synthesize ~merge:false merged with
    | Error _ -> ()
    | Ok plan ->
        (* Verify the ORIGINAL constraints (pipelined to match the
           plan's element space). *)
        let original_pipelined = (Pipeline.rewrite m).Pipeline.model in
        checkb "original constraints hold" true
          (Latency.all_ok
             (Latency.verify original_pipelined plan.Synthesis.schedule))
  done

(* 7. Synthesized plans never miss under adversarial arrivals (random
   models with one async constraint). *)
let prop_no_misses_adversarial () =
  let g = seeded_prng 707 in
  for _ = 1 to 8 do
    let m = Rt_workload.Model_gen.theorem3_model g ~n_constraints:2 ~max_weight:2 in
    match Synthesis.synthesize m with
    | Error _ -> ()
    | Ok plan ->
        let mu = plan.Synthesis.model_used in
        List.iter
          (fun (c : Timing.t) ->
            let arrivals =
              Rt_sim.Arrivals.adversarial_phases g ~horizon:300
                ~separation:c.period
            in
            let r =
              Rt_sim.Runtime.run mu plan.Synthesis.schedule ~horizon:300
                ~arrivals:[ (c.name, arrivals) ]
            in
            Alcotest.(check int) "no misses" 0 r.Rt_sim.Runtime.misses)
          (Model.asynchronous mu)
  done

(* 8. Parser robustness: random byte strings and mutated valid specs
   either parse or fail with a positioned diagnostic — never crash with
   anything else. *)
let prop_parser_total () =
  let g = seeded_prng 808 in
  let valid =
    Rt_spec.Printer.print
      (Rt_workload.Suite.control_system Rt_workload.Suite.default_params)
  in
  for _ = 1 to 200 do
    let input =
      if Rt_graph.Prng.bool g then
        (* Random printable garbage. *)
        String.init
          (Rt_graph.Prng.int g 80)
          (fun _ -> Char.chr (32 + Rt_graph.Prng.int g 95))
      else begin
        (* Mutate the valid spec: delete or duplicate a random chunk. *)
        let n = String.length valid in
        let i = Rt_graph.Prng.int g n in
        let len = Rt_graph.Prng.int g (min 20 (n - i)) in
        if Rt_graph.Prng.bool g then
          String.sub valid 0 i ^ String.sub valid (i + len) (n - i - len)
        else
          String.sub valid 0 (i + len)
          ^ String.sub valid i (n - i)
      end
    in
    match Rt_spec.Elaborate.load input with
    | Ok _ | Error _ -> ()
    | exception e ->
        Alcotest.failf "parser raised %s on %S" (Printexc.to_string e) input
  done

(* 9. Scale: a 40-constraint periodic system synthesizes and verifies
   within a few seconds (heap-based EDF + breakpoint latency). *)
let prop_scales_to_wide_models () =
  (* Integer rounding in the generator can push the realized
     utilization of 40 small constraints past 1.0, so the oracle is the
     realized utilization itself: implicit-deadline periodic chains are
     EDF-feasible iff U <= 1. *)
  let g = seeded_prng 909 in
  for _ = 1 to 5 do
    let m =
      Rt_workload.Model_gen.periodic_chain_model g ~n_constraints:40
        ~utilization:0.5 ~periods:[ 128; 256 ]
    in
    let u = Model.utilization m in
    match Synthesis.synthesize m with
    | Ok plan ->
        checkb "only feasible loads succeed" true (u <= 1.0 +. 1e-9);
        checkb "verified at scale" true
          (Latency.all_ok plan.Synthesis.verdicts);
        checkb "hyperperiod is the lcm" true (plan.Synthesis.hyperperiod = 256)
    | Error e ->
        if u <= 1.0 +. 1e-9 then
          Alcotest.failf "U=%.3f <= 1 must synthesize: %s" u
            e.Synthesis.message
  done

(* 10. Schedule.validate agrees with the trace semantics: for random
   schedules over one atomic element, well-formedness holds iff every
   canonical instance over two unrolled cycles is contiguous. *)
let prop_validate_matches_canonical_contiguity () =
  let g = seeded_prng 1111 in
  let comm = Comm_graph.create ~elements:[ ("c", 2, false) ] ~edges:[] in
  for _ = 1 to 200 do
    let len = 2 + Rt_graph.Prng.int g 8 in
    let slots =
      List.init len (fun _ ->
          if Rt_graph.Prng.chance g 0.5 then Schedule.Run 0 else Schedule.Idle)
    in
    let sched = Schedule.of_slots slots in
    let occ = Schedule.occurrences sched 0 in
    let valid = Schedule.validate comm sched = Ok () in
    if occ mod 2 = 0 then begin
      (* Whole executions per cycle: validity must equal canonical
         contiguity of every instance. *)
      let tr = Trace.of_schedule comm sched ~horizon:(2 * len) in
      let contiguous =
        Array.for_all
          (fun (i : Trace.instance) -> i.finish - i.start = 2)
          (Trace.instances tr 0)
      in
      if valid <> contiguous then
        Alcotest.failf "disagreement on %s: validate=%b contiguous=%b"
          (Schedule.to_string comm sched) valid contiguous
    end
    else Alcotest.(check bool) "odd slot count invalid" false valid
  done

(* 11. Decomposition partitions the constraint set and refines
   interaction connectivity: components are disjoint, cover every
   constraint, never share an element, and two constraints whose task
   graphs share an element always land in the same component. *)
let prop_decompose_partitions () =
  let g = seeded_prng 1212 in
  for _ = 1 to 50 do
    let n_elems = 3 + Rt_graph.Prng.int g 5 in
    let comm =
      Comm_graph.create
        ~elements:(List.init n_elems (fun i -> (Printf.sprintf "e%d" i, 1, true)))
        ~edges:
          (List.init (n_elems - 1) (fun i ->
               (Printf.sprintf "e%d" i, Printf.sprintf "e%d" (i + 1))))
    in
    let n_cons = 2 + Rt_graph.Prng.int g 5 in
    let constraints =
      List.init n_cons (fun i ->
          let s = Rt_graph.Prng.int g n_elems in
          let len = 1 + Rt_graph.Prng.int g (min 3 (n_elems - s)) in
          let graph = Task_graph.of_chain (List.init len (fun k -> s + k)) in
          Timing.make
            ~name:(Printf.sprintf "c%d" i)
            ~graph
            ~period:(24 + Rt_graph.Prng.int g 16)
            ~deadline:(4 + Rt_graph.Prng.int g 8)
            ~kind:Timing.Asynchronous)
    in
    let m = Model.make ~comm ~constraints in
    let comps = Decompose.components m in
    (* Partition: ascending disjoint indices covering 0..n_cons-1. *)
    let covered = List.concat_map (fun c -> c.Decompose.indices) comps in
    Alcotest.(check (list int))
      "indices cover the constraint list exactly once"
      (List.init n_cons Fun.id)
      (List.sort compare covered);
    (* Refinement: no element belongs to two components. *)
    let elems = List.concat_map (fun c -> c.Decompose.elements) comps in
    Alcotest.(check (list int))
      "components never share an element"
      (List.sort_uniq compare elems)
      (List.sort compare elems);
    (* Connectivity: element-sharing constraints share a component. *)
    let comp_of = Array.make n_cons (-1) in
    List.iter
      (fun c ->
        List.iter (fun i -> comp_of.(i) <- c.Decompose.rank) c.Decompose.indices)
      comps;
    let elem_sets =
      Array.of_list
        (List.map
           (fun (c : Timing.t) ->
             List.sort_uniq compare (Task_graph.elements_used c.Timing.graph))
           constraints)
    in
    for i = 0 to n_cons - 1 do
      for j = i + 1 to n_cons - 1 do
        let share =
          List.exists (fun e -> List.mem e elem_sets.(j)) elem_sets.(i)
        in
        if share then
          Alcotest.(check int)
            (Printf.sprintf "c%d and c%d share an element, same component" i j)
            comp_of.(i) comp_of.(j)
      done
    done
  done

(* 12. On a fully coupled model (one interaction component) the
   decomposition pass is an accelerator with nothing to accelerate: the
   decomposed pipeline must return a bit-identical plan (or the same
   failure stage) as the undecomposed one, sequentially and on a
   4-domain pool alike. *)
let prop_decompose_single_component_identity () =
  let g = seeded_prng 1313 in
  for _ = 1 to 8 do
    let m =
      Rt_workload.Model_gen.shared_block_model g
        ~n_pairs:(1 + Rt_graph.Prng.int g 3)
        ~shared_weight:2 ~private_weight:1
        ~period:(12 + (4 * Rt_graph.Prng.int g 3))
    in
    if List.length (Decompose.components m) = 1 then begin
      let plain = Synthesis.synthesize ~decompose:false m in
      let dec1 = Synthesis.synthesize ~decompose:true m in
      let dec4 =
        Rt_par.Pool.with_pool ~jobs:4 (fun pool ->
            Synthesis.synthesize ~pool ~decompose:true m)
      in
      List.iter
        (fun (label, dec) ->
          match (plain, dec) with
          | Ok p, Ok d ->
              checkb (label ^ ": schedules bit-identical") true
                (Schedule.equal p.Synthesis.schedule d.Synthesis.schedule);
              Alcotest.(check int)
                (label ^ ": hyperperiods equal")
                p.Synthesis.hyperperiod d.Synthesis.hyperperiod
          | Error p, Error d ->
              Alcotest.(check string)
                (label ^ ": failure stages equal")
                p.Synthesis.stage d.Synthesis.stage
          | Ok _, Error d ->
              Alcotest.failf "%s: decomposed failed where plain succeeded: %s"
                label d.Synthesis.message
          | Error p, Ok _ ->
              Alcotest.failf "%s: decomposed succeeded where plain failed: %s"
                label p.Synthesis.message)
        [ ("jobs=1", dec1); ("jobs=4", dec4) ]
    end
  done

(* 13. Fail-closed contract of the decomposed pipeline on random
   loosely-coupled models: either the plan's interleaved schedule
   verifies against the whole model it was built for, or synthesis
   reports a structured error (named stage, non-empty message) — never
   an unverified schedule, never an exception. *)
let prop_decompose_fail_closed () =
  let g = seeded_prng 1414 in
  for _ = 1 to 10 do
    let n_comp = 2 + Rt_graph.Prng.int g 3 in
    let comm =
      Comm_graph.create
        ~elements:(List.init n_comp (fun i -> (Printf.sprintf "u%d" i, 1, true)))
        ~edges:[]
    in
    let constraints =
      List.init n_comp (fun i ->
          Timing.make
            ~name:(Printf.sprintf "a%d" i)
            ~graph:(Task_graph.singleton i)
            ~period:(24 + (8 * Rt_graph.Prng.int g 4))
            ~deadline:(3 + Rt_graph.Prng.int g 10)
            ~kind:Timing.Asynchronous)
    in
    let m = Model.make ~comm ~constraints in
    match Synthesis.synthesize ~decompose:true m with
    | Ok plan ->
        checkb "decomposed plan verifies against its whole model" true
          (Latency.all_ok
             (Latency.verify plan.Synthesis.model_used plan.Synthesis.schedule))
    | Error e ->
        checkb "structured error names its stage" true (e.Synthesis.stage <> "");
        checkb "structured error carries a message" true
          (e.Synthesis.message <> "")
    | exception exn ->
        Alcotest.failf "decomposed synthesis raised %s" (Printexc.to_string exn)
  done

(* 14. One window evaluator per processor model: with one mode and no
   faults, Robust_runtime's realized log is the round-robin trace, so
   it reports every invocation exactly as Runtime does, on generated
   periodic-chain, DAG, single-op and Theorem-3 models with random
   legal arrivals. *)
let prop_faultless_robust_is_runtime () =
  let g = seeded_prng 1515 in
  let module Gen = Rt_workload.Model_gen in
  let periods = [ 8; 12; 16; 24 ] in
  let utilization () = 0.3 +. Rt_graph.Prng.float g 0.5 in
  let models =
    List.init 8 (fun _ ->
        Gen.periodic_chain_model g
          ~n_constraints:(1 + Rt_graph.Prng.int g 3)
          ~utilization:(utilization ()) ~periods)
    @ List.init 8 (fun _ ->
          Gen.dag_model g
            ~n_constraints:(1 + Rt_graph.Prng.int g 2)
            ~utilization:(utilization ()) ~periods)
    @ List.init 8 (fun _ ->
          Gen.single_op_model ~max_deadline:16 g
            ~n_constraints:(1 + Rt_graph.Prng.int g 3)
            ~max_weight:3
            ~target_ratio_sum:(0.3 +. Rt_graph.Prng.float g 0.6))
    @ List.init 8 (fun _ ->
          Gen.theorem3_model g ~n_constraints:2 ~max_weight:2)
  in
  let compared = ref 0 in
  List.iter
    (fun m ->
      match Modes.derive m [] with
      | Error _ -> () (* some random workloads are simply infeasible *)
      | Ok modes ->
          let primary = List.hd modes in
          let plan = primary.Modes.plan in
          let mu = plan.Synthesis.model_used in
          let horizon = 64 + Rt_graph.Prng.int g 256 in
          let arrivals =
            List.map
              (fun (c : Timing.t) ->
                ( c.name,
                  Rt_sim.Arrivals.random g ~horizon ~separation:c.period
                    ~density:(0.2 +. Rt_graph.Prng.float g 0.8) ))
              (Model.asynchronous mu)
          in
          let plain =
            Rt_sim.Runtime.run mu plan.Synthesis.schedule ~horizon ~arrivals
          in
          let robust =
            Rt_sim.Robust_runtime.run ~horizon ~arrivals [ primary ]
          in
          incr compared;
          let key name arrival completion met =
            Printf.sprintf "%s@%d -> %s%s" name arrival
              (match completion with
              | Some f -> string_of_int f
              | None -> "none")
              (if met then "" else " MISS")
          in
          Alcotest.(check (list string))
            "same invocations"
            (List.map
               (fun (i : Rt_sim.Runtime.invocation) ->
                 key i.constraint_name i.arrival i.completion i.met)
               plain.Rt_sim.Runtime.invocations)
            (List.map
               (fun (i : Rt_sim.Robust_runtime.invocation) ->
                 key i.constraint_name i.arrival i.completion i.met)
               robust.Rt_sim.Robust_runtime.invocations))
    models;
  checkb "most models were replayed" true (!compared >= 24)

(* The fault-free realized log of a slot array, derived apart from
   [Trace.of_slots]: an execution starts at its element's first slot and
   finishes one past its [weight]-th, and records appear in finish
   order, as a replay writes them. *)
let log_of_slots comm slots =
  let n = Comm_graph.n_elements comm in
  let start = Array.make n 0 and got = Array.make n 0 in
  let log = ref [] in
  Array.iteri
    (fun t -> function
      | Schedule.Idle -> ()
      | Schedule.Run e ->
          if got.(e) = 0 then start.(e) <- t;
          got.(e) <- got.(e) + 1;
          if got.(e) = Comm_graph.weight comm e then begin
            log := (e, start.(e), t + 1) :: !log;
            got.(e) <- 0
          end)
    slots;
  List.rev !log

let random_slots g =
  let n = 1 + Rt_graph.Prng.int g 4 in
  let comm =
    Comm_graph.create
      ~elements:
        (List.init n (fun i ->
             (Printf.sprintf "e%d" i, 1 + Rt_graph.Prng.int g 3, true)))
      ~edges:[]
  in
  let slots =
    Array.init (Rt_graph.Prng.int g 80) (fun _ ->
        let k = Rt_graph.Prng.int g (n + 1) in
        if k = n then Schedule.Idle else Schedule.Run k)
  in
  (comm, slots)

(* 15. [Trace.of_executions] on a slot array's own executions builds
   the instances [Trace.of_slots] does, also when the records of
   different elements are interleaved in another order. *)
let prop_of_executions_is_of_slots () =
  let g = seeded_prng 1616 in
  for _ = 1 to 300 do
    let comm, slots = random_slots g in
    let horizon = Array.length slots in
    let expected = Trace.of_slots comm slots in
    let log = log_of_slots comm slots in
    let by_elem =
      List.stable_sort (fun (a, _, _) (b, _, _) -> Int.compare a b) log
    in
    List.iter
      (fun records ->
        let tr = Trace.of_executions comm ~horizon records in
        checkb "same horizon" true (Trace.horizon tr = horizon);
        for e = 0 to Comm_graph.n_elements comm - 1 do
          checkb "same instances" true
            (Trace.instances tr e = Trace.instances expected e)
        done)
      [ log; by_elem ]
  done

(* 16. [Trace.of_executions] refuses records that break pipeline
   order (two of one element's records swapped or repeated) or leave
   the trace. *)
let prop_of_executions_refuses_disorder () =
  let g = seeded_prng 1717 in
  let refused comm ~horizon records =
    match Trace.of_executions comm ~horizon records with
    | _ -> false
    | exception Invalid_argument _ -> true
  in
  let tried = ref 0 in
  for _ = 1 to 300 do
    let comm, slots = random_slots g in
    let horizon = Array.length slots in
    let log = Array.of_list (log_of_slots comm slots) in
    let n = Array.length log in
    let with_records f = Array.to_list (Array.mapi f log) in
    if n > 0 then begin
      let i = Rt_graph.Prng.int g n in
      let e, s, f = log.(i) in
      let with_record r = with_records (fun k x -> if k = i then r else x) in
      checkb "repeated record refused" true
        (refused comm ~horizon (Array.to_list log @ [ log.(i) ]));
      checkb "finish past the horizon refused" true
        (refused comm ~horizon (with_record (e, s, horizon + 1)));
      checkb "empty execution refused" true
        (refused comm ~horizon (with_record (e, f, f)));
      checkb "unknown element refused" true
        (refused comm ~horizon
           (with_record (Comm_graph.n_elements comm, s, f)));
      (* The next record of the same element, swapped with this one. *)
      let rec next k =
        if k >= n then None
        else
          let e', _, _ = log.(k) in
          if e' = e then Some k else next (k + 1)
      in
      match next (i + 1) with
      | None -> ()
      | Some j ->
          incr tried;
          let swapped =
            with_records (fun k x ->
                if k = i then log.(j) else if k = j then log.(i) else x)
          in
          checkb "swapped records refused" true (refused comm ~horizon swapped)
    end
  done;
  checkb "swaps were tried" true (!tried > 50);
  checkb "negative horizon refused" true
    (refused (fst (random_slots g)) ~horizon:(-1) [])

let () =
  Alcotest.run "cross-module-properties"
    [
      ( "properties",
        [
          Alcotest.test_case "trim preserves feasibility" `Slow
            prop_trim_preserves_feasibility;
          Alcotest.test_case "persist round-trip" `Slow
            prop_persist_roundtrip_random;
          Alcotest.test_case "gantt faithful" `Quick prop_gantt_faithful;
          Alcotest.test_case "canonical rotation" `Quick
            prop_canonical_rotation;
          Alcotest.test_case "admission vs exact" `Slow
            prop_admission_consistent_with_exact;
          Alcotest.test_case "merge sound" `Slow prop_merge_sound;
          Alcotest.test_case "adversarial no misses" `Slow
            prop_no_misses_adversarial;
          Alcotest.test_case "parser is total" `Quick prop_parser_total;
          Alcotest.test_case "scales to wide models" `Slow
            prop_scales_to_wide_models;
          Alcotest.test_case "validate matches canonical contiguity" `Quick
            prop_validate_matches_canonical_contiguity;
          Alcotest.test_case "decomposition partitions constraints" `Quick
            prop_decompose_partitions;
          Alcotest.test_case "single-component decomposed identity" `Slow
            prop_decompose_single_component_identity;
          Alcotest.test_case "decomposed synthesis fails closed" `Slow
            prop_decompose_fail_closed;
          Alcotest.test_case "faultless robust = runtime" `Quick
            prop_faultless_robust_is_runtime;
          Alcotest.test_case "of_executions = of_slots" `Quick
            prop_of_executions_is_of_slots;
          Alcotest.test_case "of_executions refuses disorder" `Quick
            prop_of_executions_refuses_disorder;
        ] );
    ]
