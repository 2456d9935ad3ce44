(* Tests for the multiprocessor decomposition: partitioning, constraint
   splitting with window allotment, bus scheduling, and the end-to-end
   synthesis flow. *)

open Rt_core
module Pt = Rt_multiproc.Partition
module Dc = Rt_multiproc.Decompose
module Ns = Rt_multiproc.Netsched
module Ms = Rt_multiproc.Msched
module Mcert = Rt_multiproc.Mcert
module Checker = Rt_check.Checker

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let example = Rt_workload.Suite.control_system Rt_workload.Suite.default_params

(* ------------------------------------------------------------------ *)
(* Partition                                                           *)
(* ------------------------------------------------------------------ *)

let test_partition_single () =
  let p = Pt.single example.Model.comm in
  checki "one processor" 1 p.Pt.n_procs;
  checkb "no cut edges" true (Pt.cut_edges example.Model.comm p = []);
  checki "full load" (Comm_graph.total_weight example.Model.comm)
    (Pt.max_load example.Model.comm p)

let test_partition_greedy_balance () =
  let p = Pt.greedy example.Model.comm ~n_procs:2 in
  let loads = Pt.loads example.Model.comm p in
  checki "two processors" 2 (Array.length loads);
  checki "total preserved"
    (Comm_graph.total_weight example.Model.comm)
    (loads.(0) + loads.(1));
  (* Total weight 6 over 2 procs: max load must be < 6 (something
     moved). *)
  checkb "not everything on one processor" true
    (Pt.max_load example.Model.comm p < 6)

let test_partition_refine_reduces_cut () =
  let g = Rt_graph.Prng.create 42 in
  for _ = 1 to 10 do
    let m =
      Rt_workload.Model_gen.periodic_chain_model g ~n_constraints:6
        ~utilization:0.5 ~periods:[ 12; 24 ]
    in
    let rough = Pt.greedy m.Model.comm ~n_procs:3 in
    let refined = Pt.refine m.Model.comm rough in
    checkb "refinement never increases the cut" true
      (List.length (Pt.cut_edges m.Model.comm refined)
      <= List.length (Pt.cut_edges m.Model.comm rough));
    checkb "refinement keeps the load bound" true
      (Pt.max_load m.Model.comm refined <= Pt.max_load m.Model.comm rough)
  done

(* ------------------------------------------------------------------ *)
(* Decompose                                                           *)
(* ------------------------------------------------------------------ *)

let test_decompose_single_proc_no_messages () =
  let p = Pt.single example.Model.comm in
  match Dc.decompose example p ~msg_cost:1 with
  | Error e -> Alcotest.failf "failed: %s" e
  | Ok plans ->
      checki "three plans" 3 (List.length plans);
      checki "no bus demand" 0 (Dc.total_bus_demand plans);
      List.iter
        (fun plan ->
          checki "one segment" 1 (List.length plan.Dc.pieces);
          match (List.hd plan.Dc.pieces).Dc.piece with
          | Dc.Segment s -> checki "on processor 0" 0 s.processor
          | Dc.Message _ -> Alcotest.fail "no message expected")
        plans

let test_decompose_windows_chain () =
  let p = Pt.greedy example.Model.comm ~n_procs:2 in
  match Dc.decompose example p ~msg_cost:1 with
  | Error e -> Alcotest.failf "failed: %s" e
  | Ok plans ->
      List.iter
        (fun plan ->
          (* Windows tile [0, deadline]: consecutive and each at least
             as long as its piece's time. *)
          let rec walk off = function
            | [] -> ()
            | w :: rest ->
                checki "windows chain" off w.Dc.start_off;
                checkb "window fits its work" true
                  (w.Dc.end_off - w.Dc.start_off
                  >= match w.Dc.piece with
                     | Dc.Segment s -> s.work
                     | Dc.Message m -> m.cost);
                walk w.Dc.end_off rest
          in
          walk 0 plan.Dc.pieces)
        plans

let test_decompose_strategies_tile () =
  let p = Pt.greedy example.Model.comm ~n_procs:2 in
  List.iter
    (fun strategy ->
      match Dc.decompose ~strategy example p ~msg_cost:1 with
      | Error e -> Alcotest.failf "failed: %s" e
      | Ok plans ->
          List.iter
            (fun plan ->
              let rec walk off = function
                | [] -> ()
                | w :: rest ->
                    checki "windows chain" off w.Dc.start_off;
                    checkb "window fits its work" true
                      (w.Dc.end_off - w.Dc.start_off
                      >= match w.Dc.piece with
                         | Dc.Segment s -> s.work
                         | Dc.Message m -> m.cost);
                    walk w.Dc.end_off rest
              in
              walk 0 plan.Dc.pieces)
            plans)
    [ Dc.Proportional; Dc.Front_loaded; Dc.Back_loaded ]

let test_decompose_async_polling () =
  let p = Pt.single example.Model.comm in
  match Dc.decompose example p ~msg_cost:0 with
  | Error e -> Alcotest.failf "failed: %s" e
  | Ok plans ->
      let pz = List.find (fun pl -> pl.Dc.constraint_name = "pz") plans in
      (* d_z = 15 -> polling period ceil(16/2) = 8. *)
      checki "polling period" 8 pz.Dc.period

let test_decompose_infeasible_cut () =
  (* msg_cost so large the chain cannot fit its deadline. *)
  let p = Pt.greedy example.Model.comm ~n_procs:2 in
  let cut = Pt.cut_edges example.Model.comm p in
  if cut <> [] then
    match Dc.decompose example p ~msg_cost:1000 with
    | Error _ -> ()
    | Ok plans ->
        (* Only fails if some constraint actually crosses the cut. *)
        checkb "no plan crosses processors" true
          (List.for_all
             (fun plan ->
               List.for_all
                 (fun w ->
                   match w.Dc.piece with Dc.Message _ -> false | _ -> true)
                 plan.Dc.pieces)
             plans)

(* ------------------------------------------------------------------ *)
(* Netsched                                                            *)
(* ------------------------------------------------------------------ *)

let test_netsched_simple () =
  let items =
    [
      { Ns.item_name = "m1"; release = 0; abs_deadline = 2; cost = 1 };
      { Ns.item_name = "m2"; release = 0; abs_deadline = 4; cost = 2 };
    ]
  in
  match Ns.schedule ~horizon:4 items with
  | Error ms -> Alcotest.failf "failed: %s" (Ns.misses_to_string ms)
  | Ok bus ->
      checkb "EDF order" true (bus.(0) = Some "m1");
      checkb "m2 follows" true (bus.(1) = Some "m2" && bus.(2) = Some "m2")

let test_netsched_miss () =
  let items =
    [
      { Ns.item_name = "m1"; release = 0; abs_deadline = 1; cost = 1 };
      { Ns.item_name = "m2"; release = 0; abs_deadline = 1; cost = 1 };
    ]
  in
  match Ns.schedule ~horizon:4 items with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "two unit messages by t=1 is impossible"

let test_netsched_all_misses () =
  (* Three items each needing 2 slots by t=2 and one feasible late item:
     every infeasible item is reported, not just the first, and the
     feasible traffic is still dispatched. *)
  let items =
    [
      { Ns.item_name = "a"; release = 0; abs_deadline = 2; cost = 2 };
      { Ns.item_name = "b"; release = 0; abs_deadline = 2; cost = 2 };
      { Ns.item_name = "c"; release = 0; abs_deadline = 2; cost = 2 };
      { Ns.item_name = "late"; release = 4; abs_deadline = 8; cost = 2 };
    ]
  in
  match Ns.schedule ~horizon:8 items with
  | Ok _ -> Alcotest.fail "6 slots by t=2 is impossible"
  | Error misses ->
      checki "two of the three tight items miss" 2 (List.length misses);
      List.iter
        (fun m ->
          checkb "a tight item" true (List.mem m.Ns.missed [ "a"; "b"; "c" ]);
          checki "misses at its deadline" 2 m.Ns.miss_deadline;
          checkb "shortfall reported" true (m.Ns.short > 0))
        misses;
      checkb "deterministic order" true
        (List.sort compare (List.map (fun m -> m.Ns.missed) misses)
        = List.map (fun m -> m.Ns.missed) misses)

(* Independent brute-force feasibility for small instances: backtracking
   over which ready item each bus slot serves. *)
let brute_force_feasible ~horizon items =
  let items = Array.of_list items in
  let remaining = Array.map (fun i -> i.Ns.cost) items in
  let rec go t =
    if Array.for_all (fun r -> r = 0) remaining then true
    else if t >= horizon then false
    else if
      Array.exists
        (fun i -> remaining.(i) > 0 && items.(i).Ns.abs_deadline <= t)
        (Array.init (Array.length items) Fun.id)
    then false
    else
      (* Try idling this slot, or serving any ready item. *)
      let choices =
        None
        :: List.filter_map
             (fun i ->
               if remaining.(i) > 0 && items.(i).Ns.release <= t then Some (Some i)
               else None)
             (List.init (Array.length items) Fun.id)
      in
      List.exists
        (fun choice ->
          match choice with
          | None -> go (t + 1)
          | Some i ->
              remaining.(i) <- remaining.(i) - 1;
              let ok = go (t + 1) in
              remaining.(i) <- remaining.(i) + 1;
              ok)
        choices
  in
  go 0

let test_netsched_edf_iff_brute_force () =
  (* Property: EDF bus scheduling succeeds exactly when the instance is
     feasible at all (EDF optimality on one resource). *)
  let g = Rt_graph.Prng.create 7771 in
  for _ = 1 to 60 do
    let horizon = 4 + Rt_graph.Prng.int g 5 in
    let n = 1 + Rt_graph.Prng.int g 3 in
    let items =
      List.init n (fun i ->
          let release = Rt_graph.Prng.int g (horizon - 1) in
          let span = 1 + Rt_graph.Prng.int g (horizon - release) in
          {
            Ns.item_name = Printf.sprintf "m%d" i;
            release;
            abs_deadline = release + span;
            cost = 1 + Rt_graph.Prng.int g 2;
          })
    in
    let edf_ok =
      match Ns.schedule ~horizon items with Ok _ -> true | Error _ -> false
    in
    checkb "EDF feasible iff brute-force feasible"
      (brute_force_feasible ~horizon items)
      edf_ok
  done

let test_netsched_arq_slack () =
  (* cost 1, deadline 3: one retransmission fits, two cannot. *)
  let items =
    [
      { Ns.item_name = "m1"; release = 0; abs_deadline = 3; cost = 1 };
      { Ns.item_name = "m2"; release = 0; abs_deadline = 6; cost = 1 };
    ]
  in
  (match Ns.schedule_arq ~horizon:6 ~k:1 items with
  | Ok bus ->
      (* Each item holds cost + k slots. *)
      let count name =
        Array.fold_left
          (fun acc s -> if s = Some name then acc + 1 else acc)
          0 bus
      in
      checki "m1 reserved" 2 (count "m1");
      checki "m2 reserved" 2 (count "m2")
  | Error ms -> Alcotest.failf "k=1 must fit: %s" (Ns.misses_to_string ms));
  (match Ns.schedule_arq ~horizon:6 ~k:3 items with
  | Ok _ -> Alcotest.fail "k=3 inflates m1 to 4 slots by t=3"
  | Error _ -> ());
  checkb "tolerance is the largest feasible k" true
    (Ns.arq_tolerance ~horizon:6 items = Some 2)

let test_partition_refine_property () =
  (* Satellite property: refine never increases max_load nor the number
     of cut edges, on random models. *)
  let g = Rt_graph.Prng.create 31337 in
  for _ = 1 to 25 do
    let m =
      Rt_workload.Model_gen.periodic_chain_model g ~n_constraints:5
        ~utilization:0.6 ~periods:[ 12; 24 ]
    in
    let n_procs = 2 + Rt_graph.Prng.int g 3 in
    let rough = Pt.greedy m.Model.comm ~n_procs in
    let refined = Pt.refine m.Model.comm rough in
    checkb "max_load never increases" true
      (Pt.max_load m.Model.comm refined <= Pt.max_load m.Model.comm rough);
    checkb "cut_edges never grows" true
      (List.length (Pt.cut_edges m.Model.comm refined)
      <= List.length (Pt.cut_edges m.Model.comm rough))
  done

let test_partition_repair () =
  let g = Rt_graph.Prng.create 555 in
  for _ = 1 to 10 do
    let m =
      Rt_workload.Model_gen.periodic_chain_model g ~n_constraints:5
        ~utilization:0.6 ~periods:[ 12; 24 ]
    in
    let p = Pt.greedy m.Model.comm ~n_procs:3 in
    for dead = 0 to 2 do
      match Pt.repair m.Model.comm p ~dead with
      | Error e -> Alcotest.failf "repair failed: %s" e
      | Ok r ->
          checki "processor count stable" 3 r.Pt.n_procs;
          checki "dead processor empty" 0 (Pt.loads m.Model.comm r).(dead);
          Array.iteri
            (fun e proc ->
              if p.Pt.assignment.(e) <> dead then
                checki "survivors untouched" p.Pt.assignment.(e) proc
              else checkb "displaced onto a survivor" true (proc <> dead))
            r.Pt.assignment
    done
  done;
  match Pt.repair example.Model.comm (Pt.single example.Model.comm) ~dead:0 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "repair with one processor must fail"

let test_netsched_utilization () =
  let items =
    [ { Ns.item_name = "m"; release = 0; abs_deadline = 10; cost = 3 } ]
  in
  Alcotest.check (Alcotest.float 1e-9) "bus load" 0.3
    (Ns.utilization ~horizon:10 items)

(* ------------------------------------------------------------------ *)
(* Msched end-to-end                                                   *)
(* ------------------------------------------------------------------ *)

let test_msched_example_two_procs () =
  match Ms.synthesize ~n_procs:2 ~msg_cost:1 example with
  | Error e -> Alcotest.failf "multiprocessor synthesis failed: %s" e
  | Ok r ->
      checki "two processor schedules" 2 (Array.length r.Ms.processor_schedules);
      (* Each processor only runs its own elements. *)
      Array.iteri
        (fun proc sched ->
          Array.iter
            (function
              | Schedule.Idle -> ()
              | Schedule.Run e ->
                  checki "element on its processor" proc
                    r.Ms.partition.Pt.assignment.(e))
            (Schedule.slots sched))
        r.Ms.processor_schedules;
      (* Bus only used when there are cut edges. *)
      if r.Ms.cut = 0 then
        checkb "bus silent" true (r.Ms.bus_load = 0.0)

let test_msched_one_proc_matches_single () =
  match Ms.synthesize ~n_procs:1 ~msg_cost:1 example with
  | Error e -> Alcotest.failf "failed: %s" e
  | Ok r ->
      checki "no cut" 0 r.Ms.cut;
      checkb "no bus traffic" true (r.Ms.bus_load = 0.0)

let test_msched_scales_capacity () =
  (* A workload that overloads one processor but fits on two:
     independent single-op constraints of combined utilization 1.5. *)
  let comm =
    Comm_graph.create
      ~elements:[ ("a", 3, true); ("b", 3, true) ]
      ~edges:[]
  in
  let mk name elem =
    Timing.make ~name ~graph:(Task_graph.singleton elem) ~period:4 ~deadline:4
      ~kind:Timing.Periodic
  in
  let m = Model.make ~comm ~constraints:[ mk "ca" 0; mk "cb" 1 ] in
  (match Ms.synthesize ~n_procs:1 m with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "one processor cannot carry utilization 1.5");
  match Ms.synthesize ~n_procs:2 m with
  | Error e -> Alcotest.failf "two processors should fit: %s" e
  | Ok r ->
      checkb "both processors used" true
        (r.Ms.proc_loads.(0) > 0.0 && r.Ms.proc_loads.(1) > 0.0)

let test_msched_rejects_unconstrained () =
  let comm = Comm_graph.create ~elements:[ ("a", 1, true) ] ~edges:[] in
  let m =
    Model.make ~comm
      ~constraints:
        [
          Timing.make ~name:"c" ~graph:(Task_graph.singleton 0) ~period:5
            ~deadline:9 ~kind:Timing.Periodic;
        ]
  in
  match Ms.synthesize m with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "d > p unsupported"

let test_msched_verify_end_to_end () =
  match Ms.synthesize ~n_procs:3 ~msg_cost:1 example with
  | Error e -> Alcotest.failf "synthesis failed: %s" e
  | Ok r -> (
      match Checker.check_multi example (Mcert.result_cert example r) with
      | Ok () -> ()
      | Error errs ->
          Alcotest.failf "end-to-end verification failed: %s"
            (String.concat "; " errs))

let test_msched_verify_detects_corruption () =
  match Ms.synthesize ~n_procs:2 ~msg_cost:1 example with
  | Error e -> Alcotest.failf "synthesis failed: %s" e
  | Ok r ->
      (* Blank one processor's schedule: windows must now fail. *)
      let idle =
        Schedule.of_slots (List.init r.Ms.hyperperiod (fun _ -> Schedule.Idle))
      in
      let busy_proc =
        (* pick a processor that actually runs something *)
        let rec find i =
          if Schedule.busy_slots r.Ms.processor_schedules.(i) > 0 then i
          else find (i + 1)
        in
        find 0
      in
      let corrupted =
        {
          r with
          Ms.processor_schedules =
            Array.mapi
              (fun i s -> if i = busy_proc then idle else s)
              r.Ms.processor_schedules;
        }
      in
      (match
         Checker.check_multi example (Mcert.result_cert example corrupted)
       with
      | Error _ -> ()
      | Ok () -> Alcotest.fail "blanked processor must fail verification")

let test_msched_deterministic () =
  (* Everything in the flow is deterministic (ordered data structures,
     seeded randomness): synthesizing twice must give slot-identical
     schedules on every processor and the bus. *)
  let g = Rt_graph.Prng.create 2024 in
  for _ = 1 to 5 do
    let m =
      Rt_workload.Model_gen.periodic_chain_model g ~n_constraints:4
        ~utilization:0.7 ~periods:[ 12; 24 ]
    in
    match (Ms.synthesize ~n_procs:2 m, Ms.synthesize ~n_procs:2 m) with
    | Ok a, Ok b ->
        checkb "same processor schedules" true
          (Array.for_all2 Schedule.equal a.Ms.processor_schedules
             b.Ms.processor_schedules);
        checkb "same bus" true (a.Ms.bus = b.Ms.bus)
    | Error ea, Error eb -> checkb "same failure" true (ea = eb)
    | _ -> Alcotest.fail "nondeterministic outcome"
  done

let test_msched_round_trip () =
  (* Round-trip: verified per-processor + bus schedules imply the
     original end-to-end constraints on the merged trace — every
     constraint's measured worst response stays within its deadline. *)
  let deadlines =
    List.map
      (fun (c : Timing.t) -> (c.name, c.deadline))
      example.Model.constraints
  in
  List.iter
    (fun n_procs ->
      match Ms.synthesize ~n_procs ~msg_cost:1 example with
      | Error e -> Alcotest.failf "synthesis failed: %s" e
      | Ok r ->
          (match Checker.check_multi example (Mcert.result_cert example r) with
          | Ok () -> ()
          | Error errs ->
              Alcotest.failf "verification failed: %s" (String.concat "; " errs));
          List.iter
            (fun (name, bound) ->
              checkb "response positive" true (bound > 0);
              match List.assoc_opt name deadlines with
              | None -> Alcotest.failf "unknown constraint %s" name
              | Some d ->
                  checkb
                    (Printf.sprintf "%s: response %d within deadline %d" name
                       bound d)
                    true (bound <= d))
            (Ms.response_bounds example r))
    [ 1; 2; 3 ]

let test_msched_synthesize_with () =
  (* A caller-supplied partition is used as-is (processor ids stable),
     and arq_slack widens the bus reservation. *)
  let p = Pt.refine example.Model.comm (Pt.greedy example.Model.comm ~n_procs:2) in
  match Ms.synthesize_with ~msg_cost:1 example p with
  | Error e -> Alcotest.failf "synthesize_with failed: %s" e
  | Ok r ->
      checkb "partition kept" true (r.Ms.partition.Pt.assignment = p.Pt.assignment);
      checki "msg_cost recorded" 1 r.Ms.msg_cost;
      checki "no slack by default" 0 r.Ms.arq_slack;
      if r.Ms.cut > 0 then begin
        match Ms.synthesize_with ~msg_cost:1 ~arq_slack:1 example p with
        | Error _ -> () (* slack may make the system infeasible; fine *)
        | Ok r' ->
            checki "slack recorded" 1 r'.Ms.arq_slack;
            checkb "wider bus reservation" true (r'.Ms.bus_load >= r.Ms.bus_load)
      end

let test_msched_random_models () =
  let g = Rt_graph.Prng.create 99 in
  let successes = ref 0 in
  for _ = 1 to 10 do
    let m =
      Rt_workload.Model_gen.periodic_chain_model g ~n_constraints:5
        ~utilization:0.8 ~periods:[ 12; 24 ]
    in
    match Ms.synthesize ~n_procs:2 ~msg_cost:1 m with
    | Ok r ->
        incr successes;
        (* Sanity: hyperperiod divides all plan periods' lcm. *)
        checkb "hyperperiod positive" true (r.Ms.hyperperiod > 0)
    | Error _ -> ()
  done;
  checkb "most random models fit on two processors" true (!successes >= 5)

let () =
  Alcotest.run "rt_multiproc"
    [
      ( "partition",
        [
          Alcotest.test_case "single" `Quick test_partition_single;
          Alcotest.test_case "greedy balance" `Quick
            test_partition_greedy_balance;
          Alcotest.test_case "refine" `Quick test_partition_refine_reduces_cut;
          Alcotest.test_case "refine invariants" `Quick
            test_partition_refine_property;
          Alcotest.test_case "repair" `Quick test_partition_repair;
        ] );
      ( "decompose",
        [
          Alcotest.test_case "single proc" `Quick
            test_decompose_single_proc_no_messages;
          Alcotest.test_case "windows chain" `Quick
            test_decompose_windows_chain;
          Alcotest.test_case "strategies tile" `Quick
            test_decompose_strategies_tile;
          Alcotest.test_case "async polling" `Quick
            test_decompose_async_polling;
          Alcotest.test_case "infeasible cut" `Quick
            test_decompose_infeasible_cut;
        ] );
      ( "netsched",
        [
          Alcotest.test_case "simple" `Quick test_netsched_simple;
          Alcotest.test_case "miss" `Quick test_netsched_miss;
          Alcotest.test_case "all misses reported" `Quick
            test_netsched_all_misses;
          Alcotest.test_case "EDF iff brute force" `Quick
            test_netsched_edf_iff_brute_force;
          Alcotest.test_case "ARQ slack" `Quick test_netsched_arq_slack;
          Alcotest.test_case "utilization" `Quick test_netsched_utilization;
        ] );
      ( "msched",
        [
          Alcotest.test_case "example on two" `Quick
            test_msched_example_two_procs;
          Alcotest.test_case "one proc" `Quick
            test_msched_one_proc_matches_single;
          Alcotest.test_case "scales capacity" `Quick
            test_msched_scales_capacity;
          Alcotest.test_case "rejects unconstrained" `Quick
            test_msched_rejects_unconstrained;
          Alcotest.test_case "end-to-end verify" `Quick
            test_msched_verify_end_to_end;
          Alcotest.test_case "verify detects corruption" `Quick
            test_msched_verify_detects_corruption;
          Alcotest.test_case "round trip" `Quick test_msched_round_trip;
          Alcotest.test_case "synthesize_with" `Quick
            test_msched_synthesize_with;
          Alcotest.test_case "random models" `Slow test_msched_random_models;
          Alcotest.test_case "deterministic" `Quick
            test_msched_deterministic;
        ] );
    ]
