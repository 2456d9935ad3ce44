(* Tests for the extension modules: Optimize, Admission, Gantt,
   Monitor_sim, and the merge-fallback behaviour of Synthesis. *)

open Rt_core

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let example = Rt_workload.Suite.control_system Rt_workload.Suite.default_params

let example_plan =
  match Synthesis.synthesize example with
  | Ok p -> p
  | Error _ -> assert false

(* ------------------------------------------------------------------ *)
(* Optimize                                                            *)
(* ------------------------------------------------------------------ *)

let test_trim_idle_keeps_feasibility () =
  let m = example_plan.Synthesis.model_used in
  let sched = example_plan.Synthesis.schedule in
  let optimized, report = Optimize.trim_idle m sched in
  checkb "still verifies" true (Latency.all_ok (Latency.verify m optimized));
  checkb "never longer" true
    (Schedule.length optimized <= Schedule.length sched);
  checki "report consistent"
    (Schedule.length sched - Schedule.length optimized)
    report.Optimize.removed_idle

let test_trim_idle_removes_pure_slack () =
  (* One unit op with a huge deadline and lots of idle: trimming must
     shrink the cycle. *)
  let comm = Comm_graph.create ~elements:[ ("a", 1, true) ] ~edges:[] in
  let m =
    Model.make ~comm
      ~constraints:
        [
          Timing.make ~name:"c" ~graph:(Task_graph.singleton 0) ~period:50
            ~deadline:40 ~kind:Timing.Asynchronous;
        ]
  in
  let padded =
    Schedule.of_slots
      (Schedule.Run 0 :: List.init 20 (fun _ -> Schedule.Idle))
  in
  checkb "padded verifies" true (Latency.all_ok (Latency.verify m padded));
  let optimized, report = Optimize.trim_idle m padded in
  checkb "shorter" true (Schedule.length optimized < 21);
  checkb "idle removed" true (report.Optimize.removed_idle > 0);
  checkb "still verifies" true (Latency.all_ok (Latency.verify m optimized))

let test_trim_idle_rejects_infeasible_input () =
  let comm = Comm_graph.create ~elements:[ ("a", 1, true) ] ~edges:[] in
  let m =
    Model.make ~comm
      ~constraints:
        [
          Timing.make ~name:"c" ~graph:(Task_graph.singleton 0) ~period:4
            ~deadline:2 ~kind:Timing.Asynchronous;
        ]
  in
  let bad = Schedule.of_slots [ Schedule.Run 0; Schedule.Idle; Schedule.Idle ] in
  checkb "raises" true
    (try
       ignore (Optimize.trim_idle m bad);
       false
     with Invalid_argument _ -> true)

let test_canonical_rotation () =
  let s =
    Schedule.of_slots [ Schedule.Idle; Schedule.Run 1; Schedule.Run 0 ]
  in
  let c = Optimize.canonical_rotation s in
  checkb "starts with smallest element" true
    (Schedule.slot c 0 = Schedule.Run 0);
  (* All rotations share the same canonical form. *)
  for k = 0 to 2 do
    checkb "rotation invariant" true
      (Schedule.equal c (Optimize.canonical_rotation (Schedule.rotate s k)))
  done

let test_fundamental_period () =
  let s =
    Schedule.of_slots
      [ Schedule.Run 0; Schedule.Idle; Schedule.Run 0; Schedule.Idle ]
  in
  let f = Optimize.fundamental_period s in
  checki "halved" 2 (Schedule.length f);
  checkb "same induced trace" true
    (Array.for_all2 ( = ) (Schedule.unroll f 8) (Schedule.unroll s 8));
  (* Aperiodic cycles are returned unchanged. *)
  let a = Schedule.of_slots [ Schedule.Run 0; Schedule.Run 1; Schedule.Run 0 ] in
  checkb "aperiodic unchanged" true
    (Schedule.equal a (Optimize.fundamental_period a));
  (* Verdicts are untouched by construction: same trace. *)
  let m = example_plan.Synthesis.model_used in
  let sched = example_plan.Synthesis.schedule in
  let fp = Optimize.fundamental_period sched in
  checkb "plan verdicts preserved" true
    (Latency.all_ok (Latency.verify m fp))

let test_slack_profile () =
  let m = example_plan.Synthesis.model_used in
  let slack = Optimize.slack_profile m example_plan.Synthesis.schedule in
  checki "three constraints" 3 (List.length slack);
  List.iter (fun (_, s) -> checkb "non-negative slack" true (s >= 0)) slack

(* ------------------------------------------------------------------ *)
(* Admission                                                           *)
(* ------------------------------------------------------------------ *)

let test_admission_impossible_weight () =
  let comm = Comm_graph.create ~elements:[ ("a", 5, true) ] ~edges:[] in
  let m =
    Model.make ~comm
      ~constraints:
        [
          Timing.make ~name:"c" ~graph:(Task_graph.singleton 0) ~period:9
            ~deadline:3 ~kind:Timing.Asynchronous;
        ]
  in
  match Admission.admit m with
  | Admission.Impossible _ -> ()
  | _ -> Alcotest.fail "w=5 > d=3 must be impossible"

let test_admission_impossible_rate () =
  (* Two unit ops each needing presence in every 1-slot window. *)
  match Admission.admit Rt_workload.Suite.infeasible_pair with
  | Admission.Impossible _ -> ()
  | _ -> Alcotest.fail "rate bound must fire"

let test_admission_guaranteed_theorem3 () =
  let g = Rt_graph.Prng.create 8 in
  for _ = 1 to 20 do
    let m = Rt_workload.Model_gen.theorem3_model g ~n_constraints:3 ~max_weight:3 in
    match Admission.admit m with
    | Admission.Guaranteed "theorem3" ->
        (* The certificate must be honoured by the constructive
           scheduler. *)
        checkb "construction succeeds" true
          (match Theorem3.schedule m with Ok _ -> true | Error _ -> false)
    | _ -> Alcotest.fail "theorem3 premises hold by construction"
  done

let test_admission_guaranteed_edf () =
  let comm =
    Comm_graph.create
      ~elements:[ ("a", 2, true); ("b", 3, true) ]
      ~edges:[]
  in
  let m =
    Model.make ~comm
      ~constraints:
        [
          Timing.make ~name:"ca" ~graph:(Task_graph.singleton 0) ~period:4
            ~deadline:4 ~kind:Timing.Periodic;
          Timing.make ~name:"cb" ~graph:(Task_graph.singleton 1) ~period:8
            ~deadline:8 ~kind:Timing.Periodic;
        ]
  in
  (match Admission.admit m with
  | Admission.Guaranteed "edf-periodic" -> ()
  | _ -> Alcotest.fail "U = 0.875, disjoint, implicit: EDF-guaranteed");
  checkb "synthesis honours the certificate" true
    (match Synthesis.synthesize m with Ok _ -> true | Error _ -> false)

let test_admission_inconclusive () =
  (* The default example: premises fail, async present -> inconclusive,
     yet synthesizable (the gap Theorem 2 predicts). *)
  match Admission.admit example with
  | Admission.Inconclusive -> ()
  | Admission.Guaranteed _ -> Alcotest.fail "no sufficient test applies"
  | Admission.Impossible why -> Alcotest.failf "not impossible: %s" why

let test_admission_never_contradicts_synthesis () =
  (* Impossible => synthesis must fail; Guaranteed(edf) => must
     succeed. *)
  let g = Rt_graph.Prng.create 909 in
  for _ = 1 to 40 do
    let m =
      Rt_workload.Model_gen.periodic_chain_model g ~n_constraints:3
        ~utilization:(0.5 +. Rt_graph.Prng.float g 0.9)
        ~periods:[ 8; 16; 32 ]
    in
    match Admission.admit m with
    | Admission.Impossible _ -> (
        match Synthesis.synthesize ~max_hyperperiod:50_000 m with
        | Ok _ -> Alcotest.fail "impossible model synthesized"
        | Error _ -> ())
    | Admission.Guaranteed _ -> (
        match Synthesis.synthesize m with
        | Ok _ -> () (* full cap: the certificate must be honoured *)
        | Error e ->
            Alcotest.failf "guaranteed model failed synthesis: %s"
              e.Synthesis.message)
    | Admission.Inconclusive -> ()
  done

let test_admission_edf_with_offsets () =
  let comm =
    Comm_graph.create ~elements:[ ("a", 2, true); ("b", 2, true) ] ~edges:[]
  in
  let mk name elem offset d =
    let c =
      Timing.make ~name ~graph:(Task_graph.singleton elem) ~period:8
        ~deadline:d ~kind:Timing.Periodic
    in
    if offset = 0 then c else Timing.with_offset c offset
  in
  let fits = Model.make ~comm ~constraints:[ mk "ca" 0 0 4; mk "cb" 1 4 4 ] in
  (match Admission.admit fits with
  | Admission.Guaranteed _ ->
      checkb "certificate realizable" true
        (match Synthesis.synthesize fits with Ok _ -> true | Error _ -> false)
  | Admission.Impossible why -> Alcotest.failf "not impossible: %s" why
  | Admission.Inconclusive -> Alcotest.fail "phased pair is EDF-certain");
  (* offset + d > p: the constructor cannot realize it, so the
     certificate must not fire. *)
  let spills = Model.make ~comm ~constraints:[ mk "ca" 0 6 4; mk "cb" 1 0 4 ] in
  match Admission.admit spills with
  | Admission.Guaranteed how ->
      Alcotest.failf "unrealizable certificate %s" how
  | Admission.Impossible _ | Admission.Inconclusive -> ()

let test_admission_merged_route () =
  (* Same-period constraints sharing an element at modest load: the
     direct EDF test is defeated by the sharing, the merged route
     certifies it, and synthesis honours the certificate. *)
  let g = Rt_graph.Prng.create 606 in
  let m =
    Rt_workload.Model_gen.shared_block_model g ~n_pairs:2 ~shared_weight:2
      ~private_weight:1 ~period:20
  in
  (match Admission.admit m with
  | Admission.Guaranteed "edf-periodic-merged" -> ()
  | Admission.Guaranteed other ->
      Alcotest.failf "unexpected certificate %s" other
  | Admission.Impossible why -> Alcotest.failf "impossible: %s" why
  | Admission.Inconclusive -> Alcotest.fail "merged route should certify");
  checkb "synthesis honours it" true
    (match Synthesis.synthesize m with Ok _ -> true | Error _ -> false)

(* [Admission.sufficient] as it was before it skipped the merge on
   models with an asynchronous constraint: a test-local copy, to show
   the skip never changes a verdict. *)
let old_sufficient (m : Model.t) =
  let applicable (m : Model.t) =
    Model.asynchronous m = []
    && Model.elements_shared m = []
    && List.for_all
         (fun (c : Timing.t) -> c.offset + c.deadline <= c.period)
         m.constraints
    && List.for_all
         (fun (c : Timing.t) ->
           List.for_all
             (fun e ->
               Comm_graph.weight m.comm e = 1
               || Comm_graph.pipelinable m.comm e)
             (Task_graph.elements_used c.graph))
         m.constraints
  in
  let feasible (m : Model.t) =
    match Model.hyperperiod m with
    | exception Rt_graph.Intmath.Overflow -> false
    | hyper ->
        let max_d =
          List.fold_left
            (fun acc (c : Timing.t) -> max acc c.deadline)
            0 (Model.periodic m)
        in
        let bound = hyper + max_d in
        List.concat_map
          (fun (c : Timing.t) ->
            let rec go t acc =
              if t > bound then acc else go (t + c.period) (t :: acc)
            in
            go c.deadline [])
          (Model.periodic m)
        |> List.sort_uniq Int.compare
        |> List.for_all (fun t -> Admission.demand_bound m t <= t)
  in
  if Theorem3.premises_hold m then Some "theorem3"
  else if applicable m && feasible m then Some "edf-periodic"
  else
    let merged, report = Merge.apply m in
    if report.Merge.merged_groups <> [] && applicable merged && feasible merged
    then Some "edf-periodic-merged"
    else None

(* Mixed models: a periodic model with asynchronous copies of some of
   its constraints, so merge groups exist beside the asynchronous
   constraint that defeats both EDF tests. *)
let with_async_copies g (m : Model.t) =
  let copies =
    List.filter_map
      (fun (c : Timing.t) ->
        if Rt_graph.Prng.bool g then
          Some
            (Timing.make ~name:(c.name ^ "_async") ~graph:c.graph
               ~period:c.period ~deadline:c.deadline ~kind:Timing.Asynchronous)
        else None)
      m.constraints
  in
  let copies =
    match (copies, m.constraints) with
    | [], c :: _ ->
        [
          Timing.make ~name:(c.name ^ "_async") ~graph:c.graph ~period:c.period
            ~deadline:c.deadline ~kind:Timing.Asynchronous;
        ]
    | cs, _ -> cs
  in
  Model.make ~comm:m.comm ~constraints:(m.constraints @ copies)

let test_sufficient_skips_merge () =
  let g = Rt_graph.Prng.create 2121 in
  let mixed = ref 0 and periodic = ref 0 and fired = Hashtbl.create 4 in
  for i = 0 to 199 do
    let base =
      match i mod 4 with
      | 0 ->
          Rt_workload.Model_gen.shared_block_model g
            ~n_pairs:(1 + Rt_graph.Prng.int g 2)
            ~shared_weight:(1 + Rt_graph.Prng.int g 2)
            ~private_weight:1
            ~period:(Rt_graph.Prng.pick g [ 12; 16; 20 ])
      | 1 ->
          Rt_workload.Model_gen.periodic_chain_model g ~n_constraints:3
            ~utilization:(0.3 +. Rt_graph.Prng.float g 0.6)
            ~periods:[ 8; 16; 32 ]
      | 2 ->
          Rt_workload.Model_gen.dag_model g ~n_constraints:2
            ~utilization:0.5 ~periods:[ 10; 20 ]
      | _ ->
          Rt_workload.Model_gen.theorem3_model g
            ~n_constraints:(2 + Rt_graph.Prng.int g 3)
            ~max_weight:2
    in
    List.iter
      (fun (m : Model.t) ->
        if Model.asynchronous m = [] then incr periodic else incr mixed;
        let old = old_sufficient m in
        Option.iter (fun n -> Hashtbl.replace fired n ()) old;
        Alcotest.(check (option string))
          (Printf.sprintf "model %d: same sufficient verdict" i)
          old (Admission.sufficient m))
      [ base; with_async_copies g base ]
  done;
  checkb "periodic-only models compared" true (!periodic >= 100);
  checkb "mixed models compared" true (!mixed >= 200);
  List.iter
    (fun n -> checkb (n ^ " fired") true (Hashtbl.mem fired n))
    [ "theorem3"; "edf-periodic"; "edf-periodic-merged" ]

let test_schedule_of_string_roundtrip () =
  let m = example_plan.Synthesis.model_used in
  let sched = example_plan.Synthesis.schedule in
  (match Schedule.of_string m.Model.comm (Schedule.to_string m.Model.comm sched) with
  | Ok back -> checkb "round-trip" true (Schedule.equal back sched)
  | Error e -> Alcotest.failf "parse failed: %s" e);
  (match Schedule.of_string m.Model.comm "f_x nope" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown element must fail");
  match Schedule.of_string m.Model.comm "   " with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "empty must fail"

let test_demand_bound () =
  let comm = Comm_graph.create ~elements:[ ("a", 2, true) ] ~edges:[] in
  let m =
    Model.make ~comm
      ~constraints:
        [
          Timing.make ~name:"c" ~graph:(Task_graph.singleton 0) ~period:10
            ~deadline:6 ~kind:Timing.Periodic;
        ]
  in
  checki "before deadline" 0 (Admission.demand_bound m 5);
  checki "at deadline" 2 (Admission.demand_bound m 6);
  checki "second job" 4 (Admission.demand_bound m 16)

let test_rate_bound_kinds () =
  let comm = Comm_graph.create ~elements:[ ("a", 2, true) ] ~edges:[] in
  let mk kind =
    Model.make ~comm
      ~constraints:
        [
          Timing.make ~name:"c" ~graph:(Task_graph.singleton 0) ~period:10
            ~deadline:6 ~kind;
        ]
  in
  (* Async: max(w/(d+1-w), w/d) = max(2/5, 2/6) = 0.4. *)
  Alcotest.check (Alcotest.float 1e-9) "async rate" 0.4
    (Admission.rate_bound (mk Timing.Asynchronous));
  (* Periodic (d <= p): w/p = 0.2. *)
  Alcotest.check (Alcotest.float 1e-9) "periodic rate" 0.2
    (Admission.rate_bound (mk Timing.Periodic))

let test_sensitivity_scale_clamps_offset () =
  let comm = Comm_graph.create ~elements:[ ("a", 1, true) ] ~edges:[] in
  let c =
    Timing.with_offset
      (Timing.make ~name:"c" ~graph:(Task_graph.singleton 0) ~period:10
         ~deadline:4 ~kind:Timing.Periodic)
      6
  in
  let m = Model.make ~comm ~constraints:[ c ] in
  (* Scaling to 1/10 gives period 1; the offset must clamp below it. *)
  let m' = Sensitivity.scaled_time m ~num:1 ~den:10 in
  let c' = Model.find m' "c" in
  checki "period floored" 1 c'.Timing.period;
  checkb "offset clamped into range" true (c'.Timing.offset < c'.Timing.period)

(* ------------------------------------------------------------------ *)
(* Gantt                                                               *)
(* ------------------------------------------------------------------ *)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let test_gantt_render () =
  let comm =
    Comm_graph.create ~elements:[ ("a", 1, true); ("b", 1, true) ] ~edges:[]
  in
  let sched =
    Schedule.of_slots [ Schedule.Run 0; Schedule.Run 1; Schedule.Idle ]
  in
  let out = Gantt.render comm sched in
  checkb "a row" true (contains out "a  #--");
  checkb "b row" true (contains out "b  -#-");
  let leg = Gantt.legend comm sched in
  checkb "legend counts" true (contains leg "a: 1/3 slots");
  (* Window rendering wraps around the cycle. *)
  let w = Gantt.render_window comm sched ~t0:2 ~t1:5 in
  checkb "wrapped a" true (contains w "a  -#-")

let test_gantt_omits_unused () =
  let comm =
    Comm_graph.create ~elements:[ ("a", 1, true); ("zz", 1, true) ] ~edges:[]
  in
  let sched = Schedule.of_slots [ Schedule.Run 0 ] in
  checkb "unused element omitted" false (contains (Gantt.render comm sched) "zz")

let test_gantt_chunks () =
  let comm = Comm_graph.create ~elements:[ ("a", 1, true) ] ~edges:[] in
  let sched = Schedule.of_slots (List.init 100 (fun _ -> Schedule.Run 0)) in
  let out = Gantt.render ~width:40 comm sched in
  (* Three chunks -> three 'a' rows. *)
  let rows =
    String.split_on_char '\n' out
    |> List.filter (fun l -> String.length l > 0 && l.[0] = 'a')
  in
  checki "three chunks" 3 (List.length rows)

(* ------------------------------------------------------------------ *)
(* Monitor_sim                                                         *)
(* ------------------------------------------------------------------ *)

(* Classic inversion scenario: lo acquires the monitor, hi arrives and
   blocks on it, mid preempts lo (without inheritance) stretching hi's
   wait arbitrarily. *)
(* lo (loose deadline) grabs the shared monitor at t=0; hi arrives at
   t=2 and blocks on it; mid (monitor-free) arrives at t=3.  Without
   inheritance mid preempts lo while hi waits — the classic unbounded
   inversion; with inheritance lo runs at hi's priority until it
   releases. *)
let inversion_model =
  let comm =
    Comm_graph.create
      ~elements:
        [ ("shared", 4, false); ("hi_pre", 1, true); ("mid_work", 6, true) ]
      ~edges:[]
  in
  Model.make ~comm
    ~constraints:
      [
        Timing.make ~name:"hi" ~graph:(Task_graph.singleton 0) ~period:40
          ~deadline:12 ~kind:Timing.Asynchronous;
        Timing.make ~name:"mid" ~graph:(Task_graph.singleton 2) ~period:40
          ~deadline:20 ~kind:Timing.Asynchronous;
        Timing.make ~name:"lo" ~graph:(Task_graph.singleton 0) ~period:40
          ~deadline:40 ~kind:Timing.Periodic;
      ]

let inversion_arrivals = [ ("hi", [ 2 ]); ("mid", [ 3 ]) ]

let test_monitor_sim_inheritance_bounds_blocking () =
  let tr = Rt_process.From_model.translate inversion_model in
  let run protocol =
    Rt_sim.Monitor_sim.simulate
      ~config:
        {
          Rt_sim.Monitor_sim.protocol;
          assignment = Rt_process.Fixed_priority.Deadline_monotonic;
        }
      ~arrivals:inversion_arrivals inversion_model tr ~horizon:40
  in
  let with_inh = run Rt_sim.Monitor_sim.Inheritance in
  let without = run Rt_sim.Monitor_sim.No_protocol in
  let blocking r name =
    Option.value ~default:0 (List.assoc_opt name r.Rt_sim.Monitor_sim.max_blocking)
  in
  (* Without inheritance, mid preempts lo while hi waits: hi's
     inversion includes mid's whole computation. *)
  checkb "inversion grows without inheritance" true
    (blocking without "hi" > blocking with_inh "hi");
  (* With inheritance, hi's blocking is bounded by the critical
     section. *)
  checkb "inheritance bounds blocking by the critical section" true
    (blocking with_inh "hi" <= 4)

let test_monitor_sim_mutual_exclusion () =
  (* Both users of the shared element never hold it simultaneously —
     observable as: in every run the shared element's executions are
     serialized, so total shared slots = 2 executions * weight. *)
  let tr = Rt_process.From_model.translate inversion_model in
  let r =
    Rt_sim.Monitor_sim.simulate ~arrivals:inversion_arrivals inversion_model
      tr ~horizon:40
  in
  checki "three jobs" 3 (List.length r.Rt_sim.Monitor_sim.jobs);
  List.iter
    (fun (o : Rt_sim.Monitor_sim.job_outcome) ->
      match o.finish with
      | Some f -> checkb "progress" true (f > o.release)
      | None -> ())
    r.Rt_sim.Monitor_sim.jobs

(* Two monitors entered in opposite orders by two processes: the
   classic deadlock.  PCP must prevent it; plain monitors and bare
   inheritance must exhibit it (and the simulator must detect it). *)
let deadlock_fixture () =
  let comm =
    Comm_graph.create
      ~elements:[ ("m1", 2, false); ("m2", 2, false) ]
      ~edges:[]
  in
  let m =
    Model.make ~comm
      ~constraints:
        [
          Timing.make ~name:"hi" ~graph:(Task_graph.singleton 0) ~period:50
            ~deadline:14 ~kind:Timing.Asynchronous;
          Timing.make ~name:"lo" ~graph:(Task_graph.singleton 1) ~period:50
            ~deadline:30 ~kind:Timing.Asynchronous;
        ]
  in
  let proc name d =
    Rt_process.Process.make ~name ~c:4 ~p:50 ~d
      ~kind:Rt_process.Process.Sporadic_process
  in
  let open Rt_process.Codegen in
  let prog name steps = { process_name = name; steps; wcet = 4 } in
  let tr =
    {
      Rt_process.From_model.processes = [ proc "hi" 14; proc "lo" 30 ];
      programs =
        [
          prog "hi"
            [ Enter 0; Call 0; Enter 1; Call 1; Leave 1; Leave 0 ];
          prog "lo"
            [ Enter 1; Call 1; Enter 0; Call 0; Leave 0; Leave 1 ];
        ];
      monitors = [];
    }
  in
  (m, tr)

let test_monitor_sim_deadlock_detected () =
  let m, tr = deadlock_fixture () in
  let run protocol =
    Rt_sim.Monitor_sim.simulate
      ~config:
        {
          Rt_sim.Monitor_sim.protocol;
          assignment = Rt_process.Fixed_priority.Deadline_monotonic;
        }
      ~arrivals:[ ("hi", [ 1 ]); ("lo", [ 0 ]) ]
      m tr ~horizon:40
  in
  let inh = run Rt_sim.Monitor_sim.Inheritance in
  checkb "inheritance deadlocks on crossing sections" true
    inh.Rt_sim.Monitor_sim.deadlocked;
  let bare = run Rt_sim.Monitor_sim.No_protocol in
  checkb "plain monitors deadlock too" true bare.Rt_sim.Monitor_sim.deadlocked

let test_monitor_sim_ceiling_prevents_deadlock () =
  let m, tr = deadlock_fixture () in
  let r =
    Rt_sim.Monitor_sim.simulate
      ~config:
        {
          Rt_sim.Monitor_sim.protocol = Rt_sim.Monitor_sim.Ceiling;
          assignment = Rt_process.Fixed_priority.Deadline_monotonic;
        }
      ~arrivals:[ ("hi", [ 1 ]); ("lo", [ 0 ]) ]
      m tr ~horizon:40
  in
  checkb "no deadlock under PCP" false r.Rt_sim.Monitor_sim.deadlocked;
  checki "both jobs finish" 0
    (List.length
       (List.filter
          (fun (o : Rt_sim.Monitor_sim.job_outcome) -> o.finish = None)
          r.Rt_sim.Monitor_sim.jobs));
  checki "no misses" 0 r.Rt_sim.Monitor_sim.misses

let test_monitor_sim_no_monitors_like_fp () =
  (* Without shared elements the simulation reduces to plain
     fixed-priority: the example avionics weapon chain meets deadlines. *)
  let comm =
    Comm_graph.create ~elements:[ ("x", 1, true); ("y", 2, true) ] ~edges:[]
  in
  let m =
    Model.make ~comm
      ~constraints:
        [
          Timing.make ~name:"cx" ~graph:(Task_graph.singleton 0) ~period:4
            ~deadline:4 ~kind:Timing.Periodic;
          Timing.make ~name:"cy" ~graph:(Task_graph.singleton 1) ~period:8
            ~deadline:8 ~kind:Timing.Periodic;
        ]
  in
  let tr = Rt_process.From_model.translate m in
  let r = Rt_sim.Monitor_sim.simulate m tr ~horizon:16 in
  checki "no misses" 0 r.Rt_sim.Monitor_sim.misses

(* ------------------------------------------------------------------ *)
(* Sensitivity                                                         *)
(* ------------------------------------------------------------------ *)

let test_with_deadline () =
  let m' = Sensitivity.with_deadline example "pz" 20 in
  checki "deadline replaced" 20 (Model.find m' "pz").Timing.deadline;
  checki "others untouched" 10 (Model.find m' "px").Timing.deadline;
  Alcotest.check_raises "unknown constraint" Not_found (fun () ->
      ignore (Sensitivity.with_deadline example "nope" 5))

let test_scaled_time () =
  let m' = Sensitivity.scaled_time example ~num:1 ~den:2 in
  checki "period halved" 5 (Model.find m' "px").Timing.period;
  checki "deadline halved" 10 (Model.find m' "py").Timing.deadline;
  let same = Sensitivity.scaled_time example ~num:3 ~den:3 in
  checki "identity scale" 10 (Model.find same "px").Timing.period

let test_tightest_deadline () =
  match Sensitivity.tightest_deadline example "pz" with
  | None -> Alcotest.fail "example synthesizes at d=15"
  | Some d ->
      checkb "tighter or equal" true (d <= 15);
      (* w(pz) = 3, so no schedule can beat d = 3. *)
      checkb "not below computation time" true (d >= 3);
      (* The reported deadline must actually synthesize. *)
      checkb "witness synthesizes" true
        (match
           Synthesis.synthesize (Sensitivity.with_deadline example "pz" d)
         with
        | Ok _ -> true
        | Error _ -> false)

let test_tightest_deadline_infeasible_base () =
  let comm = Comm_graph.create ~elements:[ ("a", 5, true) ] ~edges:[] in
  let m =
    Model.make ~comm
      ~constraints:
        [
          Timing.make ~name:"c" ~graph:(Task_graph.singleton 0) ~period:10
            ~deadline:3 ~kind:Timing.Asynchronous;
        ]
  in
  checkb "None when the base fails" true
    (Sensitivity.tightest_deadline m "c" = None)

let test_critical_speed () =
  match Sensitivity.critical_speed ~resolution:16 example with
  | None -> Alcotest.fail "example synthesizes unscaled"
  | Some s ->
      checkb "within (0, 1]" true (s > 0.0 && s <= 1.0);
      (* The utilization at scale s must stay at most ~1. *)
      let num = int_of_float (s *. 16.0) in
      let scaled = Sensitivity.scaled_time example ~num ~den:16 in
      checkb "witness synthesizes" true
        (match Synthesis.synthesize scaled with Ok _ -> true | Error _ -> false)

(* ------------------------------------------------------------------ *)
(* Stats                                                               *)
(* ------------------------------------------------------------------ *)

let test_stats_summary () =
  let m = example_plan.Synthesis.model_used in
  let report =
    Rt_sim.Runtime.run m example_plan.Synthesis.schedule ~horizon:520
      ~arrivals:[ ("pz", [ 0; 111; 222; 333; 444 ]) ]
  in
  let summaries = Rt_sim.Stats.summarize report in
  checki "three constraints" 3 (List.length summaries);
  let pz =
    List.find
      (fun s -> s.Rt_sim.Stats.constraint_name = "pz")
      summaries
  in
  checki "five invocations" 5 pz.Rt_sim.Stats.invocations;
  checki "all completed" 5 pz.Rt_sim.Stats.completed;
  checki "no misses" 0 pz.Rt_sim.Stats.misses;
  let get = Option.get in
  let min_r = get pz.Rt_sim.Stats.min_response
  and max_r = get pz.Rt_sim.Stats.max_response in
  checkb "bounds ordered" true (min_r <= max_r);
  checkb "mean within bounds" true
    (pz.Rt_sim.Stats.mean_response >= float_of_int min_r
    && pz.Rt_sim.Stats.mean_response <= float_of_int max_r);
  checki "jitter consistent" (max_r - min_r) (get pz.Rt_sim.Stats.jitter);
  let p95 = get pz.Rt_sim.Stats.p95_response
  and p99 = get pz.Rt_sim.Stats.p99_response in
  checkb "percentiles within bounds" true
    (min_r <= p95 && p95 <= p99 && p99 <= max_r);
  (* With five samples the nearest-rank p95 and p99 are both the
     maximum. *)
  checki "p99 of five samples is the max" max_r p99;
  (match Rt_sim.Stats.worst_jitter summaries with
  | Some (_, j) ->
      checkb "worst jitter is the max" true
        (List.for_all
           (fun s ->
             match s.Rt_sim.Stats.jitter with
             | None -> true
             | Some j' -> j' <= j)
           summaries)
  | None -> Alcotest.fail "completed invocations exist");
  (* A constraint that never completes must report absent response
     statistics, not zeros. *)
  let starved =
    {
      Rt_sim.Runtime.invocations =
        [
          {
            Rt_sim.Runtime.constraint_name = "pz";
            arrival = 0;
            completion = None;
            response = None;
            met = false;
          };
        ];
      misses = 1;
      worst_response = [];
    }
  in
  let pz' =
    List.find
      (fun s -> s.Rt_sim.Stats.constraint_name = "pz")
      (Rt_sim.Stats.summarize starved)
  in
  checki "starved completed" 0 pz'.Rt_sim.Stats.completed;
  checkb "starved statistics absent" true
    (pz'.Rt_sim.Stats.min_response = None
    && pz'.Rt_sim.Stats.max_response = None
    && pz'.Rt_sim.Stats.p95_response = None
    && pz'.Rt_sim.Stats.jitter = None)

let test_stats_empty () =
  let m = example_plan.Synthesis.model_used in
  (* No arrivals for pz: its summary must not appear; periodic ones
     do. *)
  let report =
    Rt_sim.Runtime.run m example_plan.Synthesis.schedule ~horizon:260
      ~arrivals:[]
  in
  let summaries = Rt_sim.Stats.summarize report in
  checkb "pz absent without invocations" true
    (not
       (List.exists
          (fun s -> s.Rt_sim.Stats.constraint_name = "pz")
          summaries))

(* ------------------------------------------------------------------ *)
(* Emit_c                                                              *)
(* ------------------------------------------------------------------ *)

let test_emit_identifiers () =
  Alcotest.check Alcotest.string "stage name" "fe_f_s_2"
    (Emit_c.element_identifier "f_s#2");
  Alcotest.check Alcotest.string "plain" "fe_imu"
    (Emit_c.element_identifier "imu")

let test_emit_rejects_unverified () =
  let m = example_plan.Synthesis.model_used in
  let idle = Schedule.of_slots [ Schedule.Idle ] in
  checkb "raises" true
    (try
       ignore (Emit_c.emit m idle);
       false
     with Invalid_argument _ -> true)

let test_emit_compiles_and_replays () =
  (* The real thing: compile the generated C with gcc and check that
     the executed trace equals the schedule. *)
  let m = example_plan.Synthesis.model_used in
  let sched = example_plan.Synthesis.schedule in
  let source = Emit_c.emit m sched in
  let dir = Filename.temp_file "rtsyn_c" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () ->
      let c_path = Filename.concat dir "sched.c" in
      let exe = Filename.concat dir "sched" in
      let oc = open_out c_path in
      output_string oc source;
      close_out oc;
      let compile =
        Printf.sprintf "cc -std=c99 -Wall -Werror -DRT_TEST_MAIN -o %s %s"
          (Filename.quote exe) (Filename.quote c_path)
      in
      checki "compiles cleanly" 0 (Sys.command compile);
      (* Two full cycles: exercises the round-robin wrap. *)
      let n = 2 * Schedule.length sched in
      let out = Filename.concat dir "trace.txt" in
      checki "runs" 0
        (Sys.command
           (Printf.sprintf "%s %d > %s" (Filename.quote exe) n
              (Filename.quote out)));
      let ic = open_in out in
      let trace =
        List.init n (fun _ -> int_of_string (String.trim (input_line ic)))
      in
      close_in ic;
      List.iteri
        (fun t got ->
          let expected =
            match Schedule.slot sched t with
            | Schedule.Idle -> -1
            | Schedule.Run e -> e
          in
          if got <> expected then
            Alcotest.failf "slot %d: emitted code ran %d, schedule says %d" t
              got expected)
        trace)

(* ------------------------------------------------------------------ *)
(* Synthesis merge fallback                                            *)
(* ------------------------------------------------------------------ *)

let test_merge_fallback () =
  (* Merging c1 (heavy, loose) with c2 (tiny, tight) would tighten the
     merged deadline to 2 and fail; the fallback must still synthesize
     the unmerged model. *)
  let comm =
    Comm_graph.create ~elements:[ ("heavy", 5, true); ("tiny", 1, true) ] ~edges:[]
  in
  let m =
    Model.make ~comm
      ~constraints:
        [
          Timing.make ~name:"c1" ~graph:(Task_graph.singleton 0) ~period:10
            ~deadline:10 ~kind:Timing.Periodic;
          Timing.make ~name:"c2" ~graph:(Task_graph.singleton 1) ~period:10
            ~deadline:2 ~kind:Timing.Periodic;
        ]
  in
  (* Sanity: the merged model alone is infeasible. *)
  let merged, rep = Merge.apply m in
  checkb "merge happened" true (rep.Merge.merged_groups <> []);
  (match Synthesis.synthesize ~merge:false merged with
  | Ok _ -> Alcotest.fail "merged variant should be infeasible (w=6 > d=2)"
  | Error _ -> ());
  match Synthesis.synthesize m with
  | Ok plan ->
      checkb "fallback dropped the merge" true
        (match plan.Synthesis.merge_report with
        | None -> true
        | Some r -> r.Merge.merged_groups = [])
  | Error e -> Alcotest.failf "fallback failed: %s" e.Synthesis.message

(* ------------------------------------------------------------------ *)
(* Printer smoke tests: user-facing renderings keep their key content  *)
(* ------------------------------------------------------------------ *)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let test_printers_smoke () =
  let m = example_plan.Synthesis.model_used in
  let plan_text =
    Format.asprintf "%a" (Synthesis.pp_plan m) example_plan
  in
  checkb "plan shows hyperperiod" true (contains plan_text "hyperperiod: 260");
  checkb "plan shows polling" true (contains plan_text "polling: pz");
  checkb "plan shows verdicts" true (contains plan_text "OK");
  let model_text = Format.asprintf "%a" Model.pp m in
  checkb "model lists constraints" true (contains model_text "pz(asynchronous");
  let err_text =
    Format.asprintf "%a" Synthesis.pp_error
      { Synthesis.stage = "edf"; message = "boom" }
  in
  checkb "error shows stage" true (contains err_text "[edf] boom");
  let sched_text = Format.asprintf "%a" Schedule.pp example_plan.Synthesis.schedule in
  checkb "schedule pp non-empty" true (String.length sched_text > 10);
  let offset_c =
    Timing.with_offset
      (Timing.make ~name:"o" ~graph:(Task_graph.singleton 0) ~period:8
         ~deadline:4 ~kind:Timing.Periodic)
      2
  in
  checkb "timing pp shows offset" true
    (contains (Format.asprintf "%a" Timing.pp offset_c) "o=2")

let () =
  Alcotest.run "rt_core-extensions"
    [
      ( "optimize",
        [
          Alcotest.test_case "trim keeps feasibility" `Quick
            test_trim_idle_keeps_feasibility;
          Alcotest.test_case "trim removes slack" `Quick
            test_trim_idle_removes_pure_slack;
          Alcotest.test_case "trim rejects bad input" `Quick
            test_trim_idle_rejects_infeasible_input;
          Alcotest.test_case "canonical rotation" `Quick
            test_canonical_rotation;
          Alcotest.test_case "slack profile" `Quick test_slack_profile;
          Alcotest.test_case "fundamental period" `Quick
            test_fundamental_period;
        ] );
      ( "admission",
        [
          Alcotest.test_case "impossible: weight" `Quick
            test_admission_impossible_weight;
          Alcotest.test_case "impossible: rate" `Quick
            test_admission_impossible_rate;
          Alcotest.test_case "guaranteed: theorem3" `Quick
            test_admission_guaranteed_theorem3;
          Alcotest.test_case "guaranteed: edf" `Quick
            test_admission_guaranteed_edf;
          Alcotest.test_case "inconclusive gap" `Quick
            test_admission_inconclusive;
          Alcotest.test_case "never contradicts synthesis" `Slow
            test_admission_never_contradicts_synthesis;
          Alcotest.test_case "demand bound" `Quick test_demand_bound;
          Alcotest.test_case "rate bound kinds" `Quick test_rate_bound_kinds;
          Alcotest.test_case "merged certificate" `Quick
            test_admission_merged_route;
          Alcotest.test_case "sufficient = before the merge skip" `Quick
            test_sufficient_skips_merge;
          Alcotest.test_case "offset-aware edf certificate" `Quick
            test_admission_edf_with_offsets;
          Alcotest.test_case "schedule of_string" `Quick
            test_schedule_of_string_roundtrip;
        ] );
      ( "gantt",
        [
          Alcotest.test_case "render" `Quick test_gantt_render;
          Alcotest.test_case "omits unused" `Quick test_gantt_omits_unused;
          Alcotest.test_case "chunks" `Quick test_gantt_chunks;
        ] );
      ( "monitor_sim",
        [
          Alcotest.test_case "inheritance bounds blocking" `Quick
            test_monitor_sim_inheritance_bounds_blocking;
          Alcotest.test_case "mutual exclusion" `Quick
            test_monitor_sim_mutual_exclusion;
          Alcotest.test_case "plain fixed-priority" `Quick
            test_monitor_sim_no_monitors_like_fp;
          Alcotest.test_case "deadlock detected" `Quick
            test_monitor_sim_deadlock_detected;
          Alcotest.test_case "ceiling prevents deadlock" `Quick
            test_monitor_sim_ceiling_prevents_deadlock;
        ] );
      ( "sensitivity",
        [
          Alcotest.test_case "with_deadline" `Quick test_with_deadline;
          Alcotest.test_case "scaled_time" `Quick test_scaled_time;
          Alcotest.test_case "tightest deadline" `Slow test_tightest_deadline;
          Alcotest.test_case "infeasible base" `Quick
            test_tightest_deadline_infeasible_base;
          Alcotest.test_case "critical speed" `Slow test_critical_speed;
          Alcotest.test_case "scale clamps offset" `Quick
            test_sensitivity_scale_clamps_offset;
        ] );
      ( "stats",
        [
          Alcotest.test_case "summary" `Quick test_stats_summary;
          Alcotest.test_case "empty" `Quick test_stats_empty;
        ] );
      ( "emit-c",
        [
          Alcotest.test_case "identifiers" `Quick test_emit_identifiers;
          Alcotest.test_case "rejects unverified" `Quick
            test_emit_rejects_unverified;
          Alcotest.test_case "compiles and replays" `Quick
            test_emit_compiles_and_replays;
        ] );
      ( "synthesis-fallback",
        [ Alcotest.test_case "merge fallback" `Quick test_merge_fallback ] );
      ( "printers",
        [ Alcotest.test_case "smoke" `Quick test_printers_smoke ] );
    ]
