(* Tests for the failure-aware multiprocessor runtime: heartbeat
   detection, bus-fault admission (the ARQ bound), contingency
   synthesis, and the lockstep distributed replay with failover. *)

open Rt_core
module Pt = Rt_multiproc.Partition
module Ms = Rt_multiproc.Msched
module Ns = Rt_multiproc.Netsched
module Cg = Rt_multiproc.Contingency
module Hb = Rt_sim.Heartbeat
module Nf = Rt_sim.Net_fault
module Dr = Rt_sim.Dist_runtime

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let example = Rt_workload.Suite.control_system Rt_workload.Suite.default_params

(* A fast heartbeat so reconfiguration bounds stay small in tests. *)
let fast_hb = { Hb.hb_period = 2; miss_threshold = 1 }

let nominal_3p =
  match Ms.synthesize ~n_procs:3 ~msg_cost:1 example with
  | Ok r -> r
  | Error e -> Alcotest.failf "fixture synthesis failed: %s" e

let table_3p =
  match
    Cg.synthesize ~detect_bound:(Hb.detection_bound fast_hb) example nominal_3p
  with
  | Ok t -> t
  | Error e -> Alcotest.failf "fixture contingency failed: %s" e

(* ------------------------------------------------------------------ *)
(* Heartbeat                                                           *)
(* ------------------------------------------------------------------ *)

let test_heartbeat_bound () =
  checki "default bound" 9 (Hb.detection_bound Hb.default);
  checki "fast bound" 1 (Hb.detection_bound fast_hb);
  (* The detection latency is within the bound for a crash at any
     phase of the heartbeat period. *)
  let config = { Hb.hb_period = 3; miss_threshold = 2 } in
  let bound = Hb.detection_bound config in
  checki "bound formula" 5 bound;
  for crash = 1 to 12 do
    let st = Hb.make config ~n_procs:2 in
    let detected = ref None in
    for t = 0 to crash + bound do
      List.iter
        (function
          | Hb.Died 1 when !detected = None -> detected := Some t
          | _ -> ())
        (Hb.observe st ~t ~alive:(fun p -> p = 0 || t < crash))
    done;
    match !detected with
    | None -> Alcotest.failf "crash at %d never detected within the bound" crash
    | Some t ->
        checkb
          (Printf.sprintf "crash at %d detected at %d within bound %d" crash t
             bound)
          true
          (t - crash <= bound && t >= crash)
  done

let test_heartbeat_recovery () =
  let st = Hb.make fast_hb ~n_procs:1 in
  let log = ref [] in
  for t = 0 to 20 do
    log :=
      !log
      @ Hb.observe st ~t ~alive:(fun _ -> t < 3 || t >= 9)
  done;
  match !log with
  | [ Hb.Died 0; Hb.Recovered 0 ] -> ()
  | _ -> Alcotest.fail "expected exactly one death and one recovery"

(* ------------------------------------------------------------------ *)
(* Net_fault: the ARQ admission bound                                  *)
(* ------------------------------------------------------------------ *)

let arq_items =
  [
    { Ns.item_name = "m1"; release = 0; abs_deadline = 4; cost = 1 };
    { Ns.item_name = "m2"; release = 4; abs_deadline = 8; cost = 1 };
  ]

let test_arq_bound_tight () =
  (* The instance is feasible at slack k=2 but not k=3. *)
  checkb "tolerance" true (Ns.arq_tolerance ~horizon:8 arq_items = Some 3);
  let k = 2 in
  (match Ns.schedule_arq ~horizon:8 ~k arq_items with
  | Ok _ -> ()
  | Error ms -> Alcotest.failf "k=%d must fit: %s" k (Ns.misses_to_string ms));
  (* <= k faults per item window: admitted, and the simulation misses
     nothing. *)
  let ok_plan =
    [
      { Nf.slot = 0; kind = Nf.Lost };
      { Nf.slot = 1; kind = Nf.Corrupted };
      { Nf.slot = 5; kind = Nf.Lost };
    ]
  in
  (match Nf.admit ~k arq_items ok_plan with
  | Ok () -> ()
  | Error es -> Alcotest.failf "admissible plan rejected: %s" (List.hd es));
  let outcome = Nf.simulate ~horizon:8 arq_items ok_plan in
  checkb "no miss under admissible faults" true (outcome.Nf.missed = []);
  (* Slots 0 and 1 hit m1's transmissions; slot 5 finds the bus idle
     (m2 already delivered at 4) and costs nothing. *)
  checki "retransmissions counted" 2 outcome.Nf.retransmissions;
  (* k+1 faults in one window: the analyzer reports the violation, and
     the simulation indeed misses. *)
  let bad_plan =
    [
      { Nf.slot = 0; kind = Nf.Lost };
      { Nf.slot = 1; kind = Nf.Lost };
      { Nf.slot = 2; kind = Nf.Corrupted };
    ]
  in
  (match Nf.admit ~k arq_items bad_plan with
  | Error [ e ] ->
      checkb "names the item and window" true
        (String.length e > 0 && String.sub e 0 2 = "m1")
  | Error _ -> Alcotest.fail "exactly one violation expected"
  | Ok () -> Alcotest.fail "k+1 faults in m1's window must be rejected");
  (* Saturating m1's whole window shows the rejected hazard is real. *)
  let saturating =
    List.init 4 (fun slot -> { Nf.slot; kind = Nf.Lost })
  in
  let outcome = Nf.simulate ~horizon:8 arq_items saturating in
  checkb "the violation is real: m1 misses" true
    (List.exists (fun (m : Ns.miss) -> m.missed = "m1") outcome.Nf.missed)

let test_arq_simulation_matches_admission () =
  (* Property: on instances feasible at slack k, every admitted random
     plan yields a miss-free simulation. *)
  let g = Rt_graph.Prng.create 4242 in
  let checked = ref 0 in
  for _ = 1 to 200 do
    let horizon = 10 + Rt_graph.Prng.int g 10 in
    let n = 1 + Rt_graph.Prng.int g 3 in
    let items =
      List.init n (fun i ->
          let release = Rt_graph.Prng.int g (horizon - 6) in
          {
            Ns.item_name = Printf.sprintf "m%d" i;
            release;
            abs_deadline = release + 5 + Rt_graph.Prng.int g (horizon - release - 5);
            cost = 1 + Rt_graph.Prng.int g 2;
          })
    in
    let k = 1 + Rt_graph.Prng.int g 2 in
    match Ns.schedule_arq ~horizon ~k items with
    | Error _ -> ()
    | Ok _ -> (
        let plan = Nf.random_plan g ~horizon ~loss_rate:0.15 in
        match Nf.admit ~k items plan with
        | Error _ -> ()
        | Ok () ->
            incr checked;
            let outcome = Nf.simulate ~horizon items plan in
            checkb "admitted plan cannot cause a miss" true
              (outcome.Nf.missed = []))
  done;
  checkb "property exercised" true (!checked > 20)

(* ------------------------------------------------------------------ *)
(* Contingency                                                         *)
(* ------------------------------------------------------------------ *)

let test_contingency_scenarios_verified () =
  checki "one scenario per processor" 3 (Array.length table_3p.Cg.scenarios);
  Array.iteri
    (fun dead -> function
      | Error e -> Alcotest.failf "crash p%d infeasible: %s" dead e
      | Ok s ->
          checki "covers its processor" dead s.Cg.dead;
          checkb "full service" true (s.Cg.threshold = None);
          (* The dead processor's table is empty and the system still
             window-verifies. *)
          checki "dead processor idle" 0
            (Schedule.busy_slots
               s.Cg.result.Ms.processor_schedules.(dead));
          (match
             Rt_check.Checker.check_multi example
               (Rt_multiproc.Mcert.scenario_cert example s)
           with
          | Ok () -> ()
          | Error es ->
              Alcotest.failf "scenario p%d fails verification: %s" dead
                (String.concat "; " es));
          (* Survivors keep their nominal placement. *)
          Array.iteri
            (fun e proc ->
              if proc <> dead then
                checki "surviving assignment kept" proc
                  s.Cg.result.Ms.partition.Pt.assignment.(e))
            nominal_3p.Ms.partition.Pt.assignment)
    table_3p.Cg.scenarios

let test_contingency_bound_accounting () =
  checki "reconfig = detect + swap + migration"
    (table_3p.Cg.detect_bound + 1 + table_3p.Cg.migration)
    table_3p.Cg.reconfig_bound;
  (* px's measured slack under the nominal table is 1 slot (response 9,
     deadline 10), so the fixture's reconfiguration bound of 2 is
     honestly rejected for in-flight invocations... *)
  (match Cg.admits_reconfiguration example table_3p with
  | Ok () -> Alcotest.fail "a 2-slot reconfiguration cannot fit px's 1-slot slack"
  | Error es ->
      checkb "px named in every violation" true
        (List.exists
           (fun e ->
             (* "crash of processor _: px response 9 + reconfiguration 2
                exceeds deadline 10" *)
             let has_sub sub =
               let n = String.length sub and m = String.length e in
               let rec go i = i + n <= m && (String.sub e i n = sub || go (i + 1)) in
               go 0
             in
             has_sub "px" && has_sub "response 9" && has_sub "deadline 10")
           es));
  (* ...while a 1-slot bound (instant detection, no migration) fits
     every constraint's slack: px 9/10, py 14/20, pz within its polling
     window. *)
  match Cg.synthesize ~detect_bound:0 example nominal_3p with
  | Error e -> Alcotest.failf "table: %s" e
  | Ok tight -> (
      checki "one-slot bound" 1 tight.Cg.reconfig_bound;
      match Cg.admits_reconfiguration example tight with
      | Ok () -> ()
      | Error es ->
          Alcotest.failf "a 1-slot reconfiguration must fit: %s"
            (String.concat "; " es))

let test_contingency_degrades () =
  (* Utilization 1.5 fits two processors but not one survivor; with a
     criticality assignment the scenario degrades instead of failing. *)
  let comm =
    Comm_graph.create ~elements:[ ("a", 3, true); ("b", 3, true) ] ~edges:[]
  in
  let mk name elem =
    Timing.make ~name ~graph:(Task_graph.singleton elem) ~period:4 ~deadline:4
      ~kind:Timing.Periodic
  in
  let m = Model.make ~comm ~constraints:[ mk "ca" 0; mk "cb" 1 ] in
  let crit =
    match Criticality.make m [ ("ca", Criticality.High); ("cb", Criticality.Low) ]
    with
    | Ok a -> a
    | Error es -> Alcotest.failf "criticality: %s" (String.concat "; " es)
  in
  let nominal =
    match Ms.synthesize ~n_procs:2 m with
    | Ok r -> r
    | Error e -> Alcotest.failf "nominal: %s" e
  in
  (* Without criticality, every crash is infeasible. *)
  (match Cg.synthesize ~detect_bound:1 m nominal with
  | Ok t ->
      Array.iter
        (function
          | Ok _ -> Alcotest.fail "1.5 utilization cannot fit one survivor"
          | Error _ -> ())
        t.Cg.scenarios
  | Error e -> Alcotest.failf "table: %s" e);
  (* With criticality, both scenarios degrade: the Low constraint is
     shed, the High one keeps full service. *)
  match Cg.synthesize ~criticality:crit ~detect_bound:1 m nominal with
  | Error e -> Alcotest.failf "table: %s" e
  | Ok t ->
      checki "both scenarios feasible" 2 (List.length (Cg.feasible_scenarios t));
      List.iter
        (fun s ->
          checkb "degraded" true (s.Cg.threshold = Some Criticality.Medium);
          checkb "cb shed" true (s.Cg.dropped = [ "cb" ]);
          checki "one plan retained" 1 (List.length s.Cg.result.Ms.plans))
        (Cg.feasible_scenarios t)

let test_contingency_deterministic () =
  (* Same inputs, slot-identical tables. *)
  let again =
    match
      Cg.synthesize ~detect_bound:(Hb.detection_bound fast_hb) example
        nominal_3p
    with
    | Ok t -> t
    | Error e -> Alcotest.failf "resynthesis: %s" e
  in
  Array.iteri
    (fun i -> function
      | Ok s -> (
          match table_3p.Cg.scenarios.(i) with
          | Ok s0 ->
              checkb "identical processor tables" true
                (Array.for_all2 Schedule.equal
                   s.Cg.result.Ms.processor_schedules
                   s0.Cg.result.Ms.processor_schedules);
              checkb "identical bus" true
                (s.Cg.result.Ms.bus = s0.Cg.result.Ms.bus)
          | Error _ -> Alcotest.fail "feasibility flipped")
      | Error _ -> Alcotest.fail "scenario became infeasible")
    again.Cg.scenarios

(* ------------------------------------------------------------------ *)
(* Dist_runtime                                                        *)
(* ------------------------------------------------------------------ *)

let test_dist_fault_free () =
  let r = Dr.run ~heartbeat:fast_hb ~horizon:80 example table_3p in
  checki "no misses" 0 r.Dr.misses;
  checki "no shedding" 0 r.Dr.shed;
  checki "no switches" 0 r.Dr.config_switches;
  checkb "stays nominal" true (r.Dr.final_config = Dr.Nominal);
  checkb "invocations happened" true (List.length r.Dr.invocations > 10)

let test_dist_zero_hard_misses_after_bound () =
  (* The acceptance property: for a crash at ANY slot of the first
     hyperperiod, every invocation arriving at or after
     crash + reconfig_bound meets its deadline under failover. *)
  let hyper = nominal_3p.Ms.hyperperiod in
  let bound = table_3p.Cg.reconfig_bound in
  for crash = 0 to hyper - 1 do
    let r =
      Dr.run ~heartbeat:fast_hb
        ~crashes:[ { Dr.proc = 1; at = crash; return_at = None } ]
        ~horizon:(2 * hyper) example table_3p
    in
    checkb "failover happened" true
      (List.exists
         (function Dr.Failover_complete _ -> true | _ -> false)
         r.Dr.events);
    List.iter
      (fun (i : Dr.invocation) ->
        if i.Dr.arrival >= crash + bound then begin
          checkb
            (Printf.sprintf
               "crash@%d: %s arriving at %d (>= crash+%d) not shed" crash
               i.Dr.constraint_name i.Dr.arrival bound)
            false i.Dr.shed;
          checkb
            (Printf.sprintf "crash@%d: %s arriving at %d (>= crash+%d) met"
               crash i.Dr.constraint_name i.Dr.arrival bound)
            true i.Dr.met
        end)
      r.Dr.invocations
  done

let test_dist_detection_within_bound () =
  let hyper = nominal_3p.Ms.hyperperiod in
  for crash = 0 to hyper - 1 do
    let r =
      Dr.run ~heartbeat:fast_hb
        ~crashes:[ { Dr.proc = 0; at = crash; return_at = None } ]
        ~horizon:(2 * hyper) example table_3p
    in
    List.iter
      (function
        | Dr.Detected { latency; _ } ->
            checkb "latency within the analyzed bound" true
              (latency <= r.Dr.detection_bound)
        | _ -> ())
      r.Dr.events
  done

let test_dist_no_failover_misses () =
  (* Without failover the dead processor's work is simply lost. *)
  let r =
    Dr.run ~heartbeat:fast_hb ~policy:Dr.No_failover
      ~crashes:[ { Dr.proc = 1; at = 5; return_at = None } ]
      ~horizon:80 example table_3p
  in
  checki "no switches" 0 r.Dr.config_switches;
  checkb "misses accumulate" true (r.Dr.misses > 0)

let test_dist_readmission () =
  (* The processor returns; once its heartbeats resume the nominal
     table is re-admitted and service is clean afterwards. *)
  let r =
    Dr.run ~heartbeat:fast_hb
      ~crashes:[ { Dr.proc = 1; at = 7; return_at = Some 47 } ]
      ~horizon:160 example table_3p
  in
  checkb "failed over" true
    (List.exists
       (function Dr.Failover_complete _ -> true | _ -> false)
       r.Dr.events);
  let readmit_at =
    List.filter_map
      (function Dr.Readmitted { at; _ } -> Some at | _ -> None)
      r.Dr.events
  in
  checki "exactly one readmission" 1 (List.length readmit_at);
  let at = List.hd readmit_at in
  checkb "back to nominal" true (r.Dr.final_config = Dr.Nominal);
  List.iter
    (fun (i : Dr.invocation) ->
      if i.Dr.arrival >= at then begin
        checkb "post-readmission service is nominal" true
          (i.Dr.config = Dr.Nominal);
        checkb "post-readmission invocations met" true i.Dr.met
      end)
    r.Dr.invocations

let test_dist_net_faults_absorbed () =
  (* A nominal table synthesized with ARQ slack absorbs an admissible
     fault plan with zero misses. *)
  let nominal =
    match Ms.synthesize ~n_procs:3 ~msg_cost:1 ~arq_slack:1 example with
    | Ok r -> r
    | Error e -> Alcotest.failf "slack synthesis failed: %s" e
  in
  checki "slack recorded" 1 nominal.Ms.arq_slack;
  let table =
    match
      Cg.synthesize ~detect_bound:(Hb.detection_bound fast_hb) example nominal
    with
    | Ok t -> t
    | Error e -> Alcotest.failf "table: %s" e
  in
  (* Reconstruct the realized message windows from a fault-free run,
     then greedily pick fault slots — the opening slot of each window —
     keeping every window at <= 1 fault, so the plan is admissible at
     the synthesized slack by construction.  The opening slot always
     carries a transmission attempt (the message is released and
     pending there), so the faults genuinely hit. *)
  let clean = Dr.run ~heartbeat:fast_hb ~horizon:80 example table in
  let windows =
    List.concat_map
      (fun (i : Dr.invocation) ->
        let plan =
          List.find
            (fun (p : Rt_multiproc.Decompose.plan) ->
              p.constraint_name = i.Dr.constraint_name)
            nominal.Ms.plans
        in
        List.filter_map
          (fun (w : Rt_multiproc.Decompose.windowed) ->
            match w.Rt_multiproc.Decompose.piece with
            | Rt_multiproc.Decompose.Message msg when msg.cost > 0 ->
                Some
                  ( i.Dr.arrival + w.Rt_multiproc.Decompose.start_off,
                    i.Dr.arrival + w.Rt_multiproc.Decompose.end_off )
            | _ -> None)
          plan.Rt_multiproc.Decompose.pieces)
      clean.Dr.invocations
  in
  checkb "the fixture has bus traffic" true (windows <> []);
  let faults =
    List.fold_left
      (fun acc (w0, _) ->
        let hits (a, b) =
          List.length (List.filter (fun f -> f.Nf.slot >= a && f.Nf.slot < b) acc)
        in
        let candidate = { Nf.slot = w0; kind = Nf.Lost } in
        if
          (not (List.exists (fun f -> f.Nf.slot = w0) acc))
          && List.for_all
               (fun w ->
                 hits w + (if w0 >= fst w && w0 < snd w then 1 else 0) <= 1)
               windows
        then candidate :: acc
        else acc)
      []
      (List.sort compare windows)
  in
  checkb "some faults injected" true (faults <> []);
  let r =
    Dr.run ~heartbeat:fast_hb ~net_faults:faults ~horizon:80 example table
  in
  checki "no misses despite bus faults" 0 r.Dr.misses;
  checkb "faults actually hit transmissions" true
    (r.Dr.bus_retransmissions > 0)

let test_dist_deterministic () =
  let run () =
    Dr.run ~heartbeat:fast_hb
      ~crashes:[ { Dr.proc = 2; at = 13; return_at = None } ]
      ~net_faults:
        (Nf.random_plan (Rt_graph.Prng.create 77) ~horizon:200 ~loss_rate:0.05)
      ~horizon:160 example table_3p
  in
  let a = run () and b = run () in
  checkb "identical invocations" true (a.Dr.invocations = b.Dr.invocations);
  checkb "identical events" true (a.Dr.events = b.Dr.events);
  checkb "identical realized tables" true
    (Array.for_all2 Schedule.equal a.Dr.realized b.Dr.realized)

let test_dist_stats_by_processor () =
  let crash = 11 in
  let r =
    Dr.run ~heartbeat:fast_hb
      ~crashes:[ { Dr.proc = 1; at = crash; return_at = None } ]
      ~horizon:80 example table_3p
  in
  let rollups = Rt_sim.Stats.by_processor example.Model.comm r in
  checki "one rollup per processor" 3 (List.length rollups);
  let p1 = List.nth rollups 1 in
  (* The crashed processor freezes: its busy slots are bounded by the
     crash instant. *)
  checkb "crashed processor stops" true (p1.Rt_sim.Stats.busy <= crash);
  let total_inv =
    List.fold_left
      (fun acc s -> acc + s.Rt_sim.Stats.proc_invocations)
      0 rollups
  in
  checki "every invocation owned by exactly one processor"
    (List.length r.Dr.invocations)
    total_inv;
  let total_misses =
    List.fold_left
      (fun acc s -> acc + s.Rt_sim.Stats.proc_misses)
      0 rollups
  in
  checki "misses partition by owner" r.Dr.misses total_misses

let () =
  Alcotest.run "rt_dist"
    [
      ( "heartbeat",
        [
          Alcotest.test_case "bound" `Quick test_heartbeat_bound;
          Alcotest.test_case "recovery" `Quick test_heartbeat_recovery;
        ] );
      ( "net_fault",
        [
          Alcotest.test_case "ARQ bound tight" `Quick test_arq_bound_tight;
          Alcotest.test_case "simulation matches admission" `Quick
            test_arq_simulation_matches_admission;
        ] );
      ( "contingency",
        [
          Alcotest.test_case "scenarios verified" `Quick
            test_contingency_scenarios_verified;
          Alcotest.test_case "bound accounting" `Quick
            test_contingency_bound_accounting;
          Alcotest.test_case "degrades under criticality" `Quick
            test_contingency_degrades;
          Alcotest.test_case "deterministic" `Quick
            test_contingency_deterministic;
        ] );
      ( "dist_runtime",
        [
          Alcotest.test_case "fault free" `Quick test_dist_fault_free;
          Alcotest.test_case "zero hard misses after bound" `Slow
            test_dist_zero_hard_misses_after_bound;
          Alcotest.test_case "detection within bound" `Slow
            test_dist_detection_within_bound;
          Alcotest.test_case "no failover misses" `Quick
            test_dist_no_failover_misses;
          Alcotest.test_case "readmission" `Quick test_dist_readmission;
          Alcotest.test_case "net faults absorbed" `Quick
            test_dist_net_faults_absorbed;
          Alcotest.test_case "deterministic" `Quick test_dist_deterministic;
          Alcotest.test_case "stats by processor" `Quick
            test_dist_stats_by_processor;
        ] );
    ]
