(* Tests for the latency analyser: window containment (executes_within),
   next_completion, latency, and constraint verification.  Includes a
   brute-force containment oracle used both for a regression case where
   a purely greedy matcher fails and as a qcheck property. *)

open Rt_core

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let opt_int = Alcotest.option Alcotest.int

let comm2 =
  (* u, v unit weight; complete little communication graph. *)
  Comm_graph.create
    ~elements:[ ("u", 1, true); ("v", 1, true) ]
    ~edges:[ ("u", "v"); ("v", "u") ]

(* ------------------------------------------------------------------ *)
(* Brute-force containment oracle                                      *)
(* ------------------------------------------------------------------ *)

(* Enumerate all injective node -> instance assignments and check the
   precedence condition directly. *)
let oracle g tg trace ~t0 ~t1 =
  ignore g;
  let n = Task_graph.size tg in
  let candidates v =
    let e = Task_graph.element_of_node tg v in
    Array.to_list (Trace.instances trace e)
    |> List.filter (fun (i : Trace.instance) -> i.start >= t0 && i.finish <= t1)
  in
  let rec assign v chosen =
    if v = n then
      (* check precedence over the complete assignment *)
      List.for_all
        (fun (a, b) ->
          let ia : Trace.instance = List.assoc a chosen in
          let ib : Trace.instance = List.assoc b chosen in
          ia.finish <= ib.start)
        (Task_graph.edges tg)
    else
      List.exists
        (fun (inst : Trace.instance) ->
          (* injectivity among same-element nodes *)
          not
            (List.exists
               (fun (_, (used : Trace.instance)) ->
                 used.elem = inst.elem && used.index = inst.index)
               chosen)
          && assign (v + 1) ((v, inst) :: chosen))
        (candidates v)
  in
  assign 0 []

(* ------------------------------------------------------------------ *)
(* Containment                                                         *)
(* ------------------------------------------------------------------ *)

let test_simple_chain_containment () =
  let tg = Task_graph.of_chain [ 0; 1 ] in
  let slots = [| Schedule.Run 0; Schedule.Idle; Schedule.Run 1 |] in
  let tr = Trace.of_slots comm2 slots in
  checkb "u then v inside window" true
    (Latency.contains_execution comm2 tg tr ~t0:0 ~t1:3);
  checkb "window too short" false
    (Latency.contains_execution comm2 tg tr ~t0:0 ~t1:2);
  (* v before u does not count: precedence requires u's output first. *)
  let slots_rev = [| Schedule.Run 1; Schedule.Idle; Schedule.Run 0 |] in
  let tr_rev = Trace.of_slots comm2 slots_rev in
  checkb "wrong order rejected" false
    (Latency.contains_execution comm2 tg tr_rev ~t0:0 ~t1:3)

let test_same_slot_boundary () =
  (* u finishing exactly when v starts is allowed (transmission is
     instantaneous on a single processor). *)
  let tg = Task_graph.of_chain [ 0; 1 ] in
  let tr = Trace.of_slots comm2 [| Schedule.Run 0; Schedule.Run 1 |] in
  checkb "back-to-back ok" true
    (Latency.contains_execution comm2 tg tr ~t0:0 ~t1:2)

let test_duplicate_element_needs_two_instances () =
  (* Task graph u -> u: two distinct executions of u in order. *)
  let tg = Task_graph.create ~nodes:[| 0; 0 |] ~edges:[ (0, 1) ] in
  let comm_loop =
    Comm_graph.create ~elements:[ ("u", 1, true) ] ~edges:[ ("u", "u") ]
  in
  let one = Trace.of_slots comm_loop [| Schedule.Run 0; Schedule.Idle |] in
  checkb "one instance is not enough" false
    (Latency.contains_execution comm_loop tg one ~t0:0 ~t1:2);
  let two = Trace.of_slots comm_loop [| Schedule.Run 0; Schedule.Run 0 |] in
  checkb "two instances suffice" true
    (Latency.contains_execution comm_loop tg two ~t0:0 ~t1:2)

let test_backtracking_needed () =
  (* Nodes: C(u), A(u), B(v) with edge A -> B.  u runs at slots 0 and
     10; v at slot 2.  A greedy matcher processing C before A gives C
     the early u and leaves B without a feasible v; the backtracking
     search must still find the assignment C=u@10, A=u@0, B=v@2. *)
  let tg = Task_graph.create ~nodes:[| 0; 0; 1 |] ~edges:[ (1, 2) ] in
  let slots = Array.make 13 Schedule.Idle in
  slots.(0) <- Schedule.Run 0;
  slots.(10) <- Schedule.Run 0;
  slots.(2) <- Schedule.Run 1;
  let tr = Trace.of_slots comm2 slots in
  checkb "oracle agrees it fits" true (oracle comm2 tg tr ~t0:0 ~t1:13);
  checkb "search finds it" true
    (Latency.contains_execution comm2 tg tr ~t0:0 ~t1:13)

let test_assignment_returned_is_valid () =
  let tg = Task_graph.of_chain [ 0; 1 ] in
  let tr =
    Trace.of_slots comm2 [| Schedule.Run 0; Schedule.Run 1; Schedule.Run 0 |]
  in
  match Latency.executes_within comm2 tg tr ~t0:0 ~t1:3 with
  | None -> Alcotest.fail "expected an execution"
  | Some assignment ->
      checki "two nodes assigned" 2 (List.length assignment);
      let i0 : Trace.instance = List.assoc 0 assignment in
      let i1 : Trace.instance = List.assoc 1 assignment in
      checkb "precedence in assignment" true (i0.finish <= i1.start)

(* ------------------------------------------------------------------ *)
(* next_completion                                                     *)
(* ------------------------------------------------------------------ *)

let test_next_completion () =
  let tg = Task_graph.of_chain [ 0; 1 ] in
  let sched =
    Schedule.of_slots
      [ Schedule.Run 0; Schedule.Run 1; Schedule.Idle; Schedule.Idle ]
  in
  let tr = Trace.of_schedule comm2 sched ~horizon:40 in
  Alcotest.check opt_int "from 0" (Some 2)
    (Latency.next_completion comm2 tg tr ~from:0);
  (* From 1: u at slot 4, v at slot 5 -> completion 6. *)
  Alcotest.check opt_int "from 1" (Some 6)
    (Latency.next_completion comm2 tg tr ~from:1);
  Alcotest.check opt_int "from 3" (Some 6)
    (Latency.next_completion comm2 tg tr ~from:3)

let test_next_completion_absent_element () =
  let tg = Task_graph.of_chain [ 0; 1 ] in
  let sched = Schedule.of_slots [ Schedule.Run 0 ] in
  let tr = Trace.of_schedule comm2 sched ~horizon:20 in
  Alcotest.check opt_int "v never runs" None
    (Latency.next_completion comm2 tg tr ~from:0)

(* ------------------------------------------------------------------ *)
(* latency                                                             *)
(* ------------------------------------------------------------------ *)

let test_latency_single_op () =
  let tg = Task_graph.singleton 0 in
  let sched =
    Schedule.of_slots [ Schedule.Run 0; Schedule.Idle; Schedule.Idle ]
  in
  (* Worst window starts just after u: wait 2 idle slots + 1 slot of u. *)
  Alcotest.check opt_int "latency 3" (Some 3) (Latency.latency comm2 sched tg)

let test_latency_chain () =
  let tg = Task_graph.of_chain [ 0; 1 ] in
  let sched = Schedule.of_slots [ Schedule.Run 0; Schedule.Run 1 ] in
  (* From an even slot: 2.  From an odd slot: next u at +1, v at +2 ->
     latency 3. *)
  Alcotest.check opt_int "latency 3" (Some 3) (Latency.latency comm2 sched tg)

let test_latency_unbounded () =
  let tg = Task_graph.singleton 1 in
  let sched = Schedule.of_slots [ Schedule.Run 0 ] in
  Alcotest.check opt_int "element missing => unbounded" None
    (Latency.latency comm2 sched tg)

let test_latency_rotation_invariant () =
  let tg = Task_graph.of_chain [ 0; 1 ] in
  let sched =
    Schedule.of_slots
      [ Schedule.Run 0; Schedule.Idle; Schedule.Run 1; Schedule.Run 0;
        Schedule.Run 1 ]
  in
  let l0 = Latency.latency comm2 sched tg in
  for k = 1 to 4 do
    Alcotest.check opt_int
      (Printf.sprintf "rotation %d preserves latency" k)
      l0
      (Latency.latency comm2 (Schedule.rotate sched k) tg)
  done

let test_worst_window () =
  let tg = Task_graph.singleton 0 in
  let sched =
    Schedule.of_slots [ Schedule.Run 0; Schedule.Idle; Schedule.Idle ]
  in
  match Latency.worst_window comm2 sched tg with
  | Some (t0, t1) ->
      checki "witness width = latency" 3 (t1 - t0);
      (* The worst start is just after u's slot. *)
      checki "worst offset" 1 t0
  | None -> Alcotest.fail "latency is bounded"

let test_worst_window_unbounded () =
  let tg = Task_graph.singleton 1 in
  let sched = Schedule.of_slots [ Schedule.Run 0 ] in
  checkb "unbounded -> None" true
    (Latency.worst_window comm2 sched tg = None)

(* Integration: the latency verdict must agree with replaying the
   schedule against an arrival at EVERY offset of the cycle. *)
let test_latency_agrees_with_runtime_offsets () =
  let m =
    Model.make ~comm:comm2
      ~constraints:
        [
          Timing.make ~name:"c"
            ~graph:(Task_graph.of_chain [ 0; 1 ])
            ~period:30 ~deadline:6 ~kind:Timing.Asynchronous;
        ]
  in
  let sched =
    Schedule.of_slots
      [ Schedule.Run 0; Schedule.Run 1; Schedule.Idle; Schedule.Run 0;
        Schedule.Idle; Schedule.Run 1 ]
  in
  let c = Model.find m "c" in
  let lat =
    match Latency.latency comm2 sched c.Timing.graph with
    | Some k -> k
    | None -> Alcotest.fail "bounded latency expected"
  in
  let worst_resp = ref 0 in
  for offset = 0 to Schedule.length sched - 1 do
    let r =
      Rt_sim.Runtime.run m sched ~horizon:(offset + 1)
        ~arrivals:[ ("c", [ offset ]) ]
    in
    match (List.hd r.Rt_sim.Runtime.invocations).Rt_sim.Runtime.response with
    | Some resp -> worst_resp := max !worst_resp resp
    | None -> Alcotest.fail "completion expected"
  done;
  checki "worst runtime response = analytic latency" lat !worst_resp

(* ------------------------------------------------------------------ *)
(* meets / periodic_response / verify                                  *)
(* ------------------------------------------------------------------ *)

let test_meets_asynchronous () =
  let c =
    Timing.make ~name:"c" ~graph:(Task_graph.singleton 0) ~period:5 ~deadline:3
      ~kind:Timing.Asynchronous
  in
  let tight =
    Schedule.of_slots [ Schedule.Run 0; Schedule.Idle; Schedule.Idle ]
  in
  checkb "latency 3 meets d=3" true (Latency.meets_asynchronous comm2 tight c);
  let loose =
    Schedule.of_slots
      [ Schedule.Run 0; Schedule.Idle; Schedule.Idle; Schedule.Idle ]
  in
  checkb "latency 4 misses d=3" false (Latency.meets_asynchronous comm2 loose c)

let test_periodic_response () =
  let c =
    Timing.make ~name:"c" ~graph:(Task_graph.singleton 0) ~period:6 ~deadline:4
      ~kind:Timing.Periodic
  in
  let sched =
    Schedule.of_slots
      [ Schedule.Run 0; Schedule.Idle; Schedule.Idle; Schedule.Idle ]
  in
  (* Invocations at 0, 6, 12, ... phases mod 4 cycle: 0 -> resp 1;
     6 -> next u at 8, resp 3; 12 -> u at 12, resp 1; 18 -> u at 20,
     resp 3.  Worst = 3. *)
  Alcotest.check opt_int "worst response" (Some 3)
    (Latency.periodic_response comm2 sched c);
  checkb "meets d=4" true (Latency.meets_periodic comm2 sched c)

let test_periodic_response_offset () =
  let mk offset =
    let c =
      Timing.make ~name:"c" ~graph:(Task_graph.singleton 0) ~period:4
        ~deadline:4 ~kind:Timing.Periodic
    in
    if offset = 0 then c else Timing.with_offset c offset
  in
  let sched =
    Schedule.of_slots
      [ Schedule.Run 0; Schedule.Idle; Schedule.Idle; Schedule.Idle ]
  in
  (* Releases aligned with the slot of u: response 1. *)
  Alcotest.check opt_int "offset 0" (Some 1)
    (Latency.periodic_response comm2 sched (mk 0));
  (* Releases one slot late: must wait for the next cycle's u. *)
  Alcotest.check opt_int "offset 1" (Some 4)
    (Latency.periodic_response comm2 sched (mk 1))

let test_verify_reports_all () =
  let m =
    Model.make ~comm:comm2
      ~constraints:
        [
          Timing.make ~name:"async_u" ~graph:(Task_graph.singleton 0) ~period:4
            ~deadline:2 ~kind:Timing.Asynchronous;
          Timing.make ~name:"per_v" ~graph:(Task_graph.singleton 1) ~period:4
            ~deadline:4 ~kind:Timing.Periodic;
        ]
  in
  let sched =
    Schedule.of_slots
      [ Schedule.Run 0; Schedule.Run 1; Schedule.Run 0; Schedule.Idle ]
  in
  let verdicts = Latency.verify m sched in
  checki "two verdicts" 2 (List.length verdicts);
  checkb "all ok" true (Latency.all_ok verdicts);
  let v_async = List.find (fun v -> v.Latency.constraint_name = "async_u") verdicts in
  Alcotest.check opt_int "async latency" (Some 2) v_async.Latency.achieved

let test_verify_rejects_illformed () =
  let comm =
    Comm_graph.create ~elements:[ ("w2", 2, true) ] ~edges:[]
  in
  let m =
    Model.make ~comm
      ~constraints:
        [
          Timing.make ~name:"c" ~graph:(Task_graph.singleton 0) ~period:4
            ~deadline:4 ~kind:Timing.Asynchronous;
        ]
  in
  (* One slot of a weight-2 element per cycle: ill-formed. *)
  let bad = Schedule.of_slots [ Schedule.Run 0; Schedule.Idle ] in
  checkb "raises" true
    (try
       ignore (Latency.verify m bad);
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Property: search = brute-force oracle                               *)
(* ------------------------------------------------------------------ *)

let containment_instance_gen =
  (* Random: 3-element comm graph (unit weights, complete), task graph
     over <= 4 nodes with random forward edges, random 10-slot trace. *)
  QCheck.Gen.(
    int_range 1 4 >>= fun n_nodes ->
    flatten_l (List.init n_nodes (fun _ -> int_range 0 2)) >>= fun node_elems ->
    let pairs =
      List.concat
        (List.init n_nodes (fun i ->
             List.init (n_nodes - i - 1) (fun k -> (i, i + k + 1))))
    in
    flatten_l (List.map (fun _ -> bool) pairs) >>= fun keep ->
    let edges = List.filteri (fun i _ -> List.nth keep i) pairs in
    flatten_l (List.init 10 (fun _ -> int_range (-1) 2)) >>= fun slots ->
    return (node_elems, edges, slots))

let arbitrary_containment =
  QCheck.make
    ~print:(fun (nodes, edges, slots) ->
      Printf.sprintf "nodes=%s edges=%s slots=%s"
        (String.concat "," (List.map string_of_int nodes))
        (String.concat ","
           (List.map (fun (a, b) -> Printf.sprintf "%d->%d" a b) edges))
        (String.concat "," (List.map string_of_int slots)))
    containment_instance_gen

let comm3 =
  Comm_graph.create
    ~elements:[ ("x", 1, true); ("y", 1, true); ("z", 1, true) ]
    ~edges:
      [ ("x", "y"); ("y", "x"); ("x", "z"); ("z", "x"); ("y", "z"); ("z", "y");
        ("x", "x"); ("y", "y"); ("z", "z") ]

let prop_search_equals_oracle =
  QCheck.Test.make ~name:"containment search agrees with brute force"
    ~count:500 arbitrary_containment (fun (node_elems, edges, slots) ->
      let tg = Task_graph.create ~nodes:(Array.of_list node_elems) ~edges in
      let trace =
        Trace.of_slots comm3
          (Array.of_list
             (List.map
                (function -1 -> Schedule.Idle | e -> Schedule.Run e)
                slots))
      in
      Latency.contains_execution comm3 tg trace ~t0:0 ~t1:10
      = oracle comm3 tg trace ~t0:0 ~t1:10)

let prop_next_completion_minimal =
  QCheck.Test.make ~name:"next_completion is the minimal window end"
    ~count:300 arbitrary_containment (fun (node_elems, edges, slots) ->
      let tg = Task_graph.create ~nodes:(Array.of_list node_elems) ~edges in
      let trace =
        Trace.of_slots comm3
          (Array.of_list
             (List.map
                (function -1 -> Schedule.Idle | e -> Schedule.Run e)
                slots))
      in
      match Latency.next_completion comm3 tg trace ~from:0 with
      | None -> not (oracle comm3 tg trace ~t0:0 ~t1:10)
      | Some f ->
          oracle comm3 tg trace ~t0:0 ~t1:f
          && (f = 0 || not (oracle comm3 tg trace ~t0:0 ~t1:(f - 1))))

(* ------------------------------------------------------------------ *)
(* Cached analyses = context-free analyses                             *)
(* ------------------------------------------------------------------ *)

let test_cache_next_completion_matches () =
  (* A Cache shared across many questions must answer each exactly like
     the context-free function that rebuilds its state per call. *)
  let m = Rt_workload.Suite.control_system Rt_workload.Suite.default_params in
  match Synthesis.synthesize m with
  | Error _ -> Alcotest.fail "example synthesis failed"
  | Ok plan ->
      let g = plan.Synthesis.model_used.Model.comm in
      let sched = plan.Synthesis.schedule in
      let trace = Trace.of_schedule g sched ~horizon:2000 in
      List.iter
        (fun (c : Timing.t) ->
          let cache = Latency.Cache.create g c.Timing.graph trace in
          for from = 0 to 300 do
            Alcotest.(check (option int))
              (Printf.sprintf "%s from=%d" c.Timing.name from)
              (Latency.next_completion g c.Timing.graph trace ~from)
              (Latency.Cache.next_completion cache ~from)
          done)
        plan.Synthesis.model_used.Model.constraints

let verdicts_equal a b =
  List.length a = List.length b
  && List.for_all2
       (fun (x : Latency.verdict) (y : Latency.verdict) ->
         x.Latency.constraint_name = y.Latency.constraint_name
         && x.Latency.achieved = y.Latency.achieved
         && x.Latency.ok = y.Latency.ok)
       a b

let test_verify_cached_equals_uncached () =
  (* The memoized single-trace verifier against the per-constraint
     reference engine, on random feasible plans. *)
  let g = Rt_graph.Prng.create 505 in
  let checked = ref 0 in
  for _ = 1 to 12 do
    let m =
      Rt_workload.Model_gen.periodic_chain_model g ~n_constraints:3
        ~utilization:0.8 ~periods:[ 8; 12; 16; 24 ]
    in
    match Synthesis.synthesize m with
    | Error _ -> ()
    | Ok plan ->
        incr checked;
        let mu = plan.Synthesis.model_used in
        checkb "cached = uncached" true
          (verdicts_equal
             (Latency.verify ~cached:true mu plan.Synthesis.schedule)
             (Latency.verify ~cached:false mu plan.Synthesis.schedule))
  done;
  checkb "property exercised" true (!checked > 0)

let test_verify_cached_on_unrolled_schedule () =
  (* Unrolled schedules are where the residue memo actually collapses
     questions (the pattern period divides the nominal length); the
     verdicts must still match the reference engine exactly. *)
  let m = Rt_workload.Suite.control_system Rt_workload.Suite.default_params in
  match Synthesis.synthesize m with
  | Error _ -> Alcotest.fail "example synthesis failed"
  | Ok plan ->
      let mu = plan.Synthesis.model_used in
      List.iter
        (fun k ->
          let sched = Schedule.repeat plan.Synthesis.schedule k in
          checkb
            (Printf.sprintf "x%d unroll" k)
            true
            (verdicts_equal
               (Latency.verify ~cached:true mu sched)
               (Latency.verify ~cached:false mu sched)))
        [ 2; 3; 5 ]

(* ------------------------------------------------------------------ *)
(* Class-shared verification = per-constraint reference                *)
(* ------------------------------------------------------------------ *)

(* Copies of [c] under fresh names.  A copy with another deadline, or
   an asynchronous copy with another separation, stays in [c]'s latency
   class; a periodic copy with another offset or period leaves it. *)
let class_variants g (c : Timing.t) =
  let copy suffix ~period ~deadline ~offset =
    let t =
      Timing.make ~name:(c.name ^ suffix) ~graph:c.graph ~period ~deadline
        ~kind:c.kind
    in
    if offset = 0 then t else Timing.with_offset t offset
  in
  let d' = max 1 (c.deadline - 1 - Rt_graph.Prng.int g 3) in
  let same_class =
    [
      copy "_d" ~period:c.period ~deadline:d' ~offset:c.offset;
      copy "_e" ~period:c.period ~deadline:(c.deadline + 2) ~offset:c.offset;
      copy "_f" ~period:c.period ~deadline:c.deadline ~offset:c.offset;
    ]
  in
  match c.kind with
  | Timing.Asynchronous ->
      copy "_s" ~period:(c.period + 1) ~deadline:c.deadline ~offset:0
      :: same_class
  | Timing.Periodic ->
      let other_offset =
        if c.period > 1 then
          [
            copy "_o" ~period:c.period ~deadline:c.deadline
              ~offset:((c.offset + 1) mod c.period);
          ]
        else []
      in
      (copy "_p" ~period:(2 * c.period) ~deadline:c.deadline ~offset:c.offset
      :: other_offset)
      @ same_class

(* Models verified; classes of several constraints, of one. *)
let class_draws = (ref 0, ref 0, ref 0)

let prop_class_shared_verify =
  QCheck.Test.make ~name:"class-shared verify = uncached" ~count:120
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let g = Rt_graph.Prng.create seed in
      let base =
        if seed mod 2 = 0 then
          Rt_workload.Model_gen.periodic_chain_model g
            ~n_constraints:(2 + Rt_graph.Prng.int g 2)
            ~utilization:0.7 ~periods:[ 8; 12; 16; 24 ]
        else
          Rt_workload.Model_gen.unit_chain_model g
            ~n_constraints:(2 + Rt_graph.Prng.int g 2)
            ~n_elements:4 ~max_deadline:16
      in
      match Synthesis.synthesize ~pipeline:false base with
      | Error _ -> true
      | Ok plan ->
          let mu = plan.Synthesis.model_used in
          let copies =
            List.concat_map
              (fun c ->
                List.filter
                  (fun _ -> Rt_graph.Prng.int g 3 > 0)
                  (class_variants g c))
              mu.Model.constraints
          in
          let m =
            Model.make ~comm:mu.Model.comm
              ~constraints:(mu.Model.constraints @ copies)
          in
          let sizes = Hashtbl.create 16 in
          List.iter
            (fun c ->
              let k = Timing.latency_class c in
              Hashtbl.replace sizes k
                (1 + Option.value ~default:0 (Hashtbl.find_opt sizes k)))
            m.Model.constraints;
          let models, shared, unshared = class_draws in
          incr models;
          Hashtbl.iter
            (fun _ n -> if n > 1 then incr shared else incr unshared)
            sizes;
          let sched = plan.Synthesis.schedule in
          Latency.verify m sched = Latency.verify ~cached:false m sched)

let test_class_shared_verify () =
  QCheck.Test.check_exn prop_class_shared_verify;
  let models, shared, unshared = class_draws in
  checkb "at least 30 models verified" true (!models >= 30);
  checkb "a class with several constraints drawn" true (!shared > 0);
  checkb "a class with one constraint drawn" true (!unshared > 0)

let () =
  Alcotest.run "rt_core-latency"
    [
      ( "containment",
        [
          Alcotest.test_case "simple chain" `Quick
            test_simple_chain_containment;
          Alcotest.test_case "boundary" `Quick test_same_slot_boundary;
          Alcotest.test_case "duplicate element" `Quick
            test_duplicate_element_needs_two_instances;
          Alcotest.test_case "backtracking needed" `Quick
            test_backtracking_needed;
          Alcotest.test_case "assignment valid" `Quick
            test_assignment_returned_is_valid;
        ] );
      ( "next_completion",
        [
          Alcotest.test_case "basics" `Quick test_next_completion;
          Alcotest.test_case "absent element" `Quick
            test_next_completion_absent_element;
        ] );
      ( "latency",
        [
          Alcotest.test_case "single op" `Quick test_latency_single_op;
          Alcotest.test_case "chain" `Quick test_latency_chain;
          Alcotest.test_case "unbounded" `Quick test_latency_unbounded;
          Alcotest.test_case "rotation invariant" `Quick
            test_latency_rotation_invariant;
          Alcotest.test_case "worst window" `Quick test_worst_window;
          Alcotest.test_case "worst window unbounded" `Quick
            test_worst_window_unbounded;
          Alcotest.test_case "agrees with runtime at every offset" `Quick
            test_latency_agrees_with_runtime_offsets;
        ] );
      ( "verification",
        [
          Alcotest.test_case "meets asynchronous" `Quick
            test_meets_asynchronous;
          Alcotest.test_case "periodic response" `Quick test_periodic_response;
          Alcotest.test_case "periodic response with offset" `Quick
            test_periodic_response_offset;
          Alcotest.test_case "verify reports all" `Quick
            test_verify_reports_all;
          Alcotest.test_case "ill-formed rejected" `Quick
            test_verify_rejects_illformed;
        ] );
      ( "cache",
        [
          Alcotest.test_case "Cache.next_completion = next_completion" `Quick
            test_cache_next_completion_matches;
          Alcotest.test_case "verify cached = uncached" `Quick
            test_verify_cached_equals_uncached;
          Alcotest.test_case "verify cached = uncached (unrolled)" `Quick
            test_verify_cached_on_unrolled_schedule;
          Alcotest.test_case "class-shared verify = uncached" `Quick
            test_class_shared_verify;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_search_equals_oracle; prop_next_completion_minimal ] );
    ]
