(* Tests for static schedules (Schedule) and execution traces / instance
   decomposition (Trace). *)

open Rt_core

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let comm =
  Comm_graph.create
    ~elements:[ ("a", 1, true); ("b", 2, true); ("c", 2, false) ]
    ~edges:[ ("a", "b"); ("b", "c") ]

let sched_of ids =
  Schedule.of_slots
    (List.map
       (function -1 -> Schedule.Idle | e -> Schedule.Run e)
       ids)

(* ------------------------------------------------------------------ *)
(* Schedule                                                            *)
(* ------------------------------------------------------------------ *)

let test_basic_accessors () =
  let s = sched_of [ 0; 1; 1; -1 ] in
  checki "length" 4 (Schedule.length s);
  checki "busy" 3 (Schedule.busy_slots s);
  checki "idle" 1 (Schedule.idle_slots s);
  checki "occurrences of b" 2 (Schedule.occurrences s 1);
  Alcotest.check (Alcotest.float 1e-9) "load" 0.75 (Schedule.load s);
  checkb "round robin wraps" true (Schedule.slot s 4 = Schedule.Run 0);
  checkb "round robin wraps idle" true (Schedule.slot s 7 = Schedule.Idle)

let test_empty_rejected () =
  Alcotest.check_raises "empty" (Invalid_argument "Schedule: empty schedule")
    (fun () -> ignore (Schedule.of_slots []))

let test_unroll () =
  let s = sched_of [ 0; -1 ] in
  let u = Schedule.unroll s 5 in
  checkb "unrolled pattern" true
    (u = [| Schedule.Run 0; Schedule.Idle; Schedule.Run 0; Schedule.Idle; Schedule.Run 0 |])

let test_validate_ok () =
  let s = sched_of [ 0; 1; 1; 2; 2 ] in
  checkb "well-formed" true (Schedule.validate comm s = Ok ())

let test_validate_partial_execution () =
  (* b has weight 2 but only 1 slot per cycle. *)
  let s = sched_of [ 0; 1 ] in
  match Schedule.validate comm s with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "partial execution must be rejected"

let test_validate_split_atomic () =
  (* c is non-pipelinable with weight 2; splitting its two slots around
     another element must be rejected... *)
  let s = sched_of [ 2; 0; 2; -1 ] in
  (match Schedule.validate comm s with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "split atomic execution must be rejected");
  (* ...and so must a wrap around the cycle boundary: the induced trace
     starts at slot 0, so the first occurrence of the wrapped execution
     is non-contiguous (slots 0 and 3). *)
  let wrap = sched_of [ 2; 0; -1; 2 ] in
  (match Schedule.validate comm wrap with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "boundary-split execution must be rejected");
  (* Two back-to-back executions in one run are fine. *)
  let back_to_back = sched_of [ 2; 2; 2; 2; 0 ] in
  checkb "k*w run accepted" true (Schedule.validate comm back_to_back = Ok ())

let test_validate_unknown_element () =
  let s = sched_of [ 9 ] in
  match Schedule.validate comm s with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "unknown element must be rejected"

let test_rotate () =
  let s = sched_of [ 0; 1; 1; -1 ] in
  let r = Schedule.rotate s 1 in
  checkb "rotated first slot" true (Schedule.slot r 0 = Schedule.Run 1);
  checkb "rotate by length is identity" true
    (Schedule.equal s (Schedule.rotate s 4));
  checkb "negative rotation" true
    (Schedule.equal (Schedule.rotate s (-1)) (Schedule.rotate s 3))

let test_concat_repeat () =
  let s = sched_of [ 0 ] in
  let t = sched_of [ 1; 1 ] in
  checki "concat length" 3 (Schedule.length (Schedule.concat s t));
  checki "repeat length" 4 (Schedule.length (Schedule.repeat t 2));
  Alcotest.check_raises "repeat 0 rejected"
    (Invalid_argument "Schedule.repeat: k must be >= 1") (fun () ->
      ignore (Schedule.repeat s 0))

let test_to_string () =
  let s = sched_of [ 0; -1; 1 ] in
  Alcotest.check Alcotest.string "names" "a . b" (Schedule.to_string comm s)

(* ------------------------------------------------------------------ *)
(* Trace                                                               *)
(* ------------------------------------------------------------------ *)

let test_instance_grouping () =
  (* b (weight 2) executes at slots 1,2 and 4,6: two instances, the
     second one split by a slot of a (software pipelining). *)
  let slots =
    [| Schedule.Run 0; Schedule.Run 1; Schedule.Run 1; Schedule.Idle;
       Schedule.Run 1; Schedule.Run 0; Schedule.Run 1 |]
  in
  let tr = Trace.of_slots comm slots in
  checki "a instances" 2 (Trace.instance_count tr 0);
  checki "b instances" 2 (Trace.instance_count tr 1);
  let b1 = (Trace.instances tr 1).(0) in
  checki "b first start" 1 b1.Trace.start;
  checki "b first finish" 3 b1.Trace.finish;
  let b2 = (Trace.instances tr 1).(1) in
  checki "b second start" 4 b2.Trace.start;
  checki "b second finish" 7 b2.Trace.finish

let test_incomplete_execution_dropped () =
  let slots = [| Schedule.Run 1 |] in
  let tr = Trace.of_slots comm slots in
  checki "no completed instance" 0 (Trace.instance_count tr 1)

let test_first_at_or_after () =
  let s = sched_of [ 0; -1 ] in
  let tr = Trace.of_schedule comm s ~horizon:10 in
  (match Trace.first_at_or_after tr ~elem:0 ~time:3 with
  | Some i -> checki "next a at 4" 4 i.Trace.start
  | None -> Alcotest.fail "expected an instance");
  (match Trace.first_at_or_after tr ~elem:0 ~time:0 with
  | Some i -> checki "first a at 0" 0 i.Trace.start
  | None -> Alcotest.fail "expected an instance");
  checkb "none beyond horizon" true
    (Trace.first_at_or_after tr ~elem:0 ~time:9 = None)

let test_nth_instance () =
  let s = sched_of [ 0 ] in
  let tr = Trace.of_schedule comm s ~horizon:5 in
  (match Trace.nth_instance tr ~elem:0 2 with
  | Some i -> checki "third instance at 2" 2 i.Trace.start
  | None -> Alcotest.fail "expected instance 2");
  checkb "out of range" true (Trace.nth_instance tr ~elem:0 7 = None)

let test_all_instances_sorted () =
  let s = sched_of [ 0; 1; 1 ] in
  let tr = Trace.of_schedule comm s ~horizon:6 in
  let all = Trace.all_instances tr in
  checki "four instances" 4 (List.length all);
  let starts = List.map (fun (i : Trace.instance) -> i.start) all in
  checkb "sorted by start" true (starts = List.sort Int.compare starts)

let test_instances_span_cycle_boundary () =
  (* The canonical decomposition pairs c's slots in order of occurrence
     from t=0: for the cycle [c a . c] that yields {0,3}, {4,7}, ... —
     every instance split, which is exactly why Schedule.validate
     rejects boundary-wrapped atomic executions. *)
  let s = sched_of [ 2; 0; -1; 2 ] in
  let tr = Trace.of_schedule comm s ~horizon:8 in
  let insts = Trace.instances tr 2 in
  checki "two complete instances in 8 slots" 2 (Array.length insts);
  (* split: weight 2 spread over slots 0 and 3 *)
  checki "first canonical instance starts at 0" 0 insts.(0).Trace.start;
  checki "first canonical instance finishes after 3" 4 insts.(0).Trace.finish

let test_pipeline_ordered () =
  (* Per element, starts strictly increase and finish order equals
     start order. *)
  let s = sched_of [ 0; 1; 1 ] in
  let tr = Trace.of_schedule comm s ~horizon:9 in
  List.iter
    (fun e ->
      let insts = Trace.instances tr e in
      for i = 1 to Array.length insts - 1 do
        checkb "starts ascend" true (insts.(i).start > insts.(i - 1).start);
        checkb "finishes ascend" true (insts.(i).finish > insts.(i - 1).finish)
      done)
    [ 0; 1 ]

let () =
  Alcotest.run "rt_core-schedule"
    [
      ( "schedule",
        [
          Alcotest.test_case "accessors" `Quick test_basic_accessors;
          Alcotest.test_case "empty rejected" `Quick test_empty_rejected;
          Alcotest.test_case "unroll" `Quick test_unroll;
          Alcotest.test_case "validate ok" `Quick test_validate_ok;
          Alcotest.test_case "partial execution rejected" `Quick
            test_validate_partial_execution;
          Alcotest.test_case "split atomic rejected" `Quick
            test_validate_split_atomic;
          Alcotest.test_case "unknown element rejected" `Quick
            test_validate_unknown_element;
          Alcotest.test_case "rotate" `Quick test_rotate;
          Alcotest.test_case "concat/repeat" `Quick test_concat_repeat;
          Alcotest.test_case "to_string" `Quick test_to_string;
        ] );
      ( "trace",
        [
          Alcotest.test_case "instance grouping" `Quick test_instance_grouping;
          Alcotest.test_case "incomplete dropped" `Quick
            test_incomplete_execution_dropped;
          Alcotest.test_case "first_at_or_after" `Quick test_first_at_or_after;
          Alcotest.test_case "nth_instance" `Quick test_nth_instance;
          Alcotest.test_case "all_instances sorted" `Quick
            test_all_instances_sorted;
          Alcotest.test_case "pipeline ordered" `Quick test_pipeline_ordered;
          Alcotest.test_case "boundary-spanning instances" `Quick
            test_instances_span_cycle_boundary;
        ] );
    ]
