(* The certified-schedule trust split: genuine certificates from every
   engine must pass the independent checker, and the mutation harness's
   corrupted variants must all be rejected — the checker is only a
   trust anchor if it catches tampering, not just honest mistakes.

   Also pins the budget layer's contract: budgeted exact solvers return
   Timeout within twice the requested wall budget on an E3 (3-PARTITION
   reduction) instance, and Synthesis degrades to a diagnosable
   stage-"budget" error instead of raising.

   CI greps for these test names; renaming them silently disables the
   gate (.github/workflows/ci.yml). *)

open Rt_core
module Suite = Rt_workload.Suite
module Npc = Rt_workload.Npc
module Mutate = Rt_workload.Mutate

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let example = Suite.control_system Suite.default_params

let synth_plan m =
  match Synthesis.synthesize m with
  | Ok p -> p
  | Error e -> Alcotest.failf "fixture synthesis failed: %s/%s" e.Synthesis.stage e.Synthesis.message

let cert_of_plan p =
  match Certify.plan p with
  | Ok c -> c
  | Error e -> Alcotest.failf "fixture certification failed: %s" e

(* Genuine (model, certificate) pairs spanning the engines: heuristic
   synthesis on the paper's control system and on the smallest
   nontrivial instance, plus the hand-built 3-PARTITION witness
   schedule certified directly. *)
let genuine_pairs () =
  let of_plan m =
    let p = synth_plan m in
    (p.Synthesis.model_used, cert_of_plan p)
  in
  let e3 =
    let b = 16 in
    let items = Npc.three_partition_yes (Rt_graph.Prng.create 3) ~m:3 ~b in
    let triples =
      match Npc.three_partition_solve items ~b with
      | Some t -> t
      | None -> Alcotest.fail "E3 fixture is not a yes-instance"
    in
    let m, sched = Npc.witness_schedule items ~b triples in
    match Certify.schedule m sched with
    | Ok c -> (m, c)
    | Error e -> Alcotest.failf "E3 certification failed: %s" e
  in
  let tiny =
    (* Below the polling heuristic's reach — certify the exact game
       engine's schedule instead. *)
    match Exact.solve_single_ops Suite.tiny_two_ops with
    | { Exact.outcome = Exact.Feasible sched; _ } -> (
        match Certify.schedule Suite.tiny_two_ops sched with
        | Ok c -> (Suite.tiny_two_ops, c)
        | Error e -> Alcotest.failf "tiny certification failed: %s" e)
    | _ -> Alcotest.fail "tiny_two_ops must be feasible"
  in
  [ ("control", of_plan example); ("tiny", tiny); ("e3-witness", e3) ]

(* ------------------------------------------------------------------ *)
(* Checker accepts every genuine certificate                           *)
(* ------------------------------------------------------------------ *)

let test_checker_accepts_genuine () =
  List.iter
    (fun (what, (m, cert)) ->
      match Checker.check m cert with
      | Ok () -> ()
      | Error errs ->
          Alcotest.failf "%s: genuine certificate rejected: %s" what
            (String.concat "; " errs))
    (genuine_pairs ())

(* ------------------------------------------------------------------ *)
(* Mutation harness: 100% rejection of non-identity mutants            *)
(* ------------------------------------------------------------------ *)

let test_mutants_all_rejected () =
  List.iter
    (fun (what, (m, cert)) ->
      let muts = Mutate.mutants cert in
      checkb (what ^ ": harness produced mutants") true (muts <> []);
      List.iter
        (fun (label, mutant) ->
          checkb
            (Printf.sprintf "%s/%s: mutant differs from original" what label)
            false
            (Certificate.equal cert mutant);
          match Checker.check m mutant with
          | Ok () ->
              Alcotest.failf "%s/%s: checker accepted a mutant" what label
          | Error _ -> ())
        muts)
    (genuine_pairs ())

let test_mutate_kinds_cover () =
  let m, cert = List.assoc "control" (genuine_pairs ()) in
  List.iter
    (fun kind ->
      match Mutate.mutate kind cert with
      | None ->
          Alcotest.failf "kind %s inapplicable on the control certificate"
            (Mutate.kind_name kind)
      | Some mutant -> (
          checkb
            (Mutate.kind_name kind ^ ": non-identity")
            false
            (Certificate.equal cert mutant);
          match Checker.check m mutant with
          | Ok () ->
              Alcotest.failf "kind %s accepted" (Mutate.kind_name kind)
          | Error _ -> ()))
    Mutate.kinds

(* QCheck: over random single-op workloads that the game engine can
   actually schedule, certification succeeds, the checker accepts, and
   every mutant both differs and is rejected. *)
let qcheck_random_certified_models =
  let gen_seed = QCheck.make QCheck.Gen.(int_bound 10_000) in
  QCheck.Test.make ~count:40
    ~name:"random feasible models: genuine certs accepted, all mutants rejected"
    gen_seed
    (fun seed ->
      let g = Rt_graph.Prng.create (1 + seed) in
      let m =
        Rt_workload.Model_gen.single_op_model g ~max_deadline:12
          ~n_constraints:(2 + (seed mod 3))
          ~max_weight:2 ~target_ratio_sum:0.6
      in
      match Exact.solve_single_ops ~max_states:50_000 m with
      | { Exact.outcome = Exact.Feasible sched; _ } -> (
          match Certify.schedule m sched with
          | Error e -> QCheck.Test.fail_reportf "certify failed: %s" e
          | Ok cert ->
              Checker.check m cert = Ok ()
              && List.for_all
                   (fun (_, mutant) ->
                     (not (Certificate.equal cert mutant))
                     && Checker.check m mutant <> Ok ())
                   (Mutate.mutants cert))
      | _ -> true (* infeasible/unknown draws prove nothing — skip *))

(* ------------------------------------------------------------------ *)
(* Persist round-trip                                                  *)
(* ------------------------------------------------------------------ *)

let test_certificate_persist_roundtrip () =
  (* Saving canonicalizes (elaboration orders task-graph nodes
     alphabetically), so the reloaded pair must be self-consistent and
     checker-clean, and a second round-trip must be the identity. *)
  let p = synth_plan example in
  let cert = cert_of_plan p in
  let s = Rt_spec.Persist.save_certificate_string p.Synthesis.model_used cert in
  match Rt_spec.Persist.load_certificate_string s with
  | Error e -> Alcotest.failf "reload failed: %s" e
  | Ok (m', cert') -> (
      checkb "reloaded model digest matches" true
        (Certificate.digest_of_model m' = cert'.Certificate.digest);
      (match Checker.check m' cert' with
      | Ok () -> ()
      | Error errs ->
          Alcotest.failf "reloaded certificate rejected: %s"
            (String.concat "; " errs));
      let s2 = Rt_spec.Persist.save_certificate_string m' cert' in
      Alcotest.check Alcotest.string "second round-trip is identity" s s2;
      match Rt_spec.Persist.load_certificate_string s2 with
      | Error e -> Alcotest.failf "second reload failed: %s" e
      | Ok (_, cert'') ->
          checkb "canonical certificate is a fixed point" true
            (Certificate.equal cert' cert''))

(* The reference [save_certificate_string] skips when it can: print the
   model, elaborate the source again, re-index every witness onto the
   elaborated node numbering, restamp the digest and render. *)
let reference_save (m : Model.t) (cert : Certificate.t) =
  let m' =
    match Rt_spec.Elaborate.load (Rt_spec.Printer.print m) with
    | Ok m' -> m'
    | Error es -> Alcotest.failf "reference: %s" (String.concat "; " es)
  in
  let remap (name, w) =
    let nodes mm = Task_graph.node_elements (Model.find mm name).Timing.graph in
    let old_nodes = Array.to_list (nodes m) in
    let index e =
      let rec go i = function
        | x :: _ when x = e -> i
        | _ :: rest -> go (i + 1) rest
        | [] -> Alcotest.failf "reference: element %d lost" e
      in
      go 0 old_nodes
    in
    let perm = Array.map index (nodes m') in
    let exec (x : Certificate.exec) = Array.map (fun o -> x.(o)) perm in
    match w with
    | Certificate.Async es -> (name, Certificate.Async (List.map exec es))
    | Certificate.Periodic es -> (name, Certificate.Periodic (Array.map exec es))
  in
  let cert' =
    {
      Certificate.digest = Certificate.digest_of_model m';
      schedule = cert.Certificate.schedule;
      witnesses = List.map remap cert.Certificate.witnesses;
    }
  in
  let escaped =
    String.concat ""
      (List.map
         (function
           | '"' -> "\\\""
           | '\\' -> "\\\\"
           | '\n' -> "\\n"
           | c -> String.make 1 c)
         (List.of_seq (String.to_seq (Rt_spec.Printer.print m'))))
  in
  let base = Certificate.to_json cert' in
  String.sub base 0 (String.rindex base '}') ^ ",\"model\":\"" ^ escaped ^ "\"}\n"

(* A two-element chain declared against name order (node 0 is [b]),
   which only the round trip can bring into elaboration order. *)
let out_of_order_model () =
  let comm =
    Comm_graph.create
      ~elements:[ ("a", 1, true); ("b", 1, true) ]
      ~edges:[ ("b", "a") ]
  in
  let id = Comm_graph.id_of_name comm in
  Model.make ~comm
    ~constraints:
      [
        Timing.make ~name:"ba" ~graph:(Task_graph.of_chain [ id "b"; id "a" ])
          ~period:8 ~deadline:8 ~kind:Timing.Asynchronous;
      ]

let test_persist_skip_differential () =
  let prng = Rt_graph.Prng.create 1818 in
  let skipped = ref 0 and fell_back = ref 0 in
  let compare_one what (m : Model.t) =
    match Synthesis.synthesize ~merge:false ~pipeline:false m with
    | Error _ -> ()
    | Ok p -> (
        let m = p.Synthesis.model_used in
        let cert = cert_of_plan p in
        let got = Rt_spec.Persist.save_certificate_string m cert in
        Alcotest.check Alcotest.string
          (what ^ ": same bytes as the round trip")
          (reference_save m cert) got;
        match Rt_spec.Persist.load_certificate_string got with
        | Error e -> Alcotest.failf "%s: reload failed: %s" what e
        | Ok (_, saved) ->
            (* Only a model the round trip changes gets a new digest. *)
            if saved.Certificate.digest = cert.Certificate.digest then
              incr skipped
            else incr fell_back)
  in
  for i = 0 to 29 do
    let raw =
      match i mod 5 with
      | 0 ->
          Rt_workload.Model_gen.theorem3_model prng
            ~n_constraints:(2 + Rt_graph.Prng.int prng 4)
            ~max_weight:2
      | 1 ->
          Rt_workload.Model_gen.single_op_model prng
            ~n_constraints:(2 + Rt_graph.Prng.int prng 3)
            ~max_weight:3 ~target_ratio_sum:0.7
      | 2 ->
          Rt_workload.Model_gen.shared_block_model prng
            ~n_pairs:(1 + Rt_graph.Prng.int prng 2)
            ~shared_weight:2 ~private_weight:1 ~period:16
      | 3 ->
          Rt_workload.Model_gen.dag_model prng
            ~n_constraints:(2 + Rt_graph.Prng.int prng 2)
            ~utilization:0.5 ~periods:[ 10; 12; 20 ]
      | _ ->
          Rt_workload.Model_gen.unit_chain_model prng
            ~n_constraints:(2 + Rt_graph.Prng.int prng 3)
            ~n_elements:12 ~max_deadline:16
    in
    compare_one (Printf.sprintf "model %d" i) raw;
    match Rt_spec.Elaborate.load (Rt_spec.Printer.print raw) with
    | Ok m -> compare_one (Printf.sprintf "elaborated model %d" i) m
    | Error es -> Alcotest.failf "model %d: %s" i (String.concat "; " es)
  done;
  compare_one "out-of-order chain" (out_of_order_model ());
  compare_one "control system" example;
  checkb "the identity path was taken" true (!skipped > 0);
  checkb "the round trip was taken" true (!fell_back > 0)

(* Names the lexer would not read back take the round trip and are
   refused there, even when every task graph is in elaboration order. *)
let test_persist_unreadable_names () =
  let refused what elem cname =
    let comm = Comm_graph.create ~elements:[ (elem, 1, true) ] ~edges:[] in
    let m =
      Model.make ~comm
        ~constraints:
          [
            Timing.make ~name:cname ~graph:(Task_graph.singleton 0) ~period:4
              ~deadline:4 ~kind:Timing.Periodic;
          ]
    in
    let sched =
      Schedule.of_array [| Schedule.Run 0; Schedule.Idle; Schedule.Idle |]
    in
    match Certify.schedule m sched with
    | Error e -> Alcotest.failf "%s: certify failed: %s" what e
    | Ok cert -> (
        match Rt_spec.Persist.save_certificate_string m cert with
        | _ -> Alcotest.failf "%s: saved a model that does not re-elaborate" what
        | exception Invalid_argument msg ->
            let needle = "does not re-elaborate" in
            let n = String.length needle in
            let rec has i =
              i + n <= String.length msg
              && (String.sub msg i n = needle || has (i + 1))
            in
            checkb (what ^ ": " ^ msg) true (has 0))
  in
  refused "element name with a space" "f x" "c";
  refused "constraint name with a dash" "f_x" "c-1";
  refused "name starting with a digit" "9f" "c"

(* ------------------------------------------------------------------ *)
(* The model digest cache                                              *)
(* ------------------------------------------------------------------ *)

(* [digest_of_model] remembers one model; alternating two models through
   it, on one domain or two, must give what a fresh computation gives. *)
let test_digest_cache () =
  let m1 = example and m2 = Suite.tiny_two_ops in
  let fresh (m : Model.t) =
    Certificate.digest_of_model
      (Model.make ~comm:m.Model.comm ~constraints:m.Model.constraints)
  in
  let d1 = fresh m1 and d2 = fresh m2 in
  checkb "two models, two digests" true (d1 <> d2);
  for _ = 1 to 20 do
    Alcotest.check Alcotest.string "first model" d1
      (Certificate.digest_of_model m1);
    Alcotest.check Alcotest.string "first model again" d1
      (Certificate.digest_of_model m1);
    Alcotest.check Alcotest.string "second model" d2
      (Certificate.digest_of_model m2)
  done;
  let alternate (a, da) (b, db) () =
    let ok = ref true in
    for _ = 1 to 2_000 do
      if Certificate.digest_of_model a <> da then ok := false;
      if Certificate.digest_of_model b <> db then ok := false
    done;
    !ok
  in
  let other = Domain.spawn (alternate (m1, d1) (m2, d2)) in
  let here = alternate (m2, d2) (m1, d1) () in
  checkb "this domain saw fresh digests" true here;
  checkb "the other domain saw fresh digests" true (Domain.join other)

(* ------------------------------------------------------------------ *)
(* Multiprocessor and contingency certificates                         *)
(* ------------------------------------------------------------------ *)

let test_multiproc_certificate () =
  match Rt_multiproc.Msched.synthesize ~n_procs:2 ~msg_cost:1 example with
  | Error e -> Alcotest.failf "msched fixture failed: %s" e
  | Ok r -> (
      let cert = Rt_multiproc.Mcert.result_cert example r in
      match Checker.check_multi example cert with
      | Ok () -> ()
      | Error errs ->
          Alcotest.failf "multiproc certificate rejected: %s"
            (String.concat "; " errs))

let test_multiproc_cert_tamper_rejected () =
  match Rt_multiproc.Msched.synthesize ~n_procs:2 ~msg_cost:1 example with
  | Error e -> Alcotest.failf "msched fixture failed: %s" e
  | Ok r ->
      let cert = Rt_multiproc.Mcert.result_cert example r in
      let tampered = { cert with Certificate.mp_digest = "bogus" } in
      checkb "digest tamper rejected" true
        (Checker.check_multi example tampered <> Ok ());
      let dropped_plan =
        match cert.Certificate.mp_plans with
        | _ :: rest -> { cert with Certificate.mp_plans = rest }
        | [] -> Alcotest.fail "fixture has no plans"
      in
      checkb "dropped plan rejected" true
        (Checker.check_multi example dropped_plan <> Ok ())

let test_contingency_certificate () =
  match Rt_multiproc.Msched.synthesize ~n_procs:3 ~msg_cost:1 example with
  | Error e -> Alcotest.failf "msched fixture failed: %s" e
  | Ok nominal -> (
      match Rt_multiproc.Contingency.synthesize ~detect_bound:1 example nominal with
      | Error e -> Alcotest.failf "contingency fixture failed: %s" e
      | Ok table -> (
          let tcert = Rt_multiproc.Mcert.table_cert example table in
          match Rt_multiproc.Contingency.admits_reconfiguration example table with
          | Ok () -> (
              match Checker.check_table example tcert with
              | Ok () -> ()
              | Error errs ->
                  Alcotest.failf "contingency certificate rejected: %s"
                    (String.concat "; " errs))
          | Error _ ->
              (* No reconfiguration slack: the full-table judgment does
                 not apply, but nominal and every feasible scenario must
                 still certify individually. *)
              (match Checker.check_multi example tcert.Certificate.t_nominal with
              | Ok () -> ()
              | Error errs ->
                  Alcotest.failf "nominal certificate rejected: %s"
                    (String.concat "; " errs));
              List.iter
                (fun (dead, scert) ->
                  match Checker.check_multi example scert with
                  | Ok () -> ()
                  | Error errs ->
                      Alcotest.failf "scenario %d certificate rejected: %s" dead
                        (String.concat "; " errs))
                tcert.Certificate.t_scenarios))

(* ------------------------------------------------------------------ *)
(* Budgets: Timeout within 2x the wall budget; graceful synthesis      *)
(* ------------------------------------------------------------------ *)

let e3_hard_model () =
  (* A 3-PARTITION yes-instance big enough that the game engine cannot
     finish within the test budgets (the CLI smoke test pins the same
     family at m = 6, b = 40). *)
  let g = Rt_graph.Prng.create 11 in
  let items = Npc.three_partition_yes g ~m:6 ~b:40 in
  Npc.reduction_model items ~b:40

let test_budget_wall_timeout () =
  let m = e3_hard_model () in
  let wall_s = 0.4 in
  let budget = Budget.create ~wall_s () in
  let t0 = Unix.gettimeofday () in
  let stats = Exact.solve_single_ops ~budget m in
  let elapsed = Unix.gettimeofday () -. t0 in
  (match stats.Exact.outcome with
  | Exact.Timeout _ -> ()
  | o ->
      Alcotest.failf "expected Timeout, got %s"
        (match o with
        | Exact.Feasible _ -> "Feasible"
        | Exact.Infeasible -> "Infeasible"
        | Exact.Unknown r -> "Unknown: " ^ r
        | Exact.Timeout _ -> assert false));
  checkb
    (Printf.sprintf "returned within 2x wall budget (%.3fs <= %.3fs)" elapsed
       (2.0 *. wall_s))
    true
    (elapsed <= 2.0 *. wall_s)

let test_budget_fuel_timeout () =
  let m = e3_hard_model () in
  let budget = Budget.create ~fuel:2_000 () in
  match (Exact.solve_single_ops ~budget m).Exact.outcome with
  | Exact.Timeout _ -> ()
  | _ -> Alcotest.fail "fuel budget did not produce Timeout"

let test_budget_absent_identical () =
  (* The no-budget path must be bit-identical to the historical engine:
     same outcome, same exploration count, run to run. *)
  let m = Suite.tiny_two_ops in
  let a = Exact.solve_single_ops m in
  let b = Exact.solve_single_ops m in
  checki "explored identical" a.Exact.explored b.Exact.explored;
  checkb "both feasible" true
    (match (a.Exact.outcome, b.Exact.outcome) with
    | Exact.Feasible s1, Exact.Feasible s2 -> s1 = s2
    | _ -> false)

let test_synthesis_budget_graceful () =
  (* An already-exhausted budget must yield a diagnosable stage-"budget"
     error, never an exception, and a generous budget must not change
     the result. *)
  (match Synthesis.synthesize ~budget:(Budget.create ~fuel:0 ()) example with
  | Error e -> Alcotest.check Alcotest.string "stage" "budget" e.Synthesis.stage
  | Ok _ -> Alcotest.fail "fuel-0 synthesis unexpectedly succeeded");
  match Synthesis.synthesize ~budget:(Budget.create ~fuel:1_000_000 ()) example with
  | Ok _ -> ()
  | Error e ->
      Alcotest.failf "generous budget failed: %s/%s" e.Synthesis.stage
        e.Synthesis.message

(* ------------------------------------------------------------------ *)
(* Game transposition-table gauges                                     *)
(* ------------------------------------------------------------------ *)

let test_game_table_gauges () =
  let m = Suite.tiny_two_ops in
  ignore (Exact.solve_single_ops m);
  let size = Rt_obs.Metrics.gauge_value (Rt_obs.Metrics.gauge "game/table_size") in
  checkb "table size gauge published" true (size >= 0);
  checki "no evictions under the default cap" 0
    (Rt_obs.Metrics.value (Rt_obs.Metrics.counter "game/table_evictions"))

let () =
  Alcotest.run "checker"
    [
      ( "accepts",
        [
          Alcotest.test_case "genuine certificates accepted" `Quick
            test_checker_accepts_genuine;
          Alcotest.test_case "persist round-trip" `Quick
            test_certificate_persist_roundtrip;
          Alcotest.test_case "persist skip = round trip" `Quick
            test_persist_skip_differential;
          Alcotest.test_case "persist refuses unreadable names" `Quick
            test_persist_unreadable_names;
          Alcotest.test_case "digest cache = fresh digest" `Quick
            test_digest_cache;
          Alcotest.test_case "multiproc certificate" `Quick
            test_multiproc_certificate;
          Alcotest.test_case "contingency certificate" `Quick
            test_contingency_certificate;
        ] );
      ( "rejects",
        [
          Alcotest.test_case "all mutants rejected" `Quick
            test_mutants_all_rejected;
          Alcotest.test_case "every mutation kind applies and is caught"
            `Quick test_mutate_kinds_cover;
          Alcotest.test_case "multiproc tampering rejected" `Quick
            test_multiproc_cert_tamper_rejected;
          QCheck_alcotest.to_alcotest qcheck_random_certified_models;
        ] );
      ( "budgets",
        [
          Alcotest.test_case "wall budget times out within 2x" `Quick
            test_budget_wall_timeout;
          Alcotest.test_case "fuel budget times out" `Quick
            test_budget_fuel_timeout;
          Alcotest.test_case "no budget is bit-identical" `Quick
            test_budget_absent_identical;
          Alcotest.test_case "synthesis degrades gracefully" `Quick
            test_synthesis_budget_graceful;
        ] );
      ( "observability",
        [
          Alcotest.test_case "game table gauges" `Quick
            test_game_table_gauges;
        ] );
    ]
