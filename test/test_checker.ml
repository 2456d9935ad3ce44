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
module Certificate = Rt_check.Certificate
module Checker = Rt_check.Checker
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
(* Certify shares one witness per (latency class, deadline).  The
   reference certifies each constraint alone and reassembles the
   witnesses in model order; the saved bytes must not differ. *)
let test_certify_shared_bytes () =
  let prng = Rt_graph.Prng.create 1919 in
  let shared = ref 0 in
  for i = 0 to 19 do
    let raw =
      if i mod 2 = 0 then
        Rt_workload.Model_gen.periodic_chain_model prng
          ~n_constraints:(2 + Rt_graph.Prng.int prng 2)
          ~utilization:0.7 ~periods:[ 8; 12; 16; 24 ]
      else
        Rt_workload.Model_gen.unit_chain_model prng
          ~n_constraints:(2 + Rt_graph.Prng.int prng 2)
          ~n_elements:4 ~max_deadline:16
    in
    match Synthesis.synthesize ~pipeline:false raw with
    | Error _ -> ()
    | Ok p ->
        let mu = p.Synthesis.model_used and sched = p.Synthesis.schedule in
        (* Renamed copies at the same and at a looser deadline, an
           asynchronous copy at another separation and a periodic copy
           at twice the period: each is met wherever its original is. *)
        let copies =
          List.concat_map
            (fun (c : Timing.t) ->
              let copy suffix ~period ~deadline =
                let t =
                  Timing.make ~name:(c.name ^ suffix) ~graph:c.graph ~period
                    ~deadline ~kind:c.kind
                in
                if c.offset = 0 then t else Timing.with_offset t c.offset
              in
              [
                copy "_a" ~period:c.period ~deadline:c.deadline;
                copy "_b" ~period:c.period ~deadline:(c.deadline + 3);
                copy "_c" ~period:(2 * c.period) ~deadline:c.deadline;
              ])
            mu.Model.constraints
        in
        let m =
          Model.make ~comm:mu.Model.comm
            ~constraints:(mu.Model.constraints @ copies)
        in
        let witness_alone (c : Timing.t) =
          match
            Certify.schedule (Model.make ~comm:m.Model.comm ~constraints:[ c ]) sched
          with
          | Ok { Certificate.witnesses = [ w ]; _ } -> w
          | Ok _ -> Alcotest.fail "one constraint, several witnesses"
          | Error e -> Alcotest.failf "%s alone: %s" c.name e
        in
        let reference =
          Certificate.make m sched (List.map witness_alone m.Model.constraints)
        in
        (match Certify.schedule m sched with
        | Error e -> Alcotest.failf "model %d: %s" i e
        | Ok cert ->
            incr shared;
            Alcotest.check Alcotest.string
              (Printf.sprintf "model %d: same bytes" i)
              (Rt_spec.Persist.save_certificate_string m reference)
              (Rt_spec.Persist.save_certificate_string m cert));
        (* A copy one slot below its class's achieved bound shares no
           witness: certification fails, naming the copy. *)
        List.iter2
          (fun (c : Timing.t) (v : Latency.verdict) ->
            match v.Latency.achieved with
            | Some a when a > 1 ->
                let tight =
                  Timing.make ~name:"tight" ~graph:c.graph ~period:c.period
                    ~deadline:(a - 1) ~kind:c.kind
                in
                let tight =
                  if c.offset = 0 then tight else Timing.with_offset tight c.offset
                in
                let m' =
                  Model.make ~comm:m.Model.comm
                    ~constraints:(m.Model.constraints @ [ tight ])
                in
                checkb
                  (Printf.sprintf "model %d: %s below its bound refused" i c.name)
                  true
                  (match Certify.schedule m' sched with
                  | Error e -> String.starts_with ~prefix:"constraint tight:" e
                  | Ok _ -> false)
            | _ -> ())
          mu.Model.constraints (Latency.verify mu sched)
  done;
  checkb "at least 8 models certified" true (!shared >= 8)

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
(* Streamed digests                                                    *)
(* ------------------------------------------------------------------ *)

(* The model digest as it was first computed: the canonical rendering
   built with [Printf] into one string, then hashed whole. *)
let printf_model_digest (m : Model.t) =
  let b = Buffer.create 256 in
  let g = m.Model.comm in
  Buffer.add_string b "G:";
  List.iter
    (fun (e : Element.t) ->
      Buffer.add_string b
        (Printf.sprintf "%s,%d,%b;" e.Element.name e.Element.weight
           e.Element.pipelinable))
    (Comm_graph.elements g);
  Buffer.add_string b "E:";
  List.iter
    (fun (u, v) -> Buffer.add_string b (Printf.sprintf "%d-%d;" u v))
    (Rt_graph.Digraph.edges (Comm_graph.graph g));
  Buffer.add_string b "T:";
  List.iter
    (fun (c : Timing.t) ->
      Buffer.add_string b
        (Printf.sprintf "%s,%s,%d,%d,%d,[" c.Timing.name
           (Timing.kind_to_string c.Timing.kind)
           c.Timing.period c.Timing.deadline c.Timing.offset);
      Array.iter
        (fun e -> Buffer.add_string b (Printf.sprintf "%d " e))
        (Task_graph.node_elements c.Timing.graph);
      Buffer.add_string b "],[";
      List.iter
        (fun (u, v) -> Buffer.add_string b (Printf.sprintf "%d-%d " u v))
        (Task_graph.edges c.Timing.graph);
      Buffer.add_string b "];")
    m.Model.constraints;
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (Char.code c));
      h := Int64.mul !h 0x100000001b3L)
    (Buffer.contents b);
  Printf.sprintf "fnv1a:%016Lx" !h

let rebuild (m : Model.t) f =
  Model.make ~comm:m.Model.comm ~constraints:(List.map f m.Model.constraints)

(* Every periodic constraint released with a phase. *)
let phased prng m =
  rebuild m (fun (c : Timing.t) ->
      if Timing.is_periodic c && c.Timing.period > 1 then
        Timing.with_offset c (1 + Rt_graph.Prng.int prng (c.Timing.period - 1))
      else c)

(* Every task graph gains an isolated node on an element it does not
   use, and lists its nodes in reverse, so names are out of order and
   edges and isolated nodes share one graph. *)
let widened (m : Model.t) =
  let n = Comm_graph.n_elements m.Model.comm in
  rebuild m (fun (c : Timing.t) ->
      let tg = c.Timing.graph in
      let used = Task_graph.node_elements tg in
      match List.find_opt (fun e -> not (Array.mem e used)) (List.init n Fun.id) with
      | None -> c
      | Some extra ->
          let k = Array.length used + 1 in
          let nodes = Array.init k (fun i -> if i = 0 then extra else used.(k - 1 - i)) in
          let moved v = k - 1 - v in
          let c' =
            Timing.make ~name:c.Timing.name
              ~graph:
                (Task_graph.create ~nodes
                   ~edges:(List.map (fun (u, v) -> (moved u, moved v)) (Task_graph.edges tg)))
              ~period:c.Timing.period ~deadline:c.Timing.deadline ~kind:c.Timing.kind
          in
          if Timing.is_periodic c then Timing.with_offset c' c.Timing.offset else c')

(* A certificate that binds to [m]: Persist checks only the binding, so
   arbitrary executions of the right width exercise the re-indexing. *)
let synthetic_cert prng (m : Model.t) =
  let n = Comm_graph.n_elements m.Model.comm in
  let sched =
    Schedule.of_array
      (Array.init
         (1 + Rt_graph.Prng.int prng 24)
         (fun _ ->
           let e = Rt_graph.Prng.int prng (n + 1) in
           if e = n then Schedule.Idle else Schedule.Run e))
  in
  let exec (c : Timing.t) =
    Array.init (Task_graph.size c.Timing.graph) (fun _ ->
        let s = Rt_graph.Prng.int prng 50 in
        (s, s + 1 + Rt_graph.Prng.int prng 3))
  in
  Certificate.make m sched
    (List.map
       (fun (c : Timing.t) ->
         ( c.Timing.name,
           if Timing.is_periodic c then Certificate.Periodic [| exec c; exec c |]
           else Certificate.Async [ exec c; exec c; exec c ] ))
       m.Model.constraints)

let test_streamed_digests () =
  let prng = Rt_graph.Prng.create 2020 in
  let identity = ref 0 and round_trip = ref 0 and refused = ref 0 in
  let offsets = ref 0 and mixed_graphs = ref 0 in
  let outcome f =
    match f () with d -> Ok d | exception Invalid_argument e -> Error e
  in
  let check_pair what (m : Model.t) cert =
    let rendered =
      outcome (fun () ->
          Rt_daemon.Journal.digest_string
            (Rt_spec.Persist.save_certificate_string m cert))
    in
    let streamed = outcome (fun () -> Rt_spec.Persist.certificate_digest m cert) in
    Alcotest.check
      Alcotest.(result string string)
      (what ^ ": certificate digest")
      rendered streamed;
    (* The refusals alone, as a what-if makes them: the same verdict
       and message, nothing rendered. *)
    Alcotest.check
      Alcotest.(result unit string)
      (what ^ ": refusal check")
      (Result.map ignore streamed)
      (Rt_spec.Persist.check_certificate m cert);
    match rendered with
    | Error _ -> incr refused
    | Ok _ ->
        let own =
          "{\"format\":\"rtsyn-certificate\",\"version\":1,\"digest\":"
          ^ Rt_graph.Sink.json_string cert.Certificate.digest
        in
        if String.starts_with ~prefix:own (Rt_spec.Persist.save_certificate_string m cert)
        then incr identity
        else incr round_trip
  in
  let check_model what (m : Model.t) =
    Alcotest.check Alcotest.string (what ^ ": model digest")
      (printf_model_digest m)
      (Certificate.digest_of_model m);
    List.iter
      (fun (c : Timing.t) ->
        if c.Timing.offset > 0 then incr offsets;
        let tg = c.Timing.graph in
        let linked = Array.make (Task_graph.size tg) false in
        List.iter
          (fun (u, v) ->
            linked.(u) <- true;
            linked.(v) <- true)
          (Task_graph.edges tg);
        if Array.exists Fun.id linked && not (Array.for_all Fun.id linked) then
          incr mixed_graphs)
      m.Model.constraints;
    check_pair what m (synthetic_cert prng m)
  in
  for i = 0 to 29 do
    let raw =
      match i mod 6 with
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
      | 4 ->
          Rt_workload.Model_gen.periodic_chain_model prng
            ~n_constraints:(2 + Rt_graph.Prng.int prng 3)
            ~utilization:0.6 ~periods:[ 8; 12; 24 ]
      | _ ->
          Rt_workload.Model_gen.unit_chain_model prng
            ~n_constraints:(2 + Rt_graph.Prng.int prng 3)
            ~n_elements:12 ~max_deadline:16
    in
    let variants =
      [ ("raw", raw); ("phased", phased prng raw); ("widened", widened (phased prng raw)) ]
    in
    List.iter
      (fun (v, m) ->
        let what = Printf.sprintf "model %d %s" i v in
        check_model what m;
        match Rt_spec.Elaborate.load (Rt_spec.Printer.print m) with
        | Ok m' -> check_model (what ^ " elaborated") m'
        | Error es -> Alcotest.failf "%s: %s" what (String.concat "; " es))
      variants;
    (* A certificate for another model is refused on both paths. *)
    let cert = synthetic_cert prng raw in
    check_pair
      (Printf.sprintf "model %d unbound" i)
      raw
      { cert with Certificate.digest = "fnv1a:0000000000000000" }
  done;
  (* Names the lexer cannot read back are refused on both paths. *)
  List.iter
    (fun (elem, cname) ->
      let comm = Comm_graph.create ~elements:[ (elem, 1, true) ] ~edges:[] in
      let m =
        Model.make ~comm
          ~constraints:
            [
              Timing.make ~name:cname ~graph:(Task_graph.singleton 0) ~period:4
                ~deadline:4 ~kind:Timing.Periodic;
            ]
      in
      check_model (Printf.sprintf "unreadable %S/%S" elem cname) m)
    [ ("f x", "c"); ("f_x", "c-1"); ("9f", "c"); ("f\"q", "c") ];
  checkb "periodic constraints with offsets" true (!offsets > 0);
  checkb "task graphs with edges and isolated nodes" true (!mixed_graphs > 0);
  checkb "the identity path was taken" true (!identity > 0);
  checkb "the round trip was taken" true (!round_trip > 0);
  checkb "both refusals were compared" true (!refused >= 34)

(* ------------------------------------------------------------------ *)
(* Certification agrees with verification                              *)
(* ------------------------------------------------------------------ *)

(* The daemon accepts a schedule through Certify and the trusted
   Checker alone, with no whole-model [Latency.verify] before them.
   That is sound because the two judges agree: on generated (model,
   schedule) pairs, "Certify succeeds and the Checker accepts" holds
   exactly when every verdict of [Latency.verify] is OK.  The pairs are
   synthesized plans, their phased periodic copies, copies of each
   constraint at its achieved bound and one slot below it, and a
   periodic copy whose lcm(period, cycle) exceeds [Trace.max_horizon]. *)
let test_certify_agrees_with_verify () =
  let prng = Rt_graph.Prng.create 2727 in
  let accepted = ref 0 and refused = ref 0 and pairs = ref 0 in
  let agree what (m : Model.t) sched =
    incr pairs;
    let certified =
      match Certify.schedule m sched with
      | Ok cert -> Checker.check m cert = Ok ()
      | Error _ | (exception Invalid_argument _) -> false
    in
    let verified =
      try Latency.all_ok (Latency.verify m sched)
      with Invalid_argument _ -> false
    in
    if certified <> verified then
      Alcotest.failf "%s: certify and check say %b, verify says %b" what
        certified verified;
    if certified then incr accepted else incr refused
  in
  let with_constraint (m : Model.t) c =
    Model.make ~comm:m.Model.comm ~constraints:(m.Model.constraints @ [ c ])
  in
  let copy (c : Timing.t) ~period ~deadline =
    let t =
      Timing.make ~name:"copy" ~graph:c.Timing.graph ~period ~deadline
        ~kind:c.Timing.kind
    in
    if c.Timing.offset = 0 then t else Timing.with_offset t c.Timing.offset
  in
  for i = 0 to 39 do
    let raw =
      match i mod 5 with
      | 0 ->
          Rt_workload.Model_gen.dag_model prng
            ~n_constraints:(2 + Rt_graph.Prng.int prng 2)
            ~utilization:0.5 ~periods:[ 10; 12; 20 ]
      | 1 ->
          Rt_workload.Model_gen.single_op_model prng
            ~n_constraints:(2 + Rt_graph.Prng.int prng 3)
            ~max_weight:3 ~target_ratio_sum:0.7
      | 2 ->
          Rt_workload.Model_gen.shared_block_model prng
            ~n_pairs:(1 + Rt_graph.Prng.int prng 2)
            ~shared_weight:2 ~private_weight:1 ~period:16
      | 3 ->
          Rt_workload.Model_gen.periodic_chain_model prng
            ~n_constraints:(2 + Rt_graph.Prng.int prng 2)
            ~utilization:0.6 ~periods:[ 8; 12; 24 ]
      | _ ->
          Rt_workload.Model_gen.unit_chain_model prng
            ~n_constraints:(2 + Rt_graph.Prng.int prng 3)
            ~n_elements:8 ~max_deadline:16
    in
    match Synthesis.synthesize ~merge:false ~pipeline:false raw with
    | Error _ -> ()
    | Ok p ->
        let m = p.Synthesis.model_used and sched = p.Synthesis.schedule in
        let what = Printf.sprintf "model %d" i in
        agree what m sched;
        agree (what ^ " phased") (phased prng m) sched;
        List.iter2
          (fun (c : Timing.t) (v : Latency.verdict) ->
            match v.Latency.achieved with
            | None -> ()
            | Some a ->
                let at d =
                  let c' = copy c ~period:c.Timing.period ~deadline:d in
                  agree
                    (Printf.sprintf "%s: %s at %d" what c.Timing.name d)
                    (with_constraint m c') sched
                in
                at (max 1 a);
                if a > 1 then at (a - 1))
          m.Model.constraints (Latency.verify m sched);
        (* A period past the horizon: neither judge can unroll it. *)
        let c = List.hd m.Model.constraints in
        agree (what ^ " long lcm")
          (with_constraint m
             (Timing.make ~name:"long" ~graph:c.Timing.graph
                ~period:(Trace.max_horizon + 1) ~deadline:c.Timing.deadline
                ~kind:Timing.Periodic))
          sched
  done;
  checkb "at least 150 pairs" true (!pairs >= 150);
  checkb "both judges accepted some pairs" true (!accepted > 0);
  checkb "both judges refused some pairs" true (!refused > 0)

(* ------------------------------------------------------------------ *)
(* One check per distinct (shape, witness)                             *)
(* ------------------------------------------------------------------ *)

(* Two elements, each feeding the other, run once per 8-slot cycle:
   f_x in slot 0, f_y in slot 1. *)
let shared_comm =
  Comm_graph.create
    ~elements:[ ("f_x", 1, true); ("f_y", 1, true) ]
    ~edges:[ ("f_x", "f_y"); ("f_y", "f_x") ]

let shared_sched =
  Schedule.of_array
    (Array.init 8 (function
      | 0 -> Schedule.Run 0
      | 1 -> Schedule.Run 1
      | _ -> Schedule.Idle))

let async_c name ?(nodes = [| 0 |]) ?(edges = []) deadline =
  Timing.make ~name ~graph:(Task_graph.create ~nodes ~edges) ~period:8
    ~deadline ~kind:Timing.Asynchronous

let periodic_c name ?(offset = 0) ~period deadline =
  let c =
    Timing.make ~name ~graph:(Task_graph.singleton 0) ~period ~deadline
      ~kind:Timing.Periodic
  in
  if offset = 0 then c else Timing.with_offset c offset

(* [a]'s own witness, certified alone, listed for [a] and, physically
   shared, for [b]; the checker's verdict on that certificate. *)
let check_shared a b =
  let m_a = Model.make ~comm:shared_comm ~constraints:[ a ] in
  let w =
    match Certify.schedule m_a shared_sched with
    | Ok { Certificate.witnesses = [ (_, w) ]; _ } -> w
    | Ok _ -> Alcotest.fail "one constraint, one witness"
    | Error e -> Alcotest.failf "certify %s: %s" a.Timing.name e
  in
  let m = Model.make ~comm:shared_comm ~constraints:[ a; b ] in
  Checker.check m
    (Certificate.make m shared_sched [ (a.Timing.name, w); (b.Timing.name, w) ])

(* A witness shared by two constraints that differ in one field the
   check reads must be checked for each: the certificate is refused, and
   every error names the constraint the witness does not fit. *)
let test_shared_witness_one_field () =
  List.iter
    (fun (field, a, b) ->
      match check_shared a b with
      | Ok () -> Alcotest.failf "%s: a witness of the wrong shape accepted" field
      | Error errs ->
          List.iter
            (fun e ->
              checkb
                (Printf.sprintf "%s: %S names b" field e)
                true
                (String.starts_with ~prefix:"b:" e
                || String.starts_with ~prefix:"b@" e))
            errs)
    [
      ("deadline", async_c "a" 8, async_c "b" 7);
      ( "edges",
        async_c "a" ~nodes:[| 0; 1 |] 10,
        async_c "b" ~nodes:[| 0; 1 |] ~edges:[ (1, 0) ] 10 );
      ("node map", async_c "a" 8, async_c "b" ~nodes:[| 1 |] 8);
      ("offset", periodic_c "a" ~period:8 2, periodic_c "b" ~offset:1 ~period:8 2);
      ("period", periodic_c "a" ~period:4 8, periodic_c "b" ~period:8 8);
      ("kind", async_c "a" 8, periodic_c "b" ~period:8 8);
    ]

(* The words of two messages: a periodic invocation's label is built
   only on error, and a shared instance is found without a table. *)
let test_pinned_messages () =
  Alcotest.(check (result unit (list string)))
    "periodic miss"
    (Error [ "b@1: node 0 execution [0,1) outside window [1,3]" ])
    (check_shared (periodic_c "a" ~period:8 2)
       (periodic_c "b" ~offset:1 ~period:8 2));
  let twice = async_c "s" ~nodes:[| 0; 0 |] 10 in
  let m = Model.make ~comm:shared_comm ~constraints:[ twice ] in
  Alcotest.(check (result unit (list string)))
    "shared instance"
    (Error [ "s: nodes 0 and 1 share the instance of element 0 at 0" ])
    (Checker.check m
       (Certificate.make m shared_sched
          [ ("s", Certificate.Async [ [| (0, 1); (0, 1) |] ]) ]))

(* A witness that fails is checked for every constraint that carries it,
   so each reports its own error. *)
let test_failing_shared_witness () =
  Alcotest.(check (result unit (list string)))
    "one error per constraint"
    (Error
       [
         "a: node 0 execution [8,9) outside window [0,8]";
         "b: node 0 execution [8,9) outside window [0,8]";
       ])
    (let m8 = Model.make ~comm:shared_comm ~constraints:[ async_c "a" 8 ] in
     match Certify.schedule m8 shared_sched with
     | Ok { Certificate.witnesses = [ (_, w) ]; _ } ->
         let m =
           Model.make ~comm:shared_comm
             ~constraints:[ async_c "a" 7; async_c "b" 7 ]
         in
         Checker.check m
           (Certificate.make m shared_sched [ ("a", w); ("b", w) ])
     | _ -> Alcotest.fail "fixture certification failed")

(* Two constraints of one shape whose witnesses differ only in their
   last execution, far past the prefix a structural hash reads: the
   comparison, not the hash, tells them apart, and the tampered one is
   refused. *)
let test_long_witness_prefix () =
  let sched =
    Schedule.of_array
      (Array.init 64 (fun i -> if i mod 2 = 0 then Schedule.Run 0 else Schedule.Idle))
  in
  let m_a = Model.make ~comm:shared_comm ~constraints:[ async_c "a" 2 ] in
  match Certify.schedule m_a sched with
  | Ok { Certificate.witnesses = [ (_, (Certificate.Async execs as wa)) ]; _ } ->
      let last = List.length execs - 1 in
      let wb =
        Certificate.Async
          (List.mapi
             (fun i x -> if i < last then x else [| (fst x.(0) + 1, snd x.(0) + 1) |])
             execs)
      in
      checkb "a long chain" true (last >= 16);
      checkb "the witnesses hash alike" true (Hashtbl.hash wa = Hashtbl.hash wb);
      let m = Model.make ~comm:shared_comm ~constraints:[ async_c "a" 2; async_c "b" 2 ] in
      (match Checker.check m (Certificate.make m sched [ ("a", wa); ("b", wb) ]) with
      | Ok () -> Alcotest.fail "a tampered witness accepted"
      | Error errs ->
          List.iter
            (fun e -> checkb (Printf.sprintf "%S names b" e) true (String.starts_with ~prefix:"b:" e))
            errs)
  | _ -> Alcotest.fail "fixture certification failed"

(* The same certificate with no value shared: every execution rebuilt. *)
let deep_copy (cert : Certificate.t) =
  let exec x = Array.map (fun (s, f) -> (s, f)) x in
  {
    cert with
    Certificate.witnesses =
      List.map
        (fun (n, w) ->
          ( n,
            match w with
            | Certificate.Async es -> Certificate.Async (List.map exec es)
            | Certificate.Periodic es -> Certificate.Periodic (Array.map exec es)
          ))
        cert.Certificate.witnesses;
  }

(* A second copy of every constraint under a new name, so Certify shares
   each witness between two constraints. *)
let doubled (m : Model.t) =
  Model.make ~comm:m.Model.comm
    ~constraints:
      (m.Model.constraints
      @ List.map
          (fun (c : Timing.t) ->
            let c' =
              Timing.make ~name:(c.Timing.name ^ "_2") ~graph:c.Timing.graph
                ~period:c.Timing.period ~deadline:c.Timing.deadline
                ~kind:c.Timing.kind
            in
            if c.Timing.offset = 0 then c' else Timing.with_offset c' c.Timing.offset)
          m.Model.constraints)

(* Sharing and order are invisible to the verdict: on generated models
   with every constraint doubled, the certificate as built, a deep copy
   with no value shared, and its witnesses in reverse order (which the
   checker pairs by name) get the same verdict and the same errors, for
   the genuine certificate and for every mutant.  The deep copy is
   grouped as the built one is: it runs as many witness checks, at most
   one per constraint pair. *)
let qcheck_sharing_invisible =
  let gen_seed = QCheck.make QCheck.Gen.(int_bound 10_000) in
  QCheck.Test.make ~count:50
    ~name:"verdicts ignore witness sharing and order" gen_seed (fun seed ->
      let prng = Rt_graph.Prng.create (1 + seed) in
      let raw =
        match seed mod 5 with
        | 0 ->
            Rt_workload.Model_gen.dag_model prng
              ~n_constraints:(2 + Rt_graph.Prng.int prng 2)
              ~utilization:0.5 ~periods:[ 10; 12; 20 ]
        | 1 ->
            Rt_workload.Model_gen.single_op_model prng
              ~n_constraints:(2 + Rt_graph.Prng.int prng 3)
              ~max_weight:3 ~target_ratio_sum:0.7
        | 2 ->
            Rt_workload.Model_gen.shared_block_model prng
              ~n_pairs:(1 + Rt_graph.Prng.int prng 2)
              ~shared_weight:2 ~private_weight:1 ~period:16
        | 3 ->
            Rt_workload.Model_gen.periodic_chain_model prng
              ~n_constraints:(2 + Rt_graph.Prng.int prng 2)
              ~utilization:0.6 ~periods:[ 8; 12; 24 ]
        | _ ->
            Rt_workload.Model_gen.unit_chain_model prng
              ~n_constraints:(2 + Rt_graph.Prng.int prng 3)
              ~n_elements:8 ~max_deadline:16
      in
      match Synthesis.synthesize ~merge:false ~pipeline:false raw with
      | Error _ -> true (* no schedule, nothing to certify *)
      | Ok p -> (
          let m = doubled p.Synthesis.model_used in
          match Certify.schedule m p.Synthesis.schedule with
          | Error e -> QCheck.Test.fail_reportf "certify failed: %s" e
          | Ok cert ->
              let counted c =
                let before = Checker.witness_checks () in
                let r = Checker.check m c in
                (r, Checker.witness_checks () - before)
              in
              let genuine, n_built = counted cert in
              let _, n_copy = counted (deep_copy cert) in
              if genuine <> Ok () then
                QCheck.Test.fail_report "genuine certificate rejected";
              if n_copy <> n_built || 2 * n_built > List.length m.Model.constraints
              then
                QCheck.Test.fail_reportf
                  "%d witness checks built, %d deep-copied, %d constraints"
                  n_built n_copy (List.length m.Model.constraints);
              List.for_all
                (fun (label, c) ->
                  let r = Checker.check m c in
                  List.for_all
                    (fun (what, c') ->
                      Checker.check m c' = r
                      || QCheck.Test.fail_reportf "%s: %s changes the verdict"
                           label what)
                    [
                      ("a deep copy", deep_copy c);
                      ( "reversed order",
                        {
                          c with
                          Certificate.witnesses = List.rev c.Certificate.witnesses;
                        } );
                    ])
                (("genuine", cert) :: Mutate.mutants cert)))

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

(* A wall budget spent before the EDF construction's release sort cuts
   the build, and synthesis under it reports stage "budget". *)
let test_expired_wall_budget () =
  let expired () =
    let b = Budget.create ~wall_s:0.0 () in
    Unix.sleepf 0.002;
    b
  in
  let m = example in
  let jobs =
    List.concat_map (Edf_cyclic.jobs_of_periodic ~horizon:40) (Model.periodic m)
  in
  (match Edf_cyclic.build m.Model.comm ~horizon:40 jobs with
  | Ok _ -> ()
  | Error f -> Alcotest.failf "unbudgeted build failed: %s" f.Edf_cyclic.reason);
  (match Edf_cyclic.build ~budget:(expired ()) m.Model.comm ~horizon:40 jobs with
  | Error f ->
      Alcotest.check Alcotest.string "build cut" "budget exhausted"
        f.Edf_cyclic.reason
  | Ok _ -> Alcotest.fail "build ran on a spent budget");
  match Synthesis.synthesize ~budget:(expired ()) m with
  | Error e -> Alcotest.check Alcotest.string "stage" "budget" e.Synthesis.stage
  | Ok _ -> Alcotest.fail "synthesis succeeded on a spent budget"

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
          Alcotest.test_case "certify shared = per-constraint bytes" `Quick
            test_certify_shared_bytes;
          Alcotest.test_case "streamed digests = rendered bytes" `Quick
            test_streamed_digests;
          Alcotest.test_case "certify and check agree with verify" `Quick
            test_certify_agrees_with_verify;
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
          Alcotest.test_case "shared witness, one field differs" `Quick
            test_shared_witness_one_field;
          Alcotest.test_case "pinned witness messages" `Quick
            test_pinned_messages;
          Alcotest.test_case "failing shared witness: each reports" `Quick
            test_failing_shared_witness;
          Alcotest.test_case "witnesses alike in a long prefix" `Quick
            test_long_witness_prefix;
          QCheck_alcotest.to_alcotest qcheck_sharing_invisible;
        ] );
      ( "budgets",
        [
          Alcotest.test_case "wall budget times out within 2x" `Quick
            test_budget_wall_timeout;
          Alcotest.test_case "fuel budget times out" `Quick
            test_budget_fuel_timeout;
          Alcotest.test_case "expired wall budget: stage budget" `Quick
            test_expired_wall_budget;
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
