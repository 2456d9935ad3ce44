(* Daemon-layer tests: the answer-cache key of rtsynd (invariant under
   constraint renaming and reordering, sensitive to every scheduling
   field, injective over the example suite), journal torn-tail and
   corruption semantics, and engine crash-replay.  A daemon never
   changes its communication graph, so element ids are fixed and the
   key need not survive element renaming: renamed tenants differ from
   resident ones in constraint names only. *)

open Rt_core
module Canon = Rt_daemon.Canon
module Resident = Rt_daemon.Resident
module Journal = Rt_daemon.Journal
module Engine = Rt_daemon.Engine
module Framing = Rt_daemon.Framing
module Daemon = Rt_daemon.Daemon
module Transport = Rt_daemon.Transport

let checkb = Alcotest.check Alcotest.bool
let checks = Alcotest.check Alcotest.string

(* ------------------------------------------------------------------ *)
(* Answer-cache key                                                    *)
(* ------------------------------------------------------------------ *)

let shuffle prng arr =
  for i = Array.length arr - 1 downto 1 do
    let j = Rt_graph.Prng.int prng (i + 1) in
    let t = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- t
  done

(* Rename every constraint and reorder the constraint list — the same
   constraint multiset over the same communication graph. *)
let renamed_reordered prng salt (m : Model.t) =
  let constraints =
    List.mapi
      (fun i (c : Timing.t) ->
        let c' =
          Timing.make
            ~name:(Printf.sprintf "t%d_c%d" salt i)
            ~graph:c.graph ~period:c.period ~deadline:c.deadline ~kind:c.kind
        in
        if c.offset = 0 then c' else Timing.with_offset c' c.offset)
      m.Model.constraints
  in
  let arr = Array.of_list constraints in
  shuffle prng arr;
  Model.make ~comm:m.Model.comm ~constraints:(Array.to_list arr)

let random_model prng i =
  match i mod 4 with
  | 0 ->
      Rt_workload.Model_gen.single_op_model prng
        ~n_constraints:(2 + Rt_graph.Prng.int prng 3)
        ~max_weight:3 ~target_ratio_sum:0.8
  | 1 ->
      Rt_workload.Model_gen.theorem3_model prng
        ~n_constraints:(2 + Rt_graph.Prng.int prng 3)
        ~max_weight:2
  | 2 ->
      Rt_workload.Model_gen.shared_block_model prng
        ~n_pairs:(1 + Rt_graph.Prng.int prng 2)
        ~shared_weight:2 ~private_weight:1 ~period:16
  | _ ->
      Rt_workload.Model_gen.dag_model prng
        ~n_constraints:(2 + Rt_graph.Prng.int prng 2)
        ~utilization:0.5 ~periods:[ 10; 12; 20 ]

let test_canon_invariance () =
  let prng = Rt_graph.Prng.create 4242 in
  for i = 1 to 60 do
    let m = random_model prng i in
    let key = Canon.of_model m in
    for salt = 1 to 3 do
      let m' = renamed_reordered prng ((100 * i) + salt) m in
      checks
        (Printf.sprintf "key invariant under renaming (model %d salt %d)" i
           salt)
        key (Canon.of_model m')
    done
  done

(* One-field variants of a constraint: kind, period, deadline, offset
   (periodic only; asynchronous constraints carry none) and the element
   of one task-graph node (moved to an element the graph does not use). *)
let one_field_variants n_elements (c : Timing.t) =
  let remake ?(graph = c.graph) ?(period = c.period) ?(deadline = c.deadline)
      ?(kind = c.kind) ?(offset = c.offset) what =
    let c' = Timing.make ~name:c.name ~graph ~period ~deadline ~kind in
    (what, if offset = 0 then c' else Timing.with_offset c' offset)
  in
  let flipped =
    match c.kind with
    | Timing.Periodic -> remake ~kind:Timing.Asynchronous ~offset:0 "kind"
    | Timing.Asynchronous -> remake ~kind:Timing.Periodic "kind"
  in
  let offset =
    if Timing.is_periodic c && c.period > 1 then
      [ remake ~offset:((c.offset + 1) mod c.period) "offset" ]
    else []
  in
  let element =
    let used = Rt_base.Task_graph.elements_used c.graph in
    let unused e = not (List.mem e used) in
    match List.find_opt unused (List.init n_elements Fun.id) with
    | None -> []
    | Some fresh ->
        let moved = Rt_base.Task_graph.element_of_node c.graph 0 in
        [
          remake
            ~graph:
              (Rt_base.Task_graph.map_elements c.graph ~f:(fun e ->
                   if e = moved then fresh else e))
            "element";
        ]
  in
  [
    flipped;
    remake ~period:(c.period + 1) "period";
    remake ~deadline:(c.deadline + 1) "deadline";
  ]
  @ offset @ element

let test_canon_field_sensitivity () =
  let prng = Rt_graph.Prng.create 99 in
  for i = 1 to 40 do
    let m = random_model prng i in
    let key = Canon.of_constraints m.Model.constraints in
    let n = Rt_base.Comm_graph.n_elements m.Model.comm in
    List.iteri
      (fun j (c : Timing.t) ->
        List.iter
          (fun (what, c') ->
            let constraints =
              List.mapi
                (fun k d -> if k = j then c' else d)
                m.Model.constraints
            in
            checkb
              (Printf.sprintf
                 "changing the %s of constraint %d changes the key (model %d)"
                 what j i)
              false
              (String.equal key (Canon.of_constraints constraints)))
          (one_field_variants n c))
      m.Model.constraints
  done

let test_canon_no_collisions () =
  let ps = Rt_workload.Suite.default_params in
  let suite =
    [
      ("control", Rt_workload.Suite.control_system ps);
      ("control_equal_rates", Rt_workload.Suite.control_system_equal_rates ps);
      ("tiny_two_ops", Rt_workload.Suite.tiny_two_ops);
      ("exact_stress_2", Rt_workload.Suite.exact_stress ~n_constraints:2 ());
      ("exact_stress_3", Rt_workload.Suite.exact_stress ~n_constraints:3 ());
      ("replicated_2", Rt_workload.Suite.replicated_control ~n:2);
      ("replicated_3", Rt_workload.Suite.replicated_control ~n:3);
      ("infeasible_pair", Rt_workload.Suite.infeasible_pair);
    ]
  in
  let keyed = List.map (fun (n, m) -> (n, Canon.of_model m)) suite in
  List.iteri
    (fun i (ni, ki) ->
      List.iteri
        (fun j (nj, kj) ->
          if i < j then
            checkb
              (Printf.sprintf "distinct models %s / %s do not collide" ni nj)
              false (String.equal ki kj))
        keyed)
    keyed

(* ------------------------------------------------------------------ *)
(* Journal                                                             *)
(* ------------------------------------------------------------------ *)

let test_journal_digest () =
  let d = Journal.digest_string in
  checks "digest is deterministic" (d "hello") (d "hello");
  checkb "distinct payloads get distinct digests" false
    (String.equal (d "hello") (d "hello "));
  checkb "digest carries the fnv1a prefix" true
    (String.length (d "") > 6 && String.sub (d "") 0 6 = "fnv1a:")

(* ------------------------------------------------------------------ *)
(* Engine: fresh start, memo, crash replay, corruption refusal         *)
(* ------------------------------------------------------------------ *)

let base_spec =
  {|system "base" {
  element f_x weight 1 pipelinable;
  element f_y weight 1 pipelinable;
  constraint px periodic period 10 deadline 10 { f_x; }
}|}

let with_temp_journal f =
  let path = Filename.temp_file "rtsynd_test" ".journal" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let decl_q name =
  Printf.sprintf "constraint %s asynchronous separation 10 deadline 6 { f_x; }"
    name

let admit_path eng decl =
  match Engine.admit ~level:Engine.Full eng decl with
  | Engine.Admitted { path; _ } -> path
  | Engine.Analytic_only _ -> Alcotest.fail "unexpected analytic-only answer"
  | Engine.Rejected ds -> Alcotest.failf "rejected: %s" (String.concat "; " ds)
  | Engine.Timed_out r -> Alcotest.failf "timed out: %s" r
  | Engine.Check_failed ds ->
      Alcotest.failf "check failed: %s" (String.concat "; " ds)
  | Engine.Journal_failed e -> Alcotest.failf "journal failed: %s" e

let test_engine_memo_and_replay () =
  with_temp_journal @@ fun journal ->
  let digest_before_crash =
    match Engine.create ~journal ~spec:base_spec () with
    | Error e -> Alcotest.failf "fresh create: %s" e
    | Ok eng ->
        checks "first admit synthesizes" "synth" (admit_path eng (decl_q "q"));
        (match Engine.retire eng "q" with
        | Engine.Admitted _ -> ()
        | _ -> Alcotest.fail "retire failed");
        (* renamed tenant: same constraint multiset, must hit the memo *)
        checks "renamed tenant hits the memo" "memo"
          (admit_path eng (decl_q "tenant_b"));
        let d = Rt_check.Certificate.digest_of_model (Engine.model eng) in
        Engine.close eng;
        d
  in
  (* kill -9 equivalent: no snapshot, no graceful shutdown — replay *)
  (match Engine.create ~journal ~spec:base_spec () with
  | Error e -> Alcotest.failf "replay create: %s" e
  | Ok eng ->
      checks "replay reaches the pre-crash digest" digest_before_crash
        (Rt_check.Certificate.digest_of_model (Engine.model eng));
      (match Engine.reverify eng with
      | Ok _ -> ()
      | Error ds ->
          Alcotest.failf "reverify after replay: %s" (String.concat "; " ds));
      checkb "memo reseeded from the journal" true (Engine.memo_size eng > 0);
      Engine.close eng);
  (* a torn tail (partial last line) is discarded, not fatal *)
  let oc = open_out_gen [ Open_append ] 0o644 journal in
  output_string oc "{\"torn";
  close_out oc;
  (match Engine.create ~journal ~spec:base_spec () with
  | Error e -> Alcotest.failf "torn tail should replay: %s" e
  | Ok eng ->
      checks "torn tail dropped, state unchanged" digest_before_crash
        (Rt_check.Certificate.digest_of_model (Engine.model eng));
      Engine.close eng);
  (* mid-file corruption is fatal: refuse to start rather than serve
     from an unverifiable state *)
  let lines =
    In_channel.with_open_bin journal (fun ic ->
        String.split_on_char '\n' (In_channel.input_all ic))
    |> List.filter (fun l -> String.trim l <> "")
  in
  (match lines with
  | first :: rest ->
      Out_channel.with_open_bin journal (fun oc ->
          output_string oc (first ^ "\n{corrupt}\n");
          List.iter (fun l -> output_string oc (l ^ "\n")) rest)
  | [] -> Alcotest.fail "journal unexpectedly empty");
  match Engine.create ~journal ~spec:base_spec () with
  | Ok eng ->
      Engine.close eng;
      Alcotest.fail "mid-file corruption must refuse to start"
  | Error _ -> ()

(* Live retire stores the post-retire model in the memo; replay must
   store it too, or a restart changes answer paths.  Sequence: admit a,
   admit a structurally different b, retire a, retire b, then admit b2,
   an α-renamed b — a memo hit on the {px, b} entry only retire a made. *)
let test_engine_retire_memo_replay () =
  let decl_b name =
    Printf.sprintf
      "constraint %s asynchronous separation 20 deadline 8 { f_y; }" name
  in
  let prefix eng =
    ignore (admit_path eng (decl_q "a"));
    ignore (admit_path eng (decl_b "b"));
    List.iter
      (fun n ->
        match Engine.retire eng n with
        | Engine.Admitted _ -> ()
        | _ -> Alcotest.failf "retire %s failed" n)
      [ "a"; "b" ]
  in
  let open_engine journal =
    match Engine.create ~journal ~spec:base_spec () with
    | Error e -> Alcotest.failf "create: %s" e
    | Ok eng -> eng
  in
  (with_temp_journal @@ fun journal ->
   let eng = open_engine journal in
   prefix eng;
   checks "live: renamed tenant hits the retire-seeded memo" "memo"
     (admit_path eng (decl_b "b2"));
   Engine.close eng);
  with_temp_journal @@ fun journal ->
  let eng = open_engine journal in
  prefix eng;
  Engine.close eng;
  let eng = open_engine journal in
  checks "replayed: same answer path as live" "memo"
    (admit_path eng (decl_b "b2"));
  Engine.close eng

(* A deadline near max_int would overflow the certify horizon (cycle +
   2 * deadline + 1), and the trusted core would veto the answer.  Such
   a declaration is invalid: it must be rejected before any solve and
   leave daemon/check_failures, the count of trusted-core vetoes,
   untouched. *)
let test_engine_huge_timing_rejected () =
  with_temp_journal @@ fun journal ->
  match Engine.create ~journal ~spec:base_spec () with
  | Error e -> Alcotest.failf "create: %s" e
  | Ok eng ->
      let vetoes = Rt_obs.Metrics.counter "daemon/check_failures" in
      let before = Rt_obs.Metrics.value vetoes in
      List.iter
        (fun decl ->
          (match Engine.admit ~level:Engine.Full eng decl with
          | Engine.Rejected _ -> ()
          | _ -> Alcotest.failf "not rejected: %s" decl);
          Alcotest.check Alcotest.int "check_failures unchanged" before
            (Rt_obs.Metrics.value vetoes))
        [
          Printf.sprintf
            "constraint a asynchronous separation 10 deadline %d { f_x; }"
            max_int;
          Printf.sprintf
            "constraint b asynchronous separation %d deadline 10 { f_x; }"
            (Timing.max_time + 1);
        ];
      Engine.close eng

(* A legal period or deadline whose analysis horizon is past
   [Trace.max_horizon] is answered without unrolling its trace: a
   periodic constraint of period 2^40 gets no bound and is rejected,
   leaving the resident state as it was, and an asynchronous one of
   deadline 2^40 is certified by windows clamped to the analysis
   horizon.  Neither reaches the trusted core's veto. *)
let test_engine_long_horizon () =
  with_temp_journal @@ fun journal ->
  let cfg =
    { Daemon.default_config with Daemon.journal; spec = Some base_spec }
  in
  match Daemon.create_engine cfg with
  | Error e -> Alcotest.failf "create: %s" e
  | Ok (eng, _) ->
      let vetoes = Rt_obs.Metrics.counter "daemon/check_failures" in
      let before = Rt_obs.Metrics.value vetoes in
      let digest () = Rt_check.Certificate.digest_of_model (Engine.model eng) in
      let digest0 = digest () in
      (* The error kind of the answer, or "ok". *)
      let answer decl =
        match
          Daemon.serve_line cfg eng ~started:0. ~depth:0
            (Printf.sprintf {|{"v":1,"id":"x","op":"admit","decl":"%s"}|} decl)
        with
        | `Stop _ -> "stop"
        | `Continue r -> (
            let open Rt_obs.Json in
            match Result.map (member "error") (parse r) with
            | Ok None -> "ok"
            | Ok (Some e) ->
                Option.value ~default:"?" (Option.bind (member "kind" e) to_string)
            | Error e -> e)
      in
      checks "period 2^40 rejected" "rejected"
        (answer
           (Printf.sprintf
              "constraint lp periodic period %d deadline 10 { f_x; }"
              Timing.max_time));
      checks "resident digest unchanged" digest0 (digest ());
      checks "deadline 2^40 admitted" "ok"
        (answer
           (Printf.sprintf
              "constraint ld asynchronous separation 10 deadline %d { f_x; }"
              Timing.max_time));
      Alcotest.check Alcotest.int "check_failures unchanged" before
        (Rt_obs.Metrics.value vetoes);
      Engine.close eng

(* The structural candidate (one declaration elaborated against the
   resident communication graph) against the reference it replaced:
   print the whole model, splice the declaration in before the last
   brace, reparse and re-elaborate everything.  Same digest, or the
   same diagnostics, on valid and malformed declarations alike. *)
let round_trip (m : Model.t) decl =
  let src = Rt_spec.Printer.print m in
  let i = String.rindex src '}' in
  Rt_spec.Elaborate.load
    (String.sub src 0 i ^ "\n" ^ decl ^ "\n}"
    ^ String.sub src (i + 1) (String.length src - i - 1))

let candidate_declarations prng (m : Model.t) =
  let g = m.Model.comm in
  let n = Rt_base.Comm_graph.n_elements g in
  let name e = (Rt_base.Comm_graph.element g e).Element.name in
  let pick () = name (Rt_graph.Prng.int prng n) in
  let edges = Rt_graph.Digraph.edges (Rt_base.Comm_graph.graph g) in
  let decl ?(timing = "asynchronous separation 24 deadline 12") cname body =
    Printf.sprintf "constraint %s %s { %s }" cname timing body
  in
  (* Follow communication edges from a random edge: a 2–3 element chain
     the communication graph admits. *)
  let chain () =
    match edges with
    | [] -> pick () ^ ";"
    | _ ->
        let u, v =
          List.nth edges (Rt_graph.Prng.int prng (List.length edges))
        in
        let next =
          List.filter_map
            (fun (a, b) -> if a = v && b <> u then Some b else None)
            edges
        in
        let tail = match next with w :: _ -> [ w ] | [] -> [] in
        String.concat " -> " (List.map name (u :: v :: tail)) ^ ";"
  in
  let a = pick () and b = pick () in
  let resident =
    match m.Model.constraints with
    | c :: _ -> c.Timing.name
    | [] -> "px"
  in
  [
    decl "new_single" (pick () ^ ";");
    decl ~timing:"periodic period 40 deadline 30" "new_periodic"
      (pick () ^ ";");
    decl ~timing:"periodic period 40 deadline 20 offset 3" "new_offset"
      (pick () ^ ";");
    decl "new_chain" (chain ());
    decl "new_dag" (chain () ^ " " ^ chain ());
    decl "new_nonedge" (Printf.sprintf "%s -> %s;" a b);
    decl "new_unknown" (pick () ^ "; no_such_element;");
    decl "new_cycle" (Printf.sprintf "%s -> %s; %s -> %s;" a b b a);
    decl ~timing:"periodic period 0 deadline 5" "new_zero_period"
      (pick () ^ ";");
    decl ~timing:"asynchronous separation 24 deadline 0" "new_zero_deadline"
      (pick () ^ ";");
    decl resident (pick () ^ ";");
    "element z weight 1 pipelinable;\n"
    ^ decl "new_with_element" (pick () ^ ";");
    Printf.sprintf "edge %s -> %s;\n" a b
    ^ decl "new_with_edge" (pick () ^ ";");
  ]

let test_structural_candidate () =
  let prng = Rt_graph.Prng.create 1507 in
  let compared = ref 0 and accepted = ref 0 in
  for i = 0 to 47 do
    let generated =
      match i mod 6 with
      | 4 ->
          Rt_workload.Model_gen.periodic_chain_model prng
            ~n_constraints:(2 + Rt_graph.Prng.int prng 3)
            ~utilization:0.5 ~periods:[ 10; 20; 40 ]
      | 5 ->
          Rt_workload.Model_gen.unit_chain_model prng
            ~n_constraints:(2 + Rt_graph.Prng.int prng 3)
            ~n_elements:6 ~max_deadline:12
      | k -> random_model prng k
    in
    (* Resident models are always elaborated from source. *)
    match Rt_spec.Elaborate.load (Rt_spec.Printer.print generated) with
    | Error es -> Alcotest.failf "model %d: %s" i (String.concat "; " es)
    | Ok m ->
        List.iter
          (fun decl ->
            incr compared;
            let via f =
              Result.bind
                (Result.map_error
                   (fun e -> [ e ])
                   (Rt_spec.Parser.parse_declaration decl))
                f
            in
            match
              ( via (Rt_spec.Elaborate.add_constraint m),
                via (fun _ -> round_trip m decl) )
            with
            | Ok s, Ok r ->
                incr accepted;
                checks
                  (Printf.sprintf "model %d, %s: same digest" i decl)
                  (Rt_check.Certificate.digest_of_model r)
                  (Rt_check.Certificate.digest_of_model s)
            | Error s, Error r ->
                Alcotest.(check (list string))
                  (Printf.sprintf "model %d, %s: same diagnostics" i decl)
                  r s
            | Ok _, Error r ->
                Alcotest.failf "model %d, %s: only the round trip refuses: %s"
                  i decl (String.concat "; " r)
            | Error s, Ok _ ->
                Alcotest.failf "model %d, %s: only the structural path \
                                refuses: %s" i decl (String.concat "; " s))
          (candidate_declarations prng m)
  done;
  checkb "valid declarations were among the compared" true
    (!accepted * 4 > !compared)

(* The warm rung's premise.  When the resident schedule verifies the
   resident model, adding one constraint changes neither the schedule
   nor the communication graph, and a constraint's verdict depends on
   those and its own task graph only: the candidate verifies exactly
   when the declared constraint alone does.  Deadlines are drawn at and
   one below the bound the new constraint achieves, so both verdicts
   occur. *)
let test_warm_single_constraint () =
  let drawn_ok = ref 0 and drawn_miss = ref 0 in
  let verifies m sched = Latency.all_ok (Latency.verify m sched) in
  let prop seed =
    let prng = Rt_graph.Prng.create seed in
    let generated =
      match seed mod 4 with
      | 0 ->
          Rt_workload.Model_gen.single_op_model prng ~max_deadline:16
            ~n_constraints:(2 + Rt_graph.Prng.int prng 3)
            ~max_weight:3 ~target_ratio_sum:0.7
      | 1 ->
          Rt_workload.Model_gen.unit_chain_model prng
            ~n_constraints:(2 + Rt_graph.Prng.int prng 3)
            ~n_elements:6 ~max_deadline:12
      | k -> random_model prng k
    in
    match Synthesis.synthesize ~merge:false ~pipeline:false generated with
    | Error _ -> true (* no resident schedule to reuse *)
    | Ok plan -> (
        let m = plan.Synthesis.model_used and sched = plan.Synthesis.schedule in
        if not (verifies m sched) then
          QCheck.Test.fail_report "the resident schedule does not verify";
        let g = m.Model.comm in
        let e = Rt_graph.Prng.int prng (Comm_graph.n_elements g) in
        let graph =
          match Rt_graph.Digraph.succ (Comm_graph.graph g) e with
          | v :: _ when Rt_graph.Prng.bool prng -> Task_graph.of_chain [ e; v ]
          | _ -> Task_graph.singleton e
        in
        let kind =
          if Rt_graph.Prng.bool prng then Timing.Periodic else Timing.Asynchronous
        in
        let period = Rt_graph.Prng.pick prng [ 6; 10; 16; 40 ] in
        let offset =
          if kind = Timing.Periodic then Rt_graph.Prng.int prng period else 0
        in
        let added deadline =
          let c = Timing.make ~name:"warm_new" ~graph ~period ~deadline ~kind in
          if offset = 0 then c else Timing.with_offset c offset
        in
        let alone c = Model.make ~comm:g ~constraints:[ c ] in
        let loose = (8 * Schedule.length sched) + 8 in
        let deadline =
          match Latency.verify (alone (added loose)) sched with
          | [ { Latency.achieved = Some k; _ } ] ->
              max 1 (if Rt_graph.Prng.bool prng then k else k - 1)
          | _ -> loose
        in
        let c = added deadline in
        let single = verifies (alone c) sched in
        let whole =
          verifies
            (Model.make ~comm:g ~constraints:(m.Model.constraints @ [ c ]))
            sched
        in
        if single then incr drawn_ok else incr drawn_miss;
        single = whole)
  in
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:300 ~name:"warm verdict = whole-model verdict"
       QCheck.(int_bound 1_000_000)
       prop);
  checkb "a resident schedule in at least a third of the draws" true
    (3 * (!drawn_ok + !drawn_miss) >= 300);
  checkb "some candidates verify" true (!drawn_ok > 0);
  checkb "some candidates miss" true (!drawn_miss > 0)

(* A journal written by the engine before admits were built structurally
   (init, a 3-element chain, a retire and an α-renamed re-admit) still
   replays, record digests and certificates included, to its recorded
   final state. *)
let compat_journal = "journal_compat.journal"
let compat_digest = "fnv1a:ce8a6b95d0cd8a50"

let test_journal_compat () =
  let fixture =
    List.find_opt Sys.file_exists
      [ compat_journal; Filename.concat "test" compat_journal ]
    |> function
    | Some p -> p
    | None -> Alcotest.failf "fixture %s not found" compat_journal
  in
  with_temp_journal @@ fun journal ->
  Out_channel.with_open_bin journal (fun oc ->
      output_string oc (In_channel.with_open_bin fixture In_channel.input_all));
  match Engine.create ~journal () with
  | Error e -> Alcotest.failf "replay: %s" e
  | Ok eng ->
      checks "replays to the recorded final digest" compat_digest
        (Rt_check.Certificate.digest_of_model (Engine.model eng));
      (match Engine.reverify eng with
      | Ok d -> checks "reverify accepts the replayed state" compat_digest d
      | Error ds -> Alcotest.failf "reverify: %s" (String.concat "; " ds));
      Engine.close eng

(* ------------------------------------------------------------------ *)
(* Framing: the newline splitter both transports share.  The protocol- *)
(* level contract under attack: torn frames reassemble byte-identical  *)
(* regardless of chunking, oversized frames are dropped with an exact  *)
(* byte count and the stream resynchronizes, two clients' streams are  *)
(* framed independently however their chunks interleave, and EOF mid-  *)
(* frame is reported — never a crash, never a hang.                    *)
(* ------------------------------------------------------------------ *)

(* Cut [payload] into chunks whose sizes cycle through [sizes]. *)
let chunks_of payload sizes =
  let n = String.length payload in
  let sizes = match sizes with [] -> [ 1 ] | s -> List.map (fun x -> 1 + abs x) s in
  let arr = Array.of_list sizes in
  let rec go i k acc =
    if i >= n then List.rev acc
    else
      let len = min arr.(k mod Array.length arr) (n - i) in
      go (i + len) (k + 1) (String.sub payload i len :: acc)
  in
  go 0 0 []

let feed_chunks framer chunks =
  List.concat_map (fun c -> Framing.feed framer c) chunks

let gen_line max_len =
  QCheck.Gen.(
    map
      (fun s ->
        String.map (fun c -> if c = '\n' then ' ' else c) s)
      (string_size (int_bound max_len)))

let gen_stream max_line_len =
  QCheck.Gen.(
    pair
      (list_size (int_range 0 20) (gen_line max_line_len))
      (list_size (int_range 1 8) (int_bound 37)))

let qcheck_framing_torn_frames =
  QCheck.Test.make ~count:200 ~name:"framing reassembles torn frames"
    (QCheck.make (gen_stream 80))
    (fun (lines, sizes) ->
      let payload = String.concat "" (List.map (fun l -> l ^ "\n") lines) in
      let framer = Framing.create ~max_frame:100 in
      let events = feed_chunks framer (chunks_of payload sizes) in
      let got =
        List.map
          (function
            | Framing.Line l -> l
            | Framing.Oversized n ->
                QCheck.Test.fail_reportf "unexpected Oversized %d" n)
          events
      in
      if got <> lines then
        QCheck.Test.fail_reportf "frames did not reassemble: %d in, %d out"
          (List.length lines) (List.length got);
      Framing.finish framer = `Clean)

let qcheck_framing_oversize_resync =
  QCheck.Test.make ~count:200
    ~name:"framing drops oversized frames and resyncs"
    (QCheck.make (gen_stream 120))
    (fun (lines, sizes) ->
      let max_frame = 50 in
      let payload = String.concat "" (List.map (fun l -> l ^ "\n") lines) in
      let framer = Framing.create ~max_frame in
      let events = feed_chunks framer (chunks_of payload sizes) in
      let expected =
        List.map
          (fun l ->
            if String.length l > max_frame then
              Framing.Oversized (String.length l)
            else Framing.Line l)
          lines
      in
      if events <> expected then
        QCheck.Test.fail_reportf
          "oversize events diverged (%d lines, max_frame %d)"
          (List.length lines) max_frame;
      Framing.finish framer = `Clean)

let qcheck_framing_interleaved_clients =
  QCheck.Test.make ~count:200
    ~name:"framing keeps interleaved clients independent"
    (QCheck.make QCheck.Gen.(pair (gen_stream 60) (gen_stream 60)))
    (fun ((lines_a, sizes_a), (lines_b, sizes_b)) ->
      let payload ls = String.concat "" (List.map (fun l -> l ^ "\n") ls) in
      let fa = Framing.create ~max_frame:80
      and fb = Framing.create ~max_frame:80 in
      let ca = chunks_of (payload lines_a) sizes_a
      and cb = chunks_of (payload lines_b) sizes_b in
      (* Interleave the two clients' partial writes chunk by chunk, the
         way the transport's event loop would see them. *)
      let rec interleave ea eb = function
        | [], [] -> (List.rev ea, List.rev eb)
        | a :: ra, [] ->
            interleave (List.rev_append (Framing.feed fa a) ea) eb (ra, [])
        | [], b :: rb ->
            interleave ea (List.rev_append (Framing.feed fb b) eb) ([], rb)
        | a :: ra, b :: rb ->
            let ea = List.rev_append (Framing.feed fa a) ea in
            let eb = List.rev_append (Framing.feed fb b) eb in
            interleave ea eb (ra, rb)
      in
      let ea, eb = interleave [] [] (ca, cb) in
      let only_lines evs =
        List.map
          (function
            | Framing.Line l -> l
            | Framing.Oversized n ->
                QCheck.Test.fail_reportf "unexpected Oversized %d" n)
          evs
      in
      only_lines ea = lines_a && only_lines eb = lines_b)

let qcheck_framing_eof_mid_frame =
  QCheck.Test.make ~count:200 ~name:"framing reports EOF mid-frame"
    (QCheck.make QCheck.Gen.(pair (gen_stream 40) (gen_line 40)))
    (fun ((lines, sizes), tail) ->
      let payload =
        String.concat "" (List.map (fun l -> l ^ "\n") lines) ^ tail
      in
      let framer = Framing.create ~max_frame:64 in
      let events = feed_chunks framer (chunks_of payload sizes) in
      List.length events = List.length lines
      &&
      match Framing.finish framer with
      | `Clean -> String.length tail = 0
      | `Partial n -> n = String.length tail && n > 0)

(* ------------------------------------------------------------------ *)
(* Socket transport: two concurrent clients against a live engine.     *)
(* Partial interleaved writes, per-connection response ordering, an    *)
(* oversized frame answered with a structured error on a still-usable  *)
(* connection, EOF mid-request answered before close, and a graceful   *)
(* shutdown drain (exit 0) — never a crash or a hung connection.       *)
(* ------------------------------------------------------------------ *)

let send_all fd s =
  let n = String.length s in
  let rec go off =
    if off < n then
      let w = Unix.write_substring fd s off (n - off) in
      go (off + w)
  in
  go 0

(* Read [n] newline-terminated responses with a hard deadline; [buf] is
   the connection's carry-over between calls. *)
let recv_lines fd buf n ~deadline =
  let chunk = Bytes.create 4096 in
  let rec go acc need =
    if need = 0 then List.rev acc
    else
      match String.index_opt !buf '\n' with
      | Some i ->
          let line = String.sub !buf 0 i in
          buf := String.sub !buf (i + 1) (String.length !buf - i - 1);
          go (line :: acc) (need - 1)
      | None ->
          let now = Unix.gettimeofday () in
          if now > deadline then
            Alcotest.failf "recv timed out waiting for %d response(s)" need;
          (match Unix.select [ fd ] [] [] (min 1.0 (deadline -. now)) with
          | [], _, _ -> ()
          | _ -> (
              match Unix.read fd chunk 0 (Bytes.length chunk) with
              | 0 -> Alcotest.fail "connection closed before all responses"
              | got -> buf := !buf ^ Bytes.sub_string chunk 0 got));
          go acc need
  in
  go [] n

let recv_eof fd ~deadline =
  let chunk = Bytes.create 4096 in
  let rec go () =
    let now = Unix.gettimeofday () in
    if now > deadline then Alcotest.fail "expected EOF, got a hang";
    match Unix.select [ fd ] [] [] (min 1.0 (deadline -. now)) with
    | [], _, _ -> go ()
    | _ -> (
        match Unix.read fd chunk 0 (Bytes.length chunk) with
        | 0 -> ()
        | _ -> go ())
  in
  go ()

let field line key =
  match Rt_obs.Json.parse line with
  | Error e -> Alcotest.failf "unparseable response %s: %s" line e
  | Ok j -> Option.bind (Rt_obs.Json.member key j) Rt_obs.Json.to_string

let response_id line = Option.value ~default:"" (field line "id")

let error_kind line =
  match Rt_obs.Json.parse line with
  | Error _ -> ""
  | Ok j ->
      Option.value ~default:""
        (Option.bind
           (Rt_obs.Json.member "error" j)
           (fun e -> Option.bind (Rt_obs.Json.member "kind" e) Rt_obs.Json.to_string))

(* A fresh private directory for a test daemon's socket and journal. *)
let socket_dir prefix =
  let dir = Filename.temp_file prefix "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  dir

(* Run the transport for [dcfg] on the unix socket [sock] in its own
   domain and call [f] once the socket exists.  A shutdown is always
   attempted afterwards and the domain joined, so a failing assertion
   cannot leave the transport domain (and the test binary) hanging. *)
let with_transport sock dcfg f =
  let tcfg =
    {
      Transport.default with
      Transport.socket = Some sock;
      drain_timeout_s = 5.;
    }
  in
  let daemon = Stdlib.Domain.spawn (fun () -> Transport.run tcfg dcfg) in
  let rec wait_sock n =
    if Sys.file_exists sock then ()
    else if n = 0 then Alcotest.fail "socket never appeared"
    else begin
      Unix.sleepf 0.05;
      wait_sock (n - 1)
    end
  in
  Fun.protect
    ~finally:(fun () ->
      (try
         let fd = Unix.socket PF_UNIX SOCK_STREAM 0 in
         Unix.connect fd (ADDR_UNIX sock);
         send_all fd "{\"v\":1,\"id\":\"kill\",\"op\":\"shutdown\"}\n";
         Unix.close fd
       with _ -> ());
      ignore (Stdlib.Domain.join daemon : int))
  @@ fun () ->
  wait_sock 200;
  f ()

let test_transport_two_clients () =
  let dir = socket_dir "rtsynd_sock" in
  let sock = Filename.concat dir "s" in
  let journal = Filename.concat dir "j.journal" in
  let deadline = Unix.gettimeofday () +. 30. in
  let dcfg =
    {
      Daemon.default_config with
      Daemon.journal;
      spec = Some base_spec;
      max_frame = 256;
    }
  in
  with_transport sock dcfg @@ fun () ->
  let connect () =
    let fd = Unix.socket PF_UNIX SOCK_STREAM 0 in
    Unix.connect fd (ADDR_UNIX sock);
    fd
  in
  let c1 = connect () and c2 = connect () in
  let b1 = ref "" and b2 = ref "" in
  (* Interleaved partial writes: c1's first request is torn across two
     writes with c2's complete request landing in between. *)
  send_all c1 "{\"v\":1,\"id\":\"a\",\"op\":";
  send_all c2 "{\"v\":1,\"id\":\"x\",\"op\":\"stats\"}\n";
  send_all c1 "\"stats\"}\n{\"v\":1,\"id\":\"b\",\"op\":\"reverify\"}\n";
  let r1 = recv_lines c1 b1 2 ~deadline in
  let r2 = recv_lines c2 b2 1 ~deadline in
  Alcotest.(check (list string))
    "c1 responses arrive in request order" [ "a"; "b" ]
    (List.map response_id r1);
  checks "c2 got its own response" "x" (response_id (List.hd r2));
  (* Oversized frame on c2: structured error, connection stays usable. *)
  send_all c2 (String.make 400 'x' ^ "\n");
  let r = List.hd (recv_lines c2 b2 1 ~deadline) in
  checks "oversized frame answered with a structured error" "oversize"
    (error_kind r);
  send_all c2 "{\"v\":1,\"id\":\"y\",\"op\":\"stats\"}\n";
  checks "connection survives an oversized frame" "y"
    (response_id (List.hd (recv_lines c2 b2 1 ~deadline)));
  (* EOF mid-request on c1: structured error, then the daemon closes. *)
  send_all c1 "{\"v\":1,\"id\":\"c\",\"op\"";
  Unix.shutdown c1 Unix.SHUTDOWN_SEND;
  let r = List.hd (recv_lines c1 b1 1 ~deadline) in
  checks "EOF mid-request answered with a parse error" "parse" (error_kind r);
  recv_eof c1 ~deadline;
  Unix.close c1;
  (* Graceful shutdown: ack arrives, the daemon drains and exits 0. *)
  send_all c2 "{\"v\":1,\"id\":\"z\",\"op\":\"shutdown\"}\n";
  checks "shutdown acknowledged" "z"
    (response_id (List.hd (recv_lines c2 b2 1 ~deadline)));
  recv_eof c2 ~deadline;
  Unix.close c2;
  (* The transport unlinks its socket just after closing the last
     connection; poll briefly rather than racing that cleanup. *)
  let rec wait_unlink n =
    if not (Sys.file_exists sock) then ()
    else if n = 0 then Alcotest.fail "socket file not removed on drain"
    else begin
      Unix.sleepf 0.05;
      wait_unlink (n - 1)
    end
  in
  wait_unlink 100

let test_engine_admission_contract () =
  let _, code = Engine.admission Rt_workload.Suite.infeasible_pair in
  Alcotest.check Alcotest.int "impossible model exits 1" 1 code;
  let _, code =
    Engine.admission
      (Rt_workload.Suite.control_system Rt_workload.Suite.default_params)
  in
  checkb "verdict code is one of the contract's {0,1,5}" true
    (List.mem code [ 0; 1; 5 ])

(* ------------------------------------------------------------------ *)
(* Resident index = its oracles                                        *)
(* ------------------------------------------------------------------ *)

let verdict_string = function
  | Admission.Guaranteed cond -> "guaranteed:" ^ cond
  | Admission.Impossible cond -> "impossible:" ^ cond
  | Admission.Inconclusive -> "inconclusive"

let names cs = List.map (fun (c : Timing.t) -> c.Timing.name) cs

(* Every view the index keeps equals its definition on the model: the
   partition, component order and element lists of
   Decompose.components, each component's Canon key, the whole-model
   key and the admission verdict. *)
let index_agrees what r =
  let m = Resident.model r in
  let comps = Resident.components r in
  Alcotest.(check (list (pair (list string) (list int))))
    (what ^ ": partition, component order and elements")
    (List.map
       (fun (c : Decompose.component) -> (names c.constraints, c.elements))
       (Decompose.components m))
    (List.map
       (fun c -> (names (Resident.constraints c), Resident.elements c))
       comps);
  List.iter
    (fun c ->
      checks (what ^ ": component key")
        (Canon.of_constraints (Resident.constraints c))
        (Resident.component_key c))
    comps;
  checks (what ^ ": whole key") (Canon.of_model m) (Resident.key r);
  checks (what ^ ": admission verdict")
    (verdict_string (Admission.admit m))
    (verdict_string (Resident.admission r))

(* A random constraint over [comm]: one element, or a two-element chain
   along a communication edge (which can join two components), with
   timing drawn so that deadline failures, rate overloads, Theorem 3
   and the periodic-only EDF path all occur. *)
let random_constraint prng comm name =
  let n = Comm_graph.n_elements comm in
  let e = Rt_graph.Prng.int prng n in
  let graph =
    match Rt_graph.Digraph.succ (Comm_graph.graph comm) e with
    | v :: _ when Rt_graph.Prng.bool prng -> Task_graph.of_chain [ e; v ]
    | _ -> Task_graph.singleton e
  in
  let kind =
    if Rt_graph.Prng.int prng 3 = 0 then Timing.Asynchronous
    else Timing.Periodic
  in
  let period = Rt_graph.Prng.pick prng [ 4; 8; 10; 16; 40 ] in
  let deadline = 1 + Rt_graph.Prng.int prng (2 * period) in
  let c = Timing.make ~name ~graph ~period ~deadline ~kind in
  if kind = Timing.Periodic && Rt_graph.Prng.bool prng then
    Timing.with_offset c (Rt_graph.Prng.int prng period)
  else c

let generated_model prng i =
  match i mod 6 with
  | 4 ->
      Rt_workload.Model_gen.periodic_chain_model prng
        ~n_constraints:(2 + Rt_graph.Prng.int prng 3)
        ~utilization:0.5 ~periods:[ 10; 20; 40 ]
  | 5 ->
      Rt_workload.Model_gen.unit_chain_model prng
        ~n_constraints:(2 + Rt_graph.Prng.int prng 3)
        ~n_elements:6 ~max_deadline:12
  | k -> random_model prng k

(* Random add / drop-candidate / remove sequences straight on the
   index.  A candidate is checked against the definitions on a model
   built from scratch by Model.make, and the index it came from must be
   the very value it was before. *)
let prop_index_oracles seed =
  let prng = Rt_graph.Prng.create seed in
  let m0 = generated_model prng seed in
  let comm = m0.Model.comm in
  let r = ref (Resident.of_model m0) in
  let listed = ref m0.Model.constraints in
  index_agrees "initial" !r;
  for step = 1 to 14 do
    let what = Printf.sprintf "seed %d step %d" seed step in
    match (Rt_graph.Prng.int prng 4, !listed) with
    | 0, (_ :: _ as cs) ->
        let victim = Rt_graph.Prng.pick prng (names cs) in
        r := Resident.remove !r victim;
        listed := List.filter (fun (c : Timing.t) -> c.name <> victim) cs;
        checkb (what ^ ": retired constraint gone") false
          (Resident.mem !r victim);
        index_agrees (what ^ " retire") !r
    | _ ->
        let c = random_constraint prng comm (Printf.sprintf "n%d" step) in
        let before = !r in
        let cand = Resident.add before c in
        index_agrees (what ^ " candidate") cand;
        let scratch = Model.make ~comm ~constraints:(!listed @ [ c ]) in
        Alcotest.(check (list string))
          (what ^ ": candidate model lists the constraints in order")
          (names scratch.Model.constraints)
          (names (Resident.model cand).Model.constraints);
        checks (what ^ ": candidate verdict = Admission.admit")
          (verdict_string (Admission.admit scratch))
          (verdict_string (Resident.admission cand));
        checkb (what ^ ": the parent index is untouched") true (!r == before);
        if Rt_graph.Prng.bool prng then begin
          r := cand;
          listed := !listed @ [ c ]
        end
  done;
  true

let qcheck_index_oracles =
  QCheck.Test.make ~count:150 ~name:"resident index = oracles"
    QCheck.(int_bound 1_000_000)
    prop_index_oracles

(* The same agreement through the engine: random admits, what-ifs,
   analytic-level probes, failed admits and retires, then journal
   replay.  A what-if, a probe or a failed admit leaves the resident
   index physically unchanged; an answer that carries a verdict carries
   Admission.admit's verdict on the candidate. *)
let decl_of comm (c : Timing.t) =
  let name e = (Comm_graph.element comm e).Element.name in
  let timing =
    match c.kind with
    | Timing.Periodic ->
        Printf.sprintf "periodic period %d deadline %d%s" c.period c.deadline
          (if c.offset > 0 then Printf.sprintf " offset %d" c.offset else "")
    | Timing.Asynchronous ->
        Printf.sprintf "asynchronous separation %d deadline %d" c.period
          c.deadline
  in
  Printf.sprintf "constraint %s %s { %s; }" c.name timing
    (String.concat " -> " (List.map name (Task_graph.straight_line c.graph)))

let test_engine_index_oracles () =
  let engines = ref 0 and committed = ref 0 and unchanged = ref 0 in
  for seed = 1 to 24 do
    let prng = Rt_graph.Prng.create (7000 + seed) in
    (* Theorem 3 models (i mod 6 = 1) are left to the index property
       above: their whole-model syntheses take seconds each. *)
    let i = if seed mod 6 = 1 then seed + 1 else seed in
    let spec = Rt_spec.Printer.print (generated_model prng i) in
    with_temp_journal @@ fun journal ->
    match Engine.create ~journal ~spec () with
    | Error _ -> () (* the generated base system has no schedule *)
    | Ok eng ->
        incr engines;
        index_agrees "fresh start" (Engine.resident eng);
        for step = 1 to 10 do
          let what = Printf.sprintf "seed %d step %d" seed step in
          let before = Engine.resident eng in
          let m = Engine.model eng in
          let comm = m.Model.comm in
          let resident = names m.Model.constraints in
          match Rt_graph.Prng.int prng 5 with
          | 0 when resident <> [] ->
              let victim = Rt_graph.Prng.pick prng resident in
              (match Engine.retire eng victim with
              | Engine.Admitted _ -> ()
              | _ -> Alcotest.failf "%s: retire %s failed" what victim);
              index_agrees (what ^ " retire") (Engine.resident eng)
          | op ->
              let c =
                random_constraint prng comm
                  (if op = 1 && resident <> [] then
                     Rt_graph.Prng.pick prng resident
                   else Printf.sprintf "s%d_%d" seed step)
              in
              let expected =
                match
                  Model.create ~comm ~constraints:(m.Model.constraints @ [ c ])
                with
                | Ok scratch -> Some (verdict_string (Admission.admit scratch))
                | Error _ -> None
              in
              let level =
                if op = 2 then Engine.Analytic else Engine.Heuristic
              in
              let probe = op = 2 || op = 3 in
              let outcome =
                (if probe then Engine.what_if else Engine.admit)
                  ~level eng (decl_of comm c)
              in
              let carried =
                match outcome with
                | Engine.Admitted { verdict; _ }
                | Engine.Analytic_only { verdict } ->
                    Some verdict
                | Engine.Rejected [ d ]
                  when String.starts_with ~prefix:"impossible: " d ->
                    Some
                      ("impossible:" ^ String.sub d 12 (String.length d - 12))
                | _ -> None
              in
              (match carried with
              | Some v ->
                  checks (what ^ ": answer verdict = Admission.admit")
                    (Option.value ~default:"(invalid candidate)" expected)
                    v
              | None -> ());
              let applied =
                (not probe)
                && match outcome with Engine.Admitted _ -> true | _ -> false
              in
              if applied then incr committed
              else begin
                incr unchanged;
                checkb (what ^ ": index physically unchanged") true
                  (Engine.resident eng == before)
              end;
              index_agrees what (Engine.resident eng)
        done;
        let live = Engine.resident eng in
        let digest = Rt_check.Certificate.digest_of_model (Engine.model eng) in
        Engine.close eng;
        (match Engine.create ~journal () with
        | Error e -> Alcotest.failf "seed %d: replay: %s" seed e
        | Ok eng ->
            let r = Engine.resident eng in
            index_agrees (Printf.sprintf "seed %d replayed" seed) r;
            checks "replay reaches the live digest" digest
              (Rt_check.Certificate.digest_of_model (Engine.model eng));
            checks "replayed key = live key" (Resident.key live)
              (Resident.key r);
            Engine.close eng)
  done;
  checkb "most generated base systems start" true (!engines >= 12);
  checkb "some admits commit" true (!committed > 0);
  checkb "some requests leave the index as it was" true (!unchanged > 0)

(* A what-if is answered as the admit of the same declaration would be
   (path and verdict), but its certificate is only certified, checked
   and put through the persist step's refusals: no digest is rendered,
   nothing is journaled, and the resident index, certificate digest and
   journal bytes stay as they were.  (Persist.check_certificate makes
   exactly certificate_digest's refusals: test_checker's streamed-digest
   test.) *)
let test_what_if_no_digest () =
  with_temp_journal @@ fun journal ->
  match Engine.create ~journal ~spec:base_spec () with
  | Error e -> Alcotest.failf "create: %s" e
  | Ok eng ->
      let size () = (Unix.stat journal).Unix.st_size in
      let decls =
        [
          decl_q "w1";
          "constraint w2 asynchronous separation 20 deadline 8 { f_y; }";
          "constraint w3 periodic period 20 deadline 20 { f_y; }";
          "constraint w4 periodic period 1 deadline 1 { f_x; }";
        ]
      in
      List.iter
        (fun decl ->
          let before = Engine.resident eng
          and cert = Engine.cert_digest eng
          and bytes = size () in
          let probe = Engine.what_if ~level:Engine.Full eng decl in
          checkb "resident index unchanged" true
            (Engine.resident eng == before);
          checks "certificate digest unchanged" cert (Engine.cert_digest eng);
          Alcotest.check Alcotest.int "nothing journaled" bytes (size ());
          match (probe, Engine.admit ~level:Engine.Full eng decl) with
          | ( Engine.Admitted { path = p1; verdict = v1 },
              Engine.Admitted { path = p2; verdict = v2 } ) ->
              (* The admit may answer from the memo the what-if seeded. *)
              checkb "what-if path is an admit path" true
                (p1 = p2 || p2 = "memo");
              checks "same verdict" v2 v1;
              checkb "the admit journals" true (size () > bytes);
              checkb "the admit digests its certificate" true
                (Engine.cert_digest eng <> cert)
          | Engine.Rejected d1, Engine.Rejected d2 ->
              Alcotest.(check (list string)) "same refusal" d2 d1
          | _ -> Alcotest.failf "what-if and admit disagree on %s" decl)
        decls;
      Engine.close eng

(* [stats] reports every engine stage and the five top-level request
   histograms, all in microseconds.  The requests go over the socket
   transport, the only path that observes conn_request_us.  Between two
   [stats] answers the request histograms count each request served,
   the earlier [stats] included (it is observed after its answer is
   built); a what-if is counted in the stages it always runs and not in
   the journal's, and an admit in admit_us.  solve_us is observed once
   per solve rung an answer tries: each of these two tries the
   component pass, then the whole model.  The histograms are in
   microseconds: what the admit and the [stats] after it add to each
   sum (read in process, where the transport domain runs) fits in the
   client's wall-clock window around them. *)
let test_stats_stages () =
  let dir = socket_dir "rtsynd_stats" in
  let sock = Filename.concat dir "s" in
  let dcfg =
    {
      Daemon.default_config with
      Daemon.journal = Filename.concat dir "j.journal";
      spec = Some base_spec;
    }
  in
  with_transport sock dcfg @@ fun () ->
  let fd = Unix.socket PF_UNIX SOCK_STREAM 0 in
  Unix.connect fd (ADDR_UNIX sock);
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  let buf = ref "" and deadline = Unix.gettimeofday () +. 30. in
  let request line =
    send_all fd (line ^ "\n");
    List.hd (recv_lines fd buf 1 ~deadline)
  in
  let open Rt_obs.Json in
  let stats () =
    match parse (request {|{"v":1,"id":"s","op":"stats"}|}) with
    | Ok j -> j
    | Error e -> Alcotest.failf "stats does not parse: %s" e
  in
  let count hist name =
    match Option.bind (member name hist) (member "count") with
    | Some n -> Option.value ~default:(-1.) (to_float n)
    | None -> Alcotest.failf "stats lacks %s" name
  in
  let stages j =
    match member "stages" j with
    | Some st -> st
    | None -> Alcotest.fail "stats has no stages object"
  in
  let ran before after name = count after name -. count before name in
  let s1 = stats () in
  ignore
    (request
       (Printf.sprintf {|{"v":1,"id":"w","op":"what-if","decl":"%s"}|}
          (decl_q "w")));
  let s2 = stats () in
  let top =
    [ "request_us"; "admit_us"; "solve_us"; "check_us"; "conn_request_us" ]
  in
  let sums () =
    List.map
      (fun name -> Rt_obs.Metrics.(h_sum (histogram ("daemon/" ^ name))))
      top
  in
  let t0 = Unix.gettimeofday () and sums0 = sums () in
  (* The admit is not an alpha-renaming of the what-if, so it solves
     rather than answering from the memo the what-if seeded. *)
  let admit =
    request
      (Printf.sprintf {|{"v":1,"id":"a","op":"admit","decl":"%s"}|}
         "constraint a asynchronous separation 12 deadline 8 { f_y; }")
  in
  checks "the admit is admitted" "" (error_kind admit);
  let s3 = stats () in
  let window_us = int_of_float ((Unix.gettimeofday () -. t0) *. 1e6) in
  List.iter2
    (fun name (before, after) ->
      checkb
        (Printf.sprintf "%s adds %d, within the %d us window" name
           (after - before) window_us)
        true
        (after - before >= 0 && after - before <= window_us))
    top
    (List.combine sums0 (sums ()));
  List.iter
    (fun name ->
      checkb ("stage " ^ name ^ " reported") true
        (ran (stages s1) (stages s2) name >= 0.))
    Engine.stages;
  List.iter
    (fun name ->
      checkb ("the what-if ran " ^ name) true
        (ran (stages s1) (stages s2) name >= 1.))
    [
      "parse"; "candidate"; "admission"; "key"; "verify"; "certify"; "check";
      "digest";
    ];
  checkb "the what-if journaled nothing" true
    (ran (stages s1) (stages s2) "journal" = 0.);
  List.iter
    (fun (name, what_if, admit) ->
      Alcotest.(check (float 0.)) (name ^ " after the what-if") what_if
        (ran s1 s2 name);
      Alcotest.(check (float 0.)) (name ^ " after the admit") admit
        (ran s2 s3 name))
    [
      ("request_us", 2., 2.);
      ("admit_us", 0., 1.);
      ("solve_us", 2., 2.);
      ("check_us", 1., 1.);
      ("conn_request_us", 2., 2.);
    ]

let () =
  Alcotest.run "rt_daemon"
    [
      ( "canon",
        [
          Alcotest.test_case "key invariant under renaming/permutation" `Quick
            test_canon_invariance;
          Alcotest.test_case "no collisions across the example suite" `Quick
            test_canon_no_collisions;
          Alcotest.test_case "key changes with every scheduling field"
            `Quick test_canon_field_sensitivity;
        ] );
      ( "journal",
        [ Alcotest.test_case "digest" `Quick test_journal_digest ] );
      ( "engine",
        [
          Alcotest.test_case "memo hit, crash replay, corruption refusal"
            `Quick test_engine_memo_and_replay;
          Alcotest.test_case "analytic admission contract" `Quick
            test_engine_admission_contract;
          Alcotest.test_case "retire reseeds the memo on replay" `Quick
            test_engine_retire_memo_replay;
          Alcotest.test_case "structural candidate = round trip" `Quick
            test_structural_candidate;
          Alcotest.test_case "old journal replays to its digest" `Quick
            test_journal_compat;
          Alcotest.test_case "warm verdict = whole-model verdict" `Quick
            test_warm_single_constraint;
          Alcotest.test_case "huge period or deadline is rejected" `Quick
            test_engine_huge_timing_rejected;
          Alcotest.test_case "long horizons answered without unrolling"
            `Quick test_engine_long_horizon;
        ] );
      ( "resident",
        [
          QCheck_alcotest.to_alcotest qcheck_index_oracles;
          Alcotest.test_case "engine index = oracles, replay included" `Quick
            test_engine_index_oracles;
          Alcotest.test_case "what-if answers without a digest" `Quick
            test_what_if_no_digest;
          Alcotest.test_case "stats reports every stage" `Quick
            test_stats_stages;
        ] );
      ( "framing",
        [
          QCheck_alcotest.to_alcotest qcheck_framing_torn_frames;
          QCheck_alcotest.to_alcotest qcheck_framing_oversize_resync;
          QCheck_alcotest.to_alcotest qcheck_framing_interleaved_clients;
          QCheck_alcotest.to_alcotest qcheck_framing_eof_mid_frame;
        ] );
      ( "transport",
        [
          Alcotest.test_case "two clients: ordering, oversize, eof, drain"
            `Quick test_transport_two_clients;
        ] );
    ]
