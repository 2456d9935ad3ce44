(* Daemon-layer tests: canonical-form invariance (the memo key of
   rtsynd), key injectivity over the example suite, journal torn-tail
   and corruption semantics, and engine crash-replay.  The canonical
   form must be invariant under α-renaming of elements and constraints,
   element id permutation and constraint reordering — that is exactly
   what makes the cross-request memo sound for renamed tenants. *)

open Rt_core
module Canon = Rt_daemon.Canon
module Journal = Rt_daemon.Journal
module Engine = Rt_daemon.Engine
module Framing = Rt_daemon.Framing
module Daemon = Rt_daemon.Daemon
module Transport = Rt_daemon.Transport

let checkb = Alcotest.check Alcotest.bool
let checks = Alcotest.check Alcotest.string

(* ------------------------------------------------------------------ *)
(* Canonical form                                                      *)
(* ------------------------------------------------------------------ *)

let shuffle prng arr =
  for i = Array.length arr - 1 downto 1 do
    let j = Rt_graph.Prng.int prng (i + 1) in
    let t = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- t
  done

(* α-rename every element and constraint, permute the element ids and
   reorder the constraint list — structurally the same model. *)
let renamed_permuted prng salt (m : Model.t) =
  let g = m.Model.comm in
  let n = Rt_base.Comm_graph.n_elements g in
  let perm = Array.init n Fun.id in
  shuffle prng perm;
  let inv = Array.make n 0 in
  Array.iteri (fun old_id new_id -> inv.(new_id) <- old_id) perm;
  let name new_id = Printf.sprintf "t%d_e%d" salt new_id in
  let elements =
    List.init n (fun new_id ->
        let old_id = inv.(new_id) in
        ( name new_id,
          Rt_base.Comm_graph.weight g old_id,
          Rt_base.Comm_graph.pipelinable g old_id ))
  in
  let edges =
    List.map
      (fun (u, v) -> (name perm.(u), name perm.(v)))
      (Rt_graph.Digraph.edges (Rt_base.Comm_graph.graph g))
  in
  let comm = Rt_base.Comm_graph.create ~elements ~edges in
  let constraints =
    List.mapi
      (fun i (c : Timing.t) ->
        let tg =
          Rt_base.Task_graph.map_elements c.graph ~f:(fun e -> perm.(e))
        in
        let c' =
          Timing.make
            ~name:(Printf.sprintf "t%d_c%d" salt i)
            ~graph:tg ~period:c.period ~deadline:c.deadline ~kind:c.kind
        in
        if c.offset = 0 || Timing.is_asynchronous c then c'
        else Timing.with_offset c' c.offset)
      m.Model.constraints
  in
  let arr = Array.of_list constraints in
  shuffle prng arr;
  Model.make ~comm ~constraints:(Array.to_list arr)

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
    let key = (Canon.of_model m).Canon.key in
    for salt = 1 to 3 do
      let m' = renamed_permuted prng ((100 * i) + salt) m in
      checks
        (Printf.sprintf "key invariant under renaming (model %d salt %d)" i
           salt)
        key
        (Canon.of_model m').Canon.key
    done
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
  let keyed =
    List.map (fun (n, m) -> (n, (Canon.of_model m).Canon.key)) suite
  in
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

let test_canon_schedule_roundtrip () =
  let m = Rt_workload.Suite.control_system Rt_workload.Suite.default_params in
  match Synthesis.synthesize m with
  | Error e -> Alcotest.failf "synthesize: %a" Synthesis.pp_error e
  | Ok plan ->
      let mu = plan.Synthesis.model_used in
      let sched = plan.Synthesis.schedule in
      let cn = Canon.of_model mu in
      let slots = Canon.canonical_slots cn sched in
      (match Canon.schedule_of_slots cn slots with
      | None -> Alcotest.fail "schedule_of_slots refused its own slots"
      | Some sched' ->
          checks "schedule survives the canonical round trip"
            (Rt_base.Schedule.to_string mu.Model.comm sched)
            (Rt_base.Schedule.to_string mu.Model.comm sched'));
      (* and the canonical slots are themselves renaming-invariant up
         to the element relabelling: same multiset of indices *)
      let sorted a =
        let c = Array.copy a in
        Array.sort compare c;
        c
      in
      checkb "canonical slots cover the same work" true
        (sorted slots = sorted (Canon.canonical_slots cn sched))

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
        (* α-renamed tenant: same canonical form, must hit the memo *)
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

let test_transport_two_clients () =
  let dir = Filename.temp_file "rtsynd_sock" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
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
      (* Always attempt a shutdown so a failing assertion cannot leave
         the transport domain (and the test binary) hanging. *)
      (try
         let fd = Unix.socket PF_UNIX SOCK_STREAM 0 in
         Unix.connect fd (ADDR_UNIX sock);
         send_all fd "{\"v\":1,\"id\":\"kill\",\"op\":\"shutdown\"}\n";
         Unix.close fd
       with _ -> ());
      ignore (Stdlib.Domain.join daemon : int))
  @@ fun () ->
  wait_sock 200;
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

let () =
  Alcotest.run "rt_daemon"
    [
      ( "canon",
        [
          Alcotest.test_case "key invariant under renaming/permutation" `Quick
            test_canon_invariance;
          Alcotest.test_case "no collisions across the example suite" `Quick
            test_canon_no_collisions;
          Alcotest.test_case "canonical schedule round trip" `Quick
            test_canon_schedule_roundtrip;
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
