(* Tests for the observability layer (Rt_obs): the metrics registry and
   its log-linear histograms, the span tracer's Chrome trace_event
   output, and the bench JSON comparator behind tools/bench_check. *)

open Rt_core
module Metrics = Rt_obs.Metrics
module Tracer = Rt_obs.Tracer
module Json = Rt_obs.Json
module BD = Rt_obs.Bench_diff
module Pool = Rt_par.Pool

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let example = Rt_workload.Suite.control_system Rt_workload.Suite.default_params

(* ------------------------------------------------------------------ *)
(* Metrics registry                                                    *)
(* ------------------------------------------------------------------ *)

let test_counter_roundtrip () =
  let c = Metrics.counter "test/ctr" in
  Metrics.incr c;
  Metrics.add c 4;
  checki "incr + add" 5 (Metrics.value c);
  (* registration is get-or-create: same name, same cell *)
  Metrics.incr (Metrics.counter "test/ctr");
  checki "shared cell" 6 (Metrics.value c)

let test_gauge_roundtrip () =
  let g = Metrics.gauge "test/gauge" in
  Metrics.set g 7;
  checki "set" 7 (Metrics.gauge_value g);
  Metrics.set g (-3);
  checki "gauges may go negative" (-3) (Metrics.gauge_value g)

let test_kind_clash_rejected () =
  ignore (Metrics.counter "test/kind");
  checkb "histogram on a counter name" true
    (try
       ignore (Metrics.histogram "test/kind");
       false
     with Invalid_argument _ -> true)

let test_histogram_small_values_exact () =
  let h = Metrics.histogram "test/small" in
  List.iter (Metrics.observe h) [ 1; 2; 3 ];
  (* values below 32 are recorded exactly: the bucket bound is the value *)
  checki "bound_of_value exact below 32" 31 (Metrics.bound_of_value 31);
  checkb "p50" true (Metrics.quantile h 0.5 = Some 2);
  checkb "p100" true (Metrics.quantile h 1.0 = Some 3);
  checkb "min" true (Metrics.h_min h = Some 1);
  checkb "max" true (Metrics.h_max h = Some 3);
  checki "count" 3 (Metrics.h_count h);
  checki "sum" 6 (Metrics.h_sum h)

let test_histogram_clamps_negative () =
  let h = Metrics.histogram "test/clamp" in
  Metrics.observe h (-5);
  checkb "negative clamps to 0" true
    (Metrics.h_min h = Some 0 && Metrics.quantile h 0.5 = Some 0)

let test_empty_histogram () =
  let h = Metrics.histogram "test/empty" in
  checkb "no quantile when empty" true
    (Metrics.quantile h 0.5 = None && Metrics.h_min h = None
   && Metrics.h_max h = None);
  checki "zero count" 0 (Metrics.h_count h);
  match
    List.find_opt
      (function
        | Metrics.Histogram_v { name; _ } -> name = "test/empty" | _ -> false)
      (Metrics.snapshot ())
  with
  | Some (Metrics.Histogram_v { count; sum; min; max; p50; p95; p99; _ }) ->
      checkb "snapshot reports zeros" true
        (List.for_all (( = ) 0) [ count; sum; min; max; p50; p95; p99 ])
  | _ -> Alcotest.fail "test/empty missing from the snapshot"

(* A histogram's buckets are allocated on its first observe, so every
   program can register its histograms at start-up for a few words.
   The minimum over three registrations keeps an amortised registry
   table resize out of the measurement. *)
let test_histogram_registration_cheap () =
  let words name =
    let w0 = Gc.minor_words () in
    ignore (Sys.opaque_identity (Metrics.histogram name));
    Gc.minor_words () -. w0
  in
  let least =
    List.fold_left min infinity
      (List.map words [ "test/cheap-a"; "test/cheap-b"; "test/cheap-c" ])
  in
  checkb (Printf.sprintf "registration allocates %.0f words < 64" least) true
    (least < 64.)

(* [reset] zeroes observed histograms in place and leaves an unobserved
   one as it is, without allocating its buckets; the histogram then
   observes as usual. *)
let test_reset_unobserved () =
  let h = Metrics.histogram "test/unobserved" in
  let w0 = Gc.minor_words () in
  Metrics.reset ();
  let words = Gc.minor_words () -. w0 in
  checkb (Printf.sprintf "reset allocates %.0f words < 64" words) true
    (words < 64.);
  checkb "still empty" true
    (Metrics.h_count h = 0 && Metrics.quantile h 0.5 = None);
  Metrics.observe h 40;
  checki "observes after reset" 1 (Metrics.h_count h);
  checkb "quantile after reset" true
    (Metrics.quantile h 1.0 = Some (Metrics.bound_of_value 40))

(* Four domains make their first observe on one fresh histogram at
   once: whichever bucket array the CAS publishes, no count is lost.
   Fresh histograms are taken over several rounds to give the race
   more chances. *)
let test_first_observe_race () =
  Pool.with_pool ~jobs:4 (fun p ->
      for round = 1 to 20 do
        let h = Metrics.histogram (Printf.sprintf "test/fresh-%d" round) in
        ignore
          (Pool.parallel_map p
             (fun _ ->
               for i = 1 to 250 do
                 Metrics.observe h i
               done;
               0)
             (Array.init 4 Fun.id));
        checki "no count lost" 1000 (Metrics.h_count h);
        checki "no sum lost" (4 * 31375) (Metrics.h_sum h);
        checkb "every bucket count kept" true
          (Metrics.quantile h 1.0 = Some (Metrics.bound_of_value 250))
      done)

(* Bump one counter and one histogram from every pool worker: Atomic
   cells must not lose updates.  This is the regression test for the old
   stage-timer race (plain int refs accumulated cross-domain). *)
let test_metrics_domain_safe () =
  let c = Metrics.counter "test/par-ctr" in
  let h = Metrics.histogram "test/par-hist" in
  Pool.with_pool ~jobs:4 (fun p ->
      ignore
        (Pool.parallel_map p
           (fun _ ->
             for _ = 1 to 10_000 do
               Metrics.incr c
             done;
             for i = 1 to 100 do
               Metrics.observe h i
             done;
             0)
           (Array.init 8 Fun.id)));
  checki "no lost increments" 80_000 (Metrics.value c);
  checki "no lost observations" 800 (Metrics.h_count h);
  checki "no torn sums" (8 * 5050) (Metrics.h_sum h)

let test_time_domain_safe () =
  let h = Metrics.histogram "stage/obs-par-stage" in
  Pool.with_pool ~jobs:4 (fun p ->
      ignore
        (Pool.parallel_map p
           (fun i ->
             Metrics.time h (fun () ->
                 Array.fold_left ( + ) i (Array.init 1000 Fun.id)))
           (Array.init 8 Fun.id)));
  checki "one observation per timed call" 8 (Metrics.h_count h);
  checkb "nonnegative accumulated time" true (Metrics.h_sum h >= 0)

(* A thunk that raises is timed too, and its exception passes through
   unchanged. *)
exception Timed_failure of int

let test_time_raising () =
  let h = Metrics.histogram "test/time-raises" in
  (match Metrics.time h (fun () -> raise (Timed_failure 7)) with
  | () -> Alcotest.fail "the exception was swallowed"
  | exception Timed_failure 7 -> ());
  checki "the raising call is recorded" 1 (Metrics.h_count h);
  checki "the result passes through" 3 (Metrics.time h (fun () -> 3));
  checki "then the returning one" 2 (Metrics.h_count h)

(* ------------------------------------------------------------------ *)
(* Histogram quantiles vs a sorted-list oracle                         *)
(* ------------------------------------------------------------------ *)

let hist_id = ref 0

let oracle_rank q n =
  max 1 (min n (int_of_float (ceil (q *. float_of_int n))))

let prop_hist_matches_oracle =
  QCheck.Test.make ~count:200
    ~name:"histogram quantiles match sorted-list oracle"
    QCheck.(list_of_size Gen.(int_range 1 200) (int_bound 2_000_000))
    (fun xs ->
      incr hist_id;
      let h =
        Metrics.histogram (Printf.sprintf "test/oracle-%d" !hist_id)
      in
      List.iter (Metrics.observe h) xs;
      let sorted = List.sort compare xs in
      let n = List.length xs in
      let quantile_ok q =
        (* bucketing is monotone, so the bucket walk must select exactly
           the bucket of the rank-th smallest observation *)
        let expected =
          Metrics.bound_of_value (List.nth sorted (oracle_rank q n - 1))
        in
        Metrics.quantile h q = Some expected
      in
      Metrics.h_count h = n
      && Metrics.h_sum h = List.fold_left ( + ) 0 xs
      && Metrics.h_min h = Some (List.hd sorted)
      && Metrics.h_max h = Some (List.nth sorted (n - 1))
      && List.for_all quantile_ok [ 0.0; 0.5; 0.9; 0.95; 0.99; 1.0 ])

(* ------------------------------------------------------------------ *)
(* Tracer: disabled path                                               *)
(* ------------------------------------------------------------------ *)

let test_tracer_disabled_zero_events () =
  Tracer.clear ();
  checkb "disabled by default" true (not (Tracer.enabled ()));
  checki "span is a passthrough" 42 (Tracer.span "probe" (fun () -> 42));
  Tracer.instant "nothing";
  Tracer.complete ~tid:0 ~ts_us:0 ~dur_us:5 "nothing";
  Tracer.instant_at ~tid:0 ~ts_us:0 "nothing";
  Tracer.track_name ~tid:0 "nothing";
  checki "zero events recorded" 0 (List.length (Tracer.drain ()));
  checki "zero drops" 0 (Tracer.dropped ())

let test_tracer_span_reraises () =
  Tracer.enable ();
  checkb "span reraises and still closes" true
    (try
       Tracer.span "boom" (fun () -> failwith "boom")
     with Failure _ -> true);
  Tracer.disable ();
  let evs = Tracer.drain () in
  Tracer.clear ();
  let bs = List.filter (fun e -> e.Tracer.ph = Tracer.B) evs
  and es = List.filter (fun e -> e.Tracer.ph = Tracer.E) evs in
  checkb "B/E balanced on exception" true
    (List.length bs = 1 && List.length es = 1)

(* ------------------------------------------------------------------ *)
(* Tracer: golden Chrome-trace file                                    *)
(* ------------------------------------------------------------------ *)

let get_str key ev =
  match Json.member key ev with
  | Some (Json.Str s) -> s
  | _ -> Alcotest.failf "event missing string field %S" key

let get_num key ev =
  match Json.member key ev with
  | Some (Json.Num n) -> n
  | _ -> Alcotest.failf "event missing numeric field %S" key

(* Run a workload touching four instrumented subsystems under the
   tracer, then validate the written file as a well-formed Chrome trace:
   every B has a matching E (stack discipline per track), wall-clock
   timestamps are strictly monotone per track, X durations are
   nonnegative, and the four categories all appear. *)
let test_trace_golden () =
  let file = Filename.temp_file "rt_obs_trace" ".json" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove file with Sys_error _ -> ())
    (fun () ->
      Tracer.with_trace ~file (fun () ->
          (match Synthesis.synthesize example with
          | Ok plan ->
              ignore
                (Rt_sim.Runtime.run plan.Synthesis.model_used
                   plan.Synthesis.schedule ~horizon:40 ~arrivals:[])
          | Error _ -> Alcotest.fail "example model must synthesize");
          ignore (Exact.solve_single_ops Rt_workload.Suite.tiny_two_ops));
      Tracer.clear ();
      let events =
        match Json.parse_file file with
        | Error e -> Alcotest.failf "trace does not parse: %s" e
        | Ok json -> (
            match Option.bind (Json.member "traceEvents" json) Json.to_list with
            | Some evs -> evs
            | None -> Alcotest.fail "no traceEvents array")
      in
      checkb "trace is non-empty" true (events <> []);
      let cats = Hashtbl.create 8 in
      let tracks = Hashtbl.create 8 in
      List.iter
        (fun ev ->
          let name = get_str "name" ev in
          let ph = get_str "ph" ev in
          let pid = get_num "pid" ev in
          let tid = get_num "tid" ev in
          let ts = get_num "ts" ev in
          checkb "event has a name" true (name <> "");
          checkb "known phase" true
            (List.mem ph [ "B"; "E"; "X"; "i"; "M" ]);
          checkb "nonnegative ts" true (ts >= 0.0);
          Hashtbl.replace cats (get_str "cat" ev) ();
          if ph = "X" then
            checkb "X has nonnegative dur" true (get_num "dur" ev >= 0.0);
          let key = (pid, tid) in
          let prev = try Hashtbl.find tracks key with Not_found -> [] in
          Hashtbl.replace tracks key ((name, ph, ts) :: prev))
        events;
      (* per-track stack discipline and wall-clock monotonicity *)
      Hashtbl.iter
        (fun (pid, _) evs ->
          let evs = List.rev evs in
          let stack = ref [] in
          let last_ts = ref (-1.0) in
          List.iter
            (fun (name, ph, ts) ->
              match ph with
              | "B" ->
                  if pid = 1.0 then (
                    checkb "strictly monotone wall ts" true (ts > !last_ts);
                    last_ts := ts);
                  stack := name :: !stack
              | "E" -> (
                  if pid = 1.0 then (
                    checkb "strictly monotone wall ts" true (ts > !last_ts);
                    last_ts := ts);
                  match !stack with
                  | top :: rest ->
                      Alcotest.check Alcotest.string "E matches open B" top
                        name;
                      stack := rest
                  | [] -> Alcotest.failf "E %S with no open B" name)
              | _ -> ())
            evs;
          checkb "all spans closed" true (!stack = []))
        tracks;
      List.iter
        (fun cat ->
          checkb (Printf.sprintf "category %S present" cat) true
            (Hashtbl.mem cats cat))
        [ "synthesis"; "exact"; "latency"; "sim" ])

(* A fault-free Robust_runtime run draws each execution as one span as
   long as its element's weight: the realized log's finishes are
   exclusive, so back-to-back executions do not overlap on the cpu
   track.  The elements are not pipelinable, so no execution is split. *)
let test_robust_spans_are_weights () =
  let comm =
    Comm_graph.create
      ~elements:[ ("a", 1, false); ("b", 2, false); ("c", 3, false) ]
      ~edges:[ ("a", "b") ]
  in
  let id = Comm_graph.id_of_name comm in
  let m =
    Model.make ~comm
      ~constraints:
        [
          Timing.make ~name:"ab"
            ~graph:(Task_graph.of_chain [ id "a"; id "b" ])
            ~period:8 ~deadline:8 ~kind:Timing.Periodic;
          Timing.make ~name:"c" ~graph:(Task_graph.singleton (id "c"))
            ~period:8 ~deadline:8 ~kind:Timing.Periodic;
        ]
  in
  let modes =
    match Modes.derive m [] with Ok ms -> ms | Error e -> Alcotest.fail e
  in
  Tracer.clear ();
  Tracer.enable ();
  let r =
    Fun.protect ~finally:Tracer.disable (fun () ->
        Rt_sim.Robust_runtime.run ~horizon:48 ~arrivals:[] modes)
  in
  let spans =
    List.filter (fun (ev : Tracer.event) -> ev.ph = Tracer.X) (Tracer.drain ())
    |> List.sort (fun (a : Tracer.event) b -> Int.compare a.ts b.ts)
  in
  Tracer.clear ();
  checkb "some executions" true (r.Rt_sim.Robust_runtime.executions <> []);
  checki "one span per execution"
    (List.length r.Rt_sim.Robust_runtime.executions)
    (List.length spans);
  ignore
    (List.fold_left
       (fun prev_end (ev : Tracer.event) ->
         checki (ev.name ^ " span is its weight")
           (Comm_graph.weight comm (id ev.name) * Tracer.slot_us)
           ev.dur;
         checkb "spans do not overlap" true (ev.ts >= prev_end);
         ev.ts + ev.dur)
       0 spans)

(* ------------------------------------------------------------------ *)
(* Bench_diff (the logic behind tools/bench_check)                     *)
(* ------------------------------------------------------------------ *)

let run_of_string s =
  match Json.parse s with
  | Error e -> Alcotest.failf "fixture does not parse: %s" e
  | Ok j -> (
      match BD.of_json j with
      | Ok r -> r
      | Error e -> Alcotest.failf "fixture rejected: %s" e)

let baseline =
  run_of_string
    {|{"benchmarks":[{"name":"solve","optimized_seconds":0.5,"nodes":100},
                     {"name":"verify","optimized_seconds":0.2}],
       "counters":{"dfs_nodes":2036,"cache_hits":10}}|}

let default_checks =
  [
    { BD.metric = "optimized_seconds"; tol = 0.25; eps = 0.0;
      scope = `Benchmarks };
    { BD.metric = "dfs_nodes"; tol = 0.0; eps = 0.0; scope = `Counters };
  ]

let test_diff_baseline_vs_baseline () =
  let o =
    BD.diff ~checks:default_checks ~candidate:baseline ~reference:baseline ()
  in
  checkb "identical runs pass" true (BD.passed o);
  checki "two rows + one counter" 3 (List.length o.BD.findings)

let test_diff_flags_regression () =
  let regressed =
    run_of_string
      {|{"benchmarks":[{"name":"solve","optimized_seconds":1.0,"nodes":150},
                       {"name":"verify","optimized_seconds":0.2}],
         "counters":{"dfs_nodes":2100,"cache_hits":10}}|}
  in
  let o =
    BD.diff ~checks:default_checks ~candidate:regressed ~reference:baseline ()
  in
  checkb "regression detected" true (not (BD.passed o));
  checki "slower solve and higher counter both flagged" 2
    (List.length (List.filter (fun f -> not f.BD.ok) o.BD.findings))

let test_diff_eps_absorbs_noise () =
  let noisy =
    run_of_string
      {|{"benchmarks":[{"name":"solve","optimized_seconds":0.5004,"nodes":100},
                       {"name":"verify","optimized_seconds":0.2}],
         "counters":{"dfs_nodes":2036}}|}
  in
  let check ~eps =
    BD.diff
      ~checks:
        [ { BD.metric = "optimized_seconds"; tol = 0.0; eps;
            scope = `Benchmarks } ]
      ~candidate:noisy ~reference:baseline ()
  in
  checkb "within eps passes" true (BD.passed (check ~eps:0.001));
  checkb "without eps regresses" true (not (BD.passed (check ~eps:0.0)))

let test_diff_missing_benchmark () =
  let partial =
    run_of_string
      {|{"benchmarks":[{"name":"solve","optimized_seconds":0.5}],
         "counters":{"dfs_nodes":2036}}|}
  in
  let diff ~allow_missing =
    BD.diff ~allow_missing ~checks:default_checks ~candidate:partial
      ~reference:baseline ()
  in
  let strict = diff ~allow_missing:false in
  checkb "missing row is an error" true
    ((not (BD.passed strict)) && strict.BD.errors <> []);
  checkb "allow_missing downgrades to skip" true
    (BD.passed (diff ~allow_missing:true))

let test_diff_missing_counter () =
  let no_counter =
    run_of_string
      {|{"benchmarks":[{"name":"solve","optimized_seconds":0.5,"nodes":100},
                       {"name":"verify","optimized_seconds":0.2}],
         "counters":{"cache_hits":10}}|}
  in
  let o =
    BD.diff ~checks:default_checks ~candidate:no_counter ~reference:baseline ()
  in
  checkb "missing candidate counter is an error" true
    ((not (BD.passed o)) && o.BD.errors <> [])

(* ------------------------------------------------------------------ *)
(* Json reader                                                         *)
(* ------------------------------------------------------------------ *)

let test_json_parses_scalars () =
  checkb "number" true (Json.parse "-1.5e2" = Ok (Json.Num (-150.0)));
  checkb "escapes" true
    (Json.parse {|"aA\n"|} = Ok (Json.Str "aA\n"));
  checkb "null/bool" true
    (Json.parse "[null, true]" = Ok (Json.List [ Json.Null; Json.Bool true ]))

let test_json_rejects_garbage () =
  let bad s = match Json.parse s with Error _ -> true | Ok _ -> false in
  checkb "unterminated object" true (bad "{");
  checkb "trailing garbage" true (bad "[1,2] junk");
  checkb "bare word" true (bad "nope")

let test_json_accessors_total () =
  let j = Json.Obj [ ("x", Json.Num 1.0) ] in
  checkb "member miss" true (Json.member "y" j = None);
  checkb "to_list on obj" true (Json.to_list j = None);
  checkb "to_float on str" true (Json.to_float (Json.Str "s") = None)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "obs"
    [
      ( "metrics",
        [
          ("counter roundtrip", `Quick, test_counter_roundtrip);
          ("gauge roundtrip", `Quick, test_gauge_roundtrip);
          ("kind clash rejected", `Quick, test_kind_clash_rejected);
          ("small values exact", `Quick, test_histogram_small_values_exact);
          ("negative observations clamp", `Quick,
           test_histogram_clamps_negative);
          ("empty histogram", `Quick, test_empty_histogram);
          ("histogram registration is cheap", `Quick,
           test_histogram_registration_cheap);
          ("reset leaves an unobserved histogram", `Quick,
           test_reset_unobserved);
          ("first observes race", `Quick, test_first_observe_race);
          ("atomic cells are domain-safe", `Quick, test_metrics_domain_safe);
          ("Metrics.time is domain-safe", `Quick, test_time_domain_safe);
          ("Metrics.time records a raising thunk", `Quick, test_time_raising);
          QCheck_alcotest.to_alcotest prop_hist_matches_oracle;
        ] );
      ( "tracer",
        [
          ("disabled tracing records nothing", `Quick,
           test_tracer_disabled_zero_events);
          ("span closes on exception", `Quick, test_tracer_span_reraises);
          ("golden Chrome trace", `Quick, test_trace_golden);
          ("robust spans are element weights", `Quick,
           test_robust_spans_are_weights);
        ] );
      ( "bench-diff",
        [
          ("baseline vs baseline passes", `Quick,
           test_diff_baseline_vs_baseline);
          ("regression flagged", `Quick, test_diff_flags_regression);
          ("eps absorbs timing noise", `Quick, test_diff_eps_absorbs_noise);
          ("missing benchmark", `Quick, test_diff_missing_benchmark);
          ("missing counter", `Quick, test_diff_missing_counter);
        ] );
      ( "json",
        [
          ("scalars", `Quick, test_json_parses_scalars);
          ("garbage rejected", `Quick, test_json_rejects_garbage);
          ("accessors are total", `Quick, test_json_accessors_total);
        ] );
    ]
