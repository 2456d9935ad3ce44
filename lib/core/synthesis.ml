type plan = {
  model_used : Model.t;
  schedule : Schedule.t;
  verdicts : Latency.verdict list;
  merge_report : Merge.report option;
  polling : (string * int * int) list;
  hyperperiod : int;
}

type error = { stage : string; message : string }

let fail stage fmt = Printf.ksprintf (fun message -> Error { stage; message }) fmt

(* Candidate polling periods for an asynchronous constraint with
   computation time w and latency bound d.  Any q with
   w <= d + 1 - q (the polling job fits its relative deadline
   D = d + 1 - q) and D <= q (at most one outstanding job) preserves the
   latency bound, because consecutive polling completions satisfy
   f_{k+1} <= r_k + q + D <= s_k + d + 1.  Larger q costs less processor
   time; smaller q leaves EDF more slack. *)
let polling_candidates ~w ~d =
  if w > d then []
  else begin
    let q_max = d + 1 - w in
    let q_min = (d + 1 + 1) / 2 (* ceil((d+1)/2), ensures D <= q *) in
    let q_min = max q_min 1 in
    let q_max = max q_max q_min in
    let mid = (q_min + q_max) / 2 in
    let exact =
      List.sort_uniq Int.compare [ q_max; mid; q_min ]
      |> List.rev (* cheapest first *)
      |> List.filter (fun q -> q >= 1 && d + 1 - q >= w && d + 1 - q <= q)
      |> List.map (fun q -> (q, d + 1 - q))
    in
    (* Harmonic fallbacks: power-of-two periods keep the hyperperiod of
       the whole job set small (and latency verification cheap), at the
       cost of polling somewhat more often than the exact candidates.
       First a constrained-deadline variant at the largest power of two
       below q_max, then the implicit-deadline variant at the largest
       power of two with 2q <= d + 1. *)
    let harmonic_tight =
      let q = Rt_graph.Intmath.pow2_floor (max 1 q_max) in
      let dl = d + 1 - q in
      if dl >= w && dl <= q then [ (q, dl) ] else []
    in
    let harmonic_implicit =
      let q = Rt_graph.Intmath.pow2_floor (max 1 ((d + 1) / 2)) in
      if q >= w then [ (q, q) ] else []
    in
    (* One ordered dedup: largest period first (cheapest), ties broken
       by tighter relative deadline.  Replaces the old sort_uniq + re-sort
       pair, whose final order this comparator reproduces exactly (the
       re-sort was stable, so equal periods kept ascending deadlines). *)
    exact @ harmonic_tight @ harmonic_implicit
    |> List.sort_uniq (fun (qa, da) (qb, db) ->
           match Int.compare qb qa with 0 -> Int.compare da db | c -> c)
  end

(* Everything computed before candidate rounds are tried, for one
   merge-or-not variant of the model: stages 1 (merge) and 2
   (pipelining) applied, polling candidates chosen per asynchronous
   constraint.  Pure preparation — cheap, no schedule is built. *)
type prep = {
  model : Model.t;
  merge_report : Merge.report option;
  candidate_lists : (Timing.t * (int * int) list) list;
  periodics : Timing.t list;
  max_round : int;
}

let prepare ~merge ~pipeline (m : Model.t) =
  (* Stage 1: merge shared periodic work. *)
  let m, merge_report =
    if merge then
      let m', r = Merge.apply m in
      (m', Some r)
    else (m, None)
  in
  (* Stage 2: software pipelining. *)
  let m = if pipeline then (Pipeline.rewrite m).Pipeline.model else m in
  let bad_periodic =
    List.find_opt
      (fun (c : Timing.t) -> c.offset + c.deadline > c.period)
      (Model.periodic m)
  in
  match bad_periodic with
  | Some c ->
      fail "periodic"
        "constraint %s has offset %d + deadline %d > period %d; the cyclic \
         constructor requires each job to fit its period slice"
        c.name c.offset c.deadline c.period
  | None -> (
      (* Stage 3: pick polling-period candidates for the asynchronous
         constraints, cheapest first. *)
      let asyncs = Model.asynchronous m in
      let periodics = Model.periodic m in
      let candidate_lists =
        List.map
          (fun (c : Timing.t) ->
            let w = Timing.computation_time m.comm c in
            (c, polling_candidates ~w ~d:c.deadline))
          asyncs
      in
      match List.find_opt (fun (_, cands) -> cands = []) candidate_lists with
      | Some ((c : Timing.t), _) ->
          fail "polling"
            "asynchronous constraint %s cannot meet its latency bound: \
             computation time %d exceeds deadline %d"
            c.name
            (Timing.computation_time m.comm c)
            c.deadline
      | None ->
          (* Round r picks the r-th candidate of each constraint
             (clamped), moving uniformly from cheapest to most slack. *)
          let max_round =
            List.fold_left
              (fun acc (_, cands) -> max acc (List.length cands))
              1 candidate_lists
          in
          Ok { model = m; merge_report; candidate_lists; periodics; max_round })

(* Stage 4 for one candidate round: dispatch everything with EDF over
   the hyperperiod and verify.  Self-contained and effect-free apart
   from Perf counters and the shared budget, so rounds can be evaluated
   concurrently. *)
let attempt ?budget ~backend ~max_hyperperiod (p : prep) r =
  let nth_clamped l r = List.nth l (min r (List.length l - 1)) in
  let picks =
    List.map (fun (c, cands) -> (c, nth_clamped cands r)) p.candidate_lists
  in
  let periodics = p.periodics in
  let m = p.model in
  let periods =
    List.map (fun (c : Timing.t) -> c.period) periodics
    @ List.map (fun (_, (q, _)) -> q) picks
  in
  match Rt_graph.Intmath.lcm_list periods with
  | exception Rt_graph.Intmath.Overflow -> None
  | hyperperiod when hyperperiod > max_hyperperiod || hyperperiod < 1 -> None
  | hyperperiod -> (
      let jobs =
        List.concat_map
          (Edf_cyclic.jobs_of_periodic ~horizon:hyperperiod)
          periodics
        @ List.concat_map
            (fun ((c : Timing.t), (q, dl)) ->
              Edf_cyclic.jobs_of_polling ~horizon:hyperperiod ~name:c.name
                ~graph:c.graph ~period:q ~rel_deadline:dl)
            picks
      in
      match
        Edf_cyclic.build ~policy:backend ?budget m.comm ~horizon:hyperperiod
          jobs
      with
      | Error _ -> None
      | Ok sched ->
          Rt_par.Perf.incr Rt_par.Perf.schedules_built;
          let verdicts = Latency.verify m sched in
          if Latency.all_ok verdicts then
            Some
              {
                model_used = m;
                schedule = sched;
                verdicts;
                merge_report = p.merge_report;
                polling =
                  List.map
                    (fun ((c : Timing.t), (q, dl)) -> (c.name, q, dl))
                    picks;
                hyperperiod;
              }
          else None)

(* The exact game engine decides feasibility for the asynchronous
   constraints only, so consulting it is meaningful exactly when the
   model has no periodic constraints and falls in one of the two
   decidable classes of Theorem 2: all-unit weights (slot granularity)
   or all-single-operation graphs (execution granularity). *)
let exact_eligible (m : Model.t) =
  let asyncs = Model.asynchronous m in
  if Model.periodic m <> [] || asyncs = [] then None
  else begin
    let elements =
      List.concat_map
        (fun (c : Timing.t) -> Task_graph.elements_used c.graph)
        asyncs
      |> List.sort_uniq Int.compare
    in
    let unit_weights =
      List.for_all (fun e -> Comm_graph.weight m.comm e = 1) elements
    in
    let single_ops =
      List.for_all (fun (c : Timing.t) -> Task_graph.size c.graph = 1) asyncs
    in
    if unit_weights then Some `Unit
    else if single_ops then Some `Atomic
    else None
  end

let exact_rescue ?pool ?budget ?game_table (m : Model.t) granularity
    primary_error =
  let stats =
    Rt_obs.Tracer.span ~cat:"synthesis" "synthesis/exact-rescue" (fun () ->
        match granularity with
        | `Unit -> Exact.enumerate ?pool ?budget ?table:game_table m
        | `Atomic -> Exact.solve_single_ops ?pool ?budget ?table:game_table m)
  in
  match stats.Exact.outcome with
  | Exact.Feasible schedule ->
      let verdicts = Latency.verify m schedule in
      if Latency.all_ok verdicts then
        Ok
          {
            model_used = m;
            schedule;
            verdicts;
            merge_report = None;
            polling = [];
            hyperperiod = Schedule.length schedule;
          }
      else Error primary_error
  | Exact.Infeasible ->
      fail "exact"
        "provably infeasible: the exact game engine exhausted the state \
         space (%d states) without finding a safe cycle"
        stats.Exact.explored
  | Exact.Timeout reason ->
      (* Graceful degradation: the rescue was cut off by the caller's
         budget, so the heuristic's own verdict stands — annotated so
         the caller knows the exact engine did not get to finish. *)
      Error
        {
          primary_error with
          message =
            primary_error.message
            ^ Printf.sprintf " (exact fallback cut off: %s)" reason;
        }
  | Exact.Unknown _ -> Error primary_error

let synthesize_plain ?pool ?budget ?game_table ~merge ~pipeline ~backend
    ~max_hyperperiod ~exact_fallback (m : Model.t) =
  (* Preference order: every round of the merged variant, cheapest
     first, then (when merging was requested) every round of the
     unmerged fallback — merging tightens the merged deadline to the
     minimum of the group, which can hurt (e.g. a heavy graph absorbed
     into a tight-deadline sibling).  The flattened (variant, round)
     array preserves this order, so taking the lowest-index success —
     sequentially or via [Pool.parallel_find_first] — returns exactly
     the plan the original sequential fallback chain returned; on total
     failure the reported error is the primary (merged) variant's, as
     before. *)
  let variants = if merge then [ true; false ] else [ false ] in
  let preps = List.map (fun mg -> prepare ~merge:mg ~pipeline m) variants in
  let primary_error =
    match List.hd preps with
    | Error e -> e
    | Ok p ->
        {
          stage = "edf";
          message =
            Printf.sprintf
              "no polling configuration produced a feasible schedule (tried \
               %d rounds); the model may be infeasible or beyond this \
               heuristic"
              p.max_round;
        }
  in
  let tasks =
    List.concat_map
      (function
        | Error _ -> []
        | Ok p -> List.init p.max_round (fun r -> (p, r)))
      preps
    |> Array.of_list
  in
  (* The budget is checked once per candidate round — a round is the
     natural cooperative grain here (each is one EDF construction plus
     verification) — and inside the round's EDF construction, after its
     set-up and every 1024 slots of its dispatch.  A round the budget
     cut finds no plan and does not count as done. *)
  let rounds_done = Atomic.make 0 in
  let run (p, r) =
    match budget with
    | Some b when not (Budget.spend b 1) -> None
    | _ ->
        let found =
          Rt_obs.Tracer.span ~cat:"synthesis" "synthesis/round" (fun () ->
              attempt ?budget ~backend ~max_hyperperiod p r)
        in
        if Option.is_some found || Option.bind budget Budget.exhausted = None
        then Atomic.incr rounds_done;
        found
  in
  let found =
    Rt_par.Perf.time "synthesis" (fun () ->
        match pool with
        | Some pl when Rt_par.Pool.jobs pl > 1 && Array.length tasks > 1 ->
            Rt_par.Pool.parallel_find_first pl run tasks
        | _ ->
            let rec go i =
              if i >= Array.length tasks then None
              else
                match run tasks.(i) with Some _ as res -> res | None -> go (i + 1)
            in
            go 0)
  in
  match found with
  | Some plan -> Ok plan
  | None -> (
      match Option.bind budget Budget.exhausted with
      | Some reason when Atomic.get rounds_done < Array.length tasks ->
          (* The budget cut the candidate sweep short.  Degrade
             gracefully: report how far the heuristic got instead of
             pretending the sweep was exhaustive (and skip the exact
             rescue — it would burn no fuel and learn nothing). *)
          fail "budget"
            "synthesis budget exhausted (%s) after %d of %d candidate \
             rounds; no feasible candidate found before the cut-off"
            reason (Atomic.get rounds_done) (Array.length tasks)
      | _ -> (
          (* Heuristic exhausted.  When requested and the model lies in a
             decidable class, consult the exact game engine: a cycle gives
             a plan the heuristic missed; a completed search upgrades the
             error to a proof of infeasibility. *)
          match (exact_fallback, exact_eligible m) with
          | true, Some granularity ->
              exact_rescue ?pool ?budget ?game_table m granularity
                primary_error
          | _ -> Error primary_error))

(* Compositional path: solve each interaction component independently
   (see Decompose), interleave the component schedules and re-verify
   the merged schedule against the WHOLE model.  Anything short of a
   verified whole-model schedule falls back to the undecomposed sweep,
   with two exceptions that short-circuit it: a component's exact
   infeasibility (subset argument — definitive for the whole model) and
   an exhausted budget (retrying undecomposed would burn no fuel). *)
let synthesize_decomposed ?pool ?budget ~merge ~backend ~max_hyperperiod
    ~exact_fallback (m : Model.t) comps =
  let solve ~sub comp =
    Rt_par.Perf.incr Rt_par.Perf.decompose_component_solves;
    (* Component solves run with ~pipeline:false: the pipelining rewrite
       EXTENDS the communication graph per component, which would break
       the shared element-id space the interleave relies on.  The outer
       fan-out owns the pool; inner sweeps stay sequential so component
       counters are deterministic at any job count.  A caller-supplied
       game table is keyed to the whole model and is NOT forwarded. *)
    ( comp,
      synthesize_plain ?budget ~merge ~pipeline:false ~backend
        ~max_hyperperiod ~exact_fallback sub )
  in
  let results = Decompose.map_components ?pool ~solve m comps in
  let errors =
    List.filter_map
      (fun (comp, r) ->
        match r with Error e -> Some (comp, e) | Ok _ -> None)
      results
  in
  let names comp =
    String.concat ", "
      (List.map (fun (c : Timing.t) -> c.Timing.name) comp.Decompose.constraints)
  in
  match
    List.find_opt (fun (_, e) -> e.stage = "exact") errors
  with
  | Some (comp, e) ->
      `Done
        (fail "exact" "component {%s}: %s (a component's constraints are a \
                       subset of the model's, so this is definitive)"
           (names comp) e.message)
  | None -> (
      match List.find_opt (fun (_, e) -> e.stage = "budget") errors with
      | Some (_, e) -> `Done (Error e)
      | None ->
          if errors <> [] then `Fallback
          else
            let plans =
              List.map
                (fun (_, r) ->
                  match r with Ok p -> p | Error _ -> assert false)
                results
            in
            (match
               Decompose.interleave m.Model.comm
                 (List.map (fun p -> p.schedule) plans)
             with
            | Error _ -> `Fallback
            | Ok schedule ->
                let verdicts = Latency.verify m schedule in
                if Latency.all_ok verdicts then
                  `Done
                    (Ok
                       {
                         model_used = m;
                         schedule;
                         verdicts;
                         merge_report = None;
                         polling =
                           List.concat_map (fun p -> p.polling) plans;
                         hyperperiod = Schedule.length schedule;
                       })
                else `Fallback))

let synthesize ?pool ?budget ?game_table ?(merge = true) ?(pipeline = true)
    ?(backend = Edf_cyclic.Edf) ?(max_hyperperiod = 1_000_000)
    ?(exact_fallback = false) ?(decompose = false) (m : Model.t) =
  let plain () =
    synthesize_plain ?pool ?budget ?game_table ~merge ~pipeline ~backend
      ~max_hyperperiod ~exact_fallback m
  in
  if not decompose then plain ()
  else
    match Decompose.components m with
    | [] | [ _ ] -> plain () (* coupled or empty: nothing to split *)
    | comps -> (
        match
          Rt_par.Perf.time "decompose" (fun () ->
              synthesize_decomposed ?pool ?budget ~merge ~backend
                ~max_hyperperiod ~exact_fallback m comps)
        with
        | `Done r -> r
        | `Fallback -> plain ())

let pp_plan (_orig : Model.t) fmt (p : plan) =
  Format.fprintf fmt "@[<v>hyperperiod: %d@,schedule: %s@,load: %.3f@,"
    p.hyperperiod
    (Schedule.to_string p.model_used.Model.comm p.schedule)
    (Schedule.load p.schedule);
  (match p.merge_report with
  | Some r when r.Merge.merged_groups <> [] ->
      List.iter
        (fun (names, into) ->
          Format.fprintf fmt "merged: %s -> %s@," (String.concat ", " names)
            into)
        r.Merge.merged_groups;
      Format.fprintf fmt "work per round: %d -> %d@," r.Merge.time_before
        r.Merge.time_after
  | _ -> ());
  List.iter
    (fun (name, q, d) ->
      Format.fprintf fmt "polling: %s every %d slots, deadline %d@," name q d)
    p.polling;
  List.iter (fun v -> Format.fprintf fmt "%a@," Latency.pp_verdict v) p.verdicts;
  Format.fprintf fmt "@]"

let pp_error fmt e = Format.fprintf fmt "[%s] %s" e.stage e.message
