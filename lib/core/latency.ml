(* The containment search assigns execution instances to task-graph nodes
   by depth-first search in topological order with full backtracking.
   Task graphs are small (the paper's examples have <= 6 nodes) and a
   window of length d contains at most d/w instances per element, so the
   search space is tiny in practice; backtracking is required for
   correctness when several nodes map to the same element or when an
   early greedy choice starves a successor (see test_latency.ml for a
   concrete such case).

   Analyses that ask many window questions against one trace share a
   [ctx]: the topological order, predecessor function, sorted finish
   array and backtracking scratch are computed once per
   (trace, task graph) and reused across questions, instead of being
   rebuilt inside every call as the original implementation did.
   [periodic_response] additionally memoizes answers per
   (window start mod cycle): a well-formed schedule's instance
   structure repeats with the cycle, so the response of an invocation
   depends only on its phase residue.  The memo is keyed on the
   schedule's minimal repeating pattern, not its nominal length: an
   unrolled schedule (a short table repeated to some hyperperiod, as
   multiprocessor synthesis produces) answers every question with the
   period of the underlying pattern, so invocation phases that are
   distinct modulo the nominal length collapse onto few residues. *)

module Perf = Rt_par.Perf

type scratch = {
  assignment : Trace.instance option array;
  mutable used : (int * int) list;
      (* (elem, instance index) pairs claimed by assigned nodes — at
         most [size tg] entries, pushed/popped with stack discipline,
         so a list scan beats a hashtable on these microsecond-scale
         searches. *)
}

type ctx = {
  g : Comm_graph.t;
  tg : Task_graph.t;
  trace : Trace.t;
  order : int array;
  preds : int -> int list;
  scratch : scratch;
  mutable finishes : int array option;
      (* All distinct instance finishes of the task graph's elements,
         ascending; built lazily on the first completion question so
         pure containment checks don't pay for it. *)
}

let make_ctx g tg trace =
  {
    g;
    tg;
    trace;
    order = Array.of_list (Task_graph.topological_order tg);
    preds = Rt_graph.Digraph.pred (Task_graph.graph tg);
    scratch =
      { assignment = Array.make (Task_graph.size tg) None; used = [] };
    finishes = None;
  }

let finishes_of ctx =
  match ctx.finishes with
  | Some a -> a
  | None ->
      let a =
        Task_graph.elements_used ctx.tg
        |> List.concat_map (fun e ->
               Array.to_list (Trace.instances ctx.trace e)
               |> List.map (fun (i : Trace.instance) -> i.finish))
        |> List.sort_uniq Int.compare
        |> Array.of_list
      in
      ctx.finishes <- Some a;
      a

(* Core backtracking search; on success the witness assignment is left
   in [ctx.scratch.assignment]. *)
let search ctx ~t0 ~t1 =
  Rt_obs.Metrics.incr Perf.windows_checked;
  let sc = ctx.scratch in
  let assignment = sc.assignment in
  Array.fill assignment 0 (Array.length assignment) None;
  sc.used <- [];
  let order = ctx.order in
  let n = Array.length order in
  let tg = ctx.tg in
  let trace = ctx.trace in
  let rec assign pos =
    if pos = n then true
    else
      let v = order.(pos) in
      let e = Task_graph.element_of_node tg v in
      let ready =
        List.fold_left
          (fun acc u ->
            match assignment.(u) with
            | Some (inst : Trace.instance) -> max acc inst.finish
            | None -> assert false)
          t0 (ctx.preds v)
      in
      let insts = Trace.instances trace e in
      let start_idx =
        match Trace.first_index_at_or_after trace ~elem:e ~time:ready with
        | Some i -> i
        | None -> Array.length insts
      in
      let rec try_from i =
        if i >= Array.length insts then false
        else
          let inst = insts.(i) in
          if inst.start >= t1 || inst.finish > t1 then false
            (* starts are ascending, so later instances also overflow *)
          else if List.exists (fun (e', i') -> e' = e && i' = i) sc.used
          then try_from (i + 1)
          else begin
            assignment.(v) <- Some inst;
            sc.used <- (e, i) :: sc.used;
            if assign (pos + 1) then true
            else begin
              (* stack discipline: a failed [assign] leaves [used] as it
                 found it, so the head is exactly our push *)
              (sc.used <- (match sc.used with _ :: tl -> tl | [] -> []));
              assignment.(v) <- None;
              try_from (i + 1)
            end
          end
      in
      try_from start_idx
  in
  assign 0

let executes_within g tg trace ~t0 ~t1 =
  let ctx = make_ctx g tg trace in
  if search ctx ~t0 ~t1 then
    Some
      (List.init (Task_graph.size tg) (fun v ->
           match ctx.scratch.assignment.(v) with
           | Some inst -> (v, inst)
           | None -> assert false))
  else None

let contains_execution g tg trace ~t0 ~t1 =
  let ctx = make_ctx g tg trace in
  search ctx ~t0 ~t1

(* First index with [a.(i) > v] (array ascending), or [length a]. *)
let first_above a v =
  let lo = ref 0 and hi = ref (Array.length a) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if a.(mid) > v then hi := mid else lo := mid + 1
  done;
  !lo

(* Smallest window end: containment in [from, t1) is monotone in t1 and
   candidate ends are instance finishes.  [limit] bounds the trace
   horizon this question may look at (so several constraints can share
   one long trace and still answer exactly as if each had built its own
   shorter one). *)
let next_completion_ctx ?(floor = 0) ctx ~limit ~from =
  if search ctx ~t0:from ~t1:limit then begin
    let finishes = finishes_of ctx in
    (* [floor] is a caller-supplied lower bound on the answer (e.g. the
       completion of an earlier window start — completions are monotone
       in [from]); finishes below it need not be probed. *)
    let lo0 = max (first_above finishes from) (first_above finishes (floor - 1)) in
    let hi0 = first_above finishes limit - 1 in
    let rec bsearch lo hi =
      (* invariant: containment holds for finishes.(hi), fails below lo *)
      if lo >= hi then finishes.(hi)
      else
        let mid = (lo + hi) / 2 in
        if search ctx ~t0:from ~t1:finishes.(mid) then bsearch lo mid
        else bsearch (mid + 1) hi
    in
    Some (bsearch lo0 hi0)
  end
  else None

let next_completion g tg trace ~from =
  let ctx = make_ctx g tg trace in
  next_completion_ctx ctx ~limit:(Trace.horizon trace) ~from

module Cache = struct
  type t = ctx

  let create g tg trace = make_ctx g tg trace

  let next_completion c ~from =
    next_completion_ctx c ~limit:(Trace.horizon c.trace) ~from

  let contains_execution c ~t0 ~t1 = search c ~t0 ~t1
end

(* Horizon sufficient for every next_completion question asked below:
   each task-graph node's instance lies within (its weight + 1) cycles of
   its ready time once the schedule repeats, so (total weight + size + 3)
   cycles past the latest question time always suffices for well-formed
   schedules in which every element of the task graph occurs. *)
let analysis_horizon g tg sched ~last_question =
  let cycle = Schedule.length sched in
  let w = Task_graph.computation_time g tg in
  last_question + ((w + Task_graph.size tg + 3) * cycle)

(* A constraint whose horizon exceeds [Trace.max_horizon] gets no bound
   ("unbounded"), as when lcm(period, cycle) overflows: its trace is
   too long to enumerate. *)
let async_horizon g tg sched =
  let h =
    analysis_horizon g tg sched ~last_question:(Schedule.length sched)
  in
  if h <= Trace.max_horizon then Some h else None

(* Invocation phases of a periodic constraint repeat with
   [super = lcm(period, cycle)]; [Some (super, horizon)] when that
   horizon is enumerable. *)
let periodic_horizon g sched (c : Timing.t) =
  match Rt_graph.Intmath.lcm c.period (Schedule.length sched) with
  | exception Rt_graph.Intmath.Overflow -> None
  | super when super > Trace.max_horizon -> None
  | super ->
      let h = analysis_horizon g c.graph sched ~last_question:super in
      if h <= Trace.max_horizon then Some (super, h) else None

let elements_all_present g tg sched =
  List.for_all
    (fun e -> Comm_graph.weight g e > 0 && Schedule.occurrences sched e > 0)
    (Task_graph.elements_used tg)

(* Instance periodicity: when each element's slot count per cycle is a
   whole number of executions, the trace's instance decomposition
   repeats with the cycle, so completion questions depend only on the
   question time modulo the cycle.  True for every schedule that passes
   [Schedule.validate]; checked explicitly so the memo is never applied
   to a trace where it would be unsound. *)
let instance_periodic g tg sched =
  List.for_all
    (fun e ->
      let w = Comm_graph.weight g e in
      w > 0 && Schedule.occurrences sched e mod w = 0)
    (Task_graph.elements_used tg)

(* Smallest divisor d of the schedule length such that the slot array
   repeats with period d.  Equals the length for schedules with no
   shorter pattern; strictly smaller for unrolled schedules. *)
let slot_period sched =
  let n = Schedule.length sched in
  let slots = Schedule.slots sched in
  let repeats d =
    n mod d = 0
    &&
    try
      for i = d to n - 1 do
        if slots.(i) <> slots.(i - d) then raise Exit
      done;
      true
    with Exit -> false
  in
  let rec first d = if d >= n then n else if repeats d then d else first (d + 1) in
  if n <= 1 then n else first 1

(* The soundness condition of [instance_periodic], checked at an
   arbitrary candidate period [d] dividing the length: slots must repeat
   with [d] and each element's occurrence count within one [d]-window
   must be a whole number of executions — then the trace's instance
   decomposition repeats with [d] and any completion question depends
   only on its time modulo [d]. *)
let instance_periodic_at g tg sched ~d =
  let slots = Schedule.slots sched in
  List.for_all
    (fun e ->
      let w = Comm_graph.weight g e in
      let occ = ref 0 in
      for i = 0 to d - 1 do
        match slots.(i) with
        | Schedule.Run e' when e' = e -> incr occ
        | _ -> ()
      done;
      w > 0 && !occ mod w = 0)
    (Task_graph.elements_used tg)

(* The period at which the residue memo (and the candidate enumeration
   of [latency_argmax_ctx]) may safely operate: the slot period when
   the instance decomposition also repeats there, the full length when
   only the full cycle qualifies, [None] when even the full cycle's
   decomposition is aperiodic (ill-formed schedule — no memo). *)
let memo_cycle ~slot_period:d g tg sched =
  let n = Schedule.length sched in
  if d < n && instance_periodic_at g tg sched ~d then Some d
  else if instance_periodic g tg sched then Some n
  else None

(* next_completion is a non-decreasing step function of the window
   start t, constant except where an instance of one of the task
   graph's elements stops being available — i.e. at t = start + 1.
   On each constancy interval, completion - t peaks at the left end,
   so it suffices to evaluate t = 0 and t = s + 1 for every instance
   start s within the first cycle.  Instance starts ascend, so the
   scan stops at the first start past the cycle instead of walking
   the whole trace. *)
let window_start_candidates ctx ~cycle =
  let trace = ctx.trace in
  let cands =
    List.concat_map
      (fun e ->
        let insts = Trace.instances trace e in
        let rec take i acc =
          if i >= Array.length insts then acc
          else
            let s = (insts.(i) : Trace.instance).start in
            if s + 1 >= cycle then acc else take (i + 1) ((s + 1) :: acc)
        in
        take 0 [])
      (Task_graph.elements_used ctx.tg)
  in
  List.sort_uniq Int.compare (0 :: cands)

let latency_argmax_ctx ctx ~cycle ~limit =
  let candidates = window_start_candidates ctx ~cycle in
  (* Candidates ascend, and next_completion is monotone in the window
     start, so each question's answer floors the next one's bisection
     range — the per-question cost drops from O(log horizon) searches
     to O(log gap). *)
  let rec worst ts ~floor acc =
    match ts with
    | [] -> Some acc
    | t :: rest -> (
        match next_completion_ctx ~floor ctx ~limit ~from:t with
        | None -> None
        | Some f ->
            let _, best_lat = acc in
            worst rest ~floor:f (if f - t > best_lat then (t, f - t) else acc))
  in
  worst candidates ~floor:0 (0, 0)

let latency_argmax g sched tg =
  if not (elements_all_present g tg sched) then None
  else
    match async_horizon g tg sched with
    | None -> None
    | Some horizon ->
        let trace = Trace.of_schedule g sched ~horizon in
        let ctx = make_ctx g tg trace in
        latency_argmax_ctx ctx ~cycle:(Schedule.length sched) ~limit:horizon

let latency g sched tg = Option.map snd (latency_argmax g sched tg)

let worst_window g sched tg =
  Option.map (fun (t, lat) -> (t, t + lat)) (latency_argmax g sched tg)

let meets_asynchronous g sched (c : Timing.t) =
  match latency g sched c.graph with
  | Some k -> k <= c.deadline
  | None -> false

(* Batched form of [meets_asynchronous]: one trace at the largest
   analysis horizon serves every constraint, each questioned under its
   own [limit] so the answers are exactly those of the per-constraint
   builds.  Verifying a candidate schedule against k constraints this
   way pays one [Trace.of_schedule] instead of k — on the game engine's
   small-model path the trace build is most of the solve. *)
let meets_all_asynchronous g sched cs =
  cs = []
  || (* Presence is a property of the schedule alone — reject before
        paying for the trace unroll (the bypass probes many candidate
        schedules that fail exactly here). *)
  List.for_all
    (fun (c : Timing.t) ->
      elements_all_present g c.graph sched
      && async_horizon g c.graph sched <> None)
    cs
  &&
  let cycle = Schedule.length sched in
  let horizon_of (c : Timing.t) =
    analysis_horizon g c.graph sched ~last_question:cycle
  in
  (* A yes/no question is cheaper than the argmax: the worst latency is
     within the deadline iff every candidate window [t, t + deadline)
     contains an execution — one containment search per candidate, no
     completion bisection and no sorted-finishes build.  Clamping the
     window end to the analysis horizon is exact (any completion lies
     within it) and dodges overflow on huge deadlines.  Window starts
     stay below the cycle, so the trace only needs to reach the last
     window end — usually cycle + deadline, far short of the full
     analysis horizon. *)
  let max_h =
    List.fold_left
      (fun acc (c : Timing.t) ->
        let l = horizon_of c in
        let need = if c.deadline >= l - cycle then l else cycle + c.deadline in
        max acc need)
      cycle cs
  in
  let trace = Trace.of_schedule g sched ~horizon:max_h in
  List.for_all
    (fun (c : Timing.t) ->
      let ctx = make_ctx g c.graph trace in
      let limit = horizon_of c in
      List.for_all
        (fun t ->
          let t1 = if c.deadline >= limit - t then limit else t + c.deadline in
          search ctx ~t0:t ~t1)
        (window_start_candidates ctx ~cycle))
    cs

(* The residue memo is capped: schedules with huge memo cycles (lcm-
   driven) would otherwise grow the table one entry per distinct
   residue for the whole run.  Eviction is FIFO over insertion order —
   each entry is a pure re-derivable answer, so dropping one costs a
   repeated containment search, never a different verdict.  The cap is
   far above every bench workload's residue count, so default runs
   never evict and the pinned cache_hits/cache_misses counters are
   unchanged. *)
let memo_cap = 1 lsl 16

let cache_size_gauge = Rt_obs.Metrics.gauge "cache/size"
let cache_evictions_ctr = Rt_obs.Metrics.counter "cache/evictions"

type memo = {
  m_cycle : int;
  m_tbl : (int, int option) Hashtbl.t;
  m_order : int Queue.t; (* insertion order, for FIFO eviction *)
}

let make_memo cycle =
  { m_cycle = cycle; m_tbl = Hashtbl.create 64; m_order = Queue.create () }

(* Store a fresh residue answer.  The residue is absent (we only store
   after a miss), so the queue holds each live key exactly once. *)
let memo_store memo r rel =
  if Hashtbl.length memo.m_tbl >= memo_cap then begin
    match Queue.take_opt memo.m_order with
    | Some oldest ->
        Hashtbl.remove memo.m_tbl oldest;
        Rt_obs.Metrics.incr cache_evictions_ctr
    | None -> ()
  end;
  Hashtbl.replace memo.m_tbl r rel;
  Queue.add r memo.m_order;
  Rt_obs.Metrics.set cache_size_gauge (Hashtbl.length memo.m_tbl)

(* Worst response over the periodic invocations, optionally memoized
   per (invocation time mod cycle).  [memo] must only be supplied when
   [instance_periodic] holds for the schedule the trace unrolls. *)
let periodic_response_ctx ?memo ctx ~limit (c : Timing.t) ~super =
  let n_invocations = super / c.period in
  let question t =
    match memo with
    | None -> next_completion_ctx ctx ~limit ~from:t
    | Some memo -> (
        let r = t mod memo.m_cycle in
        match Hashtbl.find_opt memo.m_tbl r with
        | Some rel ->
            Rt_obs.Metrics.incr Perf.cache_hits;
            Option.map (fun d -> t + d) rel
        | None ->
            Rt_obs.Metrics.incr Perf.cache_misses;
            let answer = next_completion_ctx ctx ~limit ~from:t in
            memo_store memo r (Option.map (fun f -> f - t) answer);
            answer)
  in
  let rec worst k acc =
    if k >= n_invocations then Some acc
    else
      let t = c.offset + (k * c.period) in
      match question t with
      | None -> None
      | Some f -> worst (k + 1) (max acc (f - t))
  in
  worst 0 0

let periodic_response g sched (c : Timing.t) =
  if not (elements_all_present g c.graph sched) then None
  else
    match periodic_horizon g sched c with
    | None -> None
    | Some (super, horizon) ->
        let trace = Trace.of_schedule g sched ~horizon in
        let ctx = make_ctx g c.graph trace in
        let memo =
          match
            memo_cycle ~slot_period:(slot_period sched) g c.graph sched
          with
          | Some d -> Some (make_memo d)
          | None -> None
        in
        periodic_response_ctx ?memo ctx ~limit:horizon c ~super

let meets_periodic g sched (c : Timing.t) =
  match periodic_response g sched c with
  | Some r -> r <= c.deadline
  | None -> false

type verdict = {
  constraint_name : string;
  kind : Timing.kind;
  bound : int;
  achieved : int option;
  ok : bool;
}

let verdict_of (c : Timing.t) achieved =
  let ok = match achieved with Some k -> k <= c.deadline | None -> false in
  { constraint_name = c.name; kind = c.kind; bound = c.deadline; achieved; ok }

(* Cached verification.  Constraints are grouped by
   [Timing.latency_class] before anything is computed: a class's
   presence check, horizon and achieved bound are computed once, and
   each member's verdict pairs that bound with the member's own name and
   deadline.  One trace long enough for every class is unrolled and
   shared; each class's questions are clamped to the horizon it would
   have used on its own, so the verdicts are identical to the uncached
   path. *)
let verify_cached (m : Model.t) sched =
  let g = m.comm in
  let cycle = Schedule.length sched in
  let index = Hashtbl.create 64 in
  let reps = ref [] in
  let class_of =
    List.map
      (fun c ->
        let k = Timing.latency_class c in
        match Hashtbl.find_opt index k with
        | Some i -> i
        | None ->
            let i = Hashtbl.length index in
            Hashtbl.add index k i;
            reps := c :: !reps;
            i)
      m.constraints
  in
  (* One plan per class, built from its first member: every field the
     analysis reads is part of the class key. *)
  let plans =
    List.rev_map
      (fun (c : Timing.t) ->
        if not (elements_all_present g c.graph sched) then `Unbounded
        else
          match c.kind with
          | Timing.Asynchronous -> (
              match async_horizon g c.graph sched with
              | None -> `Unbounded
              | Some h -> `Async (c, h))
          | Timing.Periodic -> (
              match periodic_horizon g sched c with
              | None -> `Unbounded
              | Some (super, h) -> `Periodic (c, super, h)))
      !reps
  in
  let max_horizon =
    List.fold_left
      (fun acc -> function
        | `Unbounded -> acc
        | `Async (_, h) -> max acc h
        | `Periodic (_, _, h) -> max acc h)
      cycle plans
  in
  let trace = Trace.of_schedule g sched ~horizon:max_horizon in
  let sp = slot_period sched in
  let achieved =
    List.map
      (function
        | `Unbounded -> None
        | `Async ((c : Timing.t), h) ->
            let ctx = make_ctx g c.graph trace in
            (* The trace repeats with the memo cycle, so the worst window
               start lies within the first such cycle; enumerating only
               those candidates yields the same argmax. *)
            let acycle =
              match memo_cycle ~slot_period:sp g c.graph sched with
              | Some d -> d
              | None -> cycle
            in
            Option.map snd (latency_argmax_ctx ctx ~cycle:acycle ~limit:h)
        | `Periodic ((c : Timing.t), super, h) ->
            let ctx = make_ctx g c.graph trace in
            let memo =
              match memo_cycle ~slot_period:sp g c.graph sched with
              | Some d -> Some (make_memo d)
              | None -> None
            in
            periodic_response_ctx ?memo ctx ~limit:h c ~super)
      plans
    |> Array.of_list
  in
  List.map2 (fun c i -> verdict_of c achieved.(i)) m.constraints class_of

let verify ?(cached = true) (m : Model.t) sched =
  (match Schedule.validate m.comm sched with
  | Ok () -> ()
  | Error errs ->
      invalid_arg ("Latency.verify: ill-formed schedule: " ^ String.concat "; " errs));
  Rt_obs.Tracer.span ~cat:"latency"
    (if cached then "latency/verify" else "latency/verify-uncached")
  @@ fun () ->
  if cached then verify_cached m sched
  else
    (* Reference path: per-constraint traces, no periodicity memo —
       the pre-cache engine, kept as an independent oracle for the
       property tests and the E14 baseline. *)
    let g = m.comm in
    List.map
      (fun (c : Timing.t) ->
        let achieved =
          if not (elements_all_present g c.graph sched) then None
          else
            match c.kind with
            | Timing.Asynchronous -> latency g sched c.graph
            | Timing.Periodic -> (
                match periodic_horizon g sched c with
                | None -> None
                | Some (super, horizon) ->
                    let trace = Trace.of_schedule g sched ~horizon in
                    let ctx = make_ctx g c.graph trace in
                    periodic_response_ctx ctx ~limit:horizon c ~super)
        in
        verdict_of c achieved)
      m.constraints

let verify_budgeted ?cached ~budget (m : Model.t) sched =
  (* Cooperative cut between constraint analyses: each constraint's
     verdict is computed by the plain engine on a single-constraint
     submodel (identical verdicts — [verify] is per-constraint
     modular), with one budget check before each. *)
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | (c : Timing.t) :: rest ->
        if not (Budget.spend budget 1) then
          Error
            (Option.value ~default:"budget exhausted" (Budget.exhausted budget))
        else
          let sub = Model.make ~comm:m.comm ~constraints:[ c ] in
          let v =
            match verify ?cached sub sched with
            | [ v ] -> v
            | _ -> assert false (* one constraint in, one verdict out *)
          in
          go (v :: acc) rest
  in
  go [] m.constraints

let all_ok vs = List.for_all (fun v -> v.ok) vs

let pp_verdict fmt v =
  Format.fprintf fmt "%s [%s] d=%d %s=%s: %s" v.constraint_name
    (Timing.kind_to_string v.kind)
    v.bound
    (match v.kind with
    | Timing.Asynchronous -> "latency"
    | Timing.Periodic -> "response")
    (match v.achieved with Some k -> string_of_int k | None -> "unbounded")
    (if v.ok then "OK" else "VIOLATED")
