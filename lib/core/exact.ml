module Perf = Rt_par.Perf
module Pool = Rt_par.Pool

type outcome = Game.outcome =
  | Feasible of Schedule.t
  | Infeasible
  | Timeout of string
  | Unknown of string

type stats = Game.stats = { explored : int; outcome : outcome }
type engine = [ `Dfs | `Game | `Game_ref ]

(* ------------------------------------------------------------------ *)
(* Exhaustive enumeration for unit-weight models (Theorem 2 case (i)). *)
(* ------------------------------------------------------------------ *)

(* Both enumerators share one parallelization scheme: the search space
   is flattened into branches indexed by (schedule length, first
   decision), in the lexicographic order the sequential search visits
   them, and the answer is the lowest-index branch that finds a
   schedule.  Run left-to-right this visits exactly the sequential
   search's schedules in the sequential order; run on a pool, branches
   proceed concurrently but the lowest-index success still wins
   ([Pool.parallel_find_first]) and a shared {!Rt_par.Bound} cell lets
   branches that can no longer win abandon their DFS mid-flight.
   Either way the returned schedule is bit-identical to the sequential
   one; only [explored] may differ under a pool (losing branches may
   have tested schedules the sequential search never reached). *)

let find_branches pool n_tasks branch =
  let branch i =
    Rt_obs.Tracer.span ~cat:"exact" "dfs/branch" (fun () -> branch i)
  in
  match pool with
  | Some p when Pool.jobs p > 1 ->
      Pool.parallel_find_first p branch (Array.init n_tasks Fun.id)
  | _ ->
      let rec go i =
        if i >= n_tasks then None
        else match branch i with Some _ as r -> r | None -> go (i + 1)
      in
      go 0

(* After a fruitless search, a spent caller budget means the verdict is
   a cut-off, not an exhaustive negative. *)
let no_schedule budget explored ~max_len =
  match Option.bind budget Budget.exhausted with
  | Some reason -> { explored; outcome = Timeout reason }
  | None ->
      {
        explored;
        outcome =
          Unknown
            (Printf.sprintf "no feasible schedule of length <= %d" max_len);
      }

let enumerate ?pool ?budget ?table ?(engine = `Game) ?(max_len = 12)
    ?(max_states = 500_000) (m : Model.t) =
  let asyncs = Model.asynchronous m in
  let elements =
    List.concat_map
      (fun (c : Timing.t) -> Task_graph.elements_used c.graph)
      asyncs
    |> List.sort_uniq Int.compare
  in
  List.iter
    (fun e ->
      if Comm_graph.weight m.comm e <> 1 then
        invalid_arg
          (Printf.sprintf
             "Exact.enumerate: element %s has weight %d, only unit weights \
              are supported"
             (Comm_graph.element m.comm e).Element.name
             (Comm_graph.weight m.comm e)))
    elements;
  match engine with
  | (`Game | `Game_ref) as g ->
      let impl = if g = `Game then `Packed else `Reference in
      Game.solve ?pool ?budget ?table ~max_states ~impl ~granularity:`Unit m
  | `Dfs ->
      if asyncs = [] then
        {
          explored = 0;
          outcome = Feasible (Schedule.of_slots [ Schedule.Idle ]);
        }
      else begin
        let explored = Atomic.make 0 in
        let symbols =
          Array.of_list (List.map (fun e -> Schedule.Run e) elements)
        in
        (* Hoisted once per solve: the per-position choice order.  The
           inner DFS used to rebuild this list at every node. *)
        let choices = Array.to_list symbols @ [ Schedule.Idle ] in
        let feasible sched =
          List.for_all
            (fun c -> Latency.meets_asynchronous m.comm sched c)
            asyncs
        in
        (* Window ending exactly at [len] is fully decided once [len]
           slots are fixed: if it lacks a required execution the branch
           is dead (the trace within the first cycle is exactly the
           prefix). *)
        let prefix_ok slots len =
          let prefix = Array.sub slots 0 len in
          let trace = Trace.of_slots m.comm prefix in
          List.for_all
            (fun (c : Timing.t) ->
              c.deadline > len
              || Latency.contains_execution m.comm c.graph trace
                   ~t0:(len - c.deadline) ~t1:len)
            asyncs
        in
        let n_sym = Array.length symbols in
        let best = Rt_par.Bound.create () in
        let exception Aborted in
        (* Branch [idx]: schedules of length [idx / n_sym + 1] whose
           first slot is [symbols.(idx mod n_sym)] (slot 0 is never
           idle: feasibility is rotation-invariant). *)
        let branch idx =
          let n = (idx / n_sym) + 1 in
          let first = symbols.(idx mod n_sym) in
          let slots = Array.make n Schedule.Idle in
          let local = ref 0 in
          let nodes = ref 0 in
          let result = ref None in
          let rec dfs pos =
            if Rt_par.Bound.get best < idx then raise Aborted;
            (match budget with
            | Some b when not (Budget.spend b 1) -> raise Aborted
            | _ -> ());
            incr nodes;
            if !result <> None then ()
            else if pos = n then begin
              incr local;
              let sched = Schedule.of_array slots in
              if feasible sched then begin
                result := Some sched;
                Rt_par.Bound.update_min best idx
              end
            end
            else
              List.iter
                (fun sym ->
                  if !result = None then begin
                    slots.(pos) <- sym;
                    if prefix_ok slots (pos + 1) then dfs (pos + 1)
                  end)
                choices
          in
          slots.(0) <- first;
          (try if prefix_ok slots 1 then dfs 1 with Aborted -> ());
          Rt_obs.Metrics.add Perf.dfs_nodes !nodes;
          ignore (Atomic.fetch_and_add explored !local);
          !result
        in
        match find_branches pool (max_len * n_sym) branch with
        | Some sched ->
            { explored = Atomic.get explored; outcome = Feasible sched }
        | None -> no_schedule budget (Atomic.get explored) ~max_len
      end

(* ------------------------------------------------------------------ *)
(* Execution-granularity enumeration: complete for atomic elements.    *)
(* ------------------------------------------------------------------ *)

let enumerate_atomic ?pool ?budget ?table ?(engine = `Game) ?(max_len = 16)
    ?(max_states = 500_000) (m : Model.t) =
  match engine with
  | (`Game | `Game_ref) as g ->
      let impl = if g = `Game then `Packed else `Reference in
      Game.solve ?pool ?budget ?table ~max_states ~impl ~granularity:`Atomic m
  | `Dfs ->
      let asyncs = Model.asynchronous m in
      let elements =
        List.concat_map
          (fun (c : Timing.t) -> Task_graph.elements_used c.graph)
          asyncs
        |> List.sort_uniq Int.compare
      in
      if asyncs = [] then
        {
          explored = 0;
          outcome = Feasible (Schedule.of_slots [ Schedule.Idle ]);
        }
      else begin
        let explored = Atomic.make 0 in
        let weights =
          List.map (fun e -> (e, Comm_graph.weight m.comm e)) elements
        in
        let warr = Array.of_list weights in
        (* Hoisted once per solve: choices in the order the DFS tries
           them — whole execution blocks first, then one idle slot. *)
        let choices =
          List.map (fun (e, w) -> `Block (e, w)) weights @ [ `IdleSlot ]
        in
        let feasible sched =
          List.for_all
            (fun c -> Latency.meets_asynchronous m.comm sched c)
            asyncs
        in
        let prefix_ok slots len =
          let prefix = Array.sub slots 0 len in
          let trace = Trace.of_slots m.comm prefix in
          List.for_all
            (fun (c : Timing.t) ->
              c.deadline > len
              || Latency.contains_execution m.comm c.graph trace
                   ~t0:(len - c.deadline) ~t1:len)
            asyncs
        in
        let n_w = Array.length warr in
        let best = Rt_par.Bound.create () in
        let exception Aborted in
        (* Branch [idx]: schedules of length [idx / n_w + 1] opening
           with a whole execution of element [warr.(idx mod n_w)]
           (position 0 must start an execution — rotation symmetry).
           Choices thereafter: one whole execution of an element
           (w slots) or one idle slot. *)
        let branch idx =
          let n = (idx / n_w) + 1 in
          let e0, w0 = warr.(idx mod n_w) in
          if w0 > n then None
          else begin
            let slots = Array.make n Schedule.Idle in
            let local = ref 0 in
            let nodes = ref 0 in
            let result = ref None in
            let rec dfs pos =
              if Rt_par.Bound.get best < idx then raise Aborted;
              (match budget with
              | Some b when not (Budget.spend b 1) -> raise Aborted
              | _ -> ());
              incr nodes;
              if !result <> None then ()
              else if pos = n then begin
                incr local;
                let sched = Schedule.of_array slots in
                if feasible sched then begin
                  result := Some sched;
                  Rt_par.Bound.update_min best idx
                end
              end
              else
                List.iter
                  (fun choice ->
                    if !result = None then
                      match choice with
                      | `Block (e, w) ->
                          if pos + w <= n then begin
                            for i = pos to pos + w - 1 do
                              slots.(i) <- Schedule.Run e
                            done;
                            (* Check every window completed while
                               laying the block. *)
                            let rec all_ok l =
                              l > pos + w || (prefix_ok slots l && all_ok (l + 1))
                            in
                            if all_ok (pos + 1) then dfs (pos + w)
                          end
                      | `IdleSlot ->
                          if pos > 0 then begin
                            slots.(pos) <- Schedule.Idle;
                            if prefix_ok slots (pos + 1) then dfs (pos + 1)
                          end)
                  choices
            in
            (try
               for i = 0 to w0 - 1 do
                 slots.(i) <- Schedule.Run e0
               done;
               let rec all_ok l =
                 l > w0 || (prefix_ok slots l && all_ok (l + 1))
               in
               if all_ok 1 then dfs w0
             with Aborted -> ());
            Rt_obs.Metrics.add Perf.dfs_nodes !nodes;
            ignore (Atomic.fetch_and_add explored !local);
            !result
          end
        in
        match find_branches pool (max_len * n_w) branch with
        | Some sched ->
            { explored = Atomic.get explored; outcome = Feasible sched }
        | None -> no_schedule budget (Atomic.get explored) ~max_len
      end

(* ------------------------------------------------------------------ *)
(* The simulation game for single-operation constraints (Theorem 1 /
   Theorem 2 case (ii)), re-expressed on the game engine: the budget
   vector of Exact's original hand-rolled DFS is exactly Game's
   single-op state, and the engine adds the shared transposition
   table, dominance pruning and pool fan-out on top.                   *)
(* ------------------------------------------------------------------ *)

let solve_single_ops ?pool ?budget ?table ?(max_states = 1_000_000)
    (m : Model.t) =
  let asyncs = Model.asynchronous m in
  List.iter
    (fun (c : Timing.t) ->
      if Task_graph.size c.graph <> 1 then
        invalid_arg
          (Printf.sprintf
             "Exact.solve_single_ops: constraint %s is not a single operation"
             c.name))
    asyncs;
  Game.solve ?pool ?budget ?table ~max_states ~granularity:`Atomic m

(* ------------------------------------------------------------------ *)
(* Component-wise exact decision (sum of small exponentials instead of *)
(* one big one).  Per-component verdict algebra:                       *)
(*   - any Infeasible  -> Infeasible  (subset argument: definitive)    *)
(*   - else any Timeout -> Timeout    (the search was cut short)       *)
(*   - else any Unknown -> Unknown                                     *)
(*   - all Feasible     -> interleave + re-verify the whole model;     *)
(*                         a failed interleave degrades to Unknown,    *)
(*                         never to a wrong Feasible/Infeasible.       *)
(* ------------------------------------------------------------------ *)

let solve_decomposed ?pool ?budget ?(engine = `Game) ?max_len ?max_states
    ~granularity (m : Model.t) =
  let plain ?pool ?table m =
    match granularity with
    | `Unit -> enumerate ?pool ?budget ?table ~engine ?max_len ?max_states m
    | `Atomic ->
        enumerate_atomic ?pool ?budget ?table ~engine ?max_len ?max_states m
  in
  match Decompose.components m with
  | [] | [ _ ] -> plain ?pool m
  | comps -> (
      let solve ~sub _comp =
        Rt_obs.Metrics.incr Perf.decompose_component_solves;
        (* Fresh implicit table per component; the inner search runs
           sequentially — the outer fan-out owns the pool — so explored
           counts are deterministic at any job count. *)
        plain sub
      in
      let results = Decompose.map_components ?pool ~solve m comps in
      let explored =
        List.fold_left (fun acc s -> acc + s.explored) 0 results
      in
      let first pred =
        List.find_opt (fun s -> pred s.outcome) results
        |> Option.map (fun s -> s.outcome)
      in
      match first (function Infeasible -> true | _ -> false) with
      | Some _ -> { explored; outcome = Infeasible }
      | None -> (
          match first (function Timeout _ -> true | _ -> false) with
          | Some o -> { explored; outcome = o }
          | None -> (
              match first (function Unknown _ -> true | _ -> false) with
              | Some o -> { explored; outcome = o }
              | None -> (
                  let scheds =
                    List.map
                      (fun s ->
                        match s.outcome with
                        | Feasible sched -> sched
                        | _ -> assert false)
                      results
                  in
                  match Decompose.interleave m.Model.comm scheds with
                  | Error e -> { explored; outcome = Unknown e }
                  | Ok sched ->
                      if
                        Latency.meets_all_asynchronous m.Model.comm sched
                          (Model.asynchronous m)
                      then { explored; outcome = Feasible sched }
                      else
                        {
                          explored;
                          outcome =
                            Unknown
                              "components feasible, but the interleaved \
                               schedule failed whole-model verification";
                        }))))
