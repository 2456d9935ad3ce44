(* Keep the sibling Decompose (multiprocessor windows) visible across
   the open of Rt_core, which now also exports a Decompose. *)
module Mp_decompose = Decompose
open Rt_core
module Decompose = Mp_decompose

type result = {
  partition : Partition.t;
  plans : Decompose.plan list;
  hyperperiod : int;
  processor_schedules : Schedule.t array;
  bus : Netsched.bus_schedule;
  proc_loads : float array;
  bus_load : float;
  cut : int;
  msg_cost : int;
  arq_slack : int;
}

let rec attempt_strategies m (partition : Partition.t) ~msg_cost ~arq_slack
    ~max_hyperperiod = function
  | [] -> Error "no window-allotment strategy produced a feasible system"
  | strategy :: rest -> (
      let n_procs = partition.Partition.n_procs in
      let retry e =
        match
          attempt_strategies m partition ~msg_cost ~arq_slack ~max_hyperperiod
            rest
        with
        | Ok r -> Ok r
        | Error _ -> Error e
      in
      (* Every message window (and the bus reservation) carries the ARQ
         retransmission slack on top of the real transmission cost. *)
      match
        Decompose.decompose ~strategy m partition
          ~msg_cost:(msg_cost + arq_slack)
      with
      | Error e -> retry e
      | Ok plans -> (
          let periods = List.map (fun p -> p.Decompose.period) plans in
          match Rt_graph.Intmath.lcm_list periods with
          | exception Rt_graph.Intmath.Overflow ->
              retry "hyperperiod overflows"
          | hyperperiod when hyperperiod > max_hyperperiod ->
              retry
                (Printf.sprintf "hyperperiod %d exceeds the cap %d" hyperperiod
                   max_hyperperiod)
          | hyperperiod -> (
              (* Per-processor EDF jobs: one job per segment window per
                 invocation; bus items likewise for messages. *)
              let proc_jobs = Array.make n_procs [] in
              let bus_items = ref [] in
              List.iter
                (fun (plan : Decompose.plan) ->
                  let rec invocations t =
                    if t >= hyperperiod then ()
                    else begin
                      List.iteri
                        (fun i (w : Decompose.windowed) ->
                          match w.piece with
                          | Decompose.Segment s ->
                              let job =
                                {
                                  Edf_cyclic.job_name =
                                    Printf.sprintf "%s@%d/%d"
                                      plan.constraint_name t i;
                                  (* No precedence edges needed: the EDF
                                     dispatcher executes a job's operations
                                     in node order, which already is the
                                     segment's topological order (edges
                                     between arbitrary consecutive ops
                                     need not exist in the communication
                                     graph). *)
                                  graph =
                                    Task_graph.create
                                      ~nodes:(Array.of_list s.ops) ~edges:[];
                                  release = t + w.start_off;
                                  abs_deadline = t + w.end_off;
                                }
                              in
                              proc_jobs.(s.processor) <-
                                job :: proc_jobs.(s.processor)
                          | Decompose.Message msg ->
                              if msg.cost > 0 then
                                bus_items :=
                                  {
                                    Netsched.item_name =
                                      Printf.sprintf "%s@%d/%d"
                                        plan.constraint_name t i;
                                    release = t + w.start_off;
                                    abs_deadline = t + w.end_off;
                                    cost = msg.cost;
                                  }
                                  :: !bus_items)
                        plan.pieces;
                      invocations (t + plan.period)
                    end
                  in
                  invocations 0)
                plans;
              let schedules = Array.make n_procs None in
              let fail = ref None in
              for proc = 0 to n_procs - 1 do
                if !fail = None then
                  match
                    Edf_cyclic.build m.comm ~horizon:hyperperiod
                      (List.rev proc_jobs.(proc))
                  with
                  | Ok s -> schedules.(proc) <- Some s
                  | Error f ->
                      fail :=
                        Some
                          (Printf.sprintf "processor %d: job %s failed at %d (%s)"
                             proc f.Edf_cyclic.failed_job f.Edf_cyclic.at_time
                             f.Edf_cyclic.reason)
              done;
              match !fail with
              | Some e -> retry e
              | None -> (
                  match Netsched.schedule ~horizon:hyperperiod !bus_items with
                  | Error misses ->
                      retry ("bus: " ^ Netsched.misses_to_string misses)
                  | Ok bus ->
                      let processor_schedules =
                        Array.map
                          (function Some s -> s | None -> assert false)
                          schedules
                      in
                      let proc_loads =
                        Array.map Schedule.load processor_schedules
                      in
                      Ok
                        {
                          partition;
                          plans;
                          hyperperiod;
                          processor_schedules;
                          bus;
                          proc_loads;
                          bus_load =
                            Netsched.utilization ~horizon:hyperperiod
                              !bus_items;
                          cut =
                            List.length (Partition.cut_edges m.comm partition);
                          msg_cost;
                          arq_slack;
                        }))))

let check_supported (m : Model.t) =
  match
    List.find_opt
      (fun (c : Timing.t) ->
        Timing.is_periodic c && (c.deadline > c.period || c.offset <> 0))
      m.constraints
  with
  | Some c ->
      Error
        (Printf.sprintf
           "constraint %s has deadline > period or a nonzero offset; \
            unsupported by the multiprocessor decomposer"
           c.name)
  | None -> Ok ()

let strategies =
  [ Decompose.Proportional; Decompose.Back_loaded; Decompose.Front_loaded ]

let synthesize_with ?(msg_cost = 1) ?(arq_slack = 0)
    ?(max_hyperperiod = 1_000_000) (m : Model.t) partition =
  match check_supported m with
  | Error _ as e -> e
  | Ok () ->
      attempt_strategies m partition ~msg_cost ~arq_slack ~max_hyperperiod
        strategies

let synthesize ?(n_procs = 2) ?msg_cost ?arq_slack ?max_hyperperiod
    (m : Model.t) =
  match check_supported m with
  | Error _ as e -> e
  | Ok () ->
      let partition =
        Partition.refine m.comm (Partition.greedy m.comm ~n_procs)
      in
      synthesize_with ?msg_cost ?arq_slack ?max_hyperperiod m partition

let walk_pieces g ~slot ~bus ~msg_slots (plan : Decompose.plan) ~arrival =
  let fits = ref true in
  (* Where [needed] slots that [hit] have gone by, scanning from [from];
     the window's end, and a miss, when it closes first. *)
  let find ~from ~w1 ~needed hit =
    let needed = ref needed and cursor = ref from in
    while !needed > 0 && !cursor < w1 do
      if hit !cursor then decr needed;
      incr cursor
    done;
    if !needed > 0 then begin
      fits := false;
      w1
    end
    else !cursor
  in
  let completion = ref arrival in
  List.iteri
    (fun i (w : Decompose.windowed) ->
      let w0 = arrival + w.start_off and w1 = arrival + w.end_off in
      match w.piece with
      | Decompose.Segment s ->
          (* Ops in order: one cursor collects each op's weight worth of
             its processor's slots inside the window. *)
          let runs e t =
            match slot s.processor t with
            | Schedule.Run e' -> e' = e
            | Schedule.Idle -> false
          in
          let cursor =
            List.fold_left
              (fun from e ->
                find ~from ~w1 ~needed:(Comm_graph.weight g e) (runs e))
              w0 s.ops
          in
          completion := max !completion cursor
      | Decompose.Message msg ->
          let needed = if msg.cost > 0 then msg_slots msg.cost else 0 in
          if needed > 0 then begin
            let name =
              Printf.sprintf "%s@%d/%d" plan.constraint_name arrival i
            in
            let carries t =
              match bus t with Some n -> String.equal n name | None -> false
            in
            completion := max !completion (find ~from:w0 ~w1 ~needed carries)
          end)
    plan.pieces;
  (!completion, !fits)

let response_bounds (m : Model.t) r =
  let slot p t = Schedule.slot r.processor_schedules.(p) t in
  let bus t = if t < Array.length r.bus then r.bus.(t) else None in
  List.map
    (fun (plan : Decompose.plan) ->
      (* [msg.cost] already includes the ARQ slack (the plan was
         decomposed at the inflated cost), so the bound charges the full
         reserved slots even though a fault-free run finishes earlier.
         On a verified result every piece fits its window; a piece that
         does not completes at its window's end, so the bound stays
         conservative. *)
      let rec worst t acc =
        if t >= r.hyperperiod then acc
        else
          let completion, _ =
            walk_pieces m.comm ~slot ~bus ~msg_slots:Fun.id plan ~arrival:t
          in
          worst (t + plan.period) (max acc (completion - t))
      in
      (plan.constraint_name, worst 0 0))
    r.plans

let pp_result (m : Model.t) fmt r =
  Format.fprintf fmt "@[<v>partition: %a@,hyperperiod: %d, cut edges: %d@,"
    (Partition.pp m.comm) r.partition r.hyperperiod r.cut;
  Array.iteri
    (fun i l -> Format.fprintf fmt "processor %d load: %.3f@," i l)
    r.proc_loads;
  Format.fprintf fmt "bus load: %.3f@,@]" r.bus_load
