open Rt_core

type invocation = {
  constraint_name : string;
  arrival : int;
  completion : int option;
  response : int option;
  met : bool;
}

type report = {
  invocations : invocation list;
  misses : int;
  worst_response : (string * int) list;
}

let run (m : Model.t) sched ~horizon ~arrivals =
  Arrivals.validate ~caller:"Runtime.run" m ~horizon arrivals;
  (* Margin so that executions answering late arrivals are observable. *)
  let margin =
    List.fold_left
      (fun acc (c : Timing.t) ->
        max acc
          (Latency.analysis_horizon m.comm c.graph sched ~last_question:0))
      0 m.constraints
  in
  let trace = Trace.of_schedule m.comm sched ~horizon:(horizon + margin) in
  (* One search state per constraint, shared by all its invocations. *)
  let invocations_of (c : Timing.t) times =
    let cache = Latency.Cache.create m.comm c.graph trace in
    List.map
      (fun t ->
        let completion = Latency.Cache.next_completion cache ~from:t in
        let response = Option.map (fun f -> f - t) completion in
        {
          constraint_name = c.name;
          arrival = t;
          completion;
          response;
          met = (match response with Some r -> r <= c.deadline | None -> false);
        })
      times
  in
  let async_invocations =
    List.concat_map
      (fun (name, times) -> invocations_of (Model.find m name) times)
      arrivals
  in
  let periodic_invocations =
    List.concat_map
      (fun (c : Timing.t) ->
        let rec releases t acc =
          if t >= horizon then List.rev acc
          else releases (t + c.period) (t :: acc)
        in
        invocations_of c (releases c.offset []))
      (Model.periodic m)
  in
  let invocations =
    List.sort
      (fun a b ->
        compare (a.arrival, a.constraint_name) (b.arrival, b.constraint_name))
      (async_invocations @ periodic_invocations)
  in
  let misses = List.length (List.filter (fun i -> not i.met) invocations) in
  if Rt_obs.Tracer.enabled () then begin
    (* Virtual-time Gantt of the replay: the cyclic schedule up to the
       horizon, plus one flag per arrival (and per miss). *)
    Obs_emit.track ~tid:0 "cpu";
    Obs_emit.schedule m.comm sched ~tid:0 ~horizon;
    List.iter
      (fun i ->
        Obs_emit.instant ~tid:0 ~at:i.arrival
          (Printf.sprintf "%s:%s" i.constraint_name
             (if i.met then "arrival" else "miss")))
      invocations
  end;
  let worst_response =
    List.fold_left
      (fun acc i ->
        match i.response with
        | None -> acc
        | Some r ->
            let cur =
              Option.value ~default:0 (List.assoc_opt i.constraint_name acc)
            in
            (i.constraint_name, max cur r)
            :: List.remove_assoc i.constraint_name acc)
      [] invocations
    |> List.sort compare
  in
  { invocations; misses; worst_response }

let pp_report fmt r =
  Format.fprintf fmt "@[<v>invocations: %d, misses: %d@,"
    (List.length r.invocations) r.misses;
  List.iter
    (fun (name, w) -> Format.fprintf fmt "worst response %s: %d@," name w)
    r.worst_response;
  Format.fprintf fmt "@]"
