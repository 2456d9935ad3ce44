(* Keep the sibling Decompose (multiprocessor windows) visible across
   the open of Rt_core, which now also exports a Decompose. *)
module Mp_decompose = Decompose
open Rt_core
module Decompose = Mp_decompose

type scenario = {
  dead : int;
  threshold : Criticality.level option;
  result : Msched.result;
  dropped : string list;
  stretched : (string * int * int) list;
}

type table = {
  nominal : Msched.result;
  scenarios : (scenario, string) result array;
  detect_bound : int;
  migration : int;
  reconfig_bound : int;
}

(* A plan's windows tile [0, deadline], so the last window's end is the
   constraint's (possibly stretched) relative deadline. *)
let plan_deadline (plan : Decompose.plan) =
  match List.rev plan.Decompose.pieces with
  | [] -> 0
  | last :: _ -> last.Decompose.end_off

let scenario_for ?criticality ?derivation ~msg_cost ~arq_slack
    ~max_hyperperiod (m : Model.t) nominal ~dead =
  match Partition.repair m.comm nominal.Msched.partition ~dead with
  | Error e -> Error e
  | Ok repaired -> (
      let partition = Partition.refine ~avoid:[ dead ] m.comm repaired in
      let attempt model =
        Msched.synthesize_with ~msg_cost ~arq_slack ~max_hyperperiod model
          partition
      in
      match attempt m with
      | Ok result ->
          Ok { dead; threshold = None; result; dropped = []; stretched = [] }
      | Error full_err -> (
          let degraded threshold =
            match criticality with
            | None -> None
            | Some assignment -> (
                let kept, dropped, stretched =
                  Modes.degraded_constraints ?derivation m assignment
                    ~threshold
                in
                (* Skip thresholds that change nothing: that attempt
                   already failed as the full model. *)
                if kept = [] || (dropped = [] && stretched = []) then None
                else
                  match Model.create ~comm:m.comm ~constraints:kept with
                  | Error _ -> None
                  | Ok model -> (
                      match attempt model with
                      | Error _ -> None
                      | Ok result ->
                          Some
                            {
                              dead;
                              threshold = Some threshold;
                              result;
                              dropped;
                              stretched;
                            }))
          in
          match degraded Criticality.Medium with
          | Some s -> Ok s
          | None -> (
              match degraded Criticality.High with
              | Some s -> Ok s
              | None -> Error full_err)))

let stage_us = Rt_obs.Metrics.histogram "stage/contingency"

let synthesize ?pool ?criticality ?derivation ?msg_cost
    ?(max_hyperperiod = 1_000_000) ?(migration = 0) ~detect_bound (m : Model.t)
    (nominal : Msched.result) =
  let n_procs = nominal.Msched.partition.Partition.n_procs in
  if detect_bound < 0 then Error "Contingency.synthesize: negative detect_bound"
  else if migration < 0 then Error "Contingency.synthesize: negative migration"
  else if n_procs < 2 then
    Error "Contingency.synthesize: a single-processor system has no survivors"
  else begin
    let msg_cost =
      match msg_cost with Some c -> c | None -> nominal.Msched.msg_cost
    in
    let build dead =
      let go () =
        scenario_for ?criticality ?derivation ~msg_cost
          ~arq_slack:nominal.Msched.arq_slack ~max_hyperperiod m nominal ~dead
      in
      if Rt_obs.Tracer.enabled () then
        Rt_obs.Tracer.span ~cat:"contingency"
          ("scenario/p" ^ string_of_int dead)
          go
      else go ()
    in
    (* Scenarios are independent (one per crashed processor) and each
       is a deterministic function of its index, so the order-preserving
       parallel map yields the same table the sequential loop builds. *)
    let scenarios =
      Rt_obs.Tracer.span ~cat:"stage" "contingency" @@ fun () ->
      Rt_obs.Metrics.time stage_us (fun () ->
          match pool with
          | Some p when Rt_par.Pool.jobs p > 1 && n_procs > 1 ->
              Rt_par.Pool.parallel_map p build (Array.init n_procs Fun.id)
          | _ -> Array.init n_procs build)
    in
    Ok
      {
        nominal;
        scenarios;
        detect_bound;
        migration;
        reconfig_bound = detect_bound + 1 + migration;
      }
  end

let feasible_scenarios t =
  Array.to_list t.scenarios
  |> List.filter_map (function Ok s -> Some s | Error _ -> None)

let admits_reconfiguration (m : Model.t) t =
  let responses = Msched.response_bounds m t.nominal in
  let errs = ref [] in
  List.iter
    (fun s ->
      List.iter
        (fun (plan : Decompose.plan) ->
          let name = plan.Decompose.constraint_name in
          match List.assoc_opt name responses with
          | None -> ()
          | Some response ->
              let deadline = plan_deadline plan in
              if response + t.reconfig_bound > deadline then
                errs :=
                  Printf.sprintf
                    "crash of processor %d: %s response %d + reconfiguration \
                     %d exceeds deadline %d"
                    s.dead name response t.reconfig_bound deadline
                  :: !errs)
        s.result.Msched.plans)
    (feasible_scenarios t);
  match List.rev !errs with [] -> Ok () | es -> Error es

let pp (m : Model.t) fmt t =
  ignore m;
  Format.fprintf fmt
    "@[<v>reconfiguration bound: %d (detect %d + swap 1 + migrate %d)@,"
    t.reconfig_bound t.detect_bound t.migration;
  Array.iteri
    (fun dead -> function
      | Ok s ->
          let tag =
            match s.threshold with
            | None -> "full service"
            | Some l ->
                Printf.sprintf "degraded at %s (shed: %s)"
                  (Criticality.level_to_string l)
                  (String.concat ", " s.dropped)
          in
          Format.fprintf fmt "crash p%d: %s, hyperperiod %d@," dead tag
            s.result.Msched.hyperperiod
      | Error e -> Format.fprintf fmt "crash p%d: INFEASIBLE (%s)@," dead e)
    t.scenarios;
  Format.fprintf fmt "@]"
