open Rt_core
module Mp = Rt_multiproc

type crash = { proc : int; at : int; return_at : int option }

type policy = No_failover | Failover

type config_tag = Nominal | Scenario of int

type event =
  | Crashed of { proc : int; at : int }
  | Returned of { proc : int; at : int }
  | Detected of { proc : int; at : int; latency : int }
  | Failover_complete of { proc : int; at : int }
  | Failover_unavailable of { proc : int; at : int; reason : string }
  | Readmitted of { proc : int; at : int }

type invocation = {
  constraint_name : string;
  criticality : Criticality.level;
  arrival : int;
  deadline : int;
  processor : int;
  completion : int option;
  response : int option;
  met : bool;
  shed : bool;
  config : config_tag;
}

type report = {
  invocations : invocation list;
  events : event list;
  realized : Schedule.t array;
  bus_retransmissions : int;
  misses : int;
  shed : int;
  config_switches : int;
  detection_bound : int;
  reconfig_bound : int;
  final_config : config_tag;
}

(* One pending ARQ transmission on the bus. *)
type bus_item = {
  b_name : string;
  b_release : int;
  b_deadline : int;
  b_src_proc : int;
  mutable b_remaining : int;
}

(* A released invocation, evaluated against the realized logs at the
   end of the replay. *)
type pending = {
  p_name : string;
  p_crit : Criticality.level;
  p_arrival : int;
  p_deadline : int;
  p_proc : int;
  p_plan : Mp.Decompose.plan option;  (** [None] when shed. *)
  p_msg_real : int;
  p_config : config_tag;
}

let plan_deadline (plan : Mp.Decompose.plan) =
  match List.rev plan.Mp.Decompose.pieces with
  | [] -> 0
  | last :: _ -> last.Mp.Decompose.end_off

let plan_owner (plan : Mp.Decompose.plan) =
  (* The constraint's "owner" is the processor of its final segment
     (where the end-to-end result materializes). *)
  List.fold_left
    (fun acc (w : Mp.Decompose.windowed) ->
      match w.Mp.Decompose.piece with
      | Mp.Decompose.Segment s -> s.processor
      | Mp.Decompose.Message _ -> acc)
    0 plan.Mp.Decompose.pieces

let result_of table = function
  | Nominal -> table.Mp.Contingency.nominal
  | Scenario d -> (
      match table.Mp.Contingency.scenarios.(d) with
      | Ok s -> s.Mp.Contingency.result
      | Error _ -> assert false (* switches only target feasible scenarios *))

let validate_crashes ~n_procs crashes =
  let seen = Hashtbl.create 8 in
  List.iter
    (fun c ->
      if c.proc < 0 || c.proc >= n_procs then
        invalid_arg
          (Printf.sprintf "Dist_runtime.run: crash of processor %d out of range"
             c.proc);
      if c.at < 0 then invalid_arg "Dist_runtime.run: negative crash slot";
      (match c.return_at with
      | Some r when r <= c.at ->
          invalid_arg "Dist_runtime.run: return_at must follow the crash"
      | _ -> ());
      if Hashtbl.mem seen c.proc then
        invalid_arg
          (Printf.sprintf "Dist_runtime.run: two crashes for processor %d"
             c.proc);
      Hashtbl.add seen c.proc ())
    crashes

let run ?crit ?(crashes = []) ?(net_faults = []) ?(policy = Failover)
    ?(heartbeat = Heartbeat.default) ~horizon (m : Model.t)
    (table : Mp.Contingency.table) =
  if horizon <= 0 then invalid_arg "Dist_runtime.run: horizon must be positive";
  let nominal = table.Mp.Contingency.nominal in
  let n_procs = nominal.Mp.Msched.partition.Mp.Partition.n_procs in
  validate_crashes ~n_procs crashes;
  let detection_bound = Heartbeat.detection_bound heartbeat in
  if detection_bound > table.Mp.Contingency.detect_bound then
    invalid_arg
      (Printf.sprintf
         "Dist_runtime.run: heartbeat detection bound %d exceeds the \
          contingency table's detect_bound %d"
         detection_bound table.Mp.Contingency.detect_bound);
  let alive proc t =
    not
      (List.exists
         (fun c ->
           c.proc = proc && c.at <= t
           && match c.return_at with None -> true | Some r -> t < r)
         crashes)
  in
  let crash_slot proc =
    match List.find_opt (fun c -> c.proc = proc) crashes with
    | Some c -> c.at
    | None -> 0
  in
  (* Margin: in-flight invocations (arrival < horizon) are replayed to
     the end of their windows. *)
  let margin =
    let of_result r =
      List.fold_left
        (fun acc p -> max acc (plan_deadline p))
        0 r.Mp.Msched.plans
    in
    Array.fold_left
      (fun acc -> function
        | Ok s -> max acc (of_result s.Mp.Contingency.result)
        | Error _ -> acc)
      (of_result nominal) table.Mp.Contingency.scenarios
  in
  let span = horizon + margin in
  let exec = Array.make_matrix n_procs span Schedule.Idle in
  let bus_log = Array.make span None in
  let bus_pending = ref [] in
  let retrans = ref 0 in
  let events = ref [] in
  let emit e = events := e :: !events in
  let switches = ref 0 in
  let current = ref Nominal in
  let pending_switch = ref None in
  let hb = Heartbeat.make heartbeat ~n_procs in
  let invs = ref [] in
  let level_of name =
    match crit with
    | None -> Criticality.High
    | Some a -> Criticality.level_of a name
  in
  let nominal_plans =
    List.map (fun (p : Mp.Decompose.plan) -> (p.constraint_name, p))
      nominal.Mp.Msched.plans
  in
  let next_release =
    List.map (fun (name, _) -> (name, ref 0)) nominal_plans
  in
  for t = 0 to span - 1 do
    (* 1. Physical crash / return instants (log only; the system learns
       of them through heartbeats). *)
    List.iter
      (fun c ->
        if c.at = t then emit (Crashed { proc = c.proc; at = t });
        match c.return_at with
        | Some r when r = t -> emit (Returned { proc = c.proc; at = t })
        | _ -> ())
      crashes;
    (* 2. Heartbeat monitoring and failover decisions. *)
    List.iter
      (function
        | Heartbeat.Died p -> (
            emit (Detected { proc = p; at = t; latency = t - crash_slot p });
            if policy = Failover then
              match !current with
              | Scenario q ->
                  emit
                    (Failover_unavailable
                       {
                         proc = p;
                         at = t;
                         reason =
                           Printf.sprintf
                             "already failed over for processor %d" q;
                       })
              | Nominal -> (
                  match table.Mp.Contingency.scenarios.(p) with
                  | Ok _ ->
                      pending_switch :=
                        Some
                          ( t + 1 + table.Mp.Contingency.migration,
                            Scenario p,
                            p )
                  | Error reason ->
                      emit (Failover_unavailable { proc = p; at = t; reason })))
        | Heartbeat.Recovered p -> (
            match !current with
            | Scenario q when q = p && policy = Failover ->
                pending_switch :=
                  Some (t + 1 + table.Mp.Contingency.migration, Nominal, p)
            | _ -> ()))
      (Heartbeat.observe hb ~t ~alive:(fun p -> alive p t));
    (* 3. Table swap: pending traffic of the old configuration is
       cleared so stale messages cannot steal verified bus slots. *)
    (match !pending_switch with
    | Some (s, target, proc) when s = t ->
        current := target;
        bus_pending := [];
        incr switches;
        (match target with
        | Scenario _ -> emit (Failover_complete { proc; at = t })
        | Nominal -> emit (Readmitted { proc; at = t }));
        pending_switch := None;
        (* The new table is verified for releases at absolute multiples
           of its plan periods; when a period changed (stretched
           degradation), the next release rounds up to the next
           verified phase.  High-criticality constraints are never
           stretched, so their rhythm is untouched. *)
        let cfg = result_of table target in
        List.iter
          (fun (name, next) ->
            List.iter
              (fun (p : Mp.Decompose.plan) ->
                if p.constraint_name = name then begin
                  let period = p.Mp.Decompose.period in
                  if !next mod period <> 0 then
                    next := ((!next / period) + 1) * period
                end)
              cfg.Mp.Msched.plans)
          next_release
    | _ -> ());
    let cfg = result_of table !current in
    (* 4. Releases: the plan in force governs the invocation's windows
       and its next release; shed constraints keep the nominal rhythm. *)
    if t < horizon then
      List.iter
        (fun (name, next) ->
          if !next = t then begin
            let cfg_plan =
              List.find_opt
                (fun (p : Mp.Decompose.plan) -> p.constraint_name = name)
                cfg.Mp.Msched.plans
            in
            match cfg_plan with
            | Some plan ->
                invs :=
                  {
                    p_name = name;
                    p_crit = level_of name;
                    p_arrival = t;
                    p_deadline = plan_deadline plan;
                    p_proc = plan_owner plan;
                    p_plan = Some plan;
                    p_msg_real = cfg.Mp.Msched.msg_cost;
                    p_config = !current;
                  }
                  :: !invs;
                List.iteri
                  (fun i (w : Mp.Decompose.windowed) ->
                    match w.Mp.Decompose.piece with
                    | Mp.Decompose.Message msg
                      when msg.cost > 0 && cfg.Mp.Msched.msg_cost > 0 ->
                        bus_pending :=
                          {
                            b_name = Printf.sprintf "%s@%d/%d" name t i;
                            b_release = t + w.Mp.Decompose.start_off;
                            b_deadline = t + w.Mp.Decompose.end_off;
                            b_src_proc =
                              cfg.Mp.Msched.partition.Mp.Partition.assignment
                                .(msg.src);
                            b_remaining = cfg.Mp.Msched.msg_cost;
                          }
                          :: !bus_pending
                    | _ -> ())
                  plan.Mp.Decompose.pieces;
                next := t + plan.Mp.Decompose.period
            | None ->
                let nom = List.assoc name nominal_plans in
                invs :=
                  {
                    p_name = name;
                    p_crit = level_of name;
                    p_arrival = t;
                    p_deadline = plan_deadline nom;
                    p_proc = plan_owner nom;
                    p_plan = None;
                    p_msg_real = 0;
                    p_config = !current;
                  }
                  :: !invs;
                next := t + nom.Mp.Decompose.period
          end)
        next_release;
    (* 5. Every live processor runs its slot of the table in force
       (absolute time modulo the table's hyperperiod: no phase
       alignment on swap). *)
    for p = 0 to n_procs - 1 do
      if alive p t then
        exec.(p).(t) <-
          Schedule.slot
            cfg.Mp.Msched.processor_schedules.(p)
            (t mod cfg.Mp.Msched.hyperperiod)
    done;
    (* 6. Bus: EDF over pending transmissions whose source is up; a
       faulty slot wastes the unit (ARQ retransmits). *)
    let ready =
      List.fold_left
        (fun acc it ->
          if
            it.b_remaining > 0 && it.b_release <= t && it.b_deadline > t
            && alive it.b_src_proc t
          then
            match acc with
            | Some best
              when (best.b_deadline, best.b_release, best.b_name)
                   <= (it.b_deadline, it.b_release, it.b_name) ->
                acc
            | _ -> Some it
          else acc)
        None !bus_pending
    in
    match ready with
    | None -> ()
    | Some it ->
        if Net_fault.faulty net_faults t then incr retrans
        else begin
          it.b_remaining <- it.b_remaining - 1;
          bus_log.(t) <- Some it.b_name
        end
  done;
  (* Evaluate every invocation against the realized logs, with the piece
     walk that bounds responses offline; past the span nothing runs. *)
  let slot proc t = if t < span then exec.(proc).(t) else Schedule.Idle in
  let bus t = if t < span then bus_log.(t) else None in
  let evaluate p =
    match p.p_plan with
    | None ->
        {
          constraint_name = p.p_name;
          criticality = p.p_crit;
          arrival = p.p_arrival;
          deadline = p.p_deadline;
          processor = p.p_proc;
          completion = None;
          response = None;
          met = false;
          shed = true;
          config = p.p_config;
        }
    | Some plan ->
        let completion, met =
          Mp.Msched.walk_pieces m.comm ~slot ~bus
            ~msg_slots:(fun _ -> p.p_msg_real)
            plan ~arrival:p.p_arrival
        in
        {
          constraint_name = p.p_name;
          criticality = p.p_crit;
          arrival = p.p_arrival;
          deadline = p.p_deadline;
          processor = p.p_proc;
          completion = (if met then Some completion else None);
          response = (if met then Some (completion - p.p_arrival) else None);
          met;
          shed = false;
          config = p.p_config;
        }
  in
  let invocations =
    List.rev_map evaluate !invs
    |> List.sort (fun a b ->
           compare (a.arrival, a.constraint_name) (b.arrival, b.constraint_name))
  in
  let realized =
    Array.map (fun row -> Schedule.of_slots (Array.to_list row)) exec
  in
  if Rt_obs.Tracer.enabled () then begin
    (* One virtual-time track per processor: the realized (post-failover)
       logs, with crash/detection/failover events flagged on the lane of
       the processor concerned. *)
    Array.iteri
      (fun p sched ->
        Obs_emit.track ~tid:p (Printf.sprintf "p%d" p);
        Obs_emit.schedule m.Model.comm sched ~tid:p
          ~horizon:(Schedule.length sched))
      realized;
    List.iter
      (fun ev ->
        let proc, at, label =
          match ev with
          | Crashed { proc; at } -> (proc, at, "crash")
          | Returned { proc; at } -> (proc, at, "return")
          | Detected { proc; at; latency } ->
              (proc, at, Printf.sprintf "detected(+%d)" latency)
          | Failover_complete { proc; at } -> (proc, at, "failover")
          | Failover_unavailable { proc; at; reason } ->
              (proc, at, "failover-unavailable:" ^ reason)
          | Readmitted { proc; at } -> (proc, at, "readmit")
        in
        Obs_emit.instant ~tid:proc ~at label)
      (List.rev !events)
  end;
  {
    invocations;
    events = List.rev !events;
    realized;
    bus_retransmissions = !retrans;
    misses =
      List.length
        (List.filter
           (fun (i : invocation) -> (not i.shed) && not i.met)
           invocations);
    shed =
      List.length (List.filter (fun (i : invocation) -> i.shed) invocations);
    config_switches = !switches;
    detection_bound;
    reconfig_bound = table.Mp.Contingency.reconfig_bound;
    final_config = !current;
  }

let pp_event fmt = function
  | Crashed { proc; at } ->
      Format.fprintf fmt "[%4d] processor %d crashed" at proc
  | Returned { proc; at } ->
      Format.fprintf fmt "[%4d] processor %d returned" at proc
  | Detected { proc; at; latency } ->
      Format.fprintf fmt "[%4d] crash of processor %d detected (latency %d)"
        at proc latency
  | Failover_complete { proc; at } ->
      Format.fprintf fmt
        "[%4d] failover complete: contingency table for processor %d in force"
        at proc
  | Failover_unavailable { proc; at; reason } ->
      Format.fprintf fmt "[%4d] no failover for processor %d: %s" at proc
        reason
  | Readmitted { proc; at } ->
      Format.fprintf fmt
        "[%4d] processor %d back: nominal table re-admitted" at proc

let pp_config_tag fmt = function
  | Nominal -> Format.pp_print_string fmt "nominal"
  | Scenario d -> Format.fprintf fmt "contingency(p%d)" d

let pp_report fmt r =
  let served =
    List.length
      (List.filter (fun (i : invocation) -> (not i.shed) && i.met) r.invocations)
  in
  Format.fprintf fmt
    "@[<v>invocations: %d (met %d, missed %d, shed %d)@,\
     bus retransmissions: %d@,\
     configuration switches: %d (final: %a)@,\
     detection bound: %d, reconfiguration bound: %d@,"
    (List.length r.invocations)
    served r.misses r.shed r.bus_retransmissions r.config_switches
    pp_config_tag r.final_config r.detection_bound r.reconfig_bound;
  List.iter (fun e -> Format.fprintf fmt "%a@," pp_event e) r.events;
  Format.fprintf fmt "@]"
