open Rt_core

type policy =
  | Abort_job
  | Skip_next
  | Retry of { max_attempts : int; backoff : int }
  | Degrade_to of string

let pp_policy fmt = function
  | Abort_job -> Format.pp_print_string fmt "abort"
  | Skip_next -> Format.pp_print_string fmt "skip-next"
  | Retry { max_attempts; backoff } ->
      Format.fprintf fmt "retry(max %d, backoff %d)" max_attempts backoff
  | Degrade_to m -> Format.fprintf fmt "degrade-to %s" m

type event =
  | Overrun_detected of Watchdog.detection
  | Stall_killed of { elem : int; start : int; at : int }
  | Aborted of { elem : int; start : int; at : int; wasted : int }
  | Output_lost of { elem : int; start : int; at : int }
  | Retry_scheduled of { elem : int; at : int; attempt : int }
  | Gave_up of { elem : int; at : int }
  | Skip_scheduled of { elem : int; at : int }
  | Degraded of { at : int; to_mode : string }
  | Readmitted of { at : int }

type invocation = {
  constraint_name : string;
  criticality : Criticality.level;
  arrival : int;
  deadline : int;
  completion : int option;
  response : int option;
  met : bool;
  shed : bool;
  mode : string;
}

type report = {
  invocations : invocation list;
  events : event list;
  detections : Watchdog.detection list;
  executions : (int * int * int) list;
  misses : int;
  shed : int;
  mode_switches : int;
  degraded_slots : int;
  final_mode : string;
}

(* ------------------------------------------------------------------ *)
(* The replay engine                                                   *)
(* ------------------------------------------------------------------ *)

type exec = {
  e_start : int;
  e_demand : int;
  e_output : bool;
  mutable e_consumed : int;
  mutable e_nominal_finish : int option;
}

let find_constraint (m : Model.t) name =
  List.find_opt (fun (c : Timing.t) -> c.name = name) m.constraints

let run ?(crit = []) ?(faults = []) ?(policy = Abort_job)
    ?(watchdog = Watchdog.default_config) ?readmit_after ~horizon ~arrivals
    (modes : Modes.mode list) =
  (* -------------------------- validation ------------------------- *)
  let modes =
    match modes with
    | [] -> invalid_arg "Robust_runtime.run: no modes"
    | _ -> Array.of_list modes
  in
  let primary = modes.(0) in
  let m0 = primary.Modes.plan.Synthesis.model_used in
  let comm = m0.Model.comm in
  Array.iter
    (fun (md : Modes.mode) ->
      if not (Comm_graph.equal md.plan.Synthesis.model_used.Model.comm comm)
      then
        invalid_arg
          ("Robust_runtime.run: mode " ^ md.Modes.name
         ^ " uses a different communication graph"))
    modes;
  (match Timing_fault.validate comm faults with
  | Ok () -> ()
  | Error errs ->
      invalid_arg ("Robust_runtime.run: bad fault plan: " ^ List.hd errs));
  let target_mode =
    match policy with
    | Degrade_to name -> (
        match
          Array.to_list modes
          |> List.mapi (fun i md -> (i, md))
          |> List.find_opt (fun (_, (md : Modes.mode)) -> md.name = name)
        with
        | Some (i, _) when i > 0 -> Some i
        | Some _ ->
            invalid_arg "Robust_runtime.run: cannot degrade to the primary mode"
        | None ->
            invalid_arg ("Robust_runtime.run: unknown degraded mode " ^ name))
    | _ -> None
  in
  Arrivals.validate ~caller:"Robust_runtime.run" m0 ~horizon arrivals;
  let longest =
    Array.fold_left
      (fun acc (md : Modes.mode) ->
        let s = md.plan.Synthesis.schedule in
        if Schedule.length s > Schedule.length acc then s else acc)
      primary.Modes.plan.Synthesis.schedule modes
  in
  let readmit_after =
    match readmit_after with
    | Some k -> max 1 k
    | None -> 2 * Schedule.length longest
  in
  (* Margin so completions answering late arrivals stay observable even
     when overruns and recovery stretch the tail. *)
  let margin =
    List.fold_left
      (fun acc (c : Timing.t) ->
        max acc
          (Latency.analysis_horizon comm c.graph longest ~last_question:0))
      0 m0.Model.constraints
    + ((Timing_fault.max_extra faults + watchdog.Watchdog.stall_limit + 2)
      * 4)
  in
  let total = horizon + margin in
  (* ---------------------------- state ---------------------------- *)
  let n = Comm_graph.n_elements comm in
  let inflight : exec option array = Array.make n None in
  let cooldown = Array.make n 0 in
  let attempts = Array.make n 0 in
  let hog = ref (-1) in
  let mode_idx = ref 0 in
  let mode_of_slot = Array.make (total + 1) 0 in
  let last_dirty = ref 0 in
  let wd = Watchdog.create watchdog in
  let events = ref [] in
  let push ev = events := ev :: !events in
  let executions = ref [] in
  let mode_switches = ref 0 in
  let clear_partial_work () =
    Array.fill inflight 0 n None;
    Array.fill cooldown 0 n 0;
    hog := -1
  in
  let switch_to idx ~at:_ =
    clear_partial_work ();
    mode_idx := idx;
    incr mode_switches
  in
  let abort e (ex : exec) ~at =
    inflight.(e) <- None;
    if !hog = e then hog := -1;
    push (Aborted { elem = e; start = ex.e_start; at; wasted = ex.e_consumed })
  in
  let budget_of e = Comm_graph.weight comm e in
  (* Reaction shared by overruns (watchdog) and output losses
     (acceptance test at completion). *)
  let react_retry e ~at =
    if attempts.(e) >= (match policy with
                       | Retry { max_attempts; _ } -> max_attempts
                       | _ -> 0)
    then begin
      attempts.(e) <- 0;
      push (Gave_up { elem = e; at })
    end
    else begin
      attempts.(e) <- attempts.(e) + 1;
      (match policy with
      | Retry { backoff; _ } -> cooldown.(e) <- cooldown.(e) + backoff
      | _ -> ());
      push (Retry_scheduled { elem = e; at; attempt = attempts.(e) })
    end
  in
  let react_degrade ~at =
    match target_mode with
    | Some idx when !mode_idx <> idx ->
        switch_to idx ~at;
        push (Degraded { at; to_mode = modes.(idx).Modes.name });
        true
    | _ -> false
  in
  (* ------------------------- the slot loop ----------------------- *)
  for t = 0 to total - 1 do
    mode_of_slot.(t) <- !mode_idx;
    let md = modes.(!mode_idx) in
    let sched = md.Modes.plan.Synthesis.schedule in
    let now = t + 1 in
    let running =
      if !hog >= 0 then Some !hog
      else
        (* Tables are indexed by absolute time, as in a time-triggered
           cyclic executive with a global clock: each mode's cycle is
           the hyperperiod of its retained constraints, so their
           absolute periodic releases stay phase-aligned with the table
           no matter when the mode is entered — in particular the
           primary resumes in phase after re-admission. *)
        match Schedule.slot sched t with
        | Schedule.Idle -> None
        | Schedule.Run e ->
            if cooldown.(e) > 0 then begin
              cooldown.(e) <- cooldown.(e) - 1;
              None
            end
            else Some e
    in
    (match running with
    | None -> ()
    | Some e ->
        let ex =
          match inflight.(e) with
          | Some ex -> ex
          | None ->
              let weight = budget_of e in
              let ex =
                {
                  e_start = t;
                  e_demand =
                    Timing_fault.demand faults ~weight ~elem:e ~start:t;
                  e_output = Timing_fault.yields_output faults ~elem:e ~start:t;
                  e_consumed = 0;
                  e_nominal_finish = None;
                }
              in
              inflight.(e) <- Some ex;
              ex
        in
        ex.e_consumed <- ex.e_consumed + 1;
        if ex.e_consumed >= ex.e_demand then begin
          (* Completion. *)
          inflight.(e) <- None;
          if !hog = e then hog := -1;
          if ex.e_output then begin
            executions := (e, ex.e_start, now) :: !executions;
            attempts.(e) <- 0
          end
          else begin
            last_dirty := now;
            push (Output_lost { elem = e; start = ex.e_start; at = now });
            match policy with
            | Retry _ -> react_retry e ~at:now
            | Degrade_to _ -> ignore (react_degrade ~at:now)
            | Abort_job | Skip_next -> ()
          end
        end
        else begin
          if ex.e_consumed = budget_of e && ex.e_nominal_finish = None
          then begin
            (* Budget exhausted without completing: from here the job
               no longer yields at slot boundaries — it hogs the
               processor until it finishes or is killed. *)
            ex.e_nominal_finish <- Some now;
            hog := e
          end;
          match ex.e_nominal_finish with
          | None -> ()
          | Some nf -> (
              match
                Watchdog.check wd ~now ~elem:e ~start:ex.e_start
                  ~nominal_finish:nf ~consumed:ex.e_consumed
                  ~budget:(budget_of e)
              with
              | Watchdog.Clean -> ()
              | Watchdog.Stalled d ->
                  last_dirty := now;
                  push
                    (Stall_killed { elem = e; start = d.start; at = now });
                  abort e ex ~at:now
              | Watchdog.Detected d -> (
                  last_dirty := now;
                  push (Overrun_detected d);
                  match policy with
                  | Abort_job -> abort e ex ~at:now
                  | Skip_next ->
                      (* Tolerate the overrun to completion, then skip
                         the element's next execution to repay the
                         stolen slots. *)
                      cooldown.(e) <- cooldown.(e) + budget_of e;
                      push (Skip_scheduled { elem = e; at = now })
                  | Retry _ ->
                      abort e ex ~at:now;
                      react_retry e ~at:now
                  | Degrade_to _ ->
                      if not (react_degrade ~at:now) then abort e ex ~at:now))
        end);
    (* Re-admission to the primary mode after a quiet period. *)
    if !mode_idx <> 0 && now - !last_dirty >= readmit_after then begin
      switch_to 0 ~at:now;
      push (Readmitted { at = now })
    end
  done;
  mode_of_slot.(total) <- !mode_idx;
  (* ---------------------- invocation accounting ------------------ *)
  let executions = List.rev !executions in
  let trace = Trace.of_executions comm ~horizon:total executions in
  let invocation_of cache (c0 : Timing.t) arrival =
    let mode_i = mode_of_slot.(arrival) in
    let md = modes.(mode_i) in
    let level = Criticality.level_of crit c0.name in
    match find_constraint md.Modes.plan.Synthesis.model_used c0.name with
    | None ->
        {
          constraint_name = c0.name;
          criticality = level;
          arrival;
          deadline = c0.deadline;
          completion = None;
          response = None;
          met = false;
          shed = true;
          mode = md.Modes.name;
        }
    | Some c ->
        let completion = Latency.Cache.next_completion cache ~from:arrival in
        let response = Option.map (fun f -> f - arrival) completion in
        {
          constraint_name = c0.name;
          criticality = level;
          arrival;
          deadline = c.deadline;
          completion;
          response;
          met =
            (match response with Some r -> r <= c.deadline | None -> false);
          shed = false;
          mode = md.Modes.name;
        }
  in
  (* One search state per constraint, shared by all its invocations. *)
  let cache_of (c0 : Timing.t) = Latency.Cache.create comm c0.graph trace in
  let async_invocations =
    List.concat_map
      (fun (name, times) ->
        let c0 = Model.find m0 name in
        List.map (invocation_of (cache_of c0) c0) times)
      arrivals
  in
  let periodic_invocations =
    List.concat_map
      (fun (c0 : Timing.t) ->
        let cache = cache_of c0 in
        (* Releases are driven by the period in force at each release:
           a degraded mode that stretches the period slows the task
           down while it lasts. *)
        let rec go r acc =
          if r >= horizon then List.rev acc
          else
            let inv = invocation_of cache c0 r in
            let period =
              match
                find_constraint
                  modes.(mode_of_slot.(r)).Modes.plan.Synthesis.model_used
                  c0.name
              with
              | Some c -> c.period
              | None -> c0.period
            in
            go (r + period) (inv :: acc)
        in
        go c0.offset [])
      (Model.periodic m0)
  in
  let invocations =
    List.sort
      (fun a b ->
        compare (a.arrival, a.constraint_name) (b.arrival, b.constraint_name))
      (async_invocations @ periodic_invocations)
  in
  let misses =
    List.length (List.filter (fun (i : invocation) -> (not i.shed) && not i.met) invocations)
  in
  let shed = List.length (List.filter (fun (i : invocation) -> i.shed) invocations) in
  let degraded_slots = ref 0 in
  for t = 0 to horizon - 1 do
    if mode_of_slot.(t) <> 0 then incr degraded_slots
  done;
  if Rt_obs.Tracer.enabled () then begin
    (* Virtual-time Gantt of the realized (not nominal) execution log,
       with one flag per runtime event. *)
    Obs_emit.track ~tid:0 "cpu";
    Obs_emit.executions comm ~tid:0 executions;
    List.iter
      (fun ev ->
        let at, label =
          match ev with
          | Overrun_detected (d : Watchdog.detection) ->
              (d.detected_at, "overrun-detected")
          | Stall_killed { at; _ } -> (at, "stall-killed")
          | Aborted { at; _ } -> (at, "aborted")
          | Output_lost { at; _ } -> (at, "output-lost")
          | Retry_scheduled { at; _ } -> (at, "retry")
          | Gave_up { at; _ } -> (at, "gave-up")
          | Skip_scheduled { at; _ } -> (at, "skip")
          | Degraded { at; to_mode } -> (at, "degrade:" ^ to_mode)
          | Readmitted { at } -> (at, "readmit")
        in
        Obs_emit.instant ~tid:0 ~at label)
      (List.rev !events)
  end;
  {
    invocations;
    events = List.rev !events;
    detections = Watchdog.detections wd;
    executions;
    misses;
    shed;
    mode_switches = !mode_switches;
    degraded_slots = !degraded_slots;
    final_mode = modes.(mode_of_slot.(horizon)).Modes.name;
  }

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let elem_name comm e = (Comm_graph.element comm e).Element.name

let pp_event comm fmt = function
  | Overrun_detected d ->
      Format.fprintf fmt "t=%-4d overrun of %s (exec@%d) detected, latency %d"
        d.Watchdog.detected_at
        (elem_name comm d.Watchdog.elem)
        d.Watchdog.start d.Watchdog.latency
  | Stall_killed { elem; start; at } ->
      Format.fprintf fmt "t=%-4d stalled %s (exec@%d) killed" at
        (elem_name comm elem) start
  | Aborted { elem; start; at; wasted } ->
      Format.fprintf fmt "t=%-4d aborted %s (exec@%d, %d slot(s) wasted)" at
        (elem_name comm elem) start wasted
  | Output_lost { elem; start; at } ->
      Format.fprintf fmt "t=%-4d %s (exec@%d) completed without output" at
        (elem_name comm elem) start
  | Retry_scheduled { elem; at; attempt } ->
      Format.fprintf fmt "t=%-4d retry %d of %s scheduled" at attempt
        (elem_name comm elem)
  | Gave_up { elem; at } ->
      Format.fprintf fmt "t=%-4d gave up retrying %s" at (elem_name comm elem)
  | Skip_scheduled { elem; at } ->
      Format.fprintf fmt "t=%-4d next execution of %s will be skipped" at
        (elem_name comm elem)
  | Degraded { at; to_mode } ->
      Format.fprintf fmt "t=%-4d MODE SWITCH -> %s" at to_mode
  | Readmitted { at } ->
      Format.fprintf fmt "t=%-4d MODE SWITCH -> primary (re-admitted)" at

let pp_report comm fmt r =
  Format.fprintf fmt
    "@[<v>invocations: %d, misses: %d, shed: %d, mode switches: %d, degraded \
     slots: %d, final mode: %s@,"
    (List.length r.invocations)
    r.misses r.shed r.mode_switches r.degraded_slots r.final_mode;
  List.iter (fun ev -> Format.fprintf fmt "%a@," (pp_event comm) ev) r.events;
  Format.fprintf fmt "@]"
