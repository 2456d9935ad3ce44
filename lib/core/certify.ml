module Certificate = Rt_check.Certificate

let exec_of_assignment tg assignment : Certificate.exec =
  let x = Array.make (Task_graph.size tg) (0, 0) in
  List.iter
    (fun (v, (inst : Trace.instance)) ->
      x.(v) <- (inst.Trace.start, inst.Trace.finish))
    assignment;
  x

let exec_start (x : Certificate.exec) =
  Array.fold_left (fun a (s, _) -> min a s) max_int x

(* Invocation phases of a periodic constraint repeat with
   lcm(period, cycle); [None] when that overflows or exceeds
   [Trace.max_horizon]. *)
let super_of cycle (c : Timing.t) =
  match Rt_graph.Intmath.lcm c.Timing.period cycle with
  | s when s <= Trace.max_horizon -> Some s
  | _ | (exception Rt_graph.Intmath.Overflow) -> None

let schedule (m : Model.t) (l : Schedule.t) =
  match Schedule.validate m.Model.comm l with
  | Error es -> Error (String.concat "; " es)
  | Ok () -> (
      let g = m.Model.comm in
      let cycle = Schedule.length l in
      (* [Some (reach, limit)]: one past the last window end of the
         constraint, and its analysis horizon.  A window [t, t + d) is
         searched no further than [limit]: the earliest execution from
         any window start lies within it (see
         [Latency.analysis_horizon]), so the clamp changes no witness,
         and a long deadline does not make the trace long. *)
      let bounds (c : Timing.t) =
        let d = c.Timing.deadline in
        let limit last_question =
          Latency.analysis_horizon g c.Timing.graph l ~last_question
        in
        match c.Timing.kind with
        | Timing.Asynchronous -> Some (cycle + (2 * d) + 1, limit cycle)
        | Timing.Periodic ->
            Option.map
              (fun super -> (super + d + 1, limit super))
              (super_of cycle c)
      in
      let horizon =
        List.fold_left
          (fun acc c ->
            match bounds c with
            | Some (reach, limit) -> max acc (min reach limit)
            | None -> acc)
          cycle m.Model.constraints
      in
      if horizon > Trace.max_horizon then
        Error
          (Printf.sprintf
             "analysis horizon of %d slots exceeds %d; cannot certify" horizon
             Trace.max_horizon)
      else
        let tr = Trace.of_schedule g l ~horizon in
        let witness (c : Timing.t) =
          let d = c.Timing.deadline in
          let tg = c.Timing.graph in
          let t1 =
            match bounds c with
            | Some (_, limit) -> fun t -> min (t + d) limit
            | None -> fun t -> t + d
          in
          match c.Timing.kind with
          | Timing.Asynchronous ->
              (* Greedy covering chain: the execution witnessing window
                 start [t] has start [s >= t]; the next uncovered window
                 start is [s + 1]. *)
              let rec chain acc t =
                match Latency.executes_within g tg tr ~t0:t ~t1:(t1 t) with
                | None ->
                    Error
                      (Printf.sprintf
                         "constraint %s: no execution inside window [%d,%d)"
                         c.Timing.name t (t + d))
                | Some assignment ->
                    let x = exec_of_assignment tg assignment in
                    let s = exec_start x in
                    if s >= cycle - 1 then Ok (List.rev (x :: acc))
                    else chain (x :: acc) (s + 1)
              in
              Result.map (fun es -> Certificate.Async es) (chain [] 0)
          | Timing.Periodic -> (
              match super_of cycle c with
              | None ->
                  Error
                    (Printf.sprintf
                       "constraint %s: lcm(period, cycle) overflows or exceeds \
                        %d; cannot certify"
                       c.Timing.name Trace.max_horizon)
              | Some super ->
                  let n_inv = super / c.Timing.period in
                  let execs = Array.make n_inv [||] in
                  let rec fill k =
                    if k >= n_inv then Ok (Certificate.Periodic execs)
                    else
                      let t = c.Timing.offset + (k * c.Timing.period) in
                      match Latency.executes_within g tg tr ~t0:t ~t1:(t1 t) with
                      | None ->
                          Error
                            (Printf.sprintf
                               "constraint %s: invocation at %d misses its \
                                deadline %d"
                               c.Timing.name t d)
                      | Some assignment ->
                          execs.(k) <- exec_of_assignment tg assignment;
                          fill (k + 1)
                  in
                  fill 0)
        in
        (* A witness depends on the constraint's latency class and
           deadline only, so constraints sharing both share one; the
           first of them to fail names itself in the error. *)
        let shared = Hashtbl.create 64 in
        let rec all acc = function
          | [] -> Ok (List.rev acc)
          | (c : Timing.t) :: rest -> (
              let key = (Timing.latency_class c, c.Timing.deadline) in
              match Hashtbl.find_opt shared key with
              | Some w -> all ((c.Timing.name, w) :: acc) rest
              | None -> (
                  match witness c with
                  | Ok w ->
                      Hashtbl.add shared key w;
                      all ((c.Timing.name, w) :: acc) rest
                  | Error e -> Error e))
        in
        match all [] m.Model.constraints with
        | Ok witnesses -> Ok (Certificate.make m l witnesses)
        | Error e -> Error e)

let plan (p : Synthesis.plan) = schedule p.Synthesis.model_used p.Synthesis.schedule
