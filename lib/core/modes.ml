type mode = {
  name : string;
  threshold : Criticality.level;
  model : Model.t;
  plan : Synthesis.plan;
  dropped : string list;
  stretched : (string * int * int) list;
}

type derivation = { stretch : int; max_hyperperiod : int }

let default_derivation = { stretch = 1; max_hyperperiod = 1_000_000 }

let stretch_constraint ~factor (c : Timing.t) =
  if factor <= 1 then (c, None)
  else
    match c.kind with
    | Timing.Periodic ->
        let c' =
          Timing.make ~name:c.name ~graph:c.graph
            ~period:(c.period * factor)
            ~deadline:(c.deadline * factor)
            ~kind:Timing.Periodic
        in
        let c' =
          if c.offset = 0 then c' else Timing.with_offset c' (c.offset * factor)
        in
        (c', Some (c.name, c.period, c.period * factor))
    | Timing.Asynchronous ->
        (* The environment's invocation rate is not ours to slow down:
           the minimum separation is kept, only the promised deadline is
           relaxed. *)
        let c' =
          Timing.make ~name:c.name ~graph:c.graph ~period:c.period
            ~deadline:(c.deadline * factor)
            ~kind:Timing.Asynchronous
        in
        (c', Some (c.name, c.deadline, c.deadline * factor))

let degraded_constraints ?(derivation = default_derivation) (m : Model.t)
    assignment ~threshold =
  let dropped = ref [] and stretched = ref [] in
  let kept =
    List.filter_map
      (fun (c : Timing.t) ->
        let level = Criticality.level_of assignment c.name in
        if not (Criticality.at_least level threshold) then begin
          dropped := c.name :: !dropped;
          None
        end
        else if Criticality.at_least level Criticality.High then Some c
        else begin
          let c', note = stretch_constraint ~factor:derivation.stretch c in
          Option.iter (fun n -> stretched := n :: !stretched) note;
          Some c'
        end)
      m.constraints
  in
  (kept, List.rev !dropped, List.rev !stretched)

let synthesize_mode ~name ~threshold (m : Model.t) constraints ~dropped
    ~stretched ~max_hyperperiod =
  if constraints = [] then
    Error (Printf.sprintf "mode %s retains no constraint" name)
  else
    match Model.create ~comm:m.comm ~constraints with
    | Error errs ->
        Error
          (Printf.sprintf "mode %s is invalid: %s" name
             (String.concat "; " errs))
    | Ok model -> (
        (* Merging renames constraints and pipelining rewrites the
           communication graph; both would break the identity of
           elements and constraints that fault plans, criticality
           assignments and watchdog reports rely on, so mode schedules
           are synthesized with the model exactly as written. *)
        match
          Synthesis.synthesize ~merge:false ~pipeline:false ~max_hyperperiod
            model
        with
        | Error e ->
            Error
              (Format.asprintf "mode %s does not synthesize: %a" name
                 Synthesis.pp_error e)
        | Ok plan -> Ok { name; threshold; model; plan; dropped; stretched })

let primary ?(derivation = default_derivation) (m : Model.t) =
  synthesize_mode ~name:"primary" ~threshold:Criticality.Low m m.constraints
    ~dropped:[] ~stretched:[] ~max_hyperperiod:derivation.max_hyperperiod

let degrade ?(derivation = default_derivation) (m : Model.t) assignment
    ~threshold =
  let kept, dropped, stretched =
    degraded_constraints ~derivation m assignment ~threshold
  in
  let name = "degraded-" ^ Criticality.level_to_string threshold in
  synthesize_mode ~name ~threshold m kept ~dropped ~stretched
    ~max_hyperperiod:derivation.max_hyperperiod

let derive ?(derivation = default_derivation) (m : Model.t) assignment =
  match primary ~derivation m with
  | Error e -> Error e
  | Ok prim ->
      let rec go acc = function
        | [] -> Ok (prim :: List.rev acc)
        | threshold :: rest -> (
            let kept, dropped, stretched =
              degraded_constraints ~derivation m assignment ~threshold
            in
            if dropped = [] && stretched = [] then go acc rest
            else
              let name =
                "degraded-" ^ Criticality.level_to_string threshold
              in
              match
                synthesize_mode ~name ~threshold m kept ~dropped ~stretched
                  ~max_hyperperiod:derivation.max_hyperperiod
              with
              | Error e -> Error e
              | Ok mode -> go (mode :: acc) rest)
      in
      go [] [ Criticality.Medium; Criticality.High ]

let find modes name = List.find_opt (fun md -> md.name = name) modes

let of_schedule ?(name = "primary") (m : Model.t) sched =
  match Schedule.validate m.Model.comm sched with
  | Error errs ->
      Error
        (Printf.sprintf "mode %s: ill-formed schedule: %s" name
           (String.concat "; " errs))
  | Ok () ->
      Ok
        {
          name;
          threshold = Criticality.Low;
          model = m;
          plan =
            {
              Synthesis.model_used = m;
              schedule = sched;
              verdicts = Latency.verify m sched;
              merge_report = None;
              polling = [];
              hyperperiod = Schedule.length sched;
            };
          dropped = [];
          stretched = [];
        }

(* ------------------------------------------------------------------ *)
(* Mode-change protocol: the analyzed transition bound                 *)
(* ------------------------------------------------------------------ *)

let transition_slots ~check_period =
  if check_period <= 0 then invalid_arg "Modes.transition_slots: period <= 0";
  (* Worst-case slots from an overrun coming into existence (the
     nominal completion instant passing without completion) to the
     degraded schedule being in force: the watchdog observes the
     violation at its next check instant (up to [check_period - 1]
     slots later) and the new table takes effect at the following slot
     boundary (one more slot). *)
  check_period

let admits_transition ~check_period mode =
  let bound = transition_slots ~check_period in
  let bad =
    List.filter_map
      (fun (v : Latency.verdict) ->
        match v.achieved with
        | None ->
            Some
              (Printf.sprintf "%s: unbounded response in mode %s"
                 v.constraint_name mode.name)
        | Some k ->
            if k + bound <= v.bound then None
            else
              Some
                (Printf.sprintf
                   "%s: response %d + transition %d exceeds deadline %d"
                   v.constraint_name k bound v.bound))
      mode.plan.Synthesis.verdicts
  in
  if bad = [] then Ok () else Error bad

let pp fmt mode =
  Format.fprintf fmt
    "@[<v>mode %s (threshold %a): %d constraint(s), cycle %d@,"
    mode.name Criticality.pp_level mode.threshold
    (List.length mode.model.Model.constraints)
    (Schedule.length mode.plan.Synthesis.schedule);
  if mode.dropped <> [] then
    Format.fprintf fmt "  shed: %s@," (String.concat " " mode.dropped);
  List.iter
    (fun (name, before, after) ->
      Format.fprintf fmt "  stretched %s: %d -> %d@," name before after)
    mode.stretched;
  Format.fprintf fmt "@]"
