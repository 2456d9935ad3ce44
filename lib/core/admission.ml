type verdict = Guaranteed of string | Impossible of string | Inconclusive

let constraint_deadline comm (c : Timing.t) =
  let w = Timing.computation_time comm c in
  if w > c.deadline then
    Error
      (Printf.sprintf "constraint %s: computation time %d exceeds deadline %d"
         c.name w c.deadline)
  else
    let cp = Task_graph.critical_path comm c.graph in
    if cp > c.deadline then
      Error
        (Printf.sprintf "constraint %s: critical path %d exceeds deadline %d"
           c.name cp c.deadline)
    else Ok ()

let deadline_check (m : Model.t) =
  let rec go = function
    | [] -> Ok ()
    | c :: rest -> (
        match constraint_deadline m.comm c with
        | Ok () -> go rest
        | Error _ as e -> e)
  in
  go m.constraints

(* Two sound lower bounds on the long-run fraction of slots element e
   must occupy for a constraint (C, d) using it:

   - every window of d slots contains a complete execution of C and
     hence a complete instance of e (occ >= 1), so consecutive
     e-instances satisfy f_{k+1} <= s_k + d + 1: starts at most
     d + 1 - w_e apart, i.e. rate >= w_e / (d + 1 - w_e);
   - the execution's node matching is injective, so every window
     contains occ(e, C) complete distinct instances; disjoint windows
     use disjoint instances, giving rate >= occ * w_e / d. *)
let element_rates comm (c : Timing.t) =
  List.map
    (fun e ->
      let occ = Task_graph.occurrences c.graph e in
      let w = Comm_graph.weight comm e in
      let rate =
        match c.kind with
        | Timing.Asynchronous ->
            (* Every window of d slots needs the instances. *)
            let spacing =
              if c.deadline + 1 - w <= 0 then infinity
              else float_of_int w /. float_of_int (c.deadline + 1 - w)
            in
            let density = float_of_int (occ * w) /. float_of_int c.deadline in
            Float.max spacing density
        | Timing.Periodic ->
            (* Only the invocation windows [kp, kp+d] need them; for
               d <= p those windows are disjoint (one bundle of occ
               instances per period); for d > p an instance may serve
               several overlapping invocations. *)
            if c.deadline <= c.period then
              float_of_int (occ * w) /. float_of_int c.period
            else float_of_int (occ * w) /. float_of_int (c.period + c.deadline)
      in
      (e, rate))
    (Task_graph.elements_used c.graph)

(* Distinct executions (and distinct constraints) may share instances,
   so per element we take the MAX over constraints rather than the sum;
   summing over distinct elements is then sound.  The sum runs in
   ascending element order, so an index that keeps each element's
   maximum reproduces it bit for bit. *)
let rate_bound (m : Model.t) =
  let per_element = Array.make (Comm_graph.n_elements m.comm) 0.0 in
  List.iter
    (fun c ->
      List.iter
        (fun (e, rate) ->
          if rate > per_element.(e) then per_element.(e) <- rate)
        (element_rates m.comm c))
    m.constraints;
  Array.fold_left ( +. ) 0.0 per_element

let rate_check r =
  if r > 1.0 +. 1e-9 then
    Error
      (Printf.sprintf
         "element demand rate %.3f exceeds the processor (every element must \
          recur inside every deadline window)"
         r)
  else Ok ()

let necessary (m : Model.t) =
  match deadline_check m with
  | Error e -> Error e
  | Ok () -> rate_check (rate_bound m)

let demand_bound (m : Model.t) t =
  List.fold_left
    (fun acc (c : Timing.t) ->
      if Timing.is_periodic c && t >= c.deadline then
        acc
        + ((((t - c.deadline) / c.period) + 1)
          * Timing.computation_time m.comm c)
      else acc)
    0 m.constraints

let edf_periodic_applicable (m : Model.t) =
  Model.asynchronous m = []
  && Model.elements_shared m = []
  && List.for_all
       (fun (c : Timing.t) ->
         (* The certificate is realized by Edf_cyclic, which needs each
            job inside its own period slice; the demand-bound test
            below ignores offsets, which is conservative (synchronous
            release is the worst case). *)
         c.offset + c.deadline <= c.period)
       m.constraints
  && List.for_all
       (fun (c : Timing.t) ->
         List.for_all
           (fun e ->
             Comm_graph.weight m.comm e = 1 || Comm_graph.pipelinable m.comm e)
           (Task_graph.elements_used c.graph))
       m.constraints

let edf_periodic_feasible (m : Model.t) =
  (* Processor-demand criterion at every absolute deadline up to the
     hyperperiod plus the largest deadline. *)
  match Model.hyperperiod m with
  | exception Rt_graph.Intmath.Overflow -> false
  | hyper ->
      let max_d =
        List.fold_left
          (fun acc (c : Timing.t) -> max acc c.deadline)
          0 (Model.periodic m)
      in
      let bound = hyper + max_d in
      let points =
        List.concat_map
          (fun (c : Timing.t) ->
            let rec go t acc =
              if t > bound then acc else go (t + c.period) (t :: acc)
            in
            go c.deadline [])
          (Model.periodic m)
        |> List.sort_uniq Int.compare
      in
      List.for_all (fun t -> demand_bound m t <= t) points

(* Merge never rewrites an asynchronous constraint, so a model with one
   fails [edf_periodic_applicable] before and after merging: neither
   EDF test can fire, and the merge (which re-validates the whole
   model) is skipped. *)
let edf_sufficient (m : Model.t) =
  if List.exists Timing.is_asynchronous m.constraints then None
  else if edf_periodic_applicable m && edf_periodic_feasible m then
    Some "edf-periodic"
  else begin
    (* Shared elements defeat the direct EDF test, but merging
       same-period constraints removes the sharing while preserving
       soundness (a schedule for the merged model satisfies the
       original constraints). *)
    let merged, report = Merge.apply m in
    if
      report.Merge.merged_groups <> []
      && edf_periodic_applicable merged
      && edf_periodic_feasible merged
    then Some "edf-periodic-merged"
    else None
  end

let sufficient (m : Model.t) =
  if Theorem3.premises_hold m then Some "theorem3" else edf_sufficient m

let admit (m : Model.t) =
  match necessary m with
  | Error why -> Impossible why
  | Ok () -> (
      match sufficient m with
      | Some name -> Guaranteed name
      | None -> Inconclusive)
