type t = { comm : Comm_graph.t; constraints : Timing.t list }

(* One walk over the constraints: each task graph is checked against
   [comm] once, and a valid set is built without a second pass. *)
let create ~comm ~constraints =
  let errs = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
  let seen = Hashtbl.create 16 in
  List.iter
    (fun (c : Timing.t) ->
      if Hashtbl.mem seen c.name then err "duplicate constraint name %s" c.name;
      Hashtbl.add seen c.name ();
      if Task_graph.size c.graph = 0 then
        err "constraint %s has an empty task graph" c.name;
      match Task_graph.compatible comm c.graph with
      | Error msg -> err "constraint %s: %s" c.name msg
      | Ok () ->
          List.iter
            (fun e ->
              if Comm_graph.weight comm e = 0 then
                err
                  "constraint %s uses element %s of weight 0 (executions \
                   would be instantaneous and unobservable)"
                  c.name
                  (Comm_graph.element comm e).Element.name)
            (Task_graph.elements_used c.graph))
    constraints;
  match !errs with [] -> Ok { comm; constraints } | es -> Error (List.rev es)

let validate ~comm ~constraints =
  Result.map ignore (create ~comm ~constraints)

let make ~comm ~constraints =
  match create ~comm ~constraints with
  | Ok t -> t
  | Error errs ->
      invalid_arg ("Model.make: " ^ String.concat "; " errs)

let periodic t = List.filter Timing.is_periodic t.constraints

let asynchronous t = List.filter Timing.is_asynchronous t.constraints

let find t name =
  match List.find_opt (fun (c : Timing.t) -> c.name = name) t.constraints with
  | Some c -> c
  | None -> raise Not_found

let utilization t =
  List.fold_left (fun acc c -> acc +. Timing.utilization t.comm c) 0.0
    t.constraints

let density t =
  List.fold_left (fun acc c -> acc +. Timing.density t.comm c) 0.0
    t.constraints

let theorem3_premises t =
  let errs = ref [] in
  let ratio_sum =
    List.fold_left
      (fun acc (c : Timing.t) ->
        acc
        +. float_of_int (Timing.computation_time t.comm c)
           /. float_of_int c.deadline)
      0.0 t.constraints
  in
  if ratio_sum > 0.5 +. 1e-9 then
    errs :=
      Printf.sprintf "(i) sum w_i/d_i = %.4f exceeds 1/2" ratio_sum :: !errs;
  List.iter
    (fun (c : Timing.t) ->
      let w = Timing.computation_time t.comm c in
      if (c.deadline + 1) / 2 < w then
        errs :=
          Printf.sprintf "(ii) constraint %s: ceil(d/2)=%d < w=%d" c.name
            ((c.deadline + 1) / 2)
            w
          :: !errs)
    t.constraints;
  if not (Comm_graph.all_pipelinable t.comm) then
    errs := "(iii) some functional element is not pipelinable" :: !errs;
  match !errs with [] -> Ok () | es -> Error (List.rev es)

let hyperperiod t =
  Rt_graph.Intmath.lcm_list
    (List.map (fun (c : Timing.t) -> c.period) (periodic t))

let elements_shared t =
  let users = Hashtbl.create 16 in
  List.iter
    (fun (c : Timing.t) ->
      List.iter
        (fun e ->
          let cur = Option.value ~default:[] (Hashtbl.find_opt users e) in
          Hashtbl.replace users e (c.name :: cur))
        (Task_graph.elements_used c.graph))
    t.constraints;
  Hashtbl.fold
    (fun e names acc ->
      if List.length names >= 2 then (e, List.rev names) :: acc else acc)
    users []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

let pp fmt t =
  Format.fprintf fmt "@[<v>%a@,constraints:@," Comm_graph.pp t.comm;
  List.iter (fun c -> Format.fprintf fmt "  %a@," Timing.pp c) t.constraints;
  Format.fprintf fmt "@]"
