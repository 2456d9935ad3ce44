type t = { comm : Comm_graph.t; constraints : Timing.t list }

(* [create] and [add] report these after the duplicate-name check. *)
let constraint_errors ~comm (c : Timing.t) =
  let errs = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
  if Task_graph.size c.graph = 0 then
    err "constraint %s has an empty task graph" c.name;
  (match Task_graph.compatible comm c.graph with
  | Error msg -> err "constraint %s: %s" c.name msg
  | Ok () ->
      List.iter
        (fun e ->
          if Comm_graph.weight comm e = 0 then
            err
              "constraint %s uses element %s of weight 0 (executions would \
               be instantaneous and unobservable)"
              c.name
              (Comm_graph.element comm e).Element.name)
        (Task_graph.elements_used c.graph));
  List.rev !errs

let duplicate (c : Timing.t) = "duplicate constraint name " ^ c.name

(* One walk over the constraints: each task graph is checked against
   [comm] once, and a valid set is built without a second pass. *)
let create ~comm ~constraints =
  let seen = Hashtbl.create 16 in
  let errs =
    List.concat_map
      (fun (c : Timing.t) ->
        let dup = Hashtbl.mem seen c.name in
        Hashtbl.add seen c.name ();
        (if dup then [ duplicate c ] else []) @ constraint_errors ~comm c)
      constraints
  in
  match errs with [] -> Ok { comm; constraints } | es -> Error es

let add t (c : Timing.t) =
  let dup =
    List.exists (fun (d : Timing.t) -> String.equal d.name c.name) t.constraints
  in
  match
    (if dup then [ duplicate c ] else []) @ constraint_errors ~comm:t.comm c
  with
  | [] -> Ok { t with constraints = t.constraints @ [ c ] }
  | es -> Error es

let remove t name =
  {
    t with
    constraints =
      List.filter (fun (c : Timing.t) -> c.name <> name) t.constraints;
  }

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

let theorem3_ratio comm (c : Timing.t) =
  float_of_int (Timing.computation_time comm c) /. float_of_int c.deadline

let theorem3_ratio_ok sum = not (sum > 0.5 +. 1e-9)

let theorem3_halving comm (c : Timing.t) =
  let w = Timing.computation_time comm c in
  if (c.deadline + 1) / 2 < w then
    Some
      (Printf.sprintf "(ii) constraint %s: ceil(d/2)=%d < w=%d" c.name
         ((c.deadline + 1) / 2)
         w)
  else None

let theorem3_premises t =
  let ratio_sum =
    List.fold_left (fun acc c -> acc +. theorem3_ratio t.comm c) 0.0
      t.constraints
  in
  let errs =
    (if theorem3_ratio_ok ratio_sum then []
     else [ Printf.sprintf "(i) sum w_i/d_i = %.4f exceeds 1/2" ratio_sum ])
    @ List.filter_map (theorem3_halving t.comm) t.constraints
    @
    if Comm_graph.all_pipelinable t.comm then []
    else [ "(iii) some functional element is not pipelinable" ]
  in
  match errs with [] -> Ok () | es -> Error es

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
