open Rt_core

let constraint_decl comm (c : Ast.constraint_decl) =
  let errs = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
  let resolve name =
    match Comm_graph.find_opt comm name with
    | Some e -> Some e.Element.id
    | None ->
        err "constraint %s: unknown element %s" c.co_name name;
        None
  in
  let named = List.concat c.co_chains |> List.sort_uniq String.compare in
  let resolved = List.filter_map resolve named in
  let built =
    if List.length resolved <> List.length named then None
    else begin
      let nodes = Array.of_list resolved in
      let index = Hashtbl.create 8 in
      Array.iteri (fun i e -> Hashtbl.replace index e i) nodes;
      let edge_list = ref [] in
      List.iter
        (fun chain ->
          let rec walk = function
            | a :: (b :: _ as rest) ->
                let ia = Hashtbl.find index (Comm_graph.id_of_name comm a)
                and ib = Hashtbl.find index (Comm_graph.id_of_name comm b) in
                edge_list := (ia, ib) :: !edge_list;
                walk rest
            | _ -> ()
          in
          walk chain)
        c.co_chains;
      match
        Task_graph.create ~nodes ~edges:(List.sort_uniq compare !edge_list)
      with
      | exception Invalid_argument msg ->
          err "constraint %s: %s" c.co_name msg;
          None
      | graph -> (
          let kind =
            match c.co_kind with
            | Ast.K_periodic -> Timing.Periodic
            | Ast.K_asynchronous -> Timing.Asynchronous
          in
          match
            let t =
              Timing.make ~name:c.co_name ~graph ~period:c.co_period
                ~deadline:c.co_deadline ~kind
            in
            if c.co_offset = 0 then t else Timing.with_offset t c.co_offset
          with
          | t -> Some t
          | exception Invalid_argument msg ->
              err "constraint %s: %s" c.co_name msg;
              None)
    end
  in
  match built with Some t -> Ok t | None -> Error (List.rev !errs)

let add_constraint (m : Model.t) c =
  Result.bind (constraint_decl m.comm c) (Model.add m)

let elaborate (sys : Ast.system) =
  let errs = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
  let elements =
    List.map
      (fun (e : Ast.element_decl) -> (e.el_name, e.el_weight, e.el_pipelinable))
      sys.sy_elements
  in
  let edges =
    List.map (fun (e : Ast.edge_decl) -> (e.ed_src, e.ed_dst)) sys.sy_edges
  in
  match Comm_graph.create ~elements ~edges with
  | exception Invalid_argument msg -> Error [ msg ]
  | comm ->
      let constraints =
        List.filter_map
          (fun c ->
            match constraint_decl comm c with
            | Ok t -> Some t
            | Error es ->
                errs := List.rev_append es !errs;
                None)
          sys.sy_constraints
      in
      (* Validate assert declarations against the communication graph. *)
      List.iter
        (fun (a : Ast.assert_decl) ->
          match (Comm_graph.find_opt comm a.as_src, Comm_graph.find_opt comm a.as_dst) with
          | Some u, Some v ->
              if not (Comm_graph.has_edge comm u.Element.id v.Element.id) then
                err "assert %s -> %s: no such communication edge" a.as_src
                  a.as_dst;
              if a.as_lo > a.as_hi then
                err "assert %s -> %s: empty interval [%d, %d]" a.as_src
                  a.as_dst a.as_lo a.as_hi
          | None, _ -> err "assert: unknown element %s" a.as_src
          | _, None -> err "assert: unknown element %s" a.as_dst)
        sys.sy_asserts;
      if !errs <> [] then Error (List.rev !errs)
      else Model.create ~comm ~constraints

let elaborate_exn sys =
  match elaborate sys with
  | Ok m -> m
  | Error errs -> invalid_arg (String.concat "; " errs)

let load src =
  match Parser.parse_result src with
  | Error e -> Error [ e ]
  | Ok sys -> elaborate sys

let load_with_assertions src =
  match Parser.parse_result src with
  | Error e -> Error [ e ]
  | Ok sys -> (
      match elaborate sys with
      | Error es -> Error es
      | Ok m ->
          Ok
            ( m,
              List.map
                (fun (a : Ast.assert_decl) ->
                  ( a.as_src,
                    a.as_dst,
                    float_of_int a.as_lo,
                    float_of_int a.as_hi ))
                sys.sy_asserts ))
