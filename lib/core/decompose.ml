(* Interaction-component decomposition.

   The interaction graph is bipartite (constraints on one side, the
   functional elements their task graphs touch on the other); two
   constraints are coupled iff they are connected in it, i.e. iff their
   element sets intersect transitively.  A tiny union-find over element
   ids computes the components in near-linear time; constraint grouping
   then follows from each constraint's first element.

   Everything here is untrusted machinery: the interleave can fail or
   (in principle) mis-space a component's executions, so callers always
   check the merged schedule against the whole model (Synthesis
   verifies it, the daemon Engine certifies it) and fall back to the
   undecomposed path.  The
   only verdict taken at face value is a component's exact
   infeasibility, which transfers to the whole model because the
   component's constraints are a subset of it. *)

module Perf = Rt_par.Perf

type component = {
  rank : int;
  indices : int list;
  constraints : Timing.t list;
  elements : int list;
}

(* ------------------------------------------------------------------ *)
(* Union-find over element ids.                                       *)
(* ------------------------------------------------------------------ *)

let components (m : Model.t) =
  let n = Comm_graph.n_elements m.Model.comm in
  let parent = Array.init n Fun.id in
  let rec find x =
    if parent.(x) = x then x
    else begin
      let r = find parent.(x) in
      parent.(x) <- r;
      r
    end
  in
  let union a b =
    let ra = find a and rb = find b in
    if ra <> rb then parent.(max ra rb) <- min ra rb
  in
  List.iter
    (fun (c : Timing.t) ->
      match Task_graph.elements_used c.graph with
      | [] -> () (* Model.make rejects empty task graphs *)
      | e :: rest -> List.iter (union e) rest)
    m.Model.constraints;
  (* Group constraints by the root of their first element, preserving
     declaration order within each group; components are then ordered by
     the index of their first constraint. *)
  let groups = Hashtbl.create 16 in
  let order = ref [] in
  List.iteri
    (fun i (c : Timing.t) ->
      let root = find (List.hd (Task_graph.elements_used c.graph)) in
      match Hashtbl.find_opt groups root with
      | Some cell -> cell := (i, c) :: !cell
      | None ->
          let cell = ref [ (i, c) ] in
          Hashtbl.replace groups root cell;
          order := root :: !order)
    m.Model.constraints;
  List.rev !order
  |> List.mapi (fun rank root ->
         let members = List.rev !(Hashtbl.find groups root) in
         let elements =
           List.concat_map
             (fun (_, (c : Timing.t)) -> Task_graph.elements_used c.graph)
             members
           |> List.sort_uniq Int.compare
         in
         {
           rank;
           indices = List.map fst members;
           constraints = List.map snd members;
           elements;
         })

let submodel (m : Model.t) comp =
  Model.make ~comm:m.Model.comm ~constraints:comp.constraints

let representatives (m : Model.t) =
  (* Min-deadline dominance within a (kind, period, offset, graph)
     class: satisfying the tightest deadline satisfies every looser one
     over the same windows.  The survivor is an actual constraint of the
     model (no synthetic constraints), kept at its class's first
     position so output order is stable. *)
  let best = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (fun (c : Timing.t) ->
      let k = (c.kind, c.period, c.offset, Task_graph.signature c.graph) in
      match Hashtbl.find_opt best k with
      | None ->
          Hashtbl.replace best k c;
          order := k :: !order
      | Some (kept : Timing.t) ->
          if c.deadline < kept.deadline then Hashtbl.replace best k c)
    m.Model.constraints;
  let constraints = List.rev_map (Hashtbl.find best) !order in
  let dropped = List.length m.Model.constraints - List.length constraints in
  if dropped = 0 then (m, 0)
  else (Model.make ~comm:m.Model.comm ~constraints, dropped)

(* ------------------------------------------------------------------ *)
(* Interleaving component schedules.                                  *)
(* ------------------------------------------------------------------ *)

(* Cap on the merged cycle: mirrors Synthesis's default max_hyperperiod
   so a pathological lcm fails fast instead of allocating a huge
   array. *)
let max_interleave_cycle = 1 lsl 20

let interleave comm scheds =
  match scheds with
  | [] -> Error "interleave: no component schedules"
  | [ s ] -> Ok s
  | _ -> (
      match
        Rt_graph.Intmath.lcm_list (List.map Schedule.length scheds)
      with
      | exception Rt_graph.Intmath.Overflow ->
          Error "interleave: lcm of component cycle lengths overflows"
      | l when l > max_interleave_cycle ->
          Error
            (Printf.sprintf
               "interleave: merged cycle length %d exceeds the cap %d" l
               max_interleave_cycle)
      | l -> (
          let merged = Array.make l Schedule.Idle in
          let idle_at p = merged.(p) = Schedule.Idle in
          (* First position >= [from] where [len] contiguous idle slots
             fit without wrapping, or None.  Blocks are never placed
             before [from], so within one component the placed order
             matches the native order (executions keep their relative
             sequence, which matters for multi-element task graphs). *)
          let find_fit ~from ~len =
            let rec scan p =
              if p + len > l then None
              else begin
                let rec run k = k >= len || (idle_at (p + k) && run (k + 1)) in
                if run 0 then Some p else scan (p + 1)
              end
            in
            scan from
          in
          let exception No_fit of int in
          match
            List.iter
              (fun sched ->
                let slots = Schedule.unroll sched l in
                let cursor = ref 0 in
                let i = ref 0 in
                while !i < l do
                  match slots.(!i) with
                  | Schedule.Idle -> incr i
                  | Schedule.Run e ->
                      let j = ref !i in
                      while
                        !j < l
                        &&
                        match slots.(!j) with
                        | Schedule.Run e' -> e' = e
                        | Schedule.Idle -> false
                      do
                        incr j
                      done;
                      let len = !j - !i in
                      (match find_fit ~from:(max !i !cursor) ~len with
                      | None -> raise (No_fit e)
                      | Some p ->
                          Array.fill merged p len (Schedule.Run e);
                          cursor := p + len);
                      i := !j
                done)
              scheds
          with
          | exception No_fit e ->
              Error
                (Printf.sprintf
                   "interleave: no idle run for an execution block of \
                    element %d"
                   e)
          | () -> (
              let s = Schedule.of_array merged in
              match Schedule.validate comm s with
              | Ok () -> Ok s
              | Error errs ->
                  Error ("interleave: " ^ String.concat "; " errs))))

(* ------------------------------------------------------------------ *)
(* The generic fan-out driver.                                        *)
(* ------------------------------------------------------------------ *)

let largest_gauge = Rt_obs.Metrics.gauge "decompose/largest_component"
let solve_us = Rt_obs.Metrics.histogram "decompose/solve_us"

let account_pass sizes =
  Rt_obs.Metrics.add Perf.decompose_components (List.length sizes);
  Rt_obs.Metrics.set largest_gauge (List.fold_left max 0 sizes)

let run_component f =
  Rt_obs.Tracer.span ~cat:"decompose" "decompose/component" (fun () ->
      Rt_obs.Metrics.time solve_us f)

let map_components ?pool ~solve (m : Model.t) comps =
  account_pass (List.map (fun c -> List.length c.constraints) comps);
  let tasks =
    Array.of_list
      (List.map (fun c -> (fst (representatives (submodel m c)), c)) comps)
  in
  let run (sub, c) = run_component (fun () -> solve ~sub c) in
  match pool with
  | Some p when Rt_par.Pool.jobs p > 1 && Array.length tasks > 1 ->
      Array.to_list (Rt_par.Pool.parallel_map p run tasks)
  | _ -> Array.to_list (Array.map run tasks)
