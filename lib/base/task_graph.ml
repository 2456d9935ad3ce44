module Digraph = Rt_graph.Digraph

(* [signature] is rendered on first read and memoised here ([""] until
   then; a rendering is never empty).  Two domains may render it at
   once: both write equal strings, so the race is benign, which a
   [Lazy.t] forced from two domains at once would not be. *)
type t = {
  node_elems : int array;
  graph : Digraph.t;
  mutable signature : string;
}

(* Nodes as declared, then the edge set (Digraph.edges is sorted). *)
let render node_elems graph =
  let b = Buffer.create 32 in
  let add_int = Rt_graph.Intmath.add_decimal b in
  Array.iteri
    (fun v e ->
      if v > 0 then Buffer.add_char b ',';
      add_int e)
    node_elems;
  Buffer.add_char b '/';
  List.iter
    (fun (u, v) ->
      add_int u;
      Buffer.add_char b '>';
      add_int v;
      Buffer.add_char b ';')
    (Digraph.edges graph);
  Buffer.contents b

let make node_elems graph = { node_elems; graph; signature = "" }

let create ~nodes ~edges =
  let n = Array.length nodes in
  Array.iter
    (fun e -> if e < 0 then invalid_arg "Task_graph.create: negative element id")
    nodes;
  let graph = Digraph.create ~n ~edges in
  if not (Digraph.is_acyclic graph) then
    invalid_arg "Task_graph.create: precedence relation is cyclic";
  make (Array.copy nodes) graph

let of_chain elems =
  let nodes = Array.of_list elems in
  let n = Array.length nodes in
  let edges = List.init (max 0 (n - 1)) (fun i -> (i, i + 1)) in
  create ~nodes ~edges

let singleton e = create ~nodes:[| e |] ~edges:[]

let size t = Array.length t.node_elems

let element_of_node t v =
  if v < 0 || v >= size t then invalid_arg "Task_graph.element_of_node";
  t.node_elems.(v)

let node_elements t = Array.copy t.node_elems

let graph t = t.graph

let signature t =
  match t.signature with
  | "" ->
      let s = render t.node_elems t.graph in
      t.signature <- s;
      s
  | s -> s

let edges t = Digraph.edges t.graph

let topological_order t =
  match Digraph.topological_sort t.graph with
  | Some order -> order
  | None -> assert false (* acyclicity enforced at construction *)

let elements_used t =
  Array.to_list t.node_elems |> List.sort_uniq Int.compare

let occurrences t e =
  Array.fold_left (fun acc x -> if x = e then acc + 1 else acc) 0 t.node_elems

let computation_time g t =
  Array.fold_left (fun acc e -> acc + Comm_graph.weight g e) 0 t.node_elems

let critical_path g t =
  Digraph.longest_path t.graph ~weight:(fun v ->
      Comm_graph.weight g t.node_elems.(v))

let compatible g t =
  let n_elems = Comm_graph.n_elements g in
  let bad_node =
    Array.to_list t.node_elems
    |> List.mapi (fun v e -> (v, e))
    |> List.find_opt (fun (_, e) -> e < 0 || e >= n_elems)
  in
  match bad_node with
  | Some (v, e) ->
      Error
        (Printf.sprintf "task-graph node %d maps to unknown element %d" v e)
  | None ->
      let bad_edge =
        List.find_opt
          (fun (u, v) ->
            not (Comm_graph.has_edge g t.node_elems.(u) t.node_elems.(v)))
          (edges t)
      in
      (match bad_edge with
      | Some (u, v) ->
          Error
            (Printf.sprintf
               "task-graph edge %d->%d has no matching communication edge \
                %s->%s"
               u v
               (Comm_graph.element g t.node_elems.(u)).Element.name
               (Comm_graph.element g t.node_elems.(v)).Element.name)
      | None -> Ok ())

let is_chain t = Digraph.is_chain t.graph

let straight_line t = List.map (fun v -> t.node_elems.(v)) (topological_order t)

let map_elements t ~f = make (Array.map f t.node_elems) t.graph

let disjoint_union a b =
  let na = size a and nb = size b in
  let nodes = Array.append a.node_elems b.node_elems in
  let map_a = Array.init na Fun.id in
  let map_b = Array.init nb (fun i -> na + i) in
  let edges =
    edges a @ List.map (fun (u, v) -> (na + u, na + v)) (edges b)
  in
  (create ~nodes ~edges, map_a, map_b)

let equal a b =
  a.node_elems = b.node_elems && Digraph.equal a.graph b.graph

let pp fmt t =
  Format.fprintf fmt "nodes=[%a] %a"
    (Format.pp_print_list
       ~pp_sep:(fun f () -> Format.fprintf f " ")
       Format.pp_print_int)
    (Array.to_list t.node_elems)
    Digraph.pp t.graph
