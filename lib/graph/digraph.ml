module Int_set = Set.Make (Int)

type t = { n : int; adj : Int_set.t array; radj : Int_set.t array }

let check_node t v =
  if v < 0 || v >= t.n then
    invalid_arg (Printf.sprintf "Digraph: node %d out of range [0,%d)" v t.n)

let empty n =
  if n < 0 then invalid_arg "Digraph.empty: negative size";
  { n; adj = Array.make n Int_set.empty; radj = Array.make n Int_set.empty }

let add_edge t u v =
  check_node t u;
  check_node t v;
  let adj = Array.copy t.adj and radj = Array.copy t.radj in
  adj.(u) <- Int_set.add v adj.(u);
  radj.(v) <- Int_set.add u radj.(v);
  { t with adj; radj }

let remove_edge t u v =
  check_node t u;
  check_node t v;
  let adj = Array.copy t.adj and radj = Array.copy t.radj in
  adj.(u) <- Int_set.remove v adj.(u);
  radj.(v) <- Int_set.remove u radj.(v);
  { t with adj; radj }

let create ~n ~edges =
  let t = empty n in
  (* Build in place to avoid quadratic copying, then freeze. *)
  List.iter
    (fun (u, v) ->
      check_node t u;
      check_node t v;
      t.adj.(u) <- Int_set.add v t.adj.(u);
      t.radj.(v) <- Int_set.add u t.radj.(v))
    edges;
  t

let n_nodes t = t.n

let n_edges t = Array.fold_left (fun acc s -> acc + Int_set.cardinal s) 0 t.adj

let succ t v =
  check_node t v;
  Int_set.elements t.adj.(v)

let pred t v =
  check_node t v;
  Int_set.elements t.radj.(v)

let mem_edge t u v =
  check_node t u;
  check_node t v;
  Int_set.mem v t.adj.(u)

let out_degree t v =
  check_node t v;
  Int_set.cardinal t.adj.(v)

let in_degree t v =
  check_node t v;
  Int_set.cardinal t.radj.(v)

let iter_edges t ~f =
  for u = t.n - 1 downto 0 do
    Int_set.iter (fun v -> f u v) t.adj.(u)
  done

let edges t =
  let acc = ref [] in
  iter_edges t ~f:(fun u v -> acc := (u, v) :: !acc);
  List.rev !acc

let fold_edges t ~init ~f =
  List.fold_left (fun acc (u, v) -> f acc u v) init (edges t)

let sources t =
  List.filter (fun v -> Int_set.is_empty t.radj.(v)) (List.init t.n Fun.id)

let sinks t =
  List.filter (fun v -> Int_set.is_empty t.adj.(v)) (List.init t.n Fun.id)

(* Kahn's algorithm with a min-heap discipline (we just scan for the
   smallest ready node; graphs here are small so O(n^2) is fine and the
   determinism is worth it). *)
let topological_sort t =
  let indeg = Array.init t.n (fun v -> Int_set.cardinal t.radj.(v)) in
  let ready = ref Int_set.empty in
  for v = 0 to t.n - 1 do
    if indeg.(v) = 0 then ready := Int_set.add v !ready
  done;
  let rec go acc count =
    match Int_set.min_elt_opt !ready with
    | None -> if count = t.n then Some (List.rev acc) else None
    | Some v ->
        ready := Int_set.remove v !ready;
        Int_set.iter
          (fun w ->
            indeg.(w) <- indeg.(w) - 1;
            if indeg.(w) = 0 then ready := Int_set.add w !ready)
          t.adj.(v);
        go (v :: acc) (count + 1)
  in
  go [] 0

let is_acyclic t = Option.is_some (topological_sort t)

let reachable t v =
  check_node t v;
  let seen = Array.make t.n false in
  let rec dfs u =
    if not seen.(u) then begin
      seen.(u) <- true;
      Int_set.iter dfs t.adj.(u)
    end
  in
  dfs v;
  seen

let reaches t u v =
  check_node t v;
  (reachable t u).(v)

let transitive_closure t =
  (* Edge u->v in the closure iff a non-empty path u ~> v exists, i.e.
     some direct successor of u reaches v. *)
  let reach = Array.init t.n (fun v -> reachable t v) in
  let out = Array.make t.n Int_set.empty in
  for u = 0 to t.n - 1 do
    let s = ref Int_set.empty in
    Int_set.iter
      (fun x ->
        for v = 0 to t.n - 1 do
          if reach.(x).(v) then s := Int_set.add v !s
        done)
      t.adj.(u);
    out.(u) <- !s
  done;
  let radj = Array.make t.n Int_set.empty in
  Array.iteri
    (fun v s -> Int_set.iter (fun w -> radj.(w) <- Int_set.add v radj.(w)) s)
    out;
  { n = t.n; adj = out; radj }

let transitive_reduction t =
  match topological_sort t with
  | None -> invalid_arg "Digraph.transitive_reduction: cyclic graph"
  | Some _ ->
      (* Keep edge u->v iff there is no other path from u to v. *)
      let result = ref (empty t.n) in
      List.iter
        (fun (u, v) ->
          let without = remove_edge t u v in
          if not (reaches without u v) then result := add_edge !result u v)
        (edges t);
      !result

let longest_path t ~weight =
  match topological_sort t with
  | None -> invalid_arg "Digraph.longest_path: cyclic graph"
  | Some order ->
      let best = Array.make (max t.n 1) 0 in
      List.iter
        (fun v ->
          let from_preds =
            Int_set.fold (fun u acc -> max acc best.(u)) t.radj.(v) 0
          in
          best.(v) <- from_preds + weight v)
        order;
      Array.fold_left max 0 best

let induced_subgraph t ~keep =
  let old_ids = List.filter keep (List.init t.n Fun.id) in
  let old_of_new = Array.of_list old_ids in
  let new_of_old = Array.make t.n (-1) in
  Array.iteri (fun i o -> new_of_old.(o) <- i) old_of_new;
  let sub = ref (empty (Array.length old_of_new)) in
  List.iter
    (fun (u, v) ->
      if new_of_old.(u) >= 0 && new_of_old.(v) >= 0 then
        sub := add_edge !sub new_of_old.(u) new_of_old.(v))
    (edges t);
  (!sub, old_of_new)

let union g h =
  let n = max g.n h.n in
  let t = empty n in
  let load src =
    List.iter
      (fun (u, v) ->
        t.adj.(u) <- Int_set.add v t.adj.(u);
        t.radj.(v) <- Int_set.add u t.radj.(v))
      (edges src)
  in
  load g;
  load h;
  t

let map_nodes t ~f ~n =
  let img = empty n in
  List.iter
    (fun (u, v) ->
      let u' = f u and v' = f v in
      check_node img u';
      check_node img v';
      img.adj.(u') <- Int_set.add v' img.adj.(u');
      img.radj.(v') <- Int_set.add u' img.radj.(v'))
    (edges t);
  img

(* Tarjan's strongly-connected-components algorithm (iterative enough
   for our graph sizes to use plain recursion). *)
let strongly_connected_components t =
  let index = Array.make t.n (-1) in
  let lowlink = Array.make t.n 0 in
  let on_stack = Array.make t.n false in
  let stack = ref [] in
  let next_index = ref 0 in
  let components = ref [] in
  let rec strongconnect v =
    index.(v) <- !next_index;
    lowlink.(v) <- !next_index;
    incr next_index;
    stack := v :: !stack;
    on_stack.(v) <- true;
    Int_set.iter
      (fun w ->
        if index.(w) = -1 then begin
          strongconnect w;
          lowlink.(v) <- min lowlink.(v) lowlink.(w)
        end
        else if on_stack.(w) then lowlink.(v) <- min lowlink.(v) index.(w))
      t.adj.(v);
    if lowlink.(v) = index.(v) then begin
      let rec pop acc =
        match !stack with
        | w :: rest ->
            stack := rest;
            on_stack.(w) <- false;
            if w = v then w :: acc else pop (w :: acc)
        | [] -> assert false
      in
      components := List.sort Int.compare (pop []) :: !components
    end
  in
  for v = 0 to t.n - 1 do
    if index.(v) = -1 then strongconnect v
  done;
  (* Tarjan emits components in reverse topological order already;
     [components] accumulated by consing, so reverse back. *)
  List.rev !components

let feedback_components t =
  List.filter
    (fun comp ->
      match comp with
      | [ v ] -> Int_set.mem v t.adj.(v)
      | _ :: _ :: _ -> true
      | [] -> false)
    (strongly_connected_components t)

let is_chain t =
  if t.n = 0 then false
  else if t.n = 1 then n_edges t = 0
  else
    n_edges t = t.n - 1
    && List.length (sources t) = 1
    && List.length (sinks t) = 1
    && List.for_all (fun v -> out_degree t v <= 1 && in_degree t v <= 1)
         (List.init t.n Fun.id)
    && is_acyclic t

let equal a b = a.n = b.n && edges a = edges b

let pp fmt t =
  Format.fprintf fmt "n=%d edges=[%a]" t.n
    (Format.pp_print_list
       ~pp_sep:(fun f () -> Format.fprintf f "; ")
       (fun f (u, v) -> Format.fprintf f "%d->%d" u v))
    (edges t)

let to_dot ?(name = "g") ?(label = string_of_int) t =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "digraph %s {\n" name);
  for v = 0 to t.n - 1 do
    Buffer.add_string buf (Printf.sprintf "  n%d [label=\"%s\"];\n" v (label v))
  done;
  List.iter
    (fun (u, v) -> Buffer.add_string buf (Printf.sprintf "  n%d -> n%d;\n" u v))
    (edges t);
  Buffer.add_string buf "}\n";
  Buffer.contents buf
