(* Unit and property tests for the rt_graph substrate: Digraph, Intmath
   and Prng. *)

open Rt_graph

let check = Alcotest.check
let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

(* ------------------------------------------------------------------ *)
(* Intmath                                                             *)
(* ------------------------------------------------------------------ *)

let test_gcd () =
  checki "gcd 12 18" 6 (Intmath.gcd 12 18);
  checki "gcd 0 5" 5 (Intmath.gcd 0 5);
  checki "gcd 5 0" 5 (Intmath.gcd 5 0);
  checki "gcd 0 0" 0 (Intmath.gcd 0 0);
  checki "gcd 7 13" 1 (Intmath.gcd 7 13);
  checki "gcd negative" 6 (Intmath.gcd (-12) 18)

let test_lcm () =
  checki "lcm 4 6" 12 (Intmath.lcm 4 6);
  checki "lcm 1 1" 1 (Intmath.lcm 1 1);
  checki "lcm 0 5" 0 (Intmath.lcm 0 5);
  checki "lcm_list" 60 (Intmath.lcm_list [ 4; 6; 10 ]);
  checki "lcm_list empty" 1 (Intmath.lcm_list []);
  Alcotest.check_raises "lcm overflow" Intmath.Overflow (fun () ->
      ignore (Intmath.lcm max_int (max_int - 1)))

let test_ceil_div () =
  checki "ceil_div exact" 3 (Intmath.ceil_div 9 3);
  checki "ceil_div round up" 4 (Intmath.ceil_div 10 3);
  checki "ceil_div zero" 0 (Intmath.ceil_div 0 5)

let test_pow2_floor () =
  checki "pow2 1" 1 (Intmath.pow2_floor 1);
  checki "pow2 2" 2 (Intmath.pow2_floor 2);
  checki "pow2 3" 2 (Intmath.pow2_floor 3);
  checki "pow2 17" 16 (Intmath.pow2_floor 17);
  checki "pow2 1024" 1024 (Intmath.pow2_floor 1024)

let test_gcd_list () =
  checki "gcd_list" 4 (Intmath.gcd_list [ 12; 8; 20 ]);
  checki "gcd_list empty" 0 (Intmath.gcd_list [])

let test_sum () =
  checki "sum" 10 (Intmath.sum [ 1; 2; 3; 4 ]);
  checki "sum empty" 0 (Intmath.sum []);
  Alcotest.check_raises "sum overflow" Intmath.Overflow (fun () ->
      ignore (Intmath.sum [ max_int; 1 ]))

let test_add_decimal () =
  List.iter
    (fun n ->
      let b = Buffer.create 4 in
      Buffer.add_string b "x";
      Intmath.add_decimal b n;
      Alcotest.check Alcotest.string (string_of_int n) ("x" ^ string_of_int n)
        (Buffer.contents b))
    [ 0; 7; 10; 99; 1024; 1 lsl 40; max_int; -1; -305; min_int ]

(* ------------------------------------------------------------------ *)
(* Prng                                                                *)
(* ------------------------------------------------------------------ *)

let test_prng_determinism () =
  let a = Prng.create 7 and b = Prng.create 7 in
  let sa = List.init 20 (fun _ -> Prng.next a) in
  let sb = List.init 20 (fun _ -> Prng.next b) in
  checkb "same seed, same stream" true (sa = sb);
  let c = Prng.create 8 in
  let sc = List.init 20 (fun _ -> Prng.next c) in
  checkb "different seed, different stream" false (sa = sc)

let test_prng_ranges () =
  let g = Prng.create 99 in
  for _ = 1 to 1000 do
    let x = Prng.int g 10 in
    checkb "int in range" true (x >= 0 && x < 10);
    let y = Prng.int_in g 5 9 in
    checkb "int_in in range" true (y >= 5 && y <= 9);
    let f = Prng.float g 2.5 in
    checkb "float in range" true (f >= 0.0 && f < 2.5)
  done

let test_prng_shuffle_permutes () =
  let g = Prng.create 3 in
  let a = Array.init 50 Fun.id in
  Prng.shuffle g a;
  let sorted = Array.copy a in
  Array.sort Int.compare sorted;
  checkb "shuffle is a permutation" true (sorted = Array.init 50 Fun.id)

let test_prng_pick () =
  let g = Prng.create 21 in
  for _ = 1 to 50 do
    checkb "pick returns a member" true (List.mem (Prng.pick g [ 1; 2; 3 ]) [ 1; 2; 3 ])
  done;
  checkb "empty pick rejected" true
    (try
       ignore (Prng.pick g ([] : int list));
       false
     with Invalid_argument _ -> true)

let test_prng_copy_and_split () =
  let g = Prng.create 11 in
  ignore (Prng.next g);
  let h = Prng.copy g in
  checki "copy continues identically" (Prng.next g) (Prng.next h);
  let g2 = Prng.create 11 in
  let child = Prng.split g2 in
  checkb "split stream differs from parent continuation" true
    (Prng.next child <> Prng.next g2)

(* ------------------------------------------------------------------ *)
(* Digraph basics                                                      *)
(* ------------------------------------------------------------------ *)

let diamond = Digraph.create ~n:4 ~edges:[ (0, 1); (0, 2); (1, 3); (2, 3) ]

let test_create_and_degrees () =
  checki "nodes" 4 (Digraph.n_nodes diamond);
  checki "edges" 4 (Digraph.n_edges diamond);
  check (Alcotest.list Alcotest.int) "succ 0" [ 1; 2 ] (Digraph.succ diamond 0);
  check (Alcotest.list Alcotest.int) "pred 3" [ 1; 2 ] (Digraph.pred diamond 3);
  checki "out_degree 0" 2 (Digraph.out_degree diamond 0);
  checki "in_degree 3" 2 (Digraph.in_degree diamond 3);
  checkb "mem_edge" true (Digraph.mem_edge diamond 0 1);
  checkb "not mem_edge" false (Digraph.mem_edge diamond 1 0)

let test_create_rejects_bad_nodes () =
  Alcotest.check_raises "edge endpoint out of range"
    (Invalid_argument "Digraph: node 5 out of range [0,3)") (fun () ->
      ignore (Digraph.create ~n:3 ~edges:[ (0, 5) ]))

let test_parallel_edges_collapse () =
  let g = Digraph.create ~n:2 ~edges:[ (0, 1); (0, 1); (0, 1) ] in
  checki "duplicates collapse" 1 (Digraph.n_edges g)

let test_add_remove () =
  let g = Digraph.empty 3 in
  let g = Digraph.add_edge g 0 1 in
  let g = Digraph.add_edge g 1 2 in
  checki "2 edges" 2 (Digraph.n_edges g);
  let g = Digraph.remove_edge g 0 1 in
  checki "1 edge" 1 (Digraph.n_edges g);
  checkb "removed" false (Digraph.mem_edge g 0 1)

let test_sources_sinks () =
  check (Alcotest.list Alcotest.int) "sources" [ 0 ] (Digraph.sources diamond);
  check (Alcotest.list Alcotest.int) "sinks" [ 3 ] (Digraph.sinks diamond)

let test_acyclicity () =
  checkb "diamond acyclic" true (Digraph.is_acyclic diamond);
  let cyc = Digraph.create ~n:3 ~edges:[ (0, 1); (1, 2); (2, 0) ] in
  checkb "cycle detected" false (Digraph.is_acyclic cyc);
  let self = Digraph.create ~n:1 ~edges:[ (0, 0) ] in
  checkb "self-loop is a cycle" false (Digraph.is_acyclic self)

let test_topological_sort () =
  (match Digraph.topological_sort diamond with
  | Some order ->
      check (Alcotest.list Alcotest.int) "deterministic order" [ 0; 1; 2; 3 ]
        order
  | None -> Alcotest.fail "diamond should sort");
  let cyc = Digraph.create ~n:2 ~edges:[ (0, 1); (1, 0) ] in
  checkb "cyclic has no sort" true (Digraph.topological_sort cyc = None)

let test_reachability () =
  checkb "0 reaches 3" true (Digraph.reaches diamond 0 3);
  checkb "3 does not reach 0" false (Digraph.reaches diamond 3 0);
  checkb "node reaches itself" true (Digraph.reaches diamond 1 1)

let test_transitive_closure () =
  let tc = Digraph.transitive_closure diamond in
  checkb "closure adds 0->3" true (Digraph.mem_edge tc 0 3);
  checkb "closure keeps 0->1" true (Digraph.mem_edge tc 0 1);
  checkb "closure has no 0->0" false (Digraph.mem_edge tc 0 0);
  let cyc = Digraph.create ~n:2 ~edges:[ (0, 1); (1, 0) ] in
  let tcc = Digraph.transitive_closure cyc in
  checkb "cycle closure has self-edges" true (Digraph.mem_edge tcc 0 0)

let test_transitive_reduction () =
  let g = Digraph.create ~n:3 ~edges:[ (0, 1); (1, 2); (0, 2) ] in
  let tr = Digraph.transitive_reduction g in
  checkb "redundant edge removed" false (Digraph.mem_edge tr 0 2);
  checkb "chain kept" true
    (Digraph.mem_edge tr 0 1 && Digraph.mem_edge tr 1 2);
  Alcotest.check_raises "cyclic reduction rejected"
    (Invalid_argument "Digraph.transitive_reduction: cyclic graph") (fun () ->
      ignore
        (Digraph.transitive_reduction
           (Digraph.create ~n:2 ~edges:[ (0, 1); (1, 0) ])))

let test_longest_path () =
  checki "unit weights critical path" 3
    (Digraph.longest_path diamond ~weight:(fun _ -> 1));
  let w = function 0 -> 1 | 1 -> 5 | 2 -> 1 | _ -> 2 in
  checki "weighted critical path" 8 (Digraph.longest_path diamond ~weight:w);
  checki "empty graph" 0
    (Digraph.longest_path (Digraph.empty 0) ~weight:(fun _ -> 1))

let test_induced_subgraph () =
  let sub, mapping = Digraph.induced_subgraph diamond ~keep:(fun v -> v <> 1) in
  checki "3 nodes left" 3 (Digraph.n_nodes sub);
  checki "edges kept" 2 (Digraph.n_edges sub);
  checkb "mapping is original ids" true (mapping = [| 0; 2; 3 |])

let test_union_and_map () =
  let a = Digraph.create ~n:3 ~edges:[ (0, 1) ] in
  let b = Digraph.create ~n:3 ~edges:[ (1, 2) ] in
  let u = Digraph.union a b in
  checki "union edges" 2 (Digraph.n_edges u);
  let img = Digraph.map_nodes u ~f:(fun v -> v mod 2) ~n:2 in
  checkb "mapped has 0->1" true (Digraph.mem_edge img 0 1);
  checkb "mapped has 1->0" true (Digraph.mem_edge img 1 0)

let test_is_chain () =
  checkb "diamond not chain" false (Digraph.is_chain diamond);
  checkb "path is chain" true
    (Digraph.is_chain (Digraph.create ~n:3 ~edges:[ (0, 1); (1, 2) ]));
  checkb "singleton is chain" true (Digraph.is_chain (Digraph.empty 1));
  checkb "empty not chain" false (Digraph.is_chain (Digraph.empty 0));
  checkb "two components not chain" false (Digraph.is_chain (Digraph.empty 2))

let test_scc () =
  (* Two 2-cycles bridged by an edge, plus an isolated node. *)
  let g =
    Digraph.create ~n:5
      ~edges:[ (0, 1); (1, 0); (1, 2); (2, 3); (3, 2) ]
  in
  let sccs = Digraph.strongly_connected_components g in
  checkb "partition covers all nodes" true
    (List.sort Int.compare (List.concat sccs) = [ 0; 1; 2; 3; 4 ]);
  checkb "the two cycles are components" true
    (List.mem [ 0; 1 ] sccs && List.mem [ 2; 3 ] sccs);
  Alcotest.check
    (Alcotest.list (Alcotest.list Alcotest.int))
    "feedback components"
    [ [ 0; 1 ]; [ 2; 3 ] ]
    (List.sort compare (Digraph.feedback_components g));
  (* Self-loop counts as feedback; plain node does not. *)
  let s = Digraph.create ~n:2 ~edges:[ (0, 0) ] in
  Alcotest.check
    (Alcotest.list (Alcotest.list Alcotest.int))
    "self-loop feedback" [ [ 0 ] ] (Digraph.feedback_components s)

let test_scc_reverse_topological () =
  let g = Digraph.create ~n:4 ~edges:[ (0, 1); (1, 2); (2, 1); (2, 3) ] in
  let sccs = Digraph.strongly_connected_components g in
  (* Condensation 0 -> {1,2} -> 3; reverse topological order puts 3
     first and 0 last. *)
  checkb "reverse topological order" true
    (sccs = [ [ 3 ]; [ 1; 2 ]; [ 0 ] ])

let contains_substring haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i =
    if i + nn > nh then false
    else if String.sub haystack i nn = needle then true
    else go (i + 1)
  in
  go 0

let test_fold_edges () =
  let total =
    Digraph.fold_edges diamond ~init:0 ~f:(fun acc u v -> acc + u + v)
  in
  (* Edges (0,1)(0,2)(1,3)(2,3): sum = 1+2+4+5 = 12. *)
  checki "fold over edges" 12 total

let test_to_dot () =
  let dot = Digraph.to_dot ~name:"d" diamond in
  checkb "mentions edge" true (contains_substring dot "n0 -> n1")

(* ------------------------------------------------------------------ *)
(* Digraph properties (qcheck)                                         *)
(* ------------------------------------------------------------------ *)

let arbitrary_dag =
  (* Random DAG as (n, forward edge list). *)
  QCheck.make
    ~print:(fun (n, edges) ->
      Printf.sprintf "n=%d edges=%s" n
        (String.concat ";"
           (List.map (fun (u, v) -> Printf.sprintf "%d->%d" u v) edges)))
    QCheck.Gen.(
      sized_size (int_range 1 8) (fun n ->
          let pairs =
            List.concat
              (List.init n (fun i ->
                   List.init (n - i - 1) (fun k -> (i, i + k + 1))))
          in
          flatten_l (List.map (fun _ -> bool) pairs) >>= fun keep ->
          let edges = List.filteri (fun i _ -> List.nth keep i) pairs in
          return (n, edges)))

let prop_topo_sort_valid =
  QCheck.Test.make ~name:"topological sort linearizes every edge" ~count:200
    arbitrary_dag (fun (n, edges) ->
      let g = Digraph.create ~n ~edges in
      match Digraph.topological_sort g with
      | None -> false (* forward edges are always acyclic *)
      | Some order ->
          let pos = Array.make n 0 in
          List.iteri (fun i v -> pos.(v) <- i) order;
          List.length order = n
          && List.for_all (fun (u, v) -> pos.(u) < pos.(v)) edges)

let prop_reduction_preserves_reachability =
  QCheck.Test.make ~name:"transitive reduction preserves reachability"
    ~count:100 arbitrary_dag (fun (n, edges) ->
      let g = Digraph.create ~n ~edges in
      let tr = Digraph.transitive_reduction g in
      let ok = ref true in
      for u = 0 to n - 1 do
        for v = 0 to n - 1 do
          if Digraph.reaches g u v <> Digraph.reaches tr u v then ok := false
        done
      done;
      !ok && Digraph.n_edges tr <= Digraph.n_edges g)

let prop_scc_consistent_with_acyclicity =
  QCheck.Test.make ~name:"acyclic iff every SCC is a trivial singleton"
    ~count:200 arbitrary_dag (fun (n, edges) ->
      (* Turn a random DAG into a possibly-cyclic graph by adding each
         reversed edge with the original (deterministic derivation). *)
      let maybe_cyclic =
        Digraph.create ~n
          ~edges:
            (edges
            @ List.filteri (fun i _ -> i mod 3 = 0)
                (List.map (fun (u, v) -> (v, u)) edges))
      in
      let sccs = Digraph.strongly_connected_components maybe_cyclic in
      let trivial =
        List.for_all
          (fun c ->
            match c with
            | [ v ] -> not (Digraph.mem_edge maybe_cyclic v v)
            | _ -> false)
          sccs
      in
      trivial = Digraph.is_acyclic maybe_cyclic)

let prop_closure_is_reachability =
  QCheck.Test.make ~name:"transitive closure equals non-empty-path relation"
    ~count:100 arbitrary_dag (fun (n, edges) ->
      let g = Digraph.create ~n ~edges in
      let tc = Digraph.transitive_closure g in
      let ok = ref true in
      for u = 0 to n - 1 do
        for v = 0 to n - 1 do
          let non_empty_path =
            List.exists (fun x -> Digraph.reaches g x v) (Digraph.succ g u)
          in
          if Digraph.mem_edge tc u v <> non_empty_path then ok := false
        done
      done;
      !ok)

let () =
  Alcotest.run "rt_graph"
    [
      ( "intmath",
        [
          Alcotest.test_case "gcd" `Quick test_gcd;
          Alcotest.test_case "lcm" `Quick test_lcm;
          Alcotest.test_case "ceil_div" `Quick test_ceil_div;
          Alcotest.test_case "pow2_floor" `Quick test_pow2_floor;
          Alcotest.test_case "sum" `Quick test_sum;
          Alcotest.test_case "gcd_list" `Quick test_gcd_list;
          Alcotest.test_case "add_decimal = string_of_int" `Quick
            test_add_decimal;
        ] );
      ( "prng",
        [
          Alcotest.test_case "determinism" `Quick test_prng_determinism;
          Alcotest.test_case "ranges" `Quick test_prng_ranges;
          Alcotest.test_case "shuffle permutes" `Quick test_prng_shuffle_permutes;
          Alcotest.test_case "copy and split" `Quick test_prng_copy_and_split;
          Alcotest.test_case "pick" `Quick test_prng_pick;
        ] );
      ( "digraph",
        [
          Alcotest.test_case "create/degrees" `Quick test_create_and_degrees;
          Alcotest.test_case "bad nodes rejected" `Quick
            test_create_rejects_bad_nodes;
          Alcotest.test_case "parallel edges collapse" `Quick
            test_parallel_edges_collapse;
          Alcotest.test_case "add/remove" `Quick test_add_remove;
          Alcotest.test_case "sources/sinks" `Quick test_sources_sinks;
          Alcotest.test_case "acyclicity" `Quick test_acyclicity;
          Alcotest.test_case "topological sort" `Quick test_topological_sort;
          Alcotest.test_case "reachability" `Quick test_reachability;
          Alcotest.test_case "transitive closure" `Quick
            test_transitive_closure;
          Alcotest.test_case "transitive reduction" `Quick
            test_transitive_reduction;
          Alcotest.test_case "longest path" `Quick test_longest_path;
          Alcotest.test_case "induced subgraph" `Quick test_induced_subgraph;
          Alcotest.test_case "union/map" `Quick test_union_and_map;
          Alcotest.test_case "is_chain" `Quick test_is_chain;
          Alcotest.test_case "scc" `Quick test_scc;
          Alcotest.test_case "scc order" `Quick test_scc_reverse_topological;
          Alcotest.test_case "to_dot" `Quick test_to_dot;
          Alcotest.test_case "fold_edges" `Quick test_fold_edges;
        ] );
      ( "digraph-properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_topo_sort_valid;
            prop_reduction_preserves_reachability;
            prop_closure_is_reachability;
            prop_scc_consistent_with_acyclicity;
          ] );
    ]
