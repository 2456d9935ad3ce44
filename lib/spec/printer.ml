open Rt_core
module Sink = Rt_graph.Sink

(* Refuses the first element, by id, that occurs more than once. *)
let check_printable (m : Model.t) (c : Timing.t) =
  if Task_graph.size c.graph > 1 then begin
    let elems = Task_graph.node_elements c.graph in
    Array.sort Int.compare elems;
    for i = 1 to Array.length elems - 1 do
      if elems.(i) = elems.(i - 1) then
        invalid_arg
          (Printf.sprintf
             "Printer: constraint %s uses element %s more than once, which \
              the spec language cannot express"
             c.name (Comm_graph.element m.comm elems.(i)).Element.name)
    done
  end

let render_constraint s (m : Model.t) (c : Timing.t) =
  check_printable m c;
  let ename e = (Comm_graph.element m.comm e).Element.name in
  let node_name v = ename (Task_graph.element_of_node c.graph v) in
  Sink.add_string s "  constraint ";
  Sink.add_string s c.name;
  Sink.add_string s
    (match c.kind with
    | Timing.Periodic -> " periodic period "
    | Timing.Asynchronous -> " asynchronous separation ");
  Sink.add_decimal s c.period;
  Sink.add_string s " deadline ";
  Sink.add_decimal s c.deadline;
  if c.offset > 0 then begin
    Sink.add_string s " offset ";
    Sink.add_decimal s c.offset
  end;
  Sink.add_string s " {\n";
  (* Isolated nodes as singleton chains, every edge as a two-chain. *)
  let g = Task_graph.graph c.graph in
  let connected = Array.make (Task_graph.size c.graph) false in
  Rt_graph.Digraph.iter_edges g ~f:(fun u v ->
      connected.(u) <- true;
      connected.(v) <- true);
  Array.iteri
    (fun v linked ->
      if not linked then begin
        Sink.add_string s "    ";
        Sink.add_string s (node_name v);
        Sink.add_string s ";\n"
      end)
    connected;
  Rt_graph.Digraph.iter_edges g ~f:(fun u v ->
      Sink.add_string s "    ";
      Sink.add_string s (node_name u);
      Sink.add_string s " -> ";
      Sink.add_string s (node_name v);
      Sink.add_string s ";\n");
  Sink.add_string s "  }"

let print_constraint m c =
  let b = Buffer.create 128 in
  render_constraint (Sink.of_buffer b) m c;
  Buffer.contents b

let render ?(name = "system") ?(assertions = []) s (m : Model.t) =
  let ename e = (Comm_graph.element m.comm e).Element.name in
  Sink.add_string s "system \"";
  Sink.add_string s name;
  Sink.add_string s "\" {\n";
  List.iter
    (fun (e : Element.t) ->
      Sink.add_string s "  element ";
      Sink.add_string s e.name;
      Sink.add_string s " weight ";
      Sink.add_decimal s e.weight;
      Sink.add_string s
        (if e.pipelinable then " pipelinable;\n" else " atomic;\n"))
    (Comm_graph.elements m.comm);
  Rt_graph.Digraph.iter_edges (Comm_graph.graph m.comm) ~f:(fun u v ->
      Sink.add_string s "  edge ";
      Sink.add_string s (ename u);
      Sink.add_string s " -> ";
      Sink.add_string s (ename v);
      Sink.add_string s ";\n");
  List.iter
    (fun (src, dst, lo, hi) ->
      Sink.add_string s "  assert ";
      Sink.add_string s src;
      Sink.add_string s " -> ";
      Sink.add_string s dst;
      Sink.add_string s " in [";
      Sink.add_decimal s (int_of_float lo);
      Sink.add_string s ", ";
      Sink.add_decimal s (int_of_float hi);
      Sink.add_string s "];\n")
    assertions;
  List.iter
    (fun c ->
      render_constraint s m c;
      Sink.add_char s '\n')
    m.constraints;
  Sink.add_string s "}\n"

let print ?name ?assertions m =
  let b = Buffer.create 512 in
  render ?name ?assertions (Sink.of_buffer b) m;
  Buffer.contents b
