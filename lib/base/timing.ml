type kind = Periodic | Asynchronous

type t = {
  name : string;
  graph : Task_graph.t;
  period : int;
  deadline : int;
  offset : int;
  kind : kind;
  mutable signature_memo : string;
}

(* Name-free: kind, period, offset, task graph, deadline, as
   "%c%d@%d:%s,d=%d" would render them (Printf costs several times
   more, once per constraint of every elaborated model). *)
let signature_of ~kind ~period ~offset ~deadline graph =
  let b = Buffer.create 48 in
  let add_int = Rt_graph.Intmath.add_decimal b in
  Buffer.add_char b (match kind with Periodic -> 'p' | Asynchronous -> 'a');
  add_int period;
  Buffer.add_char b '@';
  add_int offset;
  Buffer.add_char b ':';
  Buffer.add_string b (Task_graph.signature graph);
  Buffer.add_string b ",d=";
  add_int deadline;
  Buffer.contents b

let max_time = 1 lsl 40

let make ~name ~graph ~period ~deadline ~kind =
  if name = "" then invalid_arg "Timing.make: empty name";
  if period <= 0 then invalid_arg "Timing.make: period must be positive";
  if deadline <= 0 then invalid_arg "Timing.make: deadline must be positive";
  if period > max_time || deadline > max_time then
    invalid_arg
      (Printf.sprintf "Timing.make: period and deadline must not exceed %d"
         max_time);
  {
    name;
    graph;
    period;
    deadline;
    offset = 0;
    kind;
    signature_memo = "";
  }

let with_offset t o =
  if t.kind = Asynchronous then
    invalid_arg "Timing.with_offset: offsets apply to periodic constraints"
  else if o < 0 || o >= t.period then
    invalid_arg "Timing.with_offset: offset must lie in [0, period)"
  else
    { t with offset = o; signature_memo = "" }

(* Rendered on first read and memoised, like [Task_graph.signature]:
   two domains racing here write equal strings. *)
let signature t =
  match t.signature_memo with
  | "" ->
      let s =
        signature_of ~kind:t.kind ~period:t.period ~offset:t.offset
          ~deadline:t.deadline t.graph
      in
      t.signature_memo <- s;
      s
  | s -> s

type class_key = kind * int * int * string

let latency_class t =
  match t.kind with
  | Asynchronous -> (Asynchronous, 0, 0, Task_graph.signature t.graph)
  | Periodic -> (Periodic, t.period, t.offset, Task_graph.signature t.graph)

let is_periodic t = t.kind = Periodic

let is_asynchronous t = t.kind = Asynchronous

let computation_time g t = Task_graph.computation_time g t.graph

let utilization g t = float_of_int (computation_time g t) /. float_of_int t.period

let density g t =
  float_of_int (computation_time g t) /. float_of_int (min t.period t.deadline)

let kind_to_string = function
  | Periodic -> "periodic"
  | Asynchronous -> "asynchronous"

let pp fmt t =
  Format.fprintf fmt "%s(%s p=%d d=%d%s): %a" t.name (kind_to_string t.kind)
    t.period t.deadline
    (if t.offset > 0 then Printf.sprintf " o=%d" t.offset else "")
    Task_graph.pp t.graph
