open Rt_base

let version = 1

type exec = (int * int) array

type witness = Async of exec list | Periodic of exec array

type t = {
  digest : string;
  schedule : Schedule.t;
  witnesses : (string * witness) list;
}

(* FNV-1a over the canonical model rendering, streamed into the hasher
   as it is produced:

     G:<name>,<weight>,<pipelinable>;...E:<u>-<v>;...
     T:<name>,<kind>,<period>,<deadline>,<offset>,[<elem> ...],[<u>-<v> ...];...

   Not cryptographic — the digest defends against stale or mismatched
   certificates, not against an adversary forging a colliding model. *)
let compute_digest (m : Model.t) =
  let module F = Rt_graph.Fnv in
  let h = F.create () in
  let g = m.Model.comm in
  F.add_string h "G:";
  List.iter
    (fun (e : Element.t) ->
      F.add_string h e.Element.name;
      F.add_char h ',';
      F.add_decimal h e.Element.weight;
      F.add_string h (if e.Element.pipelinable then ",true;" else ",false;"))
    (Comm_graph.elements g);
  F.add_string h "E:";
  Rt_graph.Digraph.iter_edges (Comm_graph.graph g) ~f:(fun u v ->
      F.add_decimal h u;
      F.add_char h '-';
      F.add_decimal h v;
      F.add_char h ';');
  F.add_string h "T:";
  List.iter
    (fun (c : Timing.t) ->
      F.add_string h c.Timing.name;
      F.add_char h ',';
      F.add_string h (Timing.kind_to_string c.Timing.kind);
      F.add_char h ',';
      F.add_decimal h c.Timing.period;
      F.add_char h ',';
      F.add_decimal h c.Timing.deadline;
      F.add_char h ',';
      F.add_decimal h c.Timing.offset;
      F.add_string h ",[";
      let tg = c.Timing.graph in
      for v = 0 to Task_graph.size tg - 1 do
        F.add_decimal h (Task_graph.element_of_node tg v);
        F.add_char h ' '
      done;
      F.add_string h "],[";
      Rt_graph.Digraph.iter_edges (Task_graph.graph tg) ~f:(fun u v ->
          F.add_decimal h u;
          F.add_char h '-';
          F.add_decimal h v;
          F.add_char h ' ');
      F.add_string h "];")
    m.Model.constraints;
  F.to_string h

(* One admit asks for the digest of the same model value several times
   (certificate, checker, persist, journal record).  A [Model.t] is
   immutable once built, so the last model's digest is remembered and
   found again by physical equality; any other model is digested
   afresh.  The entry is one immutable pair behind an [Atomic], so
   callers on several domains see either entry whole, never a torn
   one. *)
let last_digest : (Model.t * string) option Atomic.t = Atomic.make None

let digest_of_model (m : Model.t) =
  match Atomic.get last_digest with
  | Some (m', d) when m' == m -> d
  | _ ->
      let d = compute_digest m in
      Atomic.set last_digest (Some (m, d));
      d

let make m schedule witnesses =
  { digest = digest_of_model m; schedule; witnesses }

let witness_equal a b =
  match (a, b) with
  | Async xs, Async ys -> xs = ys
  | Periodic xs, Periodic ys -> xs = ys
  | _ -> false

let equal a b =
  a.digest = b.digest
  && Schedule.equal a.schedule b.schedule
  && List.length a.witnesses = List.length b.witnesses
  && List.for_all2
       (fun (n1, w1) (n2, w2) -> n1 = n2 && witness_equal w1 w2)
       a.witnesses b.witnesses

(* JSON writing: hand-rolled so this library keeps zero dependencies
   beyond the model vocabulary, and written to a sink so the daemon can
   hash a certificate without building it.  Parsing lives in
   Rt_spec.Persist. *)

module Sink = Rt_graph.Sink

let json_list s xs f =
  Sink.add_char s '[';
  List.iteri
    (fun i x ->
      if i > 0 then Sink.add_char s ',';
      f x)
    xs;
  Sink.add_char s ']'

let json_array s xs f =
  Sink.add_char s '[';
  Array.iteri
    (fun i x ->
      if i > 0 then Sink.add_char s ',';
      f x)
    xs;
  Sink.add_char s ']'

let json_schedule s l =
  json_array s (Schedule.slots l) (function
    | Schedule.Idle -> Sink.add_string s "-1"
    | Schedule.Run e -> Sink.add_decimal s e)

let json_exec s (x : exec) =
  Sink.add_char s '[';
  for i = 0 to Array.length x - 1 do
    let st, f = x.(i) in
    Sink.add_string s (if i > 0 then ",[" else "[");
    Sink.add_decimal s st;
    Sink.add_char s ',';
    Sink.add_decimal s f;
    Sink.add_char s ']'
  done;
  Sink.add_char s ']'

let json_witness s (name, w) =
  Sink.add_string s "{\"constraint\":";
  Sink.add_json_string s name;
  (match w with
  | Async execs ->
      Sink.add_string s ",\"kind\":\"async\",\"execs\":";
      json_list s execs (json_exec s)
  | Periodic execs ->
      Sink.add_string s ",\"kind\":\"periodic\",\"execs\":";
      json_array s execs (json_exec s));
  Sink.add_char s '}'

let render_fields s t =
  Sink.add_string s "{\"format\":\"rtsyn-certificate\",\"version\":";
  Sink.add_decimal s version;
  Sink.add_string s ",\"digest\":";
  Sink.add_json_string s t.digest;
  Sink.add_string s ",\"schedule\":";
  json_schedule s t.schedule;
  Sink.add_string s ",\"witnesses\":";
  json_list s t.witnesses (json_witness s)

let to_json t =
  let b = Buffer.create 1024 in
  let s = Sink.of_buffer b in
  render_fields s t;
  Sink.add_string s "}\n";
  Buffer.contents b

(* Multiprocessor certificates *)

type mp_piece =
  | Mp_segment of {
      processor : int;
      ops : int list;
      start_off : int;
      end_off : int;
    }
  | Mp_message of { cost : int; start_off : int; end_off : int }

type mp_plan = { source : string; period : int; pieces : mp_piece list }

type mp = {
  mp_digest : string;
  hyperperiod : int;
  processors : Schedule.t array;
  bus : string option array;
  mp_plans : mp_plan list;
  mp_dropped : string list;
  mp_overrides : (string * int * int) list;
}

let mp_make m ~hyperperiod ~processors ~bus ~plans ?(dropped = [])
    ?(overrides = []) () =
  {
    mp_digest = digest_of_model m;
    hyperperiod;
    processors;
    bus;
    mp_plans = plans;
    mp_dropped = dropped;
    mp_overrides = overrides;
  }

let mp_equal a b =
  a.mp_digest = b.mp_digest
  && a.hyperperiod = b.hyperperiod
  && Array.length a.processors = Array.length b.processors
  && Array.for_all2 Schedule.equal a.processors b.processors
  && a.bus = b.bus
  && a.mp_plans = b.mp_plans
  && a.mp_dropped = b.mp_dropped
  && a.mp_overrides = b.mp_overrides

let json_piece s = function
  | Mp_segment seg ->
      Sink.add_string s
        (Printf.sprintf "{\"seg\":%d,\"ops\":[%s],\"w\":[%d,%d]}"
           seg.processor
           (String.concat "," (List.map string_of_int seg.ops))
           seg.start_off seg.end_off)
  | Mp_message msg ->
      Sink.add_string s
        (Printf.sprintf "{\"msg\":%d,\"w\":[%d,%d]}" msg.cost msg.start_off
           msg.end_off)

let json_mp_plan s (p : mp_plan) =
  Sink.add_string s "{\"source\":";
  Sink.add_json_string s p.source;
  Sink.add_string s (Printf.sprintf ",\"period\":%d,\"pieces\":" p.period);
  json_list s p.pieces (json_piece s);
  Sink.add_char s '}'

let json_mp s t =
  Sink.add_string s "{\"digest\":";
  Sink.add_json_string s t.mp_digest;
  Sink.add_string s (Printf.sprintf ",\"hyperperiod\":%d" t.hyperperiod);
  Sink.add_string s ",\"processors\":";
  json_array s t.processors (json_schedule s);
  Sink.add_string s ",\"bus\":";
  json_array s t.bus (function
      | None -> Sink.add_string s "null"
      | Some slot -> Sink.add_json_string s slot);
  Sink.add_string s ",\"plans\":";
  json_list s t.mp_plans (json_mp_plan s);
  Sink.add_string s ",\"dropped\":";
  json_list s t.mp_dropped (Sink.add_json_string s);
  Sink.add_string s ",\"overrides\":";
  json_list s t.mp_overrides (fun (n, p, d) ->
      Sink.add_string s "[";
      Sink.add_json_string s n;
      Sink.add_string s (Printf.sprintf ",%d,%d]" p d));
  Sink.add_char s '}'

let mp_to_json t =
  let b = Buffer.create 1024 in
  let s = Sink.of_buffer b in
  Sink.add_string s
    "{\"format\":\"rtsyn-certificate-mp\",\"version\":";
  Sink.add_string s (string_of_int version);
  Sink.add_string s ",\"system\":";
  json_mp s t;
  Sink.add_string s "}\n";
  Buffer.contents b

type mp_table = {
  t_nominal : mp;
  t_scenarios : (int * mp) list;
  t_detect : int;
  t_migration : int;
  t_reconfig : int;
}

let table_to_json t =
  let b = Buffer.create 4096 in
  let s = Sink.of_buffer b in
  Sink.add_string s
    "{\"format\":\"rtsyn-certificate-contingency\",\"version\":";
  Sink.add_string s (string_of_int version);
  Sink.add_string s
    (Printf.sprintf ",\"detect\":%d,\"migration\":%d,\"reconfig\":%d" t.t_detect
       t.t_migration t.t_reconfig);
  Sink.add_string s ",\"nominal\":";
  json_mp s t.t_nominal;
  Sink.add_string s ",\"scenarios\":";
  json_list s t.t_scenarios (fun (dead, mp) ->
      Sink.add_string s (Printf.sprintf "{\"dead\":%d,\"system\":" dead);
      json_mp s mp;
      Sink.add_char s '}');
  Sink.add_string s "}\n";
  Buffer.contents b
