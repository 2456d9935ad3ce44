open Rt_base

let version = 1

type exec = (int * int) array

type witness = Async of exec list | Periodic of exec array

type t = {
  digest : string;
  schedule : Schedule.t;
  witnesses : (string * witness) list;
}

(* FNV-1a over the canonical model rendering.  Not cryptographic — the
   digest defends against stale or mismatched certificates, not
   against an adversary forging a colliding model. *)
let fnv1a s =
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (Char.code c));
      h := Int64.mul !h 0x100000001b3L)
    s;
  Printf.sprintf "fnv1a:%016Lx" !h

let compute_digest (m : Model.t) =
  let b = Buffer.create 256 in
  let g = m.Model.comm in
  Buffer.add_string b "G:";
  List.iter
    (fun (e : Element.t) ->
      Buffer.add_string b
        (Printf.sprintf "%s,%d,%b;" e.Element.name e.Element.weight
           e.Element.pipelinable))
    (Comm_graph.elements g);
  Buffer.add_string b "E:";
  List.iter
    (fun (u, v) -> Buffer.add_string b (Printf.sprintf "%d-%d;" u v))
    (Rt_graph.Digraph.edges (Comm_graph.graph g));
  Buffer.add_string b "T:";
  List.iter
    (fun (c : Timing.t) ->
      Buffer.add_string b
        (Printf.sprintf "%s,%s,%d,%d,%d,[" c.Timing.name
           (Timing.kind_to_string c.Timing.kind)
           c.Timing.period c.Timing.deadline c.Timing.offset);
      Array.iter
        (fun e -> Buffer.add_string b (Printf.sprintf "%d " e))
        (Task_graph.node_elements c.Timing.graph);
      Buffer.add_string b "],[";
      List.iter
        (fun (u, v) -> Buffer.add_string b (Printf.sprintf "%d-%d " u v))
        (Task_graph.edges c.Timing.graph);
      Buffer.add_string b "];")
    m.Model.constraints;
  fnv1a (Buffer.contents b)

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
   beyond the model vocabulary.  Parsing lives in Rt_spec.Persist. *)

let json_string b s =
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

let json_list b xs f =
  Buffer.add_char b '[';
  List.iteri
    (fun i x ->
      if i > 0 then Buffer.add_char b ',';
      f x)
    xs;
  Buffer.add_char b ']'

let json_schedule b l =
  json_list b
    (Array.to_list (Schedule.slots l))
    (function
      | Schedule.Idle -> Buffer.add_string b "-1"
      | Schedule.Run e -> Buffer.add_string b (string_of_int e))

let json_exec b (x : exec) =
  json_list b (Array.to_list x) (fun (s, f) ->
      Buffer.add_string b (Printf.sprintf "[%d,%d]" s f))

let json_witness b (name, w) =
  Buffer.add_string b "{\"constraint\":";
  json_string b name;
  (match w with
  | Async execs ->
      Buffer.add_string b ",\"kind\":\"async\",\"execs\":";
      json_list b execs (json_exec b)
  | Periodic execs ->
      Buffer.add_string b ",\"kind\":\"periodic\",\"execs\":";
      json_list b (Array.to_list execs) (json_exec b));
  Buffer.add_char b '}'

let to_json t =
  let b = Buffer.create 1024 in
  Buffer.add_string b "{\"format\":\"rtsyn-certificate\",\"version\":";
  Buffer.add_string b (string_of_int version);
  Buffer.add_string b ",\"digest\":";
  json_string b t.digest;
  Buffer.add_string b ",\"schedule\":";
  json_schedule b t.schedule;
  Buffer.add_string b ",\"witnesses\":";
  json_list b t.witnesses (json_witness b);
  Buffer.add_string b "}\n";
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

let json_piece b = function
  | Mp_segment s ->
      Buffer.add_string b
        (Printf.sprintf "{\"seg\":%d,\"ops\":[%s],\"w\":[%d,%d]}" s.processor
           (String.concat "," (List.map string_of_int s.ops))
           s.start_off s.end_off)
  | Mp_message msg ->
      Buffer.add_string b
        (Printf.sprintf "{\"msg\":%d,\"w\":[%d,%d]}" msg.cost msg.start_off
           msg.end_off)

let json_mp_plan b (p : mp_plan) =
  Buffer.add_string b "{\"source\":";
  json_string b p.source;
  Buffer.add_string b (Printf.sprintf ",\"period\":%d,\"pieces\":" p.period);
  json_list b p.pieces (json_piece b);
  Buffer.add_char b '}'

let json_mp b t =
  Buffer.add_string b "{\"digest\":";
  json_string b t.mp_digest;
  Buffer.add_string b (Printf.sprintf ",\"hyperperiod\":%d" t.hyperperiod);
  Buffer.add_string b ",\"processors\":";
  json_list b (Array.to_list t.processors) (json_schedule b);
  Buffer.add_string b ",\"bus\":";
  json_list b
    (Array.to_list t.bus)
    (function
      | None -> Buffer.add_string b "null"
      | Some s -> json_string b s);
  Buffer.add_string b ",\"plans\":";
  json_list b t.mp_plans (json_mp_plan b);
  Buffer.add_string b ",\"dropped\":";
  json_list b t.mp_dropped (json_string b);
  Buffer.add_string b ",\"overrides\":";
  json_list b t.mp_overrides (fun (n, p, d) ->
      Buffer.add_string b "[";
      json_string b n;
      Buffer.add_string b (Printf.sprintf ",%d,%d]" p d));
  Buffer.add_char b '}'

let mp_to_json t =
  let b = Buffer.create 1024 in
  Buffer.add_string b
    "{\"format\":\"rtsyn-certificate-mp\",\"version\":";
  Buffer.add_string b (string_of_int version);
  Buffer.add_string b ",\"system\":";
  json_mp b t;
  Buffer.add_string b "}\n";
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
  Buffer.add_string b
    "{\"format\":\"rtsyn-certificate-contingency\",\"version\":";
  Buffer.add_string b (string_of_int version);
  Buffer.add_string b
    (Printf.sprintf ",\"detect\":%d,\"migration\":%d,\"reconfig\":%d" t.t_detect
       t.t_migration t.t_reconfig);
  Buffer.add_string b ",\"nominal\":";
  json_mp b t.t_nominal;
  Buffer.add_string b ",\"scenarios\":";
  json_list b t.t_scenarios (fun (dead, mp) ->
      Buffer.add_string b (Printf.sprintf "{\"dead\":%d,\"system\":" dead);
      json_mp b mp;
      Buffer.add_char b '}');
  Buffer.add_string b "}\n";
  Buffer.contents b
