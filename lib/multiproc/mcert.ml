(* [Decompose] below is THIS library's multiprocessor decomposition,
   not Rt_core.Decompose (interaction components) — re-bind it across
   the open, which would otherwise shadow the sibling. *)
module Mp_decompose = Decompose
open Rt_core
module Certificate = Rt_check.Certificate
module Decompose = Mp_decompose

let cert_piece (w : Decompose.windowed) =
  match w.Decompose.piece with
  | Decompose.Segment s ->
      Certificate.Mp_segment
        {
          processor = s.processor;
          ops = s.ops;
          start_off = w.Decompose.start_off;
          end_off = w.Decompose.end_off;
        }
  | Decompose.Message msg ->
      Certificate.Mp_message
        {
          cost = msg.cost;
          start_off = w.Decompose.start_off;
          end_off = w.Decompose.end_off;
        }

let cert_plan (p : Decompose.plan) =
  {
    Certificate.source = p.Decompose.constraint_name;
    period = p.Decompose.period;
    pieces = List.map cert_piece p.Decompose.pieces;
  }

let build m (r : Msched.result) ~dropped ~overrides =
  Certificate.mp_make m ~hyperperiod:r.Msched.hyperperiod
    ~processors:r.Msched.processor_schedules ~bus:r.Msched.bus
    ~plans:(List.map cert_plan r.Msched.plans)
    ~dropped ~overrides ()

let result_cert m r = build m r ~dropped:[] ~overrides:[]

(* A stretch note is (name, before, after); which parameter it records
   depends on the kind (see Modes.stretch_constraint): periodic notes
   carry the period (deadline scaled by the same factor), asynchronous
   notes carry the deadline (minimum separation untouched). *)
let overrides_of (m : Model.t) stretched =
  List.map
    (fun (name, before, after) ->
      match
        List.find_opt
          (fun (c : Timing.t) -> c.Timing.name = name)
          m.Model.constraints
      with
      | None -> (name, 0, 0) (* unknown constraint: the checker rejects *)
      | Some c -> (
          match c.Timing.kind with
          | Timing.Periodic ->
              if before <= 0 then (name, 0, 0)
              else (name, after, c.Timing.deadline * after / before)
          | Timing.Asynchronous -> (name, c.Timing.period, after)))
    stretched

let scenario_cert m (s : Contingency.scenario) =
  build m s.Contingency.result ~dropped:s.Contingency.dropped
    ~overrides:(overrides_of m s.Contingency.stretched)

let table_cert m (t : Contingency.table) =
  {
    Certificate.t_nominal = result_cert m t.Contingency.nominal;
    t_scenarios =
      List.map
        (fun (s : Contingency.scenario) ->
          (s.Contingency.dead, scenario_cert m s))
        (Contingency.feasible_scenarios t);
    t_detect = t.Contingency.detect_bound;
    t_migration = t.Contingency.migration;
    t_reconfig = t.Contingency.reconfig_bound;
  }
