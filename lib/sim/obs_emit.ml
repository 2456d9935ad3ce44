open Rt_core
module Tracer = Rt_obs.Tracer

let us_of_slot t = t * Tracer.slot_us

let elem_name g e =
  match Comm_graph.element g e with
  | el -> el.Element.name
  | exception _ -> Printf.sprintf "e%d" e

let track ~tid name = Tracer.track_name ~tid name

let emit_span g ~tid e ~start ~stop_excl =
  Tracer.complete ~cat:"sim" ~tid ~ts_us:(us_of_slot start)
    ~dur_us:(us_of_slot (stop_excl - start))
    (elem_name g e)

let schedule g sched ~tid ~horizon =
  if Tracer.enabled () && horizon > 0 && Schedule.length sched > 0 then begin
    (* Merge consecutive slots of the same element into one span. *)
    let current = ref None in
    let close_at t =
      match !current with
      | Some (e, start) ->
          emit_span g ~tid e ~start ~stop_excl:t;
          current := None
      | None -> ()
    in
    for t = 0 to horizon - 1 do
      match Schedule.slot sched (t mod Schedule.length sched) with
      | Schedule.Idle -> close_at t
      | Schedule.Run e -> (
          match !current with
          | Some (e', _) when e' = e -> ()
          | Some _ ->
              close_at t;
              current := Some (e, t)
          | None -> current := Some (e, t))
    done;
    close_at horizon
  end

let executions g ~tid records =
  if Tracer.enabled () then
    List.iter
      (fun (e, start, finish) -> emit_span g ~tid e ~start ~stop_excl:finish)
      records

let instant ~tid ~at name =
  Tracer.instant_at ~cat:"sim" ~tid ~ts_us:(us_of_slot at) name
