module Prng = Rt_graph.Prng

let max_rate ~horizon ~separation =
  if separation <= 0 then invalid_arg "Arrivals.max_rate";
  let rec go t acc = if t >= horizon then List.rev acc else go (t + separation) (t :: acc) in
  go 0 []

let single ~at ~horizon = if at >= 0 && at < horizon then [ at ] else []

let random g ~horizon ~separation ~density =
  if separation <= 0 || density <= 0.0 || density > 1.0 then
    invalid_arg "Arrivals.random";
  let mean_gap = float_of_int separation /. density in
  let rec go t acc =
    if t >= horizon then List.rev acc
    else begin
      let gap =
        max separation
          (separation + int_of_float (Prng.float g (2.0 *. (mean_gap -. float_of_int separation))))
      in
      go (t + gap) (t :: acc)
    end
  in
  go (Prng.int g (max 1 separation)) []

let adversarial_phases g ~horizon ~separation =
  if separation <= 0 then invalid_arg "Arrivals.adversarial_phases";
  let phase = Prng.int g separation in
  let rec go t acc = if t >= horizon then List.rev acc else go (t + separation) (t :: acc) in
  go phase []

let legal ~separation arrivals =
  let rec go = function
    | a :: (b :: _ as rest) -> a >= 0 && b - a >= separation && go rest
    | [ a ] -> a >= 0
    | [] -> true
  in
  go arrivals

let validate ~caller (m : Rt_core.Model.t) ~horizon arrivals =
  List.iter
    (fun (name, times) ->
      let refuse what =
        invalid_arg (Printf.sprintf "%s: %s %s" caller what name)
      in
      match Rt_core.Model.find m name with
      | exception Not_found -> refuse "unknown constraint"
      | c ->
          if not (Rt_core.Timing.is_asynchronous c) then
            refuse "arrivals given for periodic constraint";
          if not (legal ~separation:c.period times) then
            refuse "illegal arrival sequence for";
          if List.exists (fun t -> t >= horizon) times then
            refuse "arrival beyond horizon for")
    arrivals
