open Rt_core

let of_constraints cs =
  List.map (fun (c : Timing.t) -> c.signature) cs
  |> List.sort String.compare
  |> String.concat "|"
  |> Digest.string

let of_model (m : Model.t) = of_constraints m.Model.constraints
