open Rt_core

let of_constraints cs =
  List.map Timing.signature cs
  |> List.sort String.compare
  |> String.concat "|"
  |> Digest.string

(* Component keys are fixed-width digests, so their concatenation needs
   no separator.  One component keys the model by its own key, which
   is what [of_constraints] gives the whole constraint list. *)
let of_component_keys = function
  | [ k ] -> k
  | keys -> Digest.string (String.concat "" keys)

let of_model (m : Model.t) =
  Decompose.components m
  |> List.map (fun (c : Decompose.component) -> of_constraints c.constraints)
  |> List.sort String.compare
  |> of_component_keys
