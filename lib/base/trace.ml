type instance = {
  elem : int;
  index : int;
  start : int;
  finish : int;
  slots : int array;
}

type t = { horizon : int; by_elem : instance array array }

(* Two counting passes over the slots, then direct array fills — the
   function sits under every latency question and used to spend its
   time consing and reversing per-element slot lists. *)
let of_slots g a =
  let n = Comm_graph.n_elements g in
  let occ = Array.make n 0 in
  Array.iter
    (fun s ->
      match s with
      | Schedule.Idle -> ()
      | Schedule.Run e ->
          if e < 0 || e >= n then invalid_arg "Trace.of_slots: unknown element";
          occ.(e) <- occ.(e) + 1)
    a;
  let slots_of = Array.init n (fun e -> Array.make occ.(e) 0) in
  let fill = Array.make n 0 in
  Array.iteri
    (fun i s ->
      match s with
      | Schedule.Idle -> ()
      | Schedule.Run e ->
          (slots_of.(e)).(fill.(e)) <- i;
          fill.(e) <- fill.(e) + 1)
    a;
  let by_elem =
    Array.init n (fun e ->
        let w = Comm_graph.weight g e in
        if w <= 0 then [||]
        else
          let slots = slots_of.(e) in
          let count = Array.length slots / w in
          Array.init count (fun k ->
              let mine = Array.sub slots (k * w) w in
              {
                elem = e;
                index = k;
                start = mine.(0);
                finish = mine.(w - 1) + 1;
                slots = mine;
              }))
  in
  { horizon = Array.length a; by_elem }

let max_horizon = 1 lsl 23

let of_schedule g l ~horizon = of_slots g (Schedule.unroll l horizon)

let horizon t = t.horizon

let instances t e =
  if e < 0 || e >= Array.length t.by_elem then
    invalid_arg "Trace.instances: unknown element";
  t.by_elem.(e)

let all_instances t =
  Array.to_list t.by_elem |> List.concat_map Array.to_list
  |> List.sort (fun a b ->
         match Int.compare a.start b.start with
         | 0 -> Int.compare a.elem b.elem
         | c -> c)

let instance_count t e = Array.length (instances t e)

(* Binary search for the first instance with start >= time.  Starts are
   ascending by construction. *)
let first_index_at_or_after t ~elem ~time =
  let arr = instances t elem in
  let n = Array.length arr in
  let rec go lo hi =
    if lo >= hi then if lo < n then Some lo else None
    else
      let mid = (lo + hi) / 2 in
      if arr.(mid).start >= time then go lo mid else go (mid + 1) hi
  in
  go 0 n

let first_at_or_after t ~elem ~time =
  Option.map (fun i -> (instances t elem).(i)) (first_index_at_or_after t ~elem ~time)

let nth_instance t ~elem k =
  let arr = instances t elem in
  if k >= 0 && k < Array.length arr then Some arr.(k) else None

let pipeline_ordered t =
  Array.for_all
    (fun arr ->
      let ok = ref true in
      for i = 1 to Array.length arr - 1 do
        if arr.(i).start <= arr.(i - 1).start then ok := false;
        if arr.(i).finish <= arr.(i - 1).finish then ok := false
      done;
      !ok)
    t.by_elem
