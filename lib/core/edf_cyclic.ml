type job = {
  job_name : string;
  graph : Task_graph.t;
  release : int;
  abs_deadline : int;
}

type failure = { failed_job : string; at_time : int; reason : string }

let jobs_of_periodic ~horizon (c : Timing.t) =
  if not (Timing.is_periodic c) then
    invalid_arg "Edf_cyclic.jobs_of_periodic: constraint is not periodic";
  if c.offset + c.deadline > c.period then
    invalid_arg
      (Printf.sprintf
         "Edf_cyclic.jobs_of_periodic: constraint %s has offset %d + \
          deadline %d > period %d (jobs would spill over the cycle \
          boundary, which the cyclic constructor does not support)"
         c.name c.offset c.deadline c.period);
  let rec go t acc =
    if t >= horizon then List.rev acc
    else
      go (t + c.period)
        ({
           job_name = c.name ^ "@" ^ string_of_int t;
           graph = c.graph;
           release = t;
           abs_deadline = t + c.deadline;
         }
        :: acc)
  in
  go c.offset []

let jobs_of_polling ~horizon ~name ~graph ~period ~rel_deadline =
  if rel_deadline > period then
    invalid_arg "Edf_cyclic.jobs_of_polling: rel_deadline > period";
  let rec go t acc =
    if t >= horizon then List.rev acc
    else
      go (t + period)
        ({
           job_name = name ^ "@" ^ string_of_int t;
           graph;
           release = t;
           abs_deadline = t + rel_deadline;
         }
        :: acc)
  in
  go 0 []

let utilization g ~horizon jobs =
  let work =
    List.fold_left
      (fun acc j -> acc + Task_graph.computation_time g j.graph)
      0 jobs
  in
  float_of_int work /. float_of_int horizon

(* Mutable per-job dispatch state. *)
type live = {
  spec : job;
  ops : (int * int) array; (* (element, weight) in topological order *)
  mutable op_idx : int;
  mutable op_done : int;
  total : int;
  mutable executed : int;
}

(* Minimal binary min-heap over live jobs, keyed by EDF order
   (deadline, release, name).  Keeping the dispatcher event-driven makes
   [build] O(horizon + n log n) instead of O(horizon * n), which matters
   for hyperperiods in the hundreds of thousands of slots. *)
module Heap = struct
  type 'a t = { mutable data : 'a array; mutable len : int; le : 'a -> 'a -> bool }

  let create le = { data = [||]; len = 0; le }

  let swap h i j =
    let tmp = h.data.(i) in
    h.data.(i) <- h.data.(j);
    h.data.(j) <- tmp

  let rec up h i =
    let p = (i - 1) / 2 in
    if i > 0 && h.le h.data.(i) h.data.(p) then begin
      swap h i p;
      up h p
    end

  let rec down h i =
    let l = (2 * i) + 1 and r = (2 * i) + 2 in
    let s = ref i in
    if l < h.len && h.le h.data.(l) h.data.(!s) then s := l;
    if r < h.len && h.le h.data.(r) h.data.(!s) then s := r;
    if !s <> i then begin
      swap h i !s;
      down h !s
    end

  let push h x =
    if h.len = Array.length h.data then begin
      let bigger = Array.make (max 16 (2 * h.len)) x in
      Array.blit h.data 0 bigger 0 h.len;
      h.data <- bigger
    end;
    h.data.(h.len) <- x;
    h.len <- h.len + 1;
    up h (h.len - 1)

  let pop h =
    if h.len = 0 then None
    else begin
      let top = h.data.(0) in
      h.len <- h.len - 1;
      if h.len > 0 then begin
        h.data.(0) <- h.data.(h.len);
        down h 0
      end;
      Some top
    end

  let peek h = if h.len = 0 then None else Some h.data.(0)
end

type policy = Edf | Dm

(* Ties on the integers are broken by job name, as the tuple order
   these replace did. *)
let release_order a b =
  let c = Int.compare a.spec.release b.spec.release in
  if c <> 0 then c
  else
    let c = Int.compare a.spec.abs_deadline b.spec.abs_deadline in
    if c <> 0 then c else String.compare a.spec.job_name b.spec.job_name

let priority_order policy a b =
  let c =
    match policy with
    | Edf -> Int.compare a.spec.abs_deadline b.spec.abs_deadline
    | Dm ->
        Int.compare
          (a.spec.abs_deadline - a.spec.release)
          (b.spec.abs_deadline - b.spec.release)
  in
  if c <> 0 then c
  else
    let c = Int.compare a.spec.release b.spec.release in
    if c <> 0 then c else String.compare a.spec.job_name b.spec.job_name

let build ?(policy = Edf) ?budget g ~horizon jobs =
  (* Every job of a constraint shares its task graph, and a constraint's
     jobs come together, so the dispatch order of a graph is computed
     once and found again by physical equality with the previous job's
     graph. *)
  let last_graph = ref None and last_ops = ref [||] and last_total = ref 0 in
  let lives =
    List.map
      (fun j ->
        (match !last_graph with
        | Some tg when tg == j.graph -> ()
        | _ ->
            let ops =
              Task_graph.straight_line j.graph
              |> List.map (fun e -> (e, Comm_graph.weight g e))
              |> List.filter (fun (_, w) -> w > 0)
              |> Array.of_list
            in
            last_graph := Some j.graph;
            last_ops := ops;
            last_total := Array.fold_left (fun acc (_, w) -> acc + w) 0 ops);
        {
          spec = j;
          ops = !last_ops;
          op_idx = 0;
          op_done = 0;
          total = !last_total;
          executed = 0;
        })
      jobs
  in
  (* The budget is checked here, after the set-up above (a second on a
     million jobs), and every 1024 slots of the dispatch below. *)
  let within_budget () = Option.fold ~none:true ~some:Budget.check budget in
  let out_of_budget = "budget exhausted" in
  if not (within_budget ()) then
    Error { failed_job = ""; at_time = 0; reason = out_of_budget }
  else
  (* Future releases, by release slot, each slot's jobs in reverse input
     order.  A slot is put in release order when the dispatcher reaches
     it, which pushes the jobs in the order one stable sort of all jobs
     by release order did, and sorts nothing past an early failure.
     Jobs released at or after the horizon are never dispatched. *)
  let releases = Array.make horizon [] in
  List.iter
    (fun l ->
      let r = max 0 l.spec.release in
      if r < horizon then releases.(r) <- l :: releases.(r))
    lives;
  let le a b = priority_order policy a b <= 0 in
  let ready = Heap.create le in
  let slots = Array.make horizon Schedule.Idle in
  let finished l = l.executed >= l.total in
  let locked = ref None in
  let failure = ref None in
  let fail l t reason =
    if !failure = None then
      failure := Some { failed_job = l.spec.job_name; at_time = t; reason }
  in
  let t = ref 0 in
  while !failure = None && !t < horizon do
    let now = !t in
    if now land 1023 = 1023 && not (within_budget ()) then
      failure := Some { failed_job = ""; at_time = now; reason = out_of_budget };
    (* Move newly released jobs into the ready heap. *)
    (match releases.(now) with
    | [] -> ()
    | [ l ] -> Heap.push ready l
    | ls ->
        List.iter (Heap.push ready)
          (List.stable_sort release_order (List.rev ls)));
    releases.(now) <- [];
    (* Under EDF the queue head has the earliest absolute deadline, so
       checking it suffices to catch misses early; under DM this is
       only a fast path — late finishes are still caught below. *)
    (match Heap.peek ready with
    | Some l when l.spec.abs_deadline <= now && not (finished l) ->
        fail l now "deadline passed with work remaining"
    | _ -> ());
    if !failure = None then begin
      let rec next_ready () =
        match Heap.pop ready with
        | None -> None
        | Some l -> if finished l then next_ready () else Some l
      in
      let chosen =
        match !locked with
        | Some l when not (finished l) -> Some l
        | _ ->
            locked := None;
            next_ready ()
      in
      (match chosen with
      | None -> slots.(now) <- Schedule.Idle
      | Some l ->
          let e, w = l.ops.(l.op_idx) in
          slots.(now) <- Schedule.Run e;
          l.op_done <- l.op_done + 1;
          l.executed <- l.executed + 1;
          if l.op_done = w then begin
            l.op_idx <- l.op_idx + 1;
            l.op_done <- 0;
            locked := None;
            if not (finished l) then Heap.push ready l
          end
          else locked := Some l;
          if finished l && now + 1 > l.spec.abs_deadline then
            fail l now "job finished past its deadline");
      incr t
    end
  done;
  match !failure with
  | Some f -> Error f
  | None -> (
      let unfinished =
        List.find_opt (fun l -> not (finished l)) lives
      in
      match unfinished with
      | Some l ->
          Error
            {
              failed_job = l.spec.job_name;
              at_time = horizon;
              reason = "job not finished within the horizon";
            }
      | None -> Ok (Schedule.of_array slots))
