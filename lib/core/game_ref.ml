(* The PR-4 game engine, frozen verbatim as an independent oracle for
   the packed rewrite in game.ml.  Every state is a heap-allocated
   [int array], the antichain is a flat CAS list scanned linearly, and
   the per-solve transposition table is a full 32-shard Shard_tbl —
   exactly the constant factors the packed engine removes.  Kept so
   equivalence tests and the E15 bench can compare the two
   implementations head-to-head on identical inputs. *)

module Perf = Rt_par.Perf
module Pool = Rt_par.Pool
module Stbl = Rt_par.Shard_tbl
module Key = Rt_par.Shard_tbl.Int_array
module Ktbl = Hashtbl.Make (Rt_par.Shard_tbl.Int_array)

type outcome =
  | Feasible of Schedule.t
  | Infeasible
  | Timeout of string
  | Unknown of string

type stats = { explored : int; outcome : outcome }

let trivially_feasible () =
  { explored = 0; outcome = Feasible (Schedule.of_slots [ Schedule.Idle ]) }

(* ------------------------------------------------------------------ *)
(* Branch fan-out (same scheme as Exact: lowest-index branch wins).    *)
(* ------------------------------------------------------------------ *)

let find_branches pool n_tasks branch =
  let branch i =
    Rt_obs.Tracer.span ~cat:"exact" "game/branch" (fun () -> branch i)
  in
  match pool with
  | Some p when Pool.jobs p > 1 ->
      Pool.parallel_find_first p branch (Array.init n_tasks Fun.id)
  | _ ->
      let rec go i =
        if i >= n_tasks then None
        else match branch i with Some _ as r -> r | None -> go (i + 1)
      in
      go 0

(* ------------------------------------------------------------------ *)
(* Dominance antichain: pointwise-maximal dead states.                 *)
(*                                                                     *)
(* [subsumed v d] must mean "if d is dead then v is dead".  The cell   *)
(* holds an immutable list swapped by CAS, so lanes read it without    *)
(* locking; the list is kept an antichain (no element subsumes another)*)
(* and capped — dropping entries only loses pruning power, never       *)
(* soundness.                                                          *)
(* ------------------------------------------------------------------ *)

module Antichain = struct
  type t = { cell : int array list Atomic.t; cap : int }

  let create ?(cap = 512) () = { cell = Atomic.make []; cap }

  let covers ~subsumed t v =
    List.exists (fun d -> subsumed v d) (Atomic.get t.cell)

  let rec add ~subsumed t v =
    let cur = Atomic.get t.cell in
    if List.exists (fun d -> subsumed v d) cur then ()
    else
      let kept = List.filter (fun d -> not (subsumed d v)) cur in
      let kept =
        if List.length kept >= t.cap then
          match kept with [] -> [] | _ :: tl -> tl
        else kept
      in
      if not (Atomic.compare_and_set t.cell cur (v :: kept)) then
        add ~subsumed t v
end

(* ------------------------------------------------------------------ *)
(* State shared by every branch of one solve: the dead-state           *)
(* transposition table, the optional dominance antichain, and the      *)
(* global expansion budget.  Everything in here is path-independent:   *)
(* "state s is dead" holds regardless of which prefix reached s, so    *)
(* lanes may freely consume facts other lanes produced.                *)
(* ------------------------------------------------------------------ *)

type shared = {
  dead : (int array, unit) Stbl.t;
  antichain : Antichain.t option;
  subsumed : int array -> int array -> bool;
  expanded : int Atomic.t;
  max_states : int;
  over_budget : bool Atomic.t;
  budget : Budget.t option;
  timed_out : bool Atomic.t;
}

(* Default transposition-table cap: comfortably above the default
   [max_states] (each expansion adds at most one dead fact), so default
   runs never evict and stay bit-identical to the uncapped engine, while
   adversarial long runs stay bounded. *)
let default_table_cap = 2 * 1024 * 1024

(* A resident dead-fact table a caller may thread through several solves
   of the SAME model (and granularity): "state s is dead" is a property
   of the model alone, not of the path or budget that proved it, so a
   later solve may consume facts an earlier (even timed-out) solve
   derived.  Reusing a table across different models is unsound — the
   daemon keys its resident tables by model digest. *)
type table = (int array, unit) Stbl.t

let table ?(cap = default_table_cap) () =
  Stbl.create ~max_entries:cap ~hash:Key.hash ~equal:Key.equal 1024

let table_size = Stbl.length

let make_shared ?antichain ?budget ?table:dead_table
    ?(table_cap = default_table_cap) ~subsumed ~max_states () =
  {
    dead =
      (match dead_table with
      | Some t -> t
      | None ->
          Stbl.create ~max_entries:table_cap ~hash:Key.hash ~equal:Key.equal
            1024);
    antichain;
    subsumed;
    expanded = Atomic.make 1 (* the initial state *);
    max_states;
    over_budget = Atomic.make false;
    budget;
    timed_out = Atomic.make false;
  }

let known_dead sh key =
  if Stbl.mem sh.dead key then begin
    Rt_obs.Metrics.incr Perf.table_hits;
    true
  end
  else begin
    Rt_obs.Metrics.incr Perf.table_misses;
    match sh.antichain with
    | Some ac when Antichain.covers ~subsumed:sh.subsumed ac key ->
        Rt_obs.Metrics.incr Perf.dominance_kills;
        (* Promote the derived fact so future probes hit the table. *)
        Stbl.add sh.dead key ();
        true
    | _ -> false
  end

let mark_dead sh key =
  Stbl.add sh.dead key ();
  match sh.antichain with
  | Some ac -> Antichain.add ~subsumed:sh.subsumed ac key
  | None -> ()

(* One expansion ticket, or [false] when the global budget is spent.
   The caller-supplied [Budget.t] is spent first so a tripped budget
   never touches the expansion counters (with no budget this path is
   untouched — the bench counters pin it). *)
let try_expand sh =
  (match sh.budget with
  | None -> true
  | Some b ->
      Budget.spend b 1
      ||
      (Atomic.set sh.timed_out true;
       false))
  && (not (Atomic.get sh.over_budget))
  &&
  let n = Atomic.fetch_and_add sh.expanded 1 in
  if n >= sh.max_states then begin
    Atomic.set sh.over_budget true;
    false
  end
  else begin
    Rt_obs.Metrics.incr Perf.game_states;
    true
  end

let explored_of sh = min (Atomic.get sh.expanded) sh.max_states

(* Observability: final size of this solve's transposition table and how
   many facts its cap forced out (0 unless the run outgrew
   [default_table_cap]). *)
let table_size_gauge = Rt_obs.Metrics.gauge "game/table_size"
let table_evictions_ctr = Rt_obs.Metrics.counter "game/table_evictions"
let stage_us = Rt_obs.Metrics.histogram "stage/game"

let publish_table_stats sh =
  Rt_obs.Metrics.set table_size_gauge (Stbl.length sh.dead);
  Rt_obs.Metrics.add table_evictions_ctr (Stbl.evictions sh.dead)

let finish sh m asyncs result =
  publish_table_stats sh;
  match result with
  | Some sched ->
      let ok =
        List.for_all
          (fun c -> Latency.meets_asynchronous m.Model.comm sched c)
          asyncs
      in
      {
        explored = explored_of sh;
        outcome =
          (if ok then Feasible sched
           else Unknown "internal: cycle schedule failed verification");
      }
  | None ->
      {
        explored = explored_of sh;
        outcome =
          (if Atomic.get sh.timed_out then
             Timeout
               (match Option.bind sh.budget Budget.exhausted with
               | Some reason -> reason
               | None -> "budget exhausted")
           else if Atomic.get sh.over_budget then
             Unknown
               (Printf.sprintf "state budget %d exhausted" sh.max_states)
           else Infeasible);
      }

(* ------------------------------------------------------------------ *)
(* Budget-vector game: every constraint is a single operation.         *)
(*                                                                     *)
(* State: budget.(i) = slots remaining for constraint i's next         *)
(* execution to finish.  Transitions are macro-steps.  Dominance: a    *)
(* dead state with pointwise no-smaller budgets kills any state with   *)
(* pointwise no-larger budgets (less slack everywhere is strictly      *)
(* harder, and play from the laxer state can mimic any play from the   *)
(* harder one).                                                        *)
(* ------------------------------------------------------------------ *)

type action = A_idle | A_run of int

let budget_subsumed v d =
  (* v dead if d dead: v pointwise <= d. *)
  Array.length v = Array.length d
  &&
  let n = Array.length v in
  let rec go i = i >= n || (v.(i) <= d.(i) && go (i + 1)) in
  go 0

let solve_budget ?pool ?budget ?table ~max_states (m : Model.t) =
  let asyncs = Model.asynchronous m in
  let specs =
    (* (element, weight, deadline) per constraint; single-op by
       construction (the caller validated the graphs). *)
    List.map
      (fun (c : Timing.t) ->
        let e = Task_graph.element_of_node c.graph 0 in
        (e, Comm_graph.weight m.comm e, c.deadline))
      asyncs
    |> Array.of_list
  in
  let n = Array.length specs in
  if n = 0 then trivially_feasible ()
  else begin
    let elements =
      Array.to_list specs |> List.map (fun (e, _, _) -> e)
      |> List.sort_uniq Int.compare |> Array.of_list
    in
    let weight_of = Hashtbl.create 8 in
    Array.iter (fun (e, w, _) -> Hashtbl.replace weight_of e w) specs;
    let initial = Array.init n (fun i -> let _, _, d = specs.(i) in d) in
    let initially_dead = Array.exists (fun (_, w, d) -> d < w) specs in
    (* Necessary long-run rate condition (see Exact.solve_single_ops):
       element e must start an execution at least every d_i + 1 - w_e
       slots for its tightest constraint i; if those shares sum past 1
       the instance is certainly infeasible. *)
    let rate_overloaded =
      let tightest = Hashtbl.create 8 in
      Array.iter
        (fun (e, _, d) ->
          match Hashtbl.find_opt tightest e with
          | Some d' when d' <= d -> ()
          | _ -> Hashtbl.replace tightest e d)
        specs;
      let total =
        Hashtbl.fold
          (fun e d acc ->
            let w = Hashtbl.find weight_of e in
            if d + 1 - w <= 0 then acc +. infinity
            else acc +. (float_of_int w /. float_of_int (d + 1 - w)))
          tightest 0.0
      in
      total > 1.0 +. 1e-9
    in
    if initially_dead || rate_overloaded then
      { explored = 0; outcome = Infeasible }
    else begin
      let step state = function
        | A_idle ->
            let ok = ref true in
            let next =
              Array.mapi
                (fun i b ->
                  let _, w, _ = specs.(i) in
                  let b' = b - 1 in
                  if b' < w then ok := false;
                  b')
                state
            in
            if !ok then Some next else None
        | A_run e ->
            let we = Hashtbl.find weight_of e in
            let ok = ref true in
            let next =
              Array.mapi
                (fun i b ->
                  let ei, wi, di = specs.(i) in
                  if ei = e then begin
                    if b < we then ok := false;
                    di + 1 - we
                  end
                  else begin
                    if b < we + wi then ok := false;
                    b - we
                  end)
                state
            in
            if !ok then Some next else None
      in
      let actions =
        Array.to_list (Array.map (fun e -> A_run e) elements) @ [ A_idle ]
      in
      let expand_action = function
        | A_idle -> [ Schedule.Idle ]
        | A_run e ->
            List.init (Hashtbl.find weight_of e) (fun _ -> Schedule.Run e)
      in
      let sh =
        make_shared ~antichain:(Antichain.create ()) ?budget ?table
          ~subsumed:budget_subsumed ~max_states ()
      in
      Rt_obs.Metrics.incr Perf.game_states;
      let best = Rt_par.Bound.create () in
      let n_el = Array.length elements in
      let exception Cycle of action list in
      let exception Out_of_budget in
      let exception Aborted in
      (* Branch [b]: plays whose first action runs element [b].  An
         all-idle play cannot cycle (budgets strictly decrease), so
         every safe cycle reachable at all is reachable with a run
         first: the initial state has pointwise-maximal budgets, hence
         can mimic the cycle's word starting from its first run. *)
      let branch bidx =
        let a0 = A_run elements.(bidx) in
        match step initial a0 with
        | None -> None
        | Some s1 ->
            if known_dead sh s1 then None
            else begin
              let gray = Ktbl.create 256 in
              Ktbl.replace gray initial ();
              (* Frames: (state, remaining actions, action towards the
                 current child, whether exhausting the frame proves the
                 state dead).  The initial frame is shared with every
                 other branch, so it must not be marked. *)
              let frames =
                ref [ (initial, ref [], ref (Some a0), false) ]
              in
              let push state =
                Ktbl.replace gray state ();
                frames := (state, ref actions, ref None, true) :: !frames
              in
              let result =
                try
                  if not (try_expand sh) then raise Out_of_budget;
                  push s1;
                  let rec loop () =
                    if Rt_par.Bound.get best < bidx then raise Aborted;
                    match !frames with
                    | [] -> None
                    | (state, remaining, via, markable) :: rest -> (
                        match !remaining with
                        | [] ->
                            if markable then mark_dead sh state;
                            Ktbl.remove gray state;
                            frames := rest;
                            loop ()
                        | a :: more -> (
                            remaining := more;
                            match step state a with
                            | None -> loop ()
                            | Some next ->
                                if Ktbl.mem gray next then begin
                                  (* Collect the actions along the
                                     cycle: from the frame holding
                                     [next] up to here, then [a]. *)
                                  via := Some a;
                                  let rec collect acc = function
                                    | [] -> assert false
                                    | (s, _, v, _) :: tl ->
                                        let acc =
                                          match !v with
                                          | Some act -> act :: acc
                                          | None -> acc
                                        in
                                        if Key.equal s next then acc
                                        else collect acc tl
                                  in
                                  raise (Cycle (collect [] !frames))
                                end
                                else if known_dead sh next then loop ()
                                else if not (try_expand sh) then
                                  raise Out_of_budget
                                else begin
                                  via := Some a;
                                  push next;
                                  loop ()
                                end))
                  in
                  loop ()
                with
                | Cycle cycle_actions ->
                    let slots = List.concat_map expand_action cycle_actions in
                    Rt_par.Bound.update_min best bidx;
                    Some (Schedule.of_slots slots)
                | Out_of_budget | Aborted -> None
              in
              result
            end
      in
      finish sh m asyncs (find_branches pool n_el branch)
    end
  end

(* ------------------------------------------------------------------ *)
(* Trace-residue game: general task-graph constraints.                 *)
(*                                                                     *)
(* The play is the infinite trace, built one slot ([`Unit]) or one     *)
(* whole execution block ([`Atomic]) per edge.  Appending at length l  *)
(* closes exactly the windows ending at l, and every such window reads *)
(* at most the last d_max slots, so legality is decided incrementally  *)
(* on a trace of bounded span.  Since all future checks read at most   *)
(* the last d_max - 1 existing slots, the state is that residue,       *)
(* canonicalized: a block cut by the residue's left edge can never     *)
(* again lie fully inside a window, so its slots are remapped to idle. *)
(* A repeated residue on one path closes a safe cycle; the slots laid  *)
(* between the two visits are a feasible static schedule.              *)
(* ------------------------------------------------------------------ *)

let residue_subsumed v d =
  (* Unit-weight slotwise order: v is d with some runs idled out, so
     any legal continuation of v is legal from d, and d's death kills
     v.  (Unsound for weighted blocks: removing slots re-aligns block
     decompositions; see docs/PERFORMANCE.md.)  Index 0 is the
     warm-up-length marker, never -1, so it is forced equal. *)
  Array.length v = Array.length d
  &&
  let n = Array.length v in
  let rec go i = i >= n || ((v.(i) = -1 || v.(i) = d.(i)) && go (i + 1)) in
  go 0

type path = {
  mutable slots : int array; (* element id, or -1 for idle *)
  mutable starts : Bytes.t; (* '\001' where a block (or idle) begins *)
  mutable len : int;
}

let path_create () =
  { slots = Array.make 64 (-1); starts = Bytes.make 64 '\000'; len = 0 }

let path_push p v ~start =
  if p.len = Array.length p.slots then begin
    let n = 2 * p.len in
    let slots = Array.make n (-1) in
    Array.blit p.slots 0 slots 0 p.len;
    p.slots <- slots;
    let starts = Bytes.make n '\000' in
    Bytes.blit p.starts 0 starts 0 p.len;
    p.starts <- starts
  end;
  p.slots.(p.len) <- v;
  Bytes.set p.starts p.len (if start then '\001' else '\000');
  p.len <- p.len + 1

let solve_trace ?pool ?budget ?table ~max_states ~granularity (m : Model.t) =
  let asyncs = Model.asynchronous m in
  if asyncs = [] then trivially_feasible ()
  else begin
    let elements =
      List.concat_map
        (fun (c : Timing.t) -> Task_graph.elements_used c.graph)
        asyncs
      |> List.sort_uniq Int.compare |> Array.of_list
    in
    let n_el = Array.length elements in
    let widths =
      Array.map
        (fun e ->
          match granularity with
          | `Unit -> 1
          | `Atomic -> Comm_graph.weight m.comm e)
        elements
    in
    let unit_weights =
      Array.for_all (fun e -> Comm_graph.weight m.comm e = 1) elements
    in
    let d_max =
      List.fold_left (fun acc (c : Timing.t) -> max acc c.deadline) 1 asyncs
    in
    let r = d_max - 1 in
    let sh =
      make_shared
        ?antichain:(if unit_weights then Some (Antichain.create ()) else None)
        ?budget ?table ~subsumed:residue_subsumed ~max_states ()
    in
    Rt_obs.Metrics.incr Perf.game_states;
    (* Windows ending at [l] (1-based length), over a trace spanning at
       most the last [d_max] slots.  The local trace starts at the
       first block boundary at or after [l - d_max]: a block cut by
       that edge began earlier, so it cannot lie fully inside any
       window ending at or after [l] and is safely dropped (dropping it
       also keeps Trace.of_slots from mis-grouping the remaining slots
       of its element). *)
    let check_windows path l =
      let base = l - min l d_max in
      let p0 = ref base in
      while !p0 < l && Bytes.get path.starts !p0 = '\000' do
        incr p0
      done;
      let k = l - !p0 in
      let local =
        Array.init k (fun j ->
            let v = path.slots.(!p0 + j) in
            if v < 0 then Schedule.Idle else Schedule.Run v)
      in
      let trace = Trace.of_slots m.Model.comm local in
      List.for_all
        (fun (c : Timing.t) ->
          c.deadline > l
          || Latency.contains_execution m.Model.comm c.graph trace
               ~t0:(max 0 (l - c.deadline - !p0))
               ~t1:k)
        asyncs
    in
    (* Append one action (element index, or [n_el] for idle), checking
       every window the new slots close; on failure the path is
       restored and [false] returned. *)
    let try_append path act =
      let l0 = path.len in
      if act = n_el then begin
        path_push path (-1) ~start:true;
        check_windows path (l0 + 1)
        ||
        (path.len <- l0;
         false)
      end
      else begin
        let e = elements.(act) and w = widths.(act) in
        let rec lay i =
          i >= w
          ||
          (path_push path e ~start:(i = 0);
           check_windows path (l0 + i + 1) && lay (i + 1))
        in
        if lay 0 then true
        else begin
          path.len <- l0;
          false
        end
      end
    in
    (* Canonical key: warm-up marker (min len r — all future windows of
       a longer play read strictly inside the path iff len >= r) then
       the last [min len r] slots with left-cut block tails idled. *)
    let key_of path =
      let l = path.len in
      let k = min l r in
      let base = l - k in
      let p0 = ref base in
      while !p0 < l && Bytes.get path.starts !p0 = '\000' do
        incr p0
      done;
      let key = Array.make (k + 1) (-1) in
      key.(0) <- k;
      for j = !p0 to l - 1 do
        key.(j - base + 1) <- path.slots.(j)
      done;
      key
    in
    let schedule_of path ~from =
      let slots = ref [] in
      for j = path.len - 1 downto from do
        slots :=
          (if path.slots.(j) < 0 then Schedule.Idle
           else Schedule.Run path.slots.(j))
          :: !slots
      done;
      Schedule.of_slots !slots
    in
    let best = Rt_par.Bound.create () in
    let all_actions = List.init (n_el + 1) Fun.id in
    let exception Cycle_at of int in
    let exception Out_of_budget in
    let exception Aborted in
    (* Branch [bidx]: plays opening with run [i0] then action [i1] —
       the first two levels of the sequential DFS, flattened in its
       visit order (idle first is never needed: feasibility is
       rotation-invariant, so some run can open the play). *)
    let n_branches = n_el * (n_el + 1) in
    let branch bidx =
      let i0 = bidx / (n_el + 1) and i1 = bidx mod (n_el + 1) in
      let path = path_create () in
      let gray = Ktbl.create 1024 in
      (* gray maps a state's key to the path length at that state. *)
      let initial_key = key_of path in
      Ktbl.replace gray initial_key 0;
      let frames = ref [] in
      (* Apply one prefix action; prefix states other than the deepest
         are only partially explored by this branch, so they are not
         dead-markable. *)
      let apply_prefix act ~remaining ~markable =
        if not (try_append path act) then `Stop
        else begin
          let key = key_of path in
          match Ktbl.find_opt gray key with
          | Some from -> `Cycle from
          | None ->
              if known_dead sh key then `Stop
              else if not (try_expand sh) then raise Out_of_budget
              else begin
                Ktbl.replace gray key path.len;
                frames := (key, path.len, ref remaining, markable) :: !frames;
                `Ok
              end
        end
      in
      try
        match apply_prefix i0 ~remaining:[] ~markable:false with
        | `Stop -> None
        | `Cycle from ->
            Rt_par.Bound.update_min best bidx;
            Some (schedule_of path ~from)
        | `Ok -> (
            match apply_prefix i1 ~remaining:all_actions ~markable:true with
            | `Stop -> None
            | `Cycle from ->
                Rt_par.Bound.update_min best bidx;
                Some (schedule_of path ~from)
            | `Ok ->
                let rec loop () =
                  if Rt_par.Bound.get best < bidx then raise Aborted;
                  match !frames with
                  | [] -> None
                  | (key, plen, remaining, markable) :: rest -> (
                      match !remaining with
                      | [] ->
                          if markable then mark_dead sh key;
                          Ktbl.remove gray key;
                          frames := rest;
                          (match rest with
                          | (_, pl, _, _) :: _ -> path.len <- pl
                          | [] -> ());
                          loop ()
                      | a :: more ->
                          remaining := more;
                          if not (try_append path a) then loop ()
                          else begin
                            let k = key_of path in
                            match Ktbl.find_opt gray k with
                            | Some from -> raise (Cycle_at from)
                            | None ->
                                if known_dead sh k then begin
                                  path.len <- plen;
                                  loop ()
                                end
                                else if not (try_expand sh) then
                                  raise Out_of_budget
                                else begin
                                  Ktbl.replace gray k path.len;
                                  frames :=
                                    (k, path.len, ref all_actions, true)
                                    :: !frames;
                                  loop ()
                                end
                          end)
                in
                loop ())
      with
      | Cycle_at from ->
          Rt_par.Bound.update_min best bidx;
          Some (schedule_of path ~from)
      | Out_of_budget | Aborted -> None
    in
    finish sh m asyncs (find_branches pool n_branches branch)
  end

(* ------------------------------------------------------------------ *)
(* Entry point.                                                        *)
(* ------------------------------------------------------------------ *)

let solve ?pool ?budget ?table ?(max_states = 500_000) ~granularity
    (m : Model.t) =
  Rt_obs.Tracer.span ~cat:"stage" "game" @@ fun () ->
  Rt_obs.Metrics.time stage_us @@ fun () ->
  let asyncs = Model.asynchronous m in
  if asyncs = [] then trivially_feasible ()
  else if
    List.for_all (fun (c : Timing.t) -> Task_graph.size c.graph = 1) asyncs
  then solve_budget ?pool ?budget ?table ~max_states m
  else solve_trace ?pool ?budget ?table ~max_states ~granularity m
