open Rt_base
open Certificate

let err errs fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt

let finish_errs errs =
  match List.rev !errs with [] -> Ok () | es -> Error es

(* {1 Uniprocessor} *)

(* Runs of [check_witness] since start-up: the checker's work as a
   count that machine load cannot move. *)
let witness_count = Atomic.make 0
let witness_checks () = Atomic.get witness_count

(* An error's subject: the constraint's name, followed for a periodic
   invocation by its release time [at] ([at < 0] for none).  Rendered
   only when an error is reported. *)
let label name at = if at < 0 then name else Printf.sprintf "%s@%d" name at

(* Re-validate one claimed execution against the checker's own trace
   decomposition: every node's instance exists exactly as claimed,
   distinct nodes take distinct instances, precedence edges finish
   before their consumer starts, and every slot lies in [lo, hi]. *)
let check_exec errs tr (c : Timing.t) ~at ~lo ~hi (x : Certificate.exec) =
  let name = c.Timing.name in
  let tg = c.Timing.graph in
  let n = Task_graph.size tg in
  if Array.length x <> n then begin
    err errs "%s: witness has %d entries for %d task-graph nodes"
      (label name at) (Array.length x) n;
    None
  end
  else begin
    let ok = ref true in
    let bad fmt = Printf.ksprintf (fun s -> ok := false; errs := s :: !errs) fmt in
    Array.iteri
      (fun v (s, f) ->
        let e = Task_graph.element_of_node tg v in
        (match Trace.first_at_or_after tr ~elem:e ~time:s with
        | Some inst when inst.Trace.start = s && inst.Trace.finish = f -> ()
        | _ ->
            bad "%s: node %d claims an execution of element %d at [%d,%d) \
                 that the trace does not contain"
              (label name at) v e s f);
        if s < lo || f > hi then
          bad "%s: node %d execution [%d,%d) outside window [%d,%d]"
            (label name at) v s f lo hi)
      x;
    (* Task graphs are tiny, so nodes are compared pairwise; a shared
       instance is reported against the first node that took it. *)
    for v = 1 to n - 1 do
      let e = Task_graph.element_of_node tg v and s = fst x.(v) in
      let u = ref 0 in
      while
        !u < v && not (Task_graph.element_of_node tg !u = e && fst x.(!u) = s)
      do
        incr u
      done;
      if !u < v then
        bad "%s: nodes %d and %d share the instance of element %d at %d"
          (label name at) !u v e s
    done;
    List.iter
      (fun (u, v) ->
        let _, fu = x.(u) and sv, _ = x.(v) in
        if fu > sv then
          bad "%s: precedence %d->%d violated (finish %d > start %d)"
            (label name at) u v fu sv)
      (Task_graph.edges tg);
    if not !ok then None
    else
      Some
        ( Array.fold_left (fun a (s, _) -> min a s) max_int x,
          Array.fold_left (fun a (_, f) -> max a f) 0 x )
  end

(* Invocation phases of a periodic constraint repeat with
   lcm(period, cycle); [None] when that overflows or exceeds
   [Trace.max_horizon]. *)
let super_of cycle (c : Timing.t) =
  match Rt_graph.Intmath.lcm c.Timing.period cycle with
  | s when s <= Trace.max_horizon -> Some s
  | _ | (exception Rt_graph.Intmath.Overflow) -> None

let check_witness errs tr ~cycle (c : Timing.t) w =
  Atomic.incr witness_count;
  let d = c.Timing.deadline in
  let name = c.Timing.name in
  match (c.Timing.kind, w) with
  | Timing.Periodic, Certificate.Async _
  | Timing.Asynchronous, Certificate.Periodic _ ->
      err errs "%s: witness kind does not match the constraint" name
  | Timing.Asynchronous, Certificate.Async execs -> (
      (* Covering chain: e_1 covers window starts [0, s_1]; e_(i+1)
         covers (s_i, s_(i+1)]; the last start reaches the cycle
         boundary; periodicity of the well-formed schedule does the
         rest. *)
      match execs with
      | [] -> err errs "%s: empty witness chain" name
      | first :: rest ->
          let prev =
            ref (check_exec errs tr c ~at:(-1) ~lo:0 ~hi:d first)
          in
          List.iter
            (fun x ->
              match !prev with
              | None -> ()
              | Some (s_prev, _) -> (
                  match
                    check_exec errs tr c ~at:(-1) ~lo:0
                      ~hi:(s_prev + 1 + d) x
                  with
                  | Some (s, _) when s <= s_prev ->
                      err errs
                        "%s: chain starts not increasing (%d after %d)" name
                        s s_prev;
                      prev := None
                  | r -> prev := r))
            rest;
          (match !prev with
          | Some (s_last, _) when s_last < cycle - 1 ->
              err errs
                "%s: chain stops at start %d, before the cycle boundary %d"
                name s_last (cycle - 1)
          | _ -> ()))
  | Timing.Periodic, Certificate.Periodic execs -> (
      match super_of cycle c with
      | None ->
          err errs "%s: lcm(period, cycle) overflows or exceeds %d; cannot certify"
            name Trace.max_horizon
      | Some super ->
          let n_inv = super / c.Timing.period in
          if Array.length execs <> n_inv then
            err errs "%s: %d witnessed invocations, expected %d" name
              (Array.length execs) n_inv
          else
            Array.iteri
              (fun k x ->
                let t = c.Timing.offset + (k * c.Timing.period) in
                ignore (check_exec errs tr c ~at:t ~lo:t ~hi:(t + d) x))
              execs)

(* {2 One check per distinct witness}

   [check_witness] reads nothing from its constraint but the shape
   compared by [same_shape] and the name, and the name appears only in
   error text.  Everything else it reads (the cycle and the trace) is
   the same for every constraint of one certificate.  So two
   constraints of one shape that carry equal witnesses pass or fail
   together, and [check] runs each distinct (shape, witness) once.

   The shape is read here from the constraints' raw fields, never from
   [Timing.latency_class] or a signature: those are the engines'
   sharing keys, and a bug in one of them must not make the checker
   skip a check.  Witnesses are compared structurally, so a certificate
   read from disk, which shares no values, is grouped alike.  Only a
   check that passed is reused: a failing witness is checked again for
   every constraint that carries it, so each of them reports its own
   errors, in model order. *)

(* Kind and deadline, the task graph's node map and edges, and the
   period and offset of a periodic constraint. *)
let same_shape (a : Timing.t) (b : Timing.t) =
  let same_graph ga gb =
    let n = Task_graph.size ga in
    n = Task_graph.size gb
    && (let v = ref 0 in
        while
          !v < n && Task_graph.element_of_node ga !v = Task_graph.element_of_node gb !v
        do
          incr v
        done;
        !v = n)
    && Task_graph.edges ga = Task_graph.edges gb
  in
  (match (a.Timing.kind, b.Timing.kind) with
  | Timing.Asynchronous, Timing.Asynchronous -> true
  | Timing.Periodic, Timing.Periodic ->
      a.Timing.period = b.Timing.period && a.Timing.offset = b.Timing.offset
  | (Timing.Asynchronous | Timing.Periodic), _ -> false)
  && a.Timing.deadline = b.Timing.deadline
  && (a.Timing.graph == b.Timing.graph || same_graph a.Timing.graph b.Timing.graph)

type group = {
  shape : Timing.t;  (** The first constraint seen with this shape. *)
  witness : Certificate.witness;
  mutable passed : bool;
}

(* Groups are found by the witness's structural hash, which reads a
   bounded prefix of it; [same_shape] and the witness comparison decide.
   A bucket stops growing at this length, so that a certificate with
   many witnesses alike in that prefix (none that [Certify] writes)
   cannot make the search quadratic: a group not found is checked
   again, never skipped. *)
let max_bucket = 8

(* Certify lists the witnesses in model order, so constraints and
   witnesses pair name for name.  Constraint names in a [Model.t] are
   distinct (its constructors refuse duplicates), so such a pairing has
   no duplicate, missing or unknown witness. *)
let rec in_lockstep cs ws =
  match (cs, ws) with
  | [], [] -> true
  | (c : Timing.t) :: cs, (n, _) :: ws ->
      String.equal c.Timing.name n && in_lockstep cs ws
  | _ -> false

(* Any other listing is paired through hash sets, which report each
   name error; the witness of every constraint when there is none. *)
let pair_by_name errs (m : Model.t) (cert : Certificate.t) =
  let names = List.map (fun (c : Timing.t) -> c.Timing.name) m.Model.constraints in
  let wnames = List.map fst cert.Certificate.witnesses in
  let name_set = Hashtbl.create (List.length names) in
  List.iter (fun n -> Hashtbl.replace name_set n ()) names;
  let witness_tbl = Hashtbl.create (List.length wnames) in
  List.iter
    (fun (n, w) ->
      if Hashtbl.mem witness_tbl n then err errs "duplicate witness for %s" n
      else Hashtbl.add witness_tbl n w)
    cert.Certificate.witnesses;
  List.iter
    (fun n ->
      if not (Hashtbl.mem witness_tbl n) then
        err errs "missing witness for constraint %s" n)
    names;
  List.iter
    (fun n ->
      if not (Hashtbl.mem name_set n) then
        err errs "witness for unknown constraint %s" n)
    wnames;
  fun (c : Timing.t) -> Hashtbl.find witness_tbl c.Timing.name

let check (m : Model.t) (cert : Certificate.t) =
  let errs = ref [] in
  let digest = Certificate.digest_of_model m in
  if cert.Certificate.digest <> digest then
    err errs "digest mismatch: certificate %s, model %s"
      cert.Certificate.digest digest;
  (match Schedule.validate m.Model.comm cert.Certificate.schedule with
  | Ok () -> ()
  | Error es -> List.iter (fun e -> err errs "schedule: %s" e) es);
  let witness_of =
    if in_lockstep m.Model.constraints cert.Certificate.witnesses then None
    else Some (pair_by_name errs m cert)
  in
  match finish_errs errs with
  | Error _ as e -> e
  | Ok () ->
      let buckets = Hashtbl.create 64 in
      let distinct = ref [] in
      let group_of (c : Timing.t) w =
        let h = Hashtbl.hash w in
        let bucket = Option.value ~default:[] (Hashtbl.find_opt buckets h) in
        match
          List.find_opt
            (fun g ->
              same_shape g.shape c && (g.witness == w || compare g.witness w = 0))
            bucket
        with
        | Some g -> g
        | None ->
            let g = { shape = c; witness = w; passed = false } in
            if List.compare_length_with bucket max_bucket < 0 then
              Hashtbl.replace buckets h (g :: bucket);
            distinct := g :: !distinct;
            g
      in
      let groups =
        match witness_of with
        | None ->
            List.map2
              (fun c (_, w) -> group_of c w)
              m.Model.constraints cert.Certificate.witnesses
        | Some witness_of ->
            List.map (fun c -> group_of c (witness_of c)) m.Model.constraints
      in
      let cycle = Schedule.length cert.Certificate.schedule in
      (* Bound the horizon from the model before trusting any witness
         coordinate, so a corrupt certificate cannot make the checker
         unroll an unbounded trace, nor one longer than any analysis
         does. *)
      let cap =
        min Trace.max_horizon
        @@ List.fold_left
          (fun acc g ->
            let c = g.shape in
            let reach =
              match c.Timing.kind with
              | Timing.Asynchronous -> cycle + (2 * c.Timing.deadline) + 2
              | Timing.Periodic -> (
                  match super_of cycle c with
                  | Some super -> super + c.Timing.deadline + 1
                  | None -> acc)
            in
            max acc reach)
          cycle !distinct
      in
      let horizon = ref cycle in
      let in_range = ref true in
      List.iter
        (fun g ->
          let execs =
            match g.witness with
            | Certificate.Async es -> es
            | Certificate.Periodic es -> Array.to_list es
          in
          List.iter
            (Array.iter (fun (s, f) ->
                 if s < 0 || f < s || f > cap then in_range := false
                 else horizon := max !horizon f))
            execs)
        !distinct;
      if not !in_range then
        Error [ "witness coordinates outside the certifiable range" ]
      else begin
        let tr =
          Trace.of_schedule m.Model.comm cert.Certificate.schedule
            ~horizon:!horizon
        in
        List.iter2
          (fun c g ->
            if not g.passed then begin
              let before = !errs in
              check_witness errs tr ~cycle c g.witness;
              g.passed <- !errs == before
            end)
          m.Model.constraints groups;
        finish_errs errs
      end

(* {1 Multiprocessor} *)

(* Is [seq] (element ids) the image of some topological linearization
   of [tg] covering every node?  Backtracking; task graphs are tiny. *)
let topo_matchable tg seq =
  let n = Task_graph.size tg in
  let g = Task_graph.graph tg in
  if List.length seq <> n then false
  else begin
    let used = Array.make n false in
    let rec go = function
      | [] -> true
      | e :: rest ->
          let rec try_node v =
            if v >= n then false
            else if
              (not used.(v))
              && Task_graph.element_of_node tg v = e
              && List.for_all
                   (fun p -> used.(p))
                   (Rt_graph.Digraph.pred g v)
            then begin
              used.(v) <- true;
              if go rest then true
              else begin
                used.(v) <- false;
                try_node (v + 1)
              end
            end
            else try_node (v + 1)
          in
          try_node 0
    in
    go seq
  end

let piece_window = function
  | Certificate.Mp_segment s -> (s.start_off, s.end_off)
  | Certificate.Mp_message m -> (m.start_off, m.end_off)

let plan_deadline (p : Certificate.mp_plan) =
  List.fold_left (fun acc pc -> max acc (snd (piece_window pc))) 0 p.pieces

(* Structural pass + dispatcher-cursor replay.  Returns the realized
   worst response per plan (used by the contingency slack check). *)
let mp_responses (m : Model.t) (t : Certificate.mp) =
  let errs = ref [] in
  let g = m.Model.comm in
  let digest = Certificate.digest_of_model m in
  if t.Certificate.mp_digest <> digest then
    err errs "digest mismatch: certificate %s, model %s"
      t.Certificate.mp_digest digest;
  let hyper = t.Certificate.hyperperiod in
  if hyper < 1 then err errs "hyperperiod %d < 1" hyper;
  let n_procs = Array.length t.Certificate.processors in
  if n_procs = 0 then err errs "no processor schedules";
  (* The cursor replay never uses the instance decomposition, so the
     per-processor tables need not be well-formed in the uniprocessor
     sense — but every slot must name a real element. *)
  let n_elems = Comm_graph.n_elements g in
  Array.iteri
    (fun i l ->
      Array.iter
        (function
          | Schedule.Idle -> ()
          | Schedule.Run e ->
              if e < 0 || e >= n_elems then
                err errs "processor %d: slot names unknown element %d" i e)
        (Schedule.slots l);
      if hyper >= 1 && hyper mod Schedule.length l <> 0 then
        err errs "processor %d: cycle %d does not divide hyperperiod %d" i
          (Schedule.length l) hyper)
    t.Certificate.processors;
  let bus_len = Array.length t.Certificate.bus in
  if bus_len > 0 && hyper >= 1 && hyper mod bus_len <> 0 then
    err errs "bus length %d does not divide hyperperiod %d" bus_len hyper;
  let find_c name =
    List.find_opt
      (fun (c : Timing.t) -> c.Timing.name = name)
      m.Model.constraints
  in
  List.iter
    (fun n ->
      if find_c n = None then err errs "dropped unknown constraint %s" n)
    t.Certificate.mp_dropped;
  List.iter
    (fun (n, p, d) ->
      if find_c n = None then err errs "override for unknown constraint %s" n;
      if List.mem n t.Certificate.mp_dropped then
        err errs "constraint %s both dropped and overridden" n;
      if p < 1 || d < 1 then
        err errs "override for %s: period %d / deadline %d out of range" n p d)
    t.Certificate.mp_overrides;
  let retained =
    List.filter
      (fun (c : Timing.t) ->
        not (List.mem c.Timing.name t.Certificate.mp_dropped))
      m.Model.constraints
  in
  List.iter
    (fun (c : Timing.t) ->
      match
        List.filter
          (fun (p : Certificate.mp_plan) -> p.Certificate.source = c.Timing.name)
          t.Certificate.mp_plans
      with
      | [ _ ] -> ()
      | [] -> err errs "no plan for constraint %s" c.Timing.name
      | _ -> err errs "multiple plans for constraint %s" c.Timing.name)
    retained;
  List.iter
    (fun (p : Certificate.mp_plan) ->
      if
        not
          (List.exists
             (fun (c : Timing.t) -> c.Timing.name = p.Certificate.source)
             retained)
      then err errs "plan %s names no retained constraint" p.Certificate.source)
    t.Certificate.mp_plans;
  (* Per-plan window arithmetic, re-derived from the model. *)
  List.iter
    (fun (p : Certificate.mp_plan) ->
      match
        List.find_opt
          (fun (c : Timing.t) -> c.Timing.name = p.Certificate.source)
          retained
      with
      | None -> ()
      | Some c ->
          let name = p.Certificate.source in
          let p_eff, d_eff =
            match
              List.find_opt
                (fun (n, _, _) -> n = name)
                t.Certificate.mp_overrides
            with
            | Some (_, p', d') -> (p', d')
            | None -> (c.Timing.period, c.Timing.deadline)
          in
          if p.Certificate.pieces = [] then err errs "plan %s has no pieces" name;
          let last_end =
            List.fold_left
              (fun prev_end piece ->
                let s, e = piece_window piece in
                if s < prev_end then
                  err errs "plan %s: window [%d,%d) breaks the chain at %d"
                    name s e prev_end;
                if e < s || s < 0 then
                  err errs "plan %s: malformed window [%d,%d)" name s e;
                max prev_end e)
              0 p.Certificate.pieces
          in
          if p.Certificate.period < 1 then
            err errs "plan %s: period %d < 1" name p.Certificate.period
          else if hyper >= 1 && hyper mod p.Certificate.period <> 0 then
            err errs "plan %s: period %d does not divide hyperperiod %d" name
              p.Certificate.period hyper;
          (* Successive invocations of a plan must not overlap, or the
             cursor replay could double-count slots. *)
          if last_end > p.Certificate.period then
            err errs "plan %s: windows end at %d, after the period %d" name
              last_end p.Certificate.period;
          (match c.Timing.kind with
          | Timing.Periodic ->
              if c.Timing.offset <> 0 then
                err errs
                  "plan %s: nonzero release offsets are unsupported by the \
                   distributed dispatcher"
                  name;
              if p.Certificate.period <> p_eff then
                err errs "plan %s: period %d differs from the constraint's %d"
                  name p.Certificate.period p_eff;
              if last_end > d_eff then
                err errs "plan %s: windows end at %d, after the deadline %d"
                  name last_end d_eff
          | Timing.Asynchronous ->
              (* Polling soundness (Theorem 3 shape): completing C
                 within [kq, kq+D) every period q serves any invocation
                 within q + D - 1 <= d. *)
              if p.Certificate.period + last_end > d_eff + 1 then
                err errs
                  "plan %s: polling period %d + completion %d exceeds \
                   deadline %d + 1"
                  name p.Certificate.period last_end d_eff);
          let seq =
            List.concat_map
              (function
                | Certificate.Mp_segment s -> s.ops
                | Certificate.Mp_message _ -> [])
              p.Certificate.pieces
          in
          if not (topo_matchable c.Timing.graph seq) then
            err errs
              "plan %s: segment ops are not a topological linearization of \
               the task graph"
              name;
          List.iter
            (function
              | Certificate.Mp_segment s ->
                  if s.processor < 0 || s.processor >= n_procs
                  then
                    err errs "plan %s: segment on unknown processor %d" name
                      s.processor
              | Certificate.Mp_message msg ->
                  if msg.cost < 0 then
                    err errs "plan %s: negative message cost" name)
            p.Certificate.pieces)
    t.Certificate.mp_plans;
  match finish_errs errs with
  | Error _ as e -> e
  | Ok () ->
      (* Replay the dispatcher cursor over every invocation in one
         hyperperiod; everything repeats beyond it. *)
      let responses =
        List.map
          (fun (p : Certificate.mp_plan) ->
            let worst = ref 0 in
            let t0 = ref 0 in
            while !t0 < hyper do
              let completion = ref !t0 in
              List.iteri
                (fun i piece ->
                  let s_off, e_off = piece_window piece in
                  let w0 = !t0 + s_off and w1 = !t0 + e_off in
                  match piece with
                  | Certificate.Mp_segment s ->
                      let sched = t.Certificate.processors.(s.processor) in
                      let cursor = ref w0 in
                      List.iter
                        (fun e ->
                          let needed = ref (Comm_graph.weight g e) in
                          while !needed > 0 && !cursor < w1 do
                            (if Schedule.slot sched !cursor = Schedule.Run e
                             then decr needed);
                            incr cursor
                          done;
                          if !needed > 0 then begin
                            err errs
                              "%s@%d piece %d: element %d not completed in \
                               window [%d,%d) on processor %d"
                              p.Certificate.source !t0 i e w0 w1
                              s.processor;
                            cursor := w1
                          end)
                        s.ops;
                      completion := max !completion !cursor
                  | Certificate.Mp_message msg ->
                      if msg.cost > 0 then begin
                        let label =
                          Printf.sprintf "%s@%d/%d" p.Certificate.source !t0 i
                        in
                        let needed = ref msg.cost in
                        let cursor = ref w0 in
                        let limit = min w1 bus_len in
                        while !needed > 0 && !cursor < limit do
                          (if t.Certificate.bus.(!cursor) = Some label then
                             decr needed);
                          incr cursor
                        done;
                        if !needed > 0 then begin
                          err errs
                            "%s: message %d slots short in window [%d,%d)"
                            label !needed w0 w1;
                          cursor := w1
                        end;
                        completion := max !completion !cursor
                      end)
                p.Certificate.pieces;
              worst := max !worst (!completion - !t0);
              t0 := !t0 + p.Certificate.period
            done;
            (p.Certificate.source, !worst))
          t.Certificate.mp_plans
      in
      (match finish_errs errs with
      | Ok () -> Ok responses
      | Error _ as e -> e)

let check_multi m t =
  match mp_responses m t with Ok _ -> Ok () | Error _ as e -> e

let check_table (m : Model.t) (tbl : Certificate.mp_table) =
  let errs = ref [] in
  if tbl.Certificate.t_detect < 0 || tbl.Certificate.t_migration < 0 then
    err errs "negative reconfiguration components";
  if
    tbl.Certificate.t_reconfig
    <> tbl.Certificate.t_detect + 1 + tbl.Certificate.t_migration
  then
    err errs "reconfiguration bound %d is not detect %d + 1 + migration %d"
      tbl.Certificate.t_reconfig tbl.Certificate.t_detect
      tbl.Certificate.t_migration;
  let nominal = tbl.Certificate.t_nominal in
  if nominal.Certificate.mp_dropped <> [] || nominal.Certificate.mp_overrides <> []
  then err errs "nominal system must not be degraded";
  let responses =
    match mp_responses m nominal with
    | Ok rs -> rs
    | Error es ->
        List.iter (fun e -> err errs "nominal: %s" e) es;
        []
  in
  let n_procs = Array.length nominal.Certificate.processors in
  List.iter
    (fun (dead, (smp : Certificate.mp)) ->
      let tag fmt = Printf.ksprintf (fun s -> s) fmt in
      let pre = tag "crash p%d" dead in
      if dead < 0 || dead >= n_procs then
        err errs "%s: no such processor" pre
      else begin
        (match mp_responses m smp with
        | Ok _ -> ()
        | Error es -> List.iter (fun e -> err errs "%s: %s" pre e) es);
        if dead < Array.length smp.Certificate.processors then begin
          let sched = smp.Certificate.processors.(dead) in
          if
            not
              (Array.for_all
                 (fun s -> s = Schedule.Idle)
                 (Schedule.slots sched))
          then err errs "%s: dead processor is not idle in the scenario" pre
        end;
        (* An invocation in flight when the crash hits must absorb the
           whole reconfiguration latency and still meet the scenario's
           (possibly stretched) deadline. *)
        List.iter
          (fun (p : Certificate.mp_plan) ->
            match List.assoc_opt p.Certificate.source responses with
            | None -> ()
            | Some response ->
                let deadline = plan_deadline p in
                if response + tbl.Certificate.t_reconfig > deadline then
                  err errs
                    "%s: %s response %d + reconfiguration %d exceeds \
                     deadline %d"
                    pre p.Certificate.source response
                    tbl.Certificate.t_reconfig deadline)
          smp.Certificate.mp_plans
      end)
    tbl.Certificate.t_scenarios;
  finish_errs errs
