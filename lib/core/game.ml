module Perf = Rt_par.Perf
module Pool = Rt_par.Pool
module Stbl = Rt_par.Shard_tbl
module Key = Rt_par.Shard_tbl.Int_array
module Ktbl = Hashtbl.Make (Rt_par.Shard_tbl.Int_array)
module Ac = Rt_par.Antichain

type outcome = Game_ref.outcome =
  | Feasible of Schedule.t
  | Infeasible
  | Timeout of string
  | Unknown of string

type stats = Game_ref.stats = { explored : int; outcome : outcome }
type impl = [ `Packed | `Reference ]

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
(* Observability.                                                      *)
(* ------------------------------------------------------------------ *)

let table_size_gauge = Rt_obs.Metrics.gauge "game/table_size"
let table_evictions_ctr = Rt_obs.Metrics.counter "game/table_evictions"
let alloc_words_gauge = Rt_obs.Metrics.gauge "game/alloc_words"
let ac_evictions_ctr = Rt_obs.Metrics.counter "game/antichain_evictions"
let ac_probe_hist = Rt_obs.Metrics.histogram "game/antichain_probe_len"
let on_probe len = Rt_obs.Metrics.observe ac_probe_hist len
let stage_us = Rt_obs.Metrics.histogram "stage/game"

(* The antichain copies a ~256-pointer bucket spine per insert, so its
   score range is compressed to at most this many buckets. *)
let max_buckets = 256
let bucket_scale max_score = max 1 ((max_score + max_buckets - 1) / max_buckets)

let publish_antichain = function
  | Some ac -> Rt_obs.Metrics.add ac_evictions_ctr (Ac.evictions ac)
  | None -> ()

(* ------------------------------------------------------------------ *)
(* Expansion budget, shared by both games.                             *)
(* ------------------------------------------------------------------ *)

type ticker = {
  expanded : int Atomic.t;
  max_states : int;
  over_budget : bool Atomic.t;
  budget : Budget.t option;
  timed_out : bool Atomic.t;
}

let ticker ?budget ~max_states () =
  {
    expanded = Atomic.make 1 (* the initial state *);
    max_states;
    over_budget = Atomic.make false;
    budget;
    timed_out = Atomic.make false;
  }

(* One expansion ticket, or [false] when the global budget is spent.
   The caller-supplied [Budget.t] is spent first so a tripped budget
   never touches the expansion counters (with no budget this path is
   untouched — the bench counters pin it). *)
let try_expand tk =
  (match tk.budget with
  | None -> true
  | Some b ->
      Budget.spend b 1
      ||
      (Atomic.set tk.timed_out true;
       false))
  && (not (Atomic.get tk.over_budget))
  &&
  let n = Atomic.fetch_and_add tk.expanded 1 in
  if n >= tk.max_states then begin
    Atomic.set tk.over_budget true;
    false
  end
  else begin
    Rt_obs.Metrics.incr Perf.game_states;
    true
  end

let explored_of tk = min (Atomic.get tk.expanded) tk.max_states

let finish tk m asyncs ~tbl_size ~tbl_evictions result =
  Rt_obs.Metrics.set table_size_gauge tbl_size;
  Rt_obs.Metrics.add table_evictions_ctr tbl_evictions;
  match result with
  | Some sched ->
      let ok = Latency.meets_all_asynchronous m.Model.comm sched asyncs in
      {
        explored = explored_of tk;
        outcome =
          (if ok then Feasible sched
           else Unknown "internal: cycle schedule failed verification");
      }
  | None ->
      {
        explored = explored_of tk;
        outcome =
          (if Atomic.get tk.timed_out then
             Timeout
               (match Option.bind tk.budget Budget.exhausted with
               | Some reason -> reason
               | None -> "budget exhausted")
           else if Atomic.get tk.over_budget then
             Unknown
               (Printf.sprintf "state budget %d exhausted" tk.max_states)
           else Infeasible);
      }

(* ------------------------------------------------------------------ *)
(* Resident transposition tables (shared with the reference engine).   *)
(* ------------------------------------------------------------------ *)

let default_table_cap = 2 * 1024 * 1024

type table = Game_ref.table

let table ?(cap = default_table_cap) () =
  Stbl.create ~max_entries:cap ~hash:Key.hash ~equal:Key.equal 1024

let table_size = Stbl.length

(* ------------------------------------------------------------------ *)
(* Flat: an open-addressing set/map over fixed-width int-vector keys   *)
(* stored INLINE — slot i's key lives at keys.[i*wps ..], its hash     *)
(* code (0 = empty) in a contiguous int array, so membership probes    *)
(* touch one cache line of codes and allocate nothing.  Single-domain  *)
(* only: the packed game uses it for the branch-local gray set and the *)
(* sequential dead set.                                                *)
(* ------------------------------------------------------------------ *)

module Flat = struct
  type t = {
    wps : int;
    mutable size : int; (* slot count, power of two *)
    mutable codes : int array; (* 0 = empty; else hash lor min_int *)
    mutable vals : int array;
    mutable keys : int array; (* size * wps, inline key storage *)
    mutable count : int;
  }

  let rec pow2 n k = if k >= n then k else pow2 n (k * 2)

  let create ~wps size0 =
    let size = pow2 (max 16 size0) 16 in
    {
      wps;
      size;
      codes = Array.make size 0;
      vals = Array.make size 0;
      keys = Array.make (size * wps) 0;
      count = 0;
    }

  let fnv_prime = 0x100000001b3

  (* Inline FNV-1a over the packed words at [buf.(off) ..]. *)
  let code_of t buf off =
    let h = ref 0x3bf29ce484222325 in
    for i = off to off + t.wps - 1 do
      let v = Array.unsafe_get buf i in
      h := (!h lxor (v land 0xffffffff)) * fnv_prime;
      h := (!h lxor ((v asr 32) land 0x3fffffff)) * fnv_prime
    done;
    !h lor min_int

  let key_eq t slot buf off =
    let base = slot * t.wps in
    let rec go j =
      j >= t.wps
      || Array.unsafe_get t.keys (base + j) = Array.unsafe_get buf (off + j)
         && go (j + 1)
    in
    go 0

  (* Slot holding the key, or the empty slot where it belongs. *)
  let probe t buf off code =
    let mask = t.size - 1 in
    let i = ref (code land max_int land mask) in
    let res = ref (-1) in
    while !res < 0 do
      let c = Array.unsafe_get t.codes !i in
      if c = 0 then res := !i
      else if c = code && key_eq t !i buf off then res := !i
      else i := (!i + 1) land mask
    done;
    !res

  let resize t =
    let osize = t.size
    and ocodes = t.codes
    and ovals = t.vals
    and okeys = t.keys in
    let size = osize * 2 in
    t.size <- size;
    t.codes <- Array.make size 0;
    t.vals <- Array.make size 0;
    t.keys <- Array.make (size * t.wps) 0;
    let mask = size - 1 in
    for i = 0 to osize - 1 do
      let c = ocodes.(i) in
      if c <> 0 then begin
        let j = ref (c land max_int land mask) in
        while t.codes.(!j) <> 0 do
          j := (!j + 1) land mask
        done;
        t.codes.(!j) <- c;
        t.vals.(!j) <- ovals.(i);
        Array.blit okeys (i * t.wps) t.keys (!j * t.wps) t.wps
      end
    done

  let mem t buf off =
    let i = probe t buf off (code_of t buf off) in
    t.codes.(i) <> 0

  (* Value bound to the key, or -1 when absent (values here are depths,
     always >= 0). *)
  let find t buf off =
    let i = probe t buf off (code_of t buf off) in
    if t.codes.(i) = 0 then -1 else t.vals.(i)

  let insert t buf off v =
    if 4 * (t.count + 1) > 3 * t.size then resize t;
    let code = code_of t buf off in
    let i = probe t buf off code in
    if t.codes.(i) = 0 then begin
      t.codes.(i) <- code;
      Array.blit buf off t.keys (i * t.wps) t.wps;
      t.count <- t.count + 1
    end;
    t.vals.(i) <- v

  (* Backward-shift deletion: close the gap by pulling cluster entries
     back, so probes never cross a stale hole (no tombstones). *)
  let remove t buf off =
    let i = probe t buf off (code_of t buf off) in
    if t.codes.(i) <> 0 then begin
      let mask = t.size - 1 in
      t.codes.(i) <- 0;
      t.count <- t.count - 1;
      let gap = ref i in
      let k = ref ((i + 1) land mask) in
      let scanning = ref true in
      while !scanning do
        let c = t.codes.(!k) in
        if c = 0 then scanning := false
        else begin
          let home = c land max_int land mask in
          if (!k - home) land mask >= (!k - !gap) land mask then begin
            t.codes.(!gap) <- c;
            t.vals.(!gap) <- t.vals.(!k);
            Array.blit t.keys (!k * t.wps) t.keys (!gap * t.wps) t.wps;
            t.codes.(!k) <- 0;
            gap := !k
          end;
          k := (!k + 1) land mask
        end
      done
    end

  let reset t =
    Array.fill t.codes 0 t.size 0;
    t.count <- 0

  let count t = t.count
end

(* ------------------------------------------------------------------ *)
(* Packed budget-vector game: every constraint is a single operation.  *)
(*                                                                     *)
(* State: budget.(i) = slots remaining for constraint i's next         *)
(* execution to finish; live budgets sit in [1, d_max], so a state     *)
(* packs into ceil(n/k) words of k fields, each (bits+1) wide — one    *)
(* guard bit per field makes pointwise dominance a word-parallel       *)
(* subtract-and-mask (SWAR), and a packed word is never 0, so 0 marks  *)
(* an empty slot in the flat tables.  The DFS runs on preallocated     *)
(* per-depth scratch: successor generation writes into a reused field  *)
(* buffer, packs into a reused word buffer, and pushes by blitting     *)
(* into a flat stack — no lists, no closures, no per-state allocation. *)
(*                                                                     *)
(* Transposition keys are CANONICAL: constraints that are symmetric    *)
(* (equal weight and deadline, on interchangeable elements) have their *)
(* budget components sorted, so states reached by permuted play        *)
(* prefixes share one dead fact (Gonczarowski-style canonisation).     *)
(* Canonical keys feed the dead table and the antichain ONLY — cycle   *)
(* detection stays on raw states, so the returned schedule is          *)
(* bit-identical to the reference engine's.                            *)
(* ------------------------------------------------------------------ *)

type dead_store = D_flat of Flat.t | D_shard of (int array, unit) Stbl.t

let dead_mem store key =
  match store with
  | D_flat f -> Flat.mem f key 0
  | D_shard t -> Stbl.mem t key

let dead_add store key =
  match store with
  | D_flat f -> Flat.insert f key 0 0
  | D_shard t -> Stbl.add t (Array.copy key) ()

let dead_size = function
  | D_flat f -> Flat.count f
  | D_shard t -> Stbl.length t

let dead_evictions = function D_flat _ -> 0 | D_shard t -> Stbl.evictions t

let rec bits_needed v = if v = 0 then 0 else 1 + bits_needed (v lsr 1)

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
    let n_el = Array.length elements in
    let c_e = Array.map (fun (e, _, _) -> e) specs in
    let c_w = Array.map (fun (_, w, _) -> w) specs in
    let c_d = Array.map (fun (_, _, d) -> d) specs in
    let el_w =
      Array.map
        (fun e ->
          let rec find i = if c_e.(i) = e then c_w.(i) else find (i + 1) in
          find 0)
        elements
    in
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
      let weight_of = Hashtbl.create 8 in
      Array.iter (fun (e, w, _) -> Hashtbl.replace weight_of e w) specs;
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
      let d_max = Array.fold_left max 1 c_d in
      let bits = bits_needed d_max in
      let stride = bits + 1 in
      if stride > 62 then
        (* Deadlines near 2^61 cannot pack; hand off to the reference
           engine rather than lose fields. *)
        Game_ref.solve ?pool ?budget ?table ~max_states ~granularity:`Atomic m
      else begin
        let k = max 1 (62 / stride) in
        let wps = (n + k - 1) / k in
        let fmask = (1 lsl bits) - 1 in
        let word_of = Array.init n (fun i -> i / k) in
        let shift_of = Array.init n (fun i -> i mod k * stride) in
        let hmask = Array.make wps 0 in
        for i = 0 to n - 1 do
          hmask.(word_of.(i)) <-
            hmask.(word_of.(i)) lor (1 lsl (shift_of.(i) + bits))
        done;
        (* Symmetry classes for canonicalisation.  Two constraints are
           interchangeable iff swapping their budget components is a
           game automorphism: either they watch the SAME element with
           equal deadlines, or they watch distinct elements of equal
           weight with equal deadlines where each element is watched by
           exactly that one constraint (so the swap extends to an
           element renaming). *)
        let classes =
          let occ = Hashtbl.create 8 in
          Array.iter
            (fun e ->
              Hashtbl.replace occ e
                (1 + Option.value ~default:0 (Hashtbl.find_opt occ e)))
            c_e;
          let groups = Hashtbl.create 8 in
          Array.iteri
            (fun i e ->
              let key =
                if Hashtbl.find occ e = 1 then `Solo (c_w.(i), c_d.(i))
                else `Shared (e, c_d.(i))
              in
              Hashtbl.replace groups key
                (i :: Option.value ~default:[] (Hashtbl.find_opt groups key)))
            c_e;
          Hashtbl.fold
            (fun _ members acc ->
              match members with
              | _ :: _ :: _ -> Array.of_list (List.sort Int.compare members) :: acc
              | _ -> acc)
            groups []
          |> List.sort compare |> Array.of_list
        in
        let max_class =
          Array.fold_left (fun acc c -> max acc (Array.length c)) 1 classes
        in
        let pack src dst =
          for w = 0 to wps - 1 do
            Array.unsafe_set dst w 0
          done;
          for i = 0 to n - 1 do
            let w = Array.unsafe_get word_of i in
            Array.unsafe_set dst w
              (Array.unsafe_get dst w
              lor (Array.unsafe_get src i lsl Array.unsafe_get shift_of i))
          done
        in
        let unpack src off dst =
          for i = 0 to n - 1 do
            Array.unsafe_set dst i
              (Array.unsafe_get src (off + Array.unsafe_get word_of i)
               lsr Array.unsafe_get shift_of i
              land fmask)
          done
        in
        (* v pointwise <= d, word-parallel: with the guard bit set on d,
           per-field subtraction borrows (clearing the guard) exactly
           where d's field is smaller. *)
        let subsumed v d =
          let rec go w =
            w >= wps
            || ((Array.unsafe_get d w lor Array.unsafe_get hmask w)
                - Array.unsafe_get v w)
               land Array.unsafe_get hmask w
               = Array.unsafe_get hmask w
               && go (w + 1)
          in
          go 0
        in
        let field_sum v =
          let acc = ref 0 in
          for w = 0 to wps - 1 do
            let x = ref (Array.unsafe_get v w) in
            while !x <> 0 do
              acc := !acc + (!x land fmask);
              x := !x lsr stride
            done
          done;
          !acc
        in
        let scale = bucket_scale (n * d_max) in
        let score v = field_sum v / scale in
        let antichain =
          Ac.create ~on_probe ~subsumed ~score ~max_score:(n * d_max / scale)
            ()
        in
        let dead =
          match (table, pool) with
          | Some t, _ -> D_shard t
          | None, Some p when Pool.jobs p > 1 ->
              D_shard
                (Stbl.create ~max_entries:default_table_cap ~hash:Key.hash
                   ~equal:Key.equal 64)
          | _ -> D_flat (Flat.create ~wps 256)
        in
        let known_dead ckey =
          if dead_mem dead ckey then begin
            Rt_obs.Metrics.incr Perf.table_hits;
            true
          end
          else begin
            Rt_obs.Metrics.incr Perf.table_misses;
            if Ac.covered antichain ckey then begin
              Rt_obs.Metrics.incr Perf.dominance_kills;
              (* Promote the derived fact so future probes hit the
                 table. *)
              dead_add dead ckey;
              true
            end
            else false
          end
        in
        let mark_dead ckey =
          dead_add dead ckey;
          ignore (Ac.add antichain (Array.copy ckey))
        in
        let tk = ticker ?budget ~max_states () in
        Rt_obs.Metrics.incr Perf.game_states;
        let initial = Array.copy c_d in
        let init_packed = Array.make wps 0 in
        pack initial init_packed;
        let best = Rt_par.Bound.create () in
        (* Per-branch scratch: the whole DFS state, preallocated.  The
           stack grows by doubling; nothing in the inner loop
           allocates. *)
        let make_scratch () =
          ( ref 1024 (* depth capacity *),
            ref (Array.make (1024 * wps) 0) (* packed state per depth *),
            ref (Array.make 1024 0) (* next action index per depth *),
            ref (Array.make 1024 0) (* action into this depth *),
            ref (Array.make n 0) (* cur: unpacked top state *),
            ref (Array.make n 0) (* nxt: candidate successor *),
            Array.make n 0 (* canonical unpacked *),
            Array.make wps 0 (* packed successor *),
            Array.make wps 0 (* packed canonical *),
            Array.make max_class 0 (* class sort buffer *),
            Flat.create ~wps 64 (* gray: raw packed -> depth *) )
        in
        let fresh_scratch =
          match pool with
          | Some p when Pool.jobs p > 1 -> make_scratch
          | _ ->
              let sc = make_scratch () in
              fun () ->
                let _, _, _, _, _, _, _, _, _, _, gray = sc in
                Flat.reset gray;
                sc
        in
        let canonize src cbuf ckey cls_tmp =
          Array.blit src 0 cbuf 0 n;
          Array.iter
            (fun cls ->
              let len = Array.length cls in
              for j = 0 to len - 1 do
                cls_tmp.(j) <- cbuf.(cls.(j))
              done;
              (* insertion sort ascending; classes are tiny *)
              for j = 1 to len - 1 do
                let x = cls_tmp.(j) in
                let p = ref (j - 1) in
                while !p >= 0 && cls_tmp.(!p) > x do
                  cls_tmp.(!p + 1) <- cls_tmp.(!p);
                  decr p
                done;
                cls_tmp.(!p + 1) <- x
              done;
              for j = 0 to len - 1 do
                cbuf.(cls.(j)) <- cls_tmp.(j)
              done)
            classes;
          pack cbuf ckey
        in
        (* Successor of [cur] under action [a] (0..n_el-1 = run that
           element, n_el = idle), written into [nxt]; false when the
           move loses immediately. *)
        let step_into cur nxt a =
          if a = n_el then begin
            let ok = ref true in
            let i = ref 0 in
            while !ok && !i < n do
              let b = Array.unsafe_get cur !i - 1 in
              if b < Array.unsafe_get c_w !i then ok := false
              else Array.unsafe_set nxt !i b;
              incr i
            done;
            !ok
          end
          else begin
            let e = Array.unsafe_get elements a in
            let we = Array.unsafe_get el_w a in
            let ok = ref true in
            let i = ref 0 in
            while !ok && !i < n do
              let b = Array.unsafe_get cur !i in
              if Array.unsafe_get c_e !i = e then
                if b < we then ok := false
                else Array.unsafe_set nxt !i (Array.unsafe_get c_d !i + 1 - we)
              else if b < we + Array.unsafe_get c_w !i then ok := false
              else Array.unsafe_set nxt !i (b - we);
              incr i
            done;
            !ok
          end
        in
        let slots_of_actions acts =
          List.concat_map
            (fun a ->
              if a = n_el then [ Schedule.Idle ]
              else List.init el_w.(a) (fun _ -> Schedule.Run elements.(a)))
            acts
        in
        let exception Out_of_budget in
        let exception Aborted in
        (* Branch [bidx]: plays whose first action runs
           elements.(bidx).  An all-idle play cannot cycle (budgets
           strictly decrease), so every safe cycle reachable at all is
           reachable with a run first. *)
        let branch bidx =
          let cap, sbuf, aptr, via, curr, nxtr, cbuf, pbuf, ckey, cls_tmp, gray
              =
            fresh_scratch ()
          in
          let ensure d =
            if d >= !cap then begin
              let nc = 2 * !cap in
              let ns = Array.make (nc * wps) 0 in
              Array.blit !sbuf 0 ns 0 (!cap * wps);
              sbuf := ns;
              let na = Array.make nc 0 in
              Array.blit !aptr 0 na 0 !cap;
              aptr := na;
              let nv = Array.make nc 0 in
              Array.blit !via 0 nv 0 !cap;
              via := nv;
              cap := nc
            end
          in
          Array.blit init_packed 0 !sbuf 0 wps;
          Flat.insert gray init_packed 0 0;
          Array.blit initial 0 !curr 0 n;
          if not (step_into !curr !nxtr bidx) then None
          else begin
            pack !nxtr pbuf;
            canonize !nxtr cbuf ckey cls_tmp;
            if known_dead ckey then None
            else if not (try_expand tk) then None
            else begin
              let depth = ref 1 in
              (* push depth 1 *)
              Array.blit pbuf 0 !sbuf wps wps;
              (!via).(1) <- bidx;
              (!aptr).(1) <- 0;
              Flat.insert gray pbuf 0 1;
              (let t = !curr in
               curr := !nxtr;
               nxtr := t);
              let result = ref None in
              (try
                 let running = ref true in
                 while !running do
                   if Rt_par.Bound.get best < bidx then raise_notrace Aborted;
                   if !depth = 0 then running := false
                   else begin
                     let a = (!aptr).(!depth) in
                     if a > n_el then begin
                       (* frame exhausted: the state is dead *)
                       canonize !curr cbuf ckey cls_tmp;
                       mark_dead ckey;
                       Flat.remove gray !sbuf (!depth * wps);
                       decr depth;
                       if !depth > 0 then unpack !sbuf (!depth * wps) !curr
                     end
                     else begin
                       (!aptr).(!depth) <- a + 1;
                       if step_into !curr !nxtr a then begin
                         pack !nxtr pbuf;
                         let g = Flat.find gray pbuf 0 in
                         if g >= 0 then begin
                           (* safe cycle: actions into depths g+1..top,
                              then the closing action *)
                           let acts = ref [ a ] in
                           for j = !depth downto g + 1 do
                             acts := (!via).(j) :: !acts
                           done;
                           Rt_par.Bound.update_min best bidx;
                           result :=
                             Some
                               (Schedule.of_slots (slots_of_actions !acts));
                           running := false
                         end
                         else begin
                           canonize !nxtr cbuf ckey cls_tmp;
                           if known_dead ckey then ()
                           else if not (try_expand tk) then
                             raise_notrace Out_of_budget
                           else begin
                             incr depth;
                             ensure !depth;
                             Array.blit pbuf 0 !sbuf (!depth * wps) wps;
                             (!via).(!depth) <- a;
                             (!aptr).(!depth) <- 0;
                             Flat.insert gray pbuf 0 !depth;
                             let t = !curr in
                             curr := !nxtr;
                             nxtr := t
                           end
                         end
                       end
                     end
                   end
                 done
               with Out_of_budget | Aborted -> ());
              !result
            end
          end
        in
        let r =
          finish tk m asyncs ~tbl_size:(dead_size dead)
            ~tbl_evictions:(dead_evictions dead)
            (find_branches pool n_el branch)
        in
        publish_antichain (Some antichain);
        r
      end
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
(*                                                                     *)
(* Vs. the reference engine: the per-solve dead table is a single      *)
(* open-addressing shard (64 slots, growing on demand) instead of 32   *)
(* preallocated shards of 1024 buckets — the old fixed cost dwarfed    *)
(* small solves — and the dominance antichain is the score-bucketed    *)
(* Rt_par.Antichain instead of a linearly scanned list.                *)
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

(* Productive-slot count: idling runs out can only lower it, so it is
   monotone for residue_subsumed (keys of different length never
   subsume each other and may share a bucket harmlessly). *)
let residue_score v =
  let acc = ref 0 in
  for i = 0 to Array.length v - 1 do
    if v.(i) >= 0 then incr acc
  done;
  !acc

type tshared = {
  dead : (int array, unit) Stbl.t;
  antichain : Ac.t option;
  tk : ticker;
}

let make_tshared ?budget ?table:dead_table ~pooled ~antichain ~max_states () =
  {
    dead =
      (match dead_table with
      | Some t -> t
      | None ->
          Stbl.create
            ~shards:(if pooled then 32 else 1)
            ~max_entries:default_table_cap ~hash:Key.hash ~equal:Key.equal 64);
    antichain;
    tk = ticker ?budget ~max_states ();
  }

let known_dead sh key =
  if Stbl.mem sh.dead key then begin
    Rt_obs.Metrics.incr Perf.table_hits;
    true
  end
  else begin
    Rt_obs.Metrics.incr Perf.table_misses;
    match sh.antichain with
    | Some ac when Ac.covered ac key ->
        Rt_obs.Metrics.incr Perf.dominance_kills;
        (* Promote the derived fact so future probes hit the table. *)
        Stbl.add sh.dead key ();
        true
    | _ -> false
  end

let mark_dead sh key =
  Stbl.add sh.dead key ();
  match sh.antichain with
  | Some ac -> ignore (Ac.add ac key)
  | None -> ()

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
    let pooled = match pool with Some p -> Pool.jobs p > 1 | None -> false in
    let antichain =
      if unit_weights then
        let scale = bucket_scale (r + 1) in
        Some
          (Ac.create ~on_probe ~subsumed:residue_subsumed
             ~score:(fun v -> residue_score v / scale)
             ~max_score:((r + 1) / scale)
             ())
      else None
    in
    let sh = make_tshared ?budget ?table ~pooled ~antichain ~max_states () in
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
              else if not (try_expand sh.tk) then raise Out_of_budget
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
                                else if not (try_expand sh.tk) then
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
    let res =
      finish sh.tk m asyncs
        ~tbl_size:(Stbl.length sh.dead)
        ~tbl_evictions:(Stbl.evictions sh.dead)
        (find_branches pool n_branches branch)
    in
    publish_antichain sh.antichain;
    res
  end

(* ------------------------------------------------------------------ *)
(* Small-model bypass: trivial instances skip engine setup entirely.   *)
(*                                                                     *)
(* Concatenating every constraint's task graph (topological order,     *)
(* whole executions back to back) and verifying the resulting cycle    *)
(* once is a few microseconds; when the deadlines are loose — the      *)
(* unit-chains bench family, most "obviously feasible" admission       *)
(* probes — it succeeds and the whole game apparatus is never built.   *)
(* A failed verification proves nothing and falls through to the       *)
(* engine, so the bypass is sound; it is skipped under a caller        *)
(* budget, where the engine's cooperative Timeout semantics must be    *)
(* preserved.                                                          *)
(* ------------------------------------------------------------------ *)

let bypass_max_slots = 64
let bypass_max_constraints = 8

let small_model_bypass (m : Model.t) asyncs =
  (* One traversal yields both the slot total (threshold check) and the
     element set (stage-0 candidates) — this path must stay cheaper
     than the DFS oracle's first schedule on trivial models. *)
  let eltss =
    List.map (fun (c : Timing.t) -> Task_graph.elements_used c.graph) asyncs
  in
  let total =
    List.fold_left
      (List.fold_left (fun acc e -> acc + Comm_graph.weight m.comm e))
      0 eltss
  in
  if total = 0 || total > bypass_max_slots
     || List.length asyncs > bypass_max_constraints
  then None
  else begin
    let feasible sched =
      (* The latency analysers accept some ill-formed cycles (instances
         re-form across the unroll boundary), so well-formedness is a
         separate, mandatory gate: every schedule this bypass returns
         must survive Schedule.validate downstream. *)
      (match Schedule.validate m.comm sched with
      | Ok () -> true
      | Error _ -> false)
      && Latency.meets_all_asynchronous m.Model.comm sched asyncs
    in
    (* Stage 0: a cycle running one element for exactly one execution
       block — the minimal schedule the DFS oracle tries first, and the
       common answer for tiny chain models.  Verifying it costs less
       than building the concatenation below. *)
    let elements = List.concat eltss |> List.sort_uniq Int.compare in
    let one_slot =
      List.find_map
        (fun e ->
          let w = Comm_graph.weight m.comm e in
          let sched =
            Schedule.of_slots (List.init w (fun _ -> Schedule.Run e))
          in
          if feasible sched then Some sched else None)
        elements
    in
    match one_slot with
    | Some _ -> one_slot
    | None ->
    let slots =
      List.concat_map
        (fun (c : Timing.t) ->
          List.concat_map
            (fun node ->
              let e = Task_graph.element_of_node c.graph node in
              List.init (Comm_graph.weight m.comm e) (fun _ -> Schedule.Run e))
            (Task_graph.topological_order c.graph))
        asyncs
    in
    let sched = Schedule.of_slots slots in
    if feasible sched then Some sched else None
  end

(* ------------------------------------------------------------------ *)
(* Entry point.                                                        *)
(* ------------------------------------------------------------------ *)

let solve ?pool ?budget ?table ?(max_states = 500_000) ?(impl = `Packed)
    ?(bypass = true) ~granularity (m : Model.t) =
  match impl with
  | `Reference ->
      Game_ref.solve ?pool ?budget ?table ~max_states ~granularity m
  | `Packed -> (
      let asyncs = Model.asynchronous m in
      if asyncs = [] then trivially_feasible ()
      else
        (* The bypass runs outside the stage timer: stage timing is for the
           engines, and the extra histogram write would tax exactly the
           microsecond-scale solves the bypass exists to win. *)
        match
          if bypass && budget = None then
            Rt_obs.Tracer.span ~cat:"exact" "game/bypass" (fun () ->
                small_model_bypass m asyncs)
          else None
        with
        | Some sched -> { explored = 0; outcome = Feasible sched }
        | None ->
            Rt_obs.Tracer.span ~cat:"stage" "game" @@ fun () ->
            Rt_obs.Metrics.time stage_us @@ fun () ->
            let w0 = Gc.minor_words () in
            let result =
              if
                List.for_all
                  (fun (c : Timing.t) -> Task_graph.size c.graph = 1)
                  asyncs
              then solve_budget ?pool ?budget ?table ~max_states m
              else solve_trace ?pool ?budget ?table ~max_states ~granularity m
            in
            Rt_obs.Metrics.set alloc_words_gauge
              (int_of_float (Gc.minor_words () -. w0));
            result)
