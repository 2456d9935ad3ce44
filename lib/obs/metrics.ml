(* Dynamically registered metrics on atomic cells.

   Layout of the log-linear histogram: buckets 0..31 hold values 0..31
   exactly; above that each power of two [2^k, 2^{k+1}) is split into 16
   sub-buckets of width 2^(k-4).  For a value v with msb position k >= 5,
   the top five bits (v lsr (k-4), in 16..31) select the sub-bucket:

     index = 32 + (k - 5) * 16 + ((v lsr (k - 4)) - 16)

   and the bucket's upper bound is ((high + 1) lsl (k - 4)) - 1.  With
   62-bit ints k tops out at 62, giving 32 + 58*16 = 960 buckets.

   The 960 boxed cells (about 23 KB) are allocated on a histogram's
   first [observe], not when it is registered: most programs register
   histograms at module initialisation that they never observe. *)

type counter = int Atomic.t
type gauge = int Atomic.t

type histogram = {
  counts : int Atomic.t array Atomic.t; (* [||] until the first observe *)
  total : int Atomic.t;
  sum : int Atomic.t;
  hmin : int Atomic.t; (* max_int when empty *)
  hmax : int Atomic.t; (* -1 when empty; observed values are >= 0 *)
}

let n_linear = 32
let sub_bits = 4
let n_buckets = n_linear + ((62 - 4) * (1 lsl sub_bits))

let msb v =
  (* position of the highest set bit; v >= 1 *)
  let k = ref 0 and x = ref v in
  while !x > 1 do
    incr k;
    x := !x lsr 1
  done;
  !k

let bucket_of_value v =
  if v < n_linear then v
  else
    let k = msb v in
    let high = v lsr (k - sub_bits) in
    n_linear + ((k - 5) * (1 lsl sub_bits)) + (high - (1 lsl sub_bits))

let bound_of_bucket i =
  if i < n_linear then i
  else
    let k = 5 + ((i - n_linear) / (1 lsl sub_bits)) in
    let high = (1 lsl sub_bits) + ((i - n_linear) mod (1 lsl sub_bits)) in
    ((high + 1) lsl (k - sub_bits)) - 1

let bound_of_value v =
  let v = if v < 0 then 0 else v in
  bound_of_bucket (bucket_of_value v)

type metric = C of counter | G of gauge | H of histogram

let registry : (string, metric) Hashtbl.t = Hashtbl.create 64
let lock = Mutex.create ()

let register name make classify =
  Mutex.protect lock (fun () ->
      match Hashtbl.find_opt registry name with
      | Some m -> (
          match classify m with
          | Some cell -> cell
          | None ->
              invalid_arg
                (Printf.sprintf
                   "Rt_obs.Metrics: %S already registered with another kind"
                   name))
      | None -> (
          let m = make () in
          Hashtbl.add registry name m;
          match classify m with Some cell -> cell | None -> assert false))

let counter name =
  register name
    (fun () -> C (Atomic.make 0))
    (function C c -> Some c | _ -> None)

let gauge name =
  register name
    (fun () -> G (Atomic.make 0))
    (function G g -> Some g | _ -> None)

let make_histogram () =
  {
    counts = Atomic.make [||];
    total = Atomic.make 0;
    sum = Atomic.make 0;
    hmin = Atomic.make max_int;
    hmax = Atomic.make (-1);
  }

let histogram name =
  register name
    (fun () -> H (make_histogram ()))
    (function H h -> Some h | _ -> None)

let incr c = Atomic.incr c
let add c n = ignore (Atomic.fetch_and_add c n)
let value c = Atomic.get c
let set g v = Atomic.set g v
let gauge_value g = Atomic.get g

let rec atomic_min cell v =
  let cur = Atomic.get cell in
  if v >= cur then ()
  else if Atomic.compare_and_set cell cur v then ()
  else atomic_min cell v

let rec atomic_max cell v =
  let cur = Atomic.get cell in
  if v <= cur then ()
  else if Atomic.compare_and_set cell cur v then ()
  else atomic_max cell v

(* The bucket array, allocated on first use.  Domains that observe a
   fresh histogram at once may each allocate one, but only the array
   published by the CAS is ever written, so no count is lost. *)
let buckets h =
  let cur = Atomic.get h.counts in
  if Array.length cur > 0 then cur
  else
    let fresh = Array.init n_buckets (fun _ -> Atomic.make 0) in
    if Atomic.compare_and_set h.counts cur fresh then fresh
    else Atomic.get h.counts

let observe h v =
  let v = if v < 0 then 0 else v in
  ignore (Atomic.fetch_and_add (buckets h).(bucket_of_value v) 1);
  ignore (Atomic.fetch_and_add h.total 1);
  ignore (Atomic.fetch_and_add h.sum v);
  atomic_min h.hmin v;
  atomic_max h.hmax v

let time h f =
  let t0 = Unix.gettimeofday () in
  let record () =
    observe h (int_of_float ((Unix.gettimeofday () -. t0) *. 1e6))
  in
  match f () with
  | r ->
      record ();
      r
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      record ();
      Printexc.raise_with_backtrace e bt

let h_count h = Atomic.get h.total
let h_sum h = Atomic.get h.sum
let h_min h = if h_count h = 0 then None else Some (Atomic.get h.hmin)
let h_max h = if h_count h = 0 then None else Some (Atomic.get h.hmax)

let quantile h q =
  let n = h_count h in
  if n = 0 then None
  else
    let rank =
      let r = int_of_float (ceil (q *. float_of_int n)) in
      max 1 (min n r)
    in
    let counts = Atomic.get h.counts in
    let cum = ref 0 and found = ref None and i = ref 0 in
    while !found = None && !i < Array.length counts do
      cum := !cum + Atomic.get counts.(!i);
      if !cum >= rank then found := Some (bound_of_bucket !i);
      i := !i + 1
    done;
    !found

type stat =
  | Counter_v of { name : string; value : int }
  | Gauge_v of { name : string; value : int }
  | Histogram_v of {
      name : string;
      count : int;
      sum : int;
      min : int;
      max : int;
      p50 : int;
      p95 : int;
      p99 : int;
    }

let snapshot () =
  let items =
    Mutex.protect lock (fun () ->
        Hashtbl.fold (fun name m acc -> (name, m) :: acc) registry [])
  in
  items
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  |> List.map (fun (name, m) ->
         match m with
         | C c -> Counter_v { name; value = Atomic.get c }
         | G g -> Gauge_v { name; value = Atomic.get g }
         | H h ->
             let q p = Option.value ~default:0 (quantile h p) in
             Histogram_v
               {
                 name;
                 count = h_count h;
                 sum = h_sum h;
                 min = Option.value ~default:0 (h_min h);
                 max = Option.value ~default:0 (h_max h);
                 p50 = q 0.50;
                 p95 = q 0.95;
                 p99 = q 0.99;
               })

let reset () =
  Mutex.protect lock (fun () ->
      Hashtbl.iter
        (fun _ m ->
          match m with
          | C c | G c -> Atomic.set c 0
          | H h ->
              Array.iter (fun cell -> Atomic.set cell 0) (Atomic.get h.counts);
              Atomic.set h.total 0;
              Atomic.set h.sum 0;
              Atomic.set h.hmin max_int;
              Atomic.set h.hmax (-1))
        registry)

let pp_stat ppf = function
  | Counter_v { name; value } | Gauge_v { name; value } ->
      Format.fprintf ppf "%-18s %d" name value
  | Histogram_v { name; count; sum; min; max; p50; p95; p99 } ->
      Format.fprintf ppf "%-18s n=%d sum=%d min=%d max=%d p50=%d p95=%d p99=%d"
        name count sum min max p50 p95 p99
