(** Dynamically registered metrics: counters, gauges and histograms.

    The one way the program counts and times: any module can mint a
    named metric, all cells are updated with [Atomic] operations (safe
    to bump from any domain of a {!Rt_par.Pool} without locks on the hot
    path), and a snapshot can be rendered or embedded in bench JSON.
    Register a metric once, as a module-level value: registration takes
    the registry mutex.

    Names are global: [counter "x"] returns the same cell everywhere.
    Registering the same name with a different metric kind raises
    [Invalid_argument]. *)

type counter
type gauge
type histogram

(** {1 Registration (get-or-create)} *)

val counter : string -> counter
val gauge : string -> gauge
val histogram : string -> histogram

(** {1 Counters} *)

val incr : counter -> unit
val add : counter -> int -> unit
val value : counter -> int

(** {1 Gauges} *)

val set : gauge -> int -> unit
val gauge_value : gauge -> int

(** {1 Histograms}

    Histograms are log-linear (HdrHistogram-style): values below 32 are
    recorded exactly; larger values land in one of 16 sub-buckets per
    power of two, so any recorded value is over-approximated by its
    bucket's upper bound with at most ~6% relative error.  All cells are
    [Atomic], so concurrent [observe] calls never tear or drop counts —
    this is what makes domain-safe stage timing possible.  The buckets
    are allocated on the first [observe], so registering a histogram
    that is never observed costs a few words. *)

val observe : histogram -> int -> unit
(** [observe h v] records [v] (negative values clamp to 0). *)

val time : histogram -> (unit -> 'a) -> 'a
(** [time h f] runs [f ()] and records its wall-clock duration in
    microseconds on [h], also when [f] raises.  Timed sections nest
    dynamically and overlap rather than partition: a section entered
    concurrently on [k] domains records [k] observations. *)

val h_count : histogram -> int
val h_sum : histogram -> int

val h_min : histogram -> int option
val h_max : histogram -> int option
(** Exact min/max of observed values (not bucket bounds); [None] when
    empty. *)

val quantile : histogram -> float -> int option
(** [quantile h q] for [q] in [0,1]: the upper bucket bound of the value
    at rank [max 1 (ceil (q * count))] — i.e. an upper bound on the true
    q-quantile, within the bucket resolution.  [None] when empty. *)

val bound_of_value : int -> int
(** [bound_of_value v] is the upper bound of the bucket [v] falls into —
    the value [quantile] would report if [v] were the selected rank.
    Exposed so tests can compare histograms against a sorted-list
    oracle. *)

(** {1 Snapshot / reset} *)

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

val snapshot : unit -> stat list
(** All registered metrics, sorted by name.  Empty histograms report
    zeros. *)

val reset : unit -> unit
(** Zero every registered metric.  Registrations (and the cells returned
    by earlier [counter]/[gauge]/[histogram] calls) stay valid; an
    unobserved histogram is left as it is. *)

val pp_stat : Format.formatter -> stat -> unit
(** Render one metric on one line: a counter or gauge as its value, a
    histogram as its count, sum, min, max and quantiles. *)
