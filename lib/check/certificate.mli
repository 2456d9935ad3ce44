(** Schedule certificates: the self-contained evidence that a static
    schedule satisfies a graph-based model.

    Mok's Theorem-1 window conditions are the natural certificate for
    latency scheduling: a schedule is feasible iff every deadline
    window contains a complete execution of the constraint's task
    graph.  A certificate records, per constraint, the concrete
    executions witnessing those windows — slot-level instance
    assignments the independent {!Checker} re-validates against the
    model in one pass, without trusting any engine.

    Certificates are produced by the untrusted synthesis stack
    ([Rt_core.Certify], [Rt_multiproc.Mcert]) and consumed by the
    trusted {!Checker}; this module defines only the data and its
    digest/serialization, no validation logic. *)

open Rt_base

val version : int
(** Format version stamped into the JSON serialization. *)

type exec = (int * int) array
(** One execution of a task graph: element [(start, finish)] per
    task-graph node, indexed by node id.  [finish] is one past the
    last slot, matching {!Rt_base.Trace.instance}. *)

type witness =
  | Async of exec list
      (** A covering chain for an asynchronous constraint [(C,p,d)]:
          executions [e_1; e_2; ...] ascending by start such that
          [finish e_1 <= d], [finish e_(i+1) <= start e_i + 1 + d] and
          [start e_last >= cycle - 1].  Together with well-formedness
          (periodic instance structure) this proves every window of
          length [d] contains an execution. *)
  | Periodic of exec array
      (** One execution per invocation [t = offset + k*p] for
          [k < lcm(p, cycle) / p], each inside [\[t, t+d\]]. *)

type t = {
  digest : string;  (** Digest of the model this certifies against. *)
  schedule : Schedule.t;  (** The schedule being certified. *)
  witnesses : (string * witness) list;
      (** Exactly one witness per model constraint, by name. *)
}

val digest_of_model : Model.t -> string
(** A digest of the model's canonical rendering (elements, edges,
    constraints); certificates are only meaningful against the model
    they were computed for, and the checker rejects a mismatch.  The
    digest of the model value last asked for is remembered (one entry,
    compared by physical equality, safe across domains), so asking
    again for the same value costs no second rendering. *)

val make : Model.t -> Schedule.t -> (string * witness) list -> t
(** [make m l ws] stamps the certificate with [digest_of_model m]. *)

val equal : t -> t -> bool
(** Structural equality (used by the mutation harness to discard
    identity mutants). *)

val to_json : t -> string
(** Serialize to the JSON document [rtsyn check --certificate]
    consumes (parsing lives in [Rt_spec.Persist], which may use the
    observability JSON reader; this library stays dependency-free). *)

(** {1 Multiprocessor certificates}

    A distributed system's evidence is the full table: per-processor
    schedules, the bus schedule and the window decomposition of every
    constraint.  The checker re-derives the window arithmetic (polling
    transformation, window chaining, topological op order) from the
    model and replays the dispatcher cursor over the tables. *)

type mp_piece =
  | Mp_segment of {
      processor : int;
      ops : int list;  (** Element ids, in execution order. *)
      start_off : int;
      end_off : int;  (** Window [\[start_off, end_off)] relative to
                          the invocation. *)
    }
  | Mp_message of { cost : int; start_off : int; end_off : int }

type mp_plan = {
  source : string;  (** Constraint name this plan implements. *)
  period : int;  (** Effective period (polling period for async). *)
  pieces : mp_piece list;  (** Windows chained within one invocation. *)
}

type mp = {
  mp_digest : string;
  hyperperiod : int;
  processors : Schedule.t array;
  bus : string option array;
      (** [bus.(slot) = Some "name@t/i"] reserves the slot for piece
          [i] of [name]'s invocation at [t]. *)
  mp_plans : mp_plan list;
  mp_dropped : string list;
      (** Constraints shed by a degraded contingency scenario (empty
          for a nominal certificate). *)
  mp_overrides : (string * int * int) list;
      (** [(name, period, deadline)] in effect for stretched
          constraints of a degraded scenario. *)
}

val mp_make :
  Model.t ->
  hyperperiod:int ->
  processors:Schedule.t array ->
  bus:string option array ->
  plans:mp_plan list ->
  ?dropped:string list ->
  ?overrides:(string * int * int) list ->
  unit ->
  mp

val mp_equal : mp -> mp -> bool

val mp_to_json : mp -> string

(** {1 Contingency certificates} *)

type mp_table = {
  t_nominal : mp;
  t_scenarios : (int * mp) list;
      (** [(dead processor, scenario certificate)] for every feasible
          crash scenario. *)
  t_detect : int;
  t_migration : int;
  t_reconfig : int;  (** Must equal [t_detect + 1 + t_migration]. *)
}

val table_to_json : mp_table -> string
