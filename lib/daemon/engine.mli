(** The daemon's resident state machine.

    Holds the {!Resident} index of the current model, its certified
    schedule, the per-model resident game tables and the answer cache,
    and performs the
    validate → certify → check → journal → mutate sequence for every
    state change.  Certification is the acceptance test: no
    whole-model [Latency.verify] runs, because {!Certify.schedule}
    searches every window and refuses exactly the schedules that miss
    a deadline.  The invariant the module maintains is {e fail
    closed}: the resident (model, schedule) pair has always passed the
    trusted {!Rt_check.Checker}, every mutation hits the write-ahead
    {!Journal} (fsynced) before it is applied or acknowledged, and any
    certification or checker failure rolls back to the previous
    certified state. *)

open Rt_core

type t

type level =
  | Full  (** Heuristic synthesis plus the exact game-engine rescue. *)
  | Heuristic  (** Heuristic synthesis only (first degradation step). *)
  | Analytic
      (** {!Admission.admit} gap tests only — answers are not
          committed (second degradation step). *)

type outcome =
  | Admitted of { path : string; verdict : string }
      (** Committed.  [path] says which answer path produced the
          schedule: ["warm"] (current schedule still meets every
          constraint), ["memo"] (answer-cache hit) or ["synth"]. *)
  | Analytic_only of { verdict : string }
      (** Analytic answer under degradation; state not changed. *)
  | Rejected of string list  (** Infeasible, invalid or unknown. *)
  | Timed_out of string  (** The per-request budget ran out. *)
  | Check_failed of string list
      (** The trusted checker rejected the untrusted engines' result;
          the mutation was rolled back. *)
  | Journal_failed of string
      (** The journal append failed; the mutation was rolled back. *)

val create :
  ?pool:Rt_par.Pool.t ->
  ?startup_budget:Budget.t ->
  journal:string ->
  ?spec:string ->
  unit ->
  (t, string) result
(** Open or replay the journal at [journal].  An empty or missing
    journal is a fresh start and requires [spec] (the base system
    source); a non-empty journal is replayed record by record, with
    every model digest compared and every journaled schedule certified,
    re-checked by the trusted core and its certificate digest compared
    — any mismatch, or a schedule that misses a deadline, refuses to
    start.  Replay also reseeds the answer cache. *)

val admit : ?budget:Budget.t -> level:level -> t -> string -> outcome
(** [admit t decl] admits one constraint declaration (specification
    syntax, e.g.
    ["constraint q asynchronous separation 50 deadline 15 { f_x; }"]). *)

val what_if : ?budget:Budget.t -> level:level -> t -> string -> outcome
(** Same answer path as {!admit}, but never journals or mutates: the
    candidate index is dropped, and the certificate is certified and
    checked by the trusted core but not digested (the answer carries
    no digest); the persist step's refusals still apply. *)

val retire : t -> string -> outcome
(** [retire t name] removes a resident constraint.  The current
    schedule remains valid (the constraint set shrank) and is
    re-certified against the reduced model. *)

val reverify : t -> (string, string list) result
(** Re-certify and re-check the resident state from scratch; [Ok
    digest] of the resident model on success. *)

val snapshot : t -> (string * string, string) result
(** Compact the journal to a single init record of the current state;
    returns [(spec source, model digest)]. *)

val model : t -> Model.t

val resident : t -> Resident.t
(** The resident index; replaced (never updated in place) by each
    committed admit or retire. *)

val schedule : t -> Rt_base.Schedule.t option
val cert_digest : t -> string
val memo_size : t -> int
val resident_tables : t -> int
val close : t -> unit

val stages : string list
(** The request stages, in request order, each timed on the histogram
    [daemon/stage/<name>_us] and as a [daemon/<name>] tracer span:
    parse, candidate, admission, key, decompose, solve, verify (the
    warm rung's one-constraint probe), certify, check, digest (the
    persist step: the certificate digest, or a what-if's refusal
    check) and journal. *)

val admission : Model.t -> string * int
(** The analytic answer path shared with [rtsyn admit]: renders
    {!Admission.admit} as [(verdict line, exit code)] with the unified
    contract 0 = guaranteed, 1 = impossible, 5 = inconclusive. *)
