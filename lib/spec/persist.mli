(** Persistence of synthesized plans.

    The methodology's deployment story is: synthesize off-line, then
    ship the static schedule to the target where a trivial round-robin
    dispatcher replays it.  This module defines that shipping format —
    a plain text file holding the (possibly rewritten) model as
    specification source plus the schedule as an element-name string —
    and the loader the "target" uses, which re-verifies the schedule
    against the model before accepting it (never trust a table you did
    not check).

    Format:

    {v
    # rtsyn plan v1
    schedule: f_x f_s#1 f_s#2 . f_k
    --- model ---
    system "..." { ... }
    v} *)

val save_string : Rt_core.Model.t -> Rt_core.Schedule.t -> string
(** [save_string m l] renders the plan file contents.  Raises
    [Invalid_argument] if the model is not expressible in the spec
    language (duplicate element occurrences in a task graph) or if the
    schedule fails verification against [m]. *)

val load_string :
  string -> (Rt_core.Model.t * Rt_core.Schedule.t, string) result
(** [load_string s] parses, elaborates, rebuilds the schedule, and
    re-verifies it; a plan that no longer verifies is rejected. *)

val save_file : string -> Rt_core.Model.t -> Rt_core.Schedule.t -> unit
(** [save_file path m l] writes {!save_string} to [path]. *)

val load_file :
  string -> (Rt_core.Model.t * Rt_core.Schedule.t, string) result
(** [load_file path] reads and {!load_string}s. *)

(** {1 Certificates}

    Serialization of {!Rt_check.Certificate} witnesses: the JSON
    produced by [Certificate.to_json], extended with a ["model"] field
    holding the certified model as specification source — synthesis
    may rewrite the model (merging, pipelining) before scheduling, and
    the certificate binds to the model actually scheduled, so the file
    is checkable self-contained.  Loading only re-builds the data
    structures — semantic validation is the trusted checker's job
    ([rtsyn check --certificate] runs [Rt_check.Checker.check] on the
    result).  The file and its digest come from one renderer
    ({!Rt_graph.Sink}), written to a buffer or to a hasher. *)

val save_certificate_string : Rt_core.Model.t -> Rt_check.Certificate.t -> string
(** [save_certificate_string m cert] renders the certificate file
    contents; [m] must be the model the certificate was built from
    ([cert] must carry its digest).  The pair is {e canonicalized}
    before writing: elaboration orders task-graph nodes alphabetically,
    so witness exec arrays are re-indexed onto the canonical node
    numbering and the digest is restamped — the reloaded pair then
    checks self-contained and further save/load round-trips are
    identity.  A model already in elaboration order, with every name a
    spec-language identifier (every elaborated model), is written as it
    is, without printing and re-elaborating it; the bytes are the same
    either way.  Raises [Invalid_argument] if [m] is not expressible in
    the spec language or [cert] does not bind to [m]. *)

val certificate_digest : Rt_core.Model.t -> Rt_check.Certificate.t -> string
(** [certificate_digest m cert] is the FNV-1a digest (["fnv1a:%016x"])
    of exactly the bytes {!save_certificate_string} would return, with
    the same canonicalization and the same refusals, computed by
    streaming those bytes into the hasher instead of building them.
    The daemon journals it for every certificate it issues. *)

val check_certificate :
  Rt_core.Model.t -> Rt_check.Certificate.t -> (unit, string) result
(** [check_certificate m cert] makes the checks {!certificate_digest}
    makes before it renders anything: [cert] binds to [m], and [m]
    prints and elaborates back (names the spec language can read
    back).  [Error] carries the message {!certificate_digest} would
    raise [Invalid_argument] with; nothing is rendered or hashed. *)

val save_certificate_file :
  string -> Rt_core.Model.t -> Rt_check.Certificate.t -> unit
(** Write {!save_certificate_string} to a file. *)

val load_certificate_string :
  string -> (Rt_core.Model.t * Rt_check.Certificate.t, string) result
(** Parse a certificate JSON document and elaborate its embedded model
    (no semantic validation of the witnesses). *)

val load_certificate_file :
  string -> (Rt_core.Model.t * Rt_check.Certificate.t, string) result
(** Read and {!load_certificate_string}. *)
