(** The daemon's write-ahead journal: one JSON object per line.

    Every state mutation is validated, certified and checked first,
    then appended (and fsynced) here, and only then applied to the
    resident state and acknowledged — so after [kill -9] a restart
    replays the journal to the exact certified pre-crash state, with
    each record's model digest and certificate digest re-verified
    during replay.

    Crash semantics of the tail: a final line that is unterminated or
    unparsable is {e dropped} on load — it can only be the record of a
    mutation that was never acknowledged.  A malformed line anywhere
    {e before} the tail is corruption, and the load refuses (fail
    closed) rather than replay a prefix silently. *)

type record =
  | Init of { spec : string; digest : string; schedule : string; cert : string }
      (** The base system (full specification source) the journal's
          deltas apply to, with its model digest, the certified
          schedule for it ([""] when the base system has no
          constraints) and the certificate digest ([""] likewise) —
          recorded so replay re-{e certifies} rather than
          re-synthesizes. *)
  | Admit of {
      name : string;
      decl : string;  (** The constraint declaration, spec syntax. *)
      digest : string;  (** Model digest {e after} the admit. *)
      schedule : string;  (** Certified schedule after the admit. *)
      cert : string;  (** Digest of the persisted certificate. *)
    }
  | Retire of {
      name : string;
      digest : string;  (** Model digest after the retire. *)
      cert : string;
          (** Digest of the re-issued certificate ([""] when the
              retired state has no constraints left to certify). *)
    }

val load : string -> (record list, string) result
(** Parse an existing journal.  [Ok []] for a missing or empty file;
    [Error] on mid-file corruption. *)

type t

val open_append : string -> (t, string) result
(** Open (creating if needed) for appending. *)

val append : t -> record -> (unit, string) result
(** Serialize, write and [fsync] one record. *)

val truncate : t -> record -> (unit, string) result
(** Replace the whole journal with the single [record] (compaction
    after [snapshot]), atomically via rename, and fsync. *)

val close : t -> unit

val digest_string : string -> string
(** FNV-1a digest of a string, rendered like the model digests
    (["fnv1a:%016x"]).  A record's [cert] is this digest of the
    certificate file's bytes; the daemon computes it without building
    the file ([Rt_spec.Persist.certificate_digest]), so this is the
    reference it must agree with. *)
