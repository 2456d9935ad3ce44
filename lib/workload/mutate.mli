(** Adversarial mutations of schedule certificates.

    The certified-schedule pipeline is only as trustworthy as the
    checker's ability to notice corruption, so this harness produces
    {e guaranteed-bogus} variants of a genuine certificate and the test
    suite asserts {!Rt_check.Checker.check} rejects every one:

    - {e slot swap} — exchange two unequal schedule slots underneath a
      witnessed instance start, so the witnessed element no longer runs
      where the certificate claims;
    - {e window shift} — move a claimed execution start one slot left;
      the unique instance with that finish time starts elsewhere, so
      the claim matches no trace instance;
    - {e digest tamper} — flip the model digest, severing the
      certificate/model binding;
    - {e drop witness} — delete one per-constraint witness, leaving a
      constraint uncovered.

    Every mutant is structurally distinct from its original
    ([Certificate.equal] is [false]) by construction; rejection is
    guaranteed only for mutants of {e genuine} certificates (ones whose
    witnesses name real trace instances), which is what the harness is
    given. *)

type kind = Slot_swap | Window_shift | Digest_tamper | Drop_witness

val kinds : kind list
(** All mutation kinds, in a fixed order. *)

val kind_name : kind -> string
(** Stable label, e.g. ["slot-swap"]. *)

val mutate : kind -> Rt_check.Certificate.t -> Rt_check.Certificate.t option
(** [mutate k cert] applies [k] at the first applicable site, or [None]
    when the certificate offers no such site (e.g. dropping a witness
    from an empty witness list, or swapping slots of a constant
    schedule). *)

val mutants : Rt_check.Certificate.t -> (string * Rt_check.Certificate.t) list
(** Every applicable mutant, labeled: one digest tamper, plus one drop,
    one window shift and one slot swap {e per witness}, so
    multi-constraint certificates are corrupted at every witness, not
    just the first. *)
