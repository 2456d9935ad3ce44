open Rt_core
module Checker = Rt_check.Checker

type level = Full | Heuristic | Analytic

type outcome =
  | Admitted of { path : string; verdict : string }
  | Analytic_only of { verdict : string }
  | Rejected of string list
  | Timed_out of string
  | Check_failed of string list
  | Journal_failed of string

type t = {
  mutable resident : Resident.t;
  mutable schedule : Rt_base.Schedule.t option;
  mutable cert : string;  (* digest of the persisted certificate, "" if none *)
  journal : Journal.t;
  tables : (string, Game.table) Hashtbl.t;  (* model digest -> dead facts *)
  cache : (string, Rt_base.Schedule.t) Hashtbl.t;
      (* Canon key of a constraint multiset -> a schedule that solved
         it over the resident communication graph, which no mutation
         changes.  Looked up for the whole candidate (the memo rung)
         and for each interaction component (the component-local rung:
         an admission touching one component re-solves that component
         only, the untouched ones answer from here, counted by
         decompose/component_reuses).  Entries are untrusted hints:
         every answer built from one is certified against the whole
         candidate and its certificate passes the trusted check before
         publication. *)
  pool : Rt_par.Pool.t option;
}

(* Caps on the resident caches: all only ever cost re-derivation, so
   a full reset on overflow is sound and keeps memory bounded under
   adversarial churn. *)
let max_tables = 32
let max_cache = 8192

let memo_hits = Rt_obs.Metrics.counter "daemon/memo_hits"
let memo_misses = Rt_obs.Metrics.counter "daemon/memo_misses"
let warm_hits = Rt_obs.Metrics.counter "daemon/warm_hits"
let admits_ok = Rt_obs.Metrics.counter "daemon/admits_ok"
let admits_rejected = Rt_obs.Metrics.counter "daemon/admits_rejected"
let timeouts = Rt_obs.Metrics.counter "daemon/timeouts"
let check_failures = Rt_obs.Metrics.counter "daemon/check_failures"
let journal_records = Rt_obs.Metrics.counter "daemon/journal_records"
let replayed_records = Rt_obs.Metrics.counter "daemon/replayed_records"
let solve_us = Rt_obs.Metrics.histogram "daemon/solve_us"
let check_us = Rt_obs.Metrics.histogram "daemon/check_us"

(* The stages of a request, each a tracer span and a
   daemon/stage/<name>_us histogram.  No stage runs inside another, so
   a request's stage times add up to its time in the engine. *)
type stage = { name : string; span : string; hist : Rt_obs.Metrics.histogram }

let stage name =
  {
    name;
    span = "daemon/" ^ name;
    hist = Rt_obs.Metrics.histogram ("daemon/stage/" ^ name ^ "_us");
  }

let in_stage st f =
  Rt_obs.Tracer.span ~cat:"daemon" st.span (fun () ->
      Rt_obs.Metrics.time st.hist f)

let parse_st = stage "parse"
let candidate_st = stage "candidate"
let admission_st = stage "admission"
let key_st = stage "key"
let decompose_st = stage "decompose"
let solve_st = stage "solve"
let verify_st = stage "verify"
let certify_st = stage "certify"
let check_st = stage "check"
let digest_st = stage "digest"
let journal_st = stage "journal"

let stages =
  List.map
    (fun st -> st.name)
    [
      parse_st; candidate_st; admission_st; key_st; decompose_st; solve_st;
      verify_st; certify_st; check_st; digest_st; journal_st;
    ]

let digest_of = Rt_check.Certificate.digest_of_model

(* ------------------------------------------------------------------ *)
(* The certification step: how every answer and record is accepted.   *)
(* ------------------------------------------------------------------ *)

(* Untrusted Certify, the trusted Checker, then the digest of the
   certificate as it would persist.  Certify searches every window of
   every constraint for an execution, so it refuses ([`Refused])
   exactly the schedules that miss a deadline, and an answer rung may
   fall through to the next.  A certificate that the Checker or the
   persist step rejects is [`Vetoed] and fails closed.
   [~digest:false] (a what-if) makes the persist step's refusals
   without rendering or hashing, and answers [""]. *)
let certified ?(digest = true) m sched =
  Rt_obs.Metrics.time check_us @@ fun () ->
  match in_stage certify_st (fun () -> Certify.schedule m sched) with
  | Error e -> Error (`Refused [ "certify: " ^ e ])
  | exception Invalid_argument e -> Error (`Refused [ "certify: " ^ e ])
  | Ok cert -> (
      match in_stage check_st (fun () -> Checker.check m cert) with
      | Error diags -> Error (`Vetoed diags)
      | Ok () -> (
          in_stage digest_st @@ fun () ->
          let persisted =
            if digest then
              match Rt_spec.Persist.certificate_digest m cert with
              | d -> Ok d
              | exception Invalid_argument e -> Error e
            else
              Result.map
                (fun () -> "")
                (Rt_spec.Persist.check_certificate m cert)
          in
          Result.map_error (fun e -> `Vetoed [ "persist: " ^ e ]) persisted))

(* Where no rung follows, a refusal fails closed as a veto does. *)
let fail_closed r =
  Result.map_error (fun (`Refused d | `Vetoed d) -> `Check_failed d) r

let model t = Resident.model t.resident

let table_for t digest =
  match Hashtbl.find_opt t.tables digest with
  | Some tb -> tb
  | None ->
      if Hashtbl.length t.tables >= max_tables then Hashtbl.reset t.tables;
      let tb = Game.table () in
      Hashtbl.replace t.tables digest tb;
      tb

let cache_store t key sched =
  if Hashtbl.length t.cache >= max_cache then Hashtbl.reset t.cache;
  Hashtbl.replace t.cache key sched

(* ------------------------------------------------------------------ *)
(* The mutation path shared by serving and journal replay.             *)
(* ------------------------------------------------------------------ *)

(* The candidate of an admit: the declaration elaborated against the
   resident communication graph and added to the resident index, which
   is left as it was.  Returns the declared constraint with it. *)
let candidate t decl =
  match in_stage parse_st (fun () -> Rt_spec.Parser.parse_declaration decl) with
  | Error e -> Error [ e ]
  | Ok c ->
      in_stage candidate_st @@ fun () ->
      let name = c.Rt_spec.Ast.co_name in
      if Resident.mem t.resident name then
        Error [ Printf.sprintf "constraint %S is already resident" name ]
      else
        let comm = Resident.comm t.resident in
        Result.bind (Rt_spec.Elaborate.constraint_decl comm c) (fun added ->
            match Model.constraint_errors ~comm added with
            | [] -> Ok (added, Resident.add t.resident added)
            | errs -> Error errs)

(* The index with [name] retired, its schedule and certificate digest.
   Shrinking the constraint set can only relax the problem: the resident
   schedule still meets the rest, only the certificate must be
   re-issued against the reduced model ("" once no constraint is left). *)
let retired t name =
  if not (Resident.mem t.resident name) then
    Error (`Rejected [ Printf.sprintf "unknown constraint %S" name ])
  else
    let r' = Resident.remove t.resident name in
    match if Resident.is_empty r' then None else t.schedule with
    | None -> Ok (r', None, "")
    | Some sched -> (
        Result.map
          (fun cert_digest -> (r', Some sched, cert_digest))
          (fail_closed (certified (Resident.model r') sched)))

(* Apply a certified state and seed the answer cache with it.  [key]
   is [Resident.key r'] when the caller has already computed it. *)
let commit ?key t r' sched cert =
  t.resident <- r';
  t.schedule <- sched;
  t.cert <- cert;
  let key = match key with Some k -> k | None -> Resident.key r' in
  Option.iter (cache_store t key) sched

(* Write-ahead: the record is fsynced before the state is applied. *)
let journal_commit ?key t record r' sched cert =
  match in_stage journal_st (fun () -> Journal.append t.journal record) with
  | Error e -> Error e
  | Ok () ->
      Rt_obs.Metrics.incr journal_records;
      commit ?key t r' sched cert;
      Ok ()

let verdict_string = function
  | Admission.Guaranteed cond -> "guaranteed:" ^ cond
  | Admission.Impossible cond -> "impossible:" ^ cond
  | Admission.Inconclusive -> "inconclusive"

let admission m =
  match Admission.admit m with
  | Admission.Guaranteed cond -> ("GUARANTEED (" ^ cond ^ ")", 0)
  | Admission.Impossible cond -> ("IMPOSSIBLE (" ^ cond ^ ")", 1)
  | Admission.Inconclusive -> ("INCONCLUSIVE", 5)

(* ------------------------------------------------------------------ *)
(* The answer path: memo, then warm reuse, then synthesis.             *)
(* ------------------------------------------------------------------ *)

(* Whole-model synthesis against the admitted model verbatim (merging
   and pipelining rewrite the model, which would decouple the resident
   schedule from the resident constraint set — documented v1
   limitation). *)
let plain_solve ?budget ~level t (m' : Model.t) =
  let game_table = table_for t (digest_of m') in
  in_stage solve_st @@ fun () ->
  Synthesis.synthesize ?pool:t.pool ?budget ~game_table ~merge:false
    ~pipeline:false
    ~exact_fallback:(level = Full)
    m'

(* Component-local answer path: solve only the interaction components
   whose constraints are not already in the answer cache, then
   interleave.  The components, their order and their keys come from
   the index; a submodel is built only for a component the cache
   misses.  The component loop is sequential (the cache is not
   domain-safe); each component solve gets the pool.  Outcomes:
     `Sched s      — the interleaved schedule, still uncertified
     `Definitive d — a component is exactly infeasible => so is m'
     `Timeout r    — the budget tripped mid-pass
     `Skip         — decomposition does not apply or did not pan out;
                     fall back to the undecomposed path, fail-closed. *)
let decomposed_solve ?budget ~level t (r' : Resident.t) =
  match in_stage decompose_st (fun () -> Resident.components r') with
  | [] | [ _ ] -> `Skip
  | comps -> (
      let exception
        Stop of
          [ `Definitive of string list | `Timeout of string | `Give_up ]
      in
      let comm = Resident.comm r' in
      let solve comp =
        let key = Resident.component_key comp in
        match Hashtbl.find_opt t.cache key with
        | Some sched ->
            Rt_obs.Metrics.incr Rt_par.Perf.decompose_component_reuses;
            sched
        | None -> (
            Rt_obs.Metrics.incr Rt_par.Perf.decompose_component_solves;
            let constraints = Resident.constraints comp in
            let sub, _ =
              Decompose.representatives (Model.make ~comm ~constraints)
            in
            let game_table = table_for t (digest_of sub) in
            match
              Synthesis.synthesize ?pool:t.pool ?budget ~game_table
                ~merge:false ~pipeline:false
                ~exact_fallback:(level = Full)
                sub
            with
            | Ok plan ->
                cache_store t key plan.Synthesis.schedule;
                plan.Synthesis.schedule
            | Error err when err.Synthesis.stage = "exact" ->
                let names =
                  String.concat ", "
                    (List.map (fun (c : Timing.t) -> c.Timing.name) constraints)
                in
                raise
                  (Stop
                     (`Definitive
                       [
                         Printf.sprintf
                           "component {%s}: %s (definitive: the component's \
                            constraints are a subset of the model's)"
                           names err.Synthesis.message;
                       ]))
            | Error _ -> (
                match Option.bind budget Budget.exhausted with
                | Some reason -> raise (Stop (`Timeout reason))
                | None -> raise (Stop `Give_up)))
      in
      let interleaved =
        in_stage solve_st @@ fun () ->
        Decompose.account_pass (List.map Resident.size comps);
        match
          List.map
            (fun comp -> Decompose.run_component (fun () -> solve comp))
            comps
        with
        | scheds -> Ok (Decompose.interleave comm scheds)
        | exception Stop stop -> Error stop
      in
      match interleaved with
      | Error (`Definitive d) -> `Definitive d
      | Error (`Timeout r) -> `Timeout r
      | Error `Give_up | Ok (Error _) -> `Skip
      | Ok (Ok sched) -> `Sched sched)

(* Synthesis for the indexed model [r'], component-wise first (one
   small solve per interaction component instead of one big one),
   undecomposed as the fail-closed fallback; an interleave that Certify
   refuses falls back too.  The last rung of the answer path, and the
   fresh-start solve of the base system. *)
let solve ?budget ~level ?digest t (r' : Resident.t) =
  let m' = Resident.model r' in
  let certify s =
    Result.map (fun cd -> (s, "synth", cd)) (certified ?digest m' s)
  in
  let undecomposed () =
    let result =
      Rt_obs.Metrics.time solve_us @@ fun () -> plain_solve ?budget ~level t m'
    in
    match result with
    | Ok plan -> fail_closed (certify plan.Synthesis.schedule)
    | Error err -> (
        match Option.bind budget Budget.exhausted with
        | Some reason -> Error (`Timeout reason)
        | None ->
            Error (`Rejected [ Format.asprintf "%a" Synthesis.pp_error err ]))
  in
  match
    Rt_obs.Metrics.time solve_us (fun () ->
        decomposed_solve ?budget ~level t r')
  with
  | `Sched sched -> (
      match certify sched with
      | Error (`Refused _) -> undecomposed ()
      | answer -> fail_closed answer)
  | `Definitive diags -> Error (`Rejected diags)
  | `Timeout reason -> Error (`Timeout reason)
  | `Skip -> undecomposed ()

(* Find a certified schedule for candidate [r'], the resident index
   plus the declared constraint [added]; [key] is [Resident.key r'].
   Returns (schedule, path, certificate digest) or a diagnosable
   failure.  Never mutates the resident certified state
   ([t.resident]/[t.schedule]/[t.cert]); the game-table and answer
   caches may grow.  Every rung's schedule passes the certification
   step against the whole candidate; a memo hint that Certify refuses
   falls through to the next rung.

   The warm rung asks only whether the resident schedule meets
   [added]: that schedule meets every resident constraint (every
   commit, replayed record and fresh start puts a checked schedule in
   place, and a retire only drops constraints), and a constraint's
   verdict depends on the schedule and its own task graph alone. *)
let find_schedule ?budget ~level ~digest t ~key ~(added : Timing.t)
    (r' : Resident.t) =
  let m' = Resident.model r' in
  let certify path s =
    Result.map (fun cd -> (s, path, cd)) (certified ~digest m' s)
  in
  let memo_hit =
    Option.bind (Hashtbl.find_opt t.cache key) @@ fun sched ->
    match certify "memo" sched with
    | Error (`Refused _) -> None
    | answer -> Some (fail_closed answer)
  in
  let meets_added sched =
    in_stage verify_st @@ fun () ->
    let m = Model.make ~comm:(Resident.comm r') ~constraints:[ added ] in
    try Latency.all_ok (Latency.verify m sched)
    with Invalid_argument _ -> false
  in
  match memo_hit with
  | Some answer ->
      Rt_obs.Metrics.incr memo_hits;
      answer
  | None -> (
      Rt_obs.Metrics.incr memo_misses;
      match t.schedule with
      | Some sched when meets_added sched ->
          Rt_obs.Metrics.incr warm_hits;
          fail_closed (certify "warm" sched)
      | _ -> solve ?budget ~level ~digest t r')

let admit_or_probe ?budget ~level ~commit t decl =
  match candidate t decl with
  | Error e -> Rejected e
  | Ok ((added : Timing.t), r') -> (
      let verdict = in_stage admission_st (fun () -> Resident.admission r') in
      match verdict with
      | Admission.Impossible cond -> Rejected [ "impossible: " ^ cond ]
      | _ when level = Analytic ->
          (* Deepest degradation: answer from the gap tests alone and do
             not touch resident state — it stays certified. *)
          Analytic_only { verdict = verdict_string verdict }
      | _ -> (
          let key = in_stage key_st (fun () -> Resident.key r') in
          match
            find_schedule ?budget ~level ~digest:commit t ~key ~added r'
          with
          | Error (`Timeout reason) ->
              Rt_obs.Metrics.incr timeouts;
              Timed_out reason
          | Error (`Rejected diags) ->
              Rt_obs.Metrics.incr admits_rejected;
              Rejected diags
          | Error (`Check_failed diags) ->
              (* The trusted core vetoed the untrusted answer: roll
                 back (state was never touched) and fail closed. *)
              Rt_obs.Metrics.incr check_failures;
              Check_failed diags
          | Ok (sched, path, cert_digest) -> (
              let answer =
                Admitted { path; verdict = verdict_string verdict }
              in
              if not commit then answer
              else
                let m' = Resident.model r' in
                let record =
                  Journal.Admit
                    {
                      name = added.Timing.name;
                      decl;
                      digest = digest_of m';
                      schedule = Rt_base.Schedule.to_string m'.Model.comm sched;
                      cert = cert_digest;
                    }
                in
                match
                  journal_commit ~key t record r' (Some sched) cert_digest
                with
                | Error e -> Journal_failed e
                | Ok () ->
                    Rt_obs.Metrics.incr admits_ok;
                    answer)))

let admit ?budget ~level t decl = admit_or_probe ?budget ~level ~commit:true t decl
let what_if ?budget ~level t decl = admit_or_probe ?budget ~level ~commit:false t decl

let retire t name =
  match retired t name with
  | Error (`Rejected e) -> Rejected e
  | Error (`Check_failed diags) ->
      Rt_obs.Metrics.incr check_failures;
      Check_failed diags
  | Ok (r', sched, cert_digest) -> (
      let record =
        Journal.Retire
          { name; digest = digest_of (Resident.model r'); cert = cert_digest }
      in
      match journal_commit t record r' sched cert_digest with
      | Error e -> Journal_failed e
      | Ok () -> Admitted { path = "retire"; verdict = "retired" })

let reverify t =
  match t.schedule with
  | None -> Ok (digest_of (model t))
  | Some sched -> (
      match certified (model t) sched with
      | Error (`Refused diags | `Vetoed diags) -> Error diags
      | Ok cert_digest ->
          if t.cert <> "" && t.cert <> cert_digest then
            Error
              [
                Printf.sprintf
                  "certificate digest drift: resident %s, recomputed %s"
                  t.cert cert_digest;
              ]
          else Ok (digest_of (model t)))

let init_record t spec =
  Journal.Init
    {
      spec;
      digest = digest_of (model t);
      schedule =
        (match t.schedule with
        | None -> ""
        | Some s -> Rt_base.Schedule.to_string (model t).Model.comm s);
      cert = t.cert;
    }

let snapshot t =
  let spec = Rt_spec.Printer.print (model t) in
  match Journal.truncate t.journal (init_record t spec) with
  | Error e -> Error e
  | Ok () -> Ok (spec, digest_of (model t))

(* ------------------------------------------------------------------ *)
(* Startup: fresh init or journal replay.                              *)
(* ------------------------------------------------------------------ *)

(* A journaled model or certificate digest against the one replay
   recomputed. *)
let check_digest kind ~journaled got =
  if got = journaled then Ok ()
  else
    Error
      [
        Printf.sprintf "%s digest mismatch (journal %s, recomputed %s)" kind
          journaled got;
      ]

(* Re-validate one journaled certified state through the certification
   step, exactly as at admit time: a schedule that misses a deadline is
   refused by Certify, naming the constraint, and the certificate must
   digest to the journaled one. *)
let revalidate m sched_s cert_d =
  if sched_s = "" then
    if cert_d = "" then Ok None
    else Error [ "certificate digest without schedule" ]
  else
    match Rt_base.Schedule.of_string m.Model.comm sched_s with
    | Error e -> Error [ "schedule: " ^ e ]
    | Ok sched -> (
        match certified m sched with
        | Error (`Refused e | `Vetoed e) -> Error e
        | Ok cd ->
            Result.map
              (fun () -> Some sched)
              (check_digest "certificate" ~journaled:cert_d cd))

let in_record what r = Result.map_error (List.map (fun x -> what ^ ": " ^ x)) r

(* Records are applied through serving's own steps — [candidate],
   [retired], [commit] — so replay rebuilds the same index and seeds
   the memo at the same points live serving did. *)
let replay t records =
  let ( let* ) = Result.bind in
  let step = function
    | Journal.Init _ -> Error [ "unexpected second init record" ]
    | Journal.Admit r ->
        in_record (Printf.sprintf "admit %S" r.name)
        @@ let* _, r' = candidate t r.decl in
           let m' = Resident.model r' in
           let* () = check_digest "model" ~journaled:r.digest (digest_of m') in
           let* sched = revalidate m' r.schedule r.cert in
           let* sched =
             Option.to_result ~none:[ "record has no schedule" ] sched
           in
           Ok (commit t r' (Some sched) r.cert)
    | Journal.Retire r ->
        in_record (Printf.sprintf "retire %S" r.name)
        @@ let* r', sched, cd =
             Result.map_error
               (fun (`Rejected e | `Check_failed e) -> e)
               (retired t r.name)
           in
           let m' = Resident.model r' in
           let* () = check_digest "model" ~journaled:r.digest (digest_of m') in
           let* () = check_digest "certificate" ~journaled:r.cert cd in
           Ok (commit t r' sched cd)
  in
  let rec go i = function
    | [] -> Ok ()
    | r :: rest -> (
        match step r with
        | Ok () ->
            Rt_obs.Metrics.incr replayed_records;
            go (i + 1) rest
        | Error e ->
            Error
              (Printf.sprintf "journal replay failed at record %d: %s" i
                 (String.concat "; " e)))
  in
  go 2 records

let create ?pool ?startup_budget ~journal ?spec () =
  match Journal.load journal with
  | Error e -> Error ("journal: " ^ e)
  | Ok records -> (
      match Journal.open_append journal with
      | Error e -> Error e
      | Ok jh ->
          let mk model =
            {
              resident = Resident.of_model model;
              schedule = None;
              cert = "";
              journal = jh;
              tables = Hashtbl.create 8;
              cache = Hashtbl.create 64;
              pool;
            }
          in
          let started =
            match records with
            | [] -> (
                match spec with
                | None ->
                    Error "fresh start requires a base specification (--spec)"
                | Some src -> (
                    match Rt_spec.Elaborate.load src with
                    | Error errs -> Error (String.concat "; " errs)
                    | Ok m -> (
                        let t = mk m in
                        let certified =
                          if m.Model.constraints = [] then Ok ()
                          else
                            match
                              solve ?budget:startup_budget ~level:Full t
                                t.resident
                            with
                            | Error (`Rejected e | `Check_failed e) -> Error e
                            | Error (`Timeout reason) -> Error [ reason ]
                            | Ok (sched, _, cd) ->
                                Ok (commit t t.resident (Some sched) cd)
                        in
                        match certified with
                        | Error e ->
                            Error ("base system: " ^ String.concat "; " e)
                        | Ok () ->
                            Result.map
                              (fun () -> t)
                              (Journal.append jh (init_record t src)))))
            | Journal.Init i :: rest -> (
                match Rt_spec.Elaborate.load i.spec with
                | Error errs ->
                    Error ("journal init: " ^ String.concat "; " errs)
                | Ok m -> (
                    let t = mk m in
                    match
                      in_record "journal init"
                        (Result.bind
                           (check_digest "model" ~journaled:i.digest
                              (digest_of m))
                           (fun () -> revalidate m i.schedule i.cert))
                    with
                    | Error e -> Error (String.concat "; " e)
                    | Ok sched ->
                        commit t t.resident sched i.cert;
                        Result.map (fun () -> t) (replay t rest)))
            | _ :: _ -> Error "journal does not start with an init record"
          in
          if Result.is_error started then Journal.close jh;
          started)

let schedule t = t.schedule
let cert_digest t = t.cert
let resident t = t.resident
let memo_size t = Hashtbl.length t.cache
let resident_tables t = Hashtbl.length t.tables
let close t = Journal.close t.journal
