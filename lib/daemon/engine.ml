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
         every answer built from one still passes whole-model
         verification and the trusted certificate check before
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
(* The fail-closed certification step: untrusted Certify, trusted
   Checker, then the digest of the certificate as it would persist.    *)
(* ------------------------------------------------------------------ *)

let certified m sched =
  match in_stage certify_st (fun () -> Certify.schedule m sched) with
  | Error e -> Error [ "certify: " ^ e ]
  | exception Invalid_argument e -> Error [ "certify: " ^ e ]
  | Ok cert -> (
      match in_stage check_st (fun () -> Checker.check m cert) with
      | Error diags -> Error diags
      | Ok () -> Ok cert)

(* [~digest:false] (a what-if, whose answer carries no digest) makes
   the persist step's refusals without rendering or hashing, and
   answers [""]. *)
let certify_checked ?(digest = true) m sched =
  Rt_obs.Metrics.time check_us @@ fun () ->
  Result.bind (certified m sched) @@ fun cert ->
  in_stage digest_st @@ fun () ->
  if digest then
    match Rt_spec.Persist.certificate_digest m cert with
    | d -> Ok d
    | exception Invalid_argument e -> Error [ "persist: " ^ e ]
  else
    match Rt_spec.Persist.check_certificate m cert with
    | Ok () -> Ok ""
    | Error e -> Error [ "persist: " ^ e ]

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
   schedule still verifies, only the certificate must be re-issued
   against the reduced model ("" once no constraint is left). *)
let retired t name =
  if not (Resident.mem t.resident name) then
    Error (`Rejected [ Printf.sprintf "unknown constraint %S" name ])
  else
    let r' = Resident.remove t.resident name in
    match if Resident.is_empty r' then None else t.schedule with
    | None -> Ok (r', None, "")
    | Some sched -> (
        match certify_checked (Resident.model r') sched with
        | Error diags -> Error (`Check_failed diags)
        | Ok cert_digest -> Ok (r', Some sched, cert_digest))

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

let verifies m sched =
  in_stage verify_st @@ fun () ->
  match Latency.verify m sched with
  | verdicts -> Latency.all_ok verdicts
  | exception Invalid_argument _ -> false

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
   interleave and re-verify against the whole candidate model.  The
   components, their order and their keys come from the index; a
   submodel is built only for a component the cache misses.  The
   component loop is sequential (the cache is not domain-safe); each
   component solve gets the pool.  Outcomes:
     `Sched s      — whole-model verified schedule (still uncertified)
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
      | Ok (Ok sched) ->
          if verifies (Resident.model r') sched then `Sched sched else `Skip)

(* Synthesis for the indexed model [r'], component-wise first (one
   small solve per interaction component instead of one big one),
   undecomposed as the fail-closed fallback.  The last rung of the
   answer path, and the fresh-start solve of the base system. *)
let solve ?budget ~level t (r' : Resident.t) =
  match
    Rt_obs.Metrics.time solve_us (fun () ->
        decomposed_solve ?budget ~level t r')
  with
  | `Sched sched -> Ok sched
  | `Definitive diags -> Error (`Rejected diags)
  | `Timeout reason -> Error (`Timeout reason)
  | `Skip -> (
      let result =
        Rt_obs.Metrics.time solve_us @@ fun () ->
        plain_solve ?budget ~level t (Resident.model r')
      in
      match result with
      | Ok plan -> Ok plan.Synthesis.schedule
      | Error err -> (
          match Option.bind budget Budget.exhausted with
          | Some reason -> Error (`Timeout reason)
          | None ->
              Error (`Rejected [ Format.asprintf "%a" Synthesis.pp_error err ])))

(* Find a certified schedule for candidate [r'], the resident index
   plus the declared constraint [added]; [key] is [Resident.key r'].
   Returns (schedule, path) or a diagnosable failure.  Never mutates
   the resident certified state ([t.resident]/[t.schedule]/[t.cert]);
   the game-table and answer caches may grow.

   The warm rung asks only whether the resident schedule meets
   [added]: that schedule verifies every resident constraint (every
   commit, replayed record and fresh start puts a checked schedule in
   place, and a retire only drops constraints), and a constraint's
   verdict depends on the schedule and its own task graph alone, so
   the other verdicts of a whole-model verify are known to hold.  The
   memo rung's cached schedule carries no such guarantee and is
   verified against the whole candidate. *)
let find_schedule ?budget ~level t ~key ~(added : Timing.t) (r' : Resident.t)
    =
  let memo_hit =
    match Hashtbl.find_opt t.cache key with
    | Some sched when verifies (Resident.model r') sched -> Some sched
    | _ -> None
  in
  let meets_added sched =
    verifies
      (Model.make ~comm:(Resident.comm r') ~constraints:[ added ])
      sched
  in
  match memo_hit with
  | Some sched ->
      Rt_obs.Metrics.incr memo_hits;
      Ok (sched, "memo")
  | None -> (
      Rt_obs.Metrics.incr memo_misses;
      match t.schedule with
      | Some sched when meets_added sched ->
          Rt_obs.Metrics.incr warm_hits;
          Ok (sched, "warm")
      | _ -> Result.map (fun s -> (s, "synth")) (solve ?budget ~level t r'))

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
          match find_schedule ?budget ~level t ~key ~added r' with
          | Error (`Timeout reason) ->
              Rt_obs.Metrics.incr timeouts;
              Timed_out reason
          | Error (`Rejected diags) ->
              Rt_obs.Metrics.incr admits_rejected;
              Rejected diags
          | Ok (sched, path) -> (
              let m' = Resident.model r' in
              match certify_checked ~digest:commit m' sched with
              | Error diags ->
                  (* The trusted core vetoed the untrusted answer: roll
                     back (state was never touched) and fail closed. *)
                  Rt_obs.Metrics.incr check_failures;
                  Check_failed diags
              | Ok cert_digest -> (
                  let answer =
                    Admitted { path; verdict = verdict_string verdict }
                  in
                  if not commit then answer
                  else
                    let record =
                      Journal.Admit
                        {
                          name = added.Timing.name;
                          decl;
                          digest = digest_of m';
                          schedule =
                            Rt_base.Schedule.to_string m'.Model.comm sched;
                          cert = cert_digest;
                        }
                    in
                    match
                      journal_commit ~key t record r' (Some sched) cert_digest
                    with
                    | Error e -> Journal_failed e
                    | Ok () ->
                        Rt_obs.Metrics.incr admits_ok;
                        answer))))

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
      if not (verifies (model t) sched) then
        Error [ "resident schedule no longer verifies" ]
      else
        match certify_checked (model t) sched with
        | Error diags -> Error diags
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

let load_schedule m s =
  match Rt_base.Schedule.of_string m.Model.comm s with
  | Error e -> Error [ "schedule: " ^ e ]
  | Ok sched -> (
      match Rt_base.Schedule.validate m.Model.comm sched with
      | Error errs -> Error errs
      | Ok () ->
          if verifies m sched then Ok sched
          else Error [ "journaled schedule does not verify" ])

let check_digest what m digest =
  if digest_of m = digest then Ok ()
  else
    Error
      [
        Printf.sprintf "%s: model digest mismatch (journal %s, replayed %s)"
          what digest (digest_of m);
      ]

let check_cert what ~journaled cd =
  if cd = journaled then Ok ()
  else
    Error
      [
        Printf.sprintf
          "%s: certificate digest mismatch (journal %s, recomputed %s)" what
          journaled cd;
      ]

(* Re-validate one journaled certified state: digests and the trusted
   checker, exactly as at admit time. *)
let revalidate what m sched_s cert_d =
  if sched_s = "" then if cert_d = "" then Ok None else Error [ what ^ ": certificate digest without schedule" ]
  else
    match load_schedule m sched_s with
    | Error e -> Error (List.map (fun x -> what ^ ": " ^ x) e)
    | Ok sched -> (
        match certify_checked m sched with
        | Error e -> Error (List.map (fun x -> what ^ ": " ^ x) e)
        | Ok cd ->
            Result.map
              (fun () -> Some sched)
              (check_cert what ~journaled:cert_d cd))

(* Records are applied through serving's own steps — [candidate],
   [retired], [commit] — so replay rebuilds the same index and seeds
   the memo at the same points live serving did. *)
let replay t records =
  let ( let* ) = Result.bind in
  let step = function
    | Journal.Init _ -> Error [ "unexpected second init record" ]
    | Journal.Admit r ->
        let what = Printf.sprintf "admit %S" r.name in
        let* _, r' = candidate t r.decl in
        let m' = Resident.model r' in
        let* () = check_digest what m' r.digest in
        let* sched =
          match revalidate what m' r.schedule r.cert with
          | Ok (Some s) -> Ok s
          | Ok None -> Error [ what ^ ": record has no schedule" ]
          | Error e -> Error e
        in
        commit t r' (Some sched) r.cert;
        Ok ()
    | Journal.Retire r ->
        let what = Printf.sprintf "retire %S" r.name in
        let* r', sched, cd =
          Result.map_error
            (fun (`Rejected e | `Check_failed e) ->
              List.map (fun x -> what ^ ": " ^ x) e)
            (retired t r.name)
        in
        let* () = check_digest what (Resident.model r') r.digest in
        let* () = check_cert what ~journaled:r.cert cd in
        commit t r' sched cd;
        Ok ()
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
                            | Error (`Rejected diags) -> Error diags
                            | Error (`Timeout reason) -> Error [ reason ]
                            | Ok sched ->
                                Result.map
                                  (fun cd ->
                                    commit t t.resident (Some sched) cd)
                                  (certify_checked m sched)
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
                      Result.bind (check_digest "journal init" m i.digest)
                        (fun () -> revalidate "init" m i.schedule i.cert)
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
