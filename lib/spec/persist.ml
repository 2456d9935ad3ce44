open Rt_core
module Certificate = Rt_check.Certificate

let header = "# rtsyn plan v1"

let separator = "--- model ---"

let save_string (m : Model.t) sched =
  let verdicts = Latency.verify m sched in
  if not (Latency.all_ok verdicts) then
    invalid_arg "Persist.save_string: schedule does not verify against the model";
  Printf.sprintf "%s\nschedule: %s\n%s\n%s" header
    (Schedule.to_string m.Model.comm sched)
    separator (Printer.print m)

(* Loaders sit on a trust boundary (files from disk, journal replay,
   operator hand-offs): a malformed input must come back as a
   structured [Error] the caller maps to "rejected" (exit 1), never as
   an uncaught exception (exit 4, "internal").  The parsers below are
   exception-free by construction; this wrapper is the backstop that
   keeps any future raising path inside the contract. *)
let structured what f =
  match f () with
  | r -> r
  | exception Stack_overflow -> Error (what ^ ": input too deeply nested")
  | exception exn ->
      Error (Printf.sprintf "%s: malformed input (%s)" what (Printexc.to_string exn))

let load_string s =
  structured "plan" @@ fun () ->
  let lines = String.split_on_char '\n' s in
  match lines with
  | first :: rest when String.trim first = header -> (
      let rec split_schedule acc = function
        | [] -> Error "missing model section"
        | line :: more when String.trim line = separator ->
            Ok (List.rev acc, String.concat "\n" more)
        | line :: more -> split_schedule (line :: acc) more
      in
      match split_schedule [] rest with
      | Error e -> Error e
      | Ok (head_lines, model_src) -> (
          let sched_line =
            List.find_opt
              (fun l ->
                String.length l >= 9 && String.sub l 0 9 = "schedule:")
              head_lines
          in
          match sched_line with
          | None -> Error "missing 'schedule:' line"
          | Some line -> (
              match Elaborate.load model_src with
              | Error errs -> Error (String.concat "; " errs)
              | Ok m -> (
                  match
                    Schedule.of_string m.Model.comm
                      (String.sub line 9 (String.length line - 9))
                  with
                  | Error e -> Error e
                  | Ok sched ->
                      (match Schedule.validate m.Model.comm sched with
                      | Error errs ->
                          Error ("ill-formed schedule: " ^ String.concat "; " errs)
                      | Ok () ->
                          if Latency.all_ok (Latency.verify m sched) then
                            Ok (m, sched)
                          else
                            Error
                              "plan rejected: schedule no longer verifies \
                               against the model")))))
  | _ -> Error (Printf.sprintf "missing %S header" header)

let save_file path m sched =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (save_string m sched))

let load_file path =
  match open_in_bin path with
  | exception Sys_error e -> Error e
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          load_string (really_input_string ic (in_channel_length ic)))

(* ------------------------------------------------------------------ *)
(* Certificates: JSON written by Rt_check.Certificate.to_json.         *)
(* ------------------------------------------------------------------ *)

(* Whether printing [m] and elaborating the source again would give
   back an equal model, decided without the round trip.  Elaboration
   numbers each task graph's nodes by element name; a task graph keeps
   its edges as a set, so once the node numbering agrees the edges
   come back unchanged.  So it suffices that every task graph lists its
   nodes in strictly increasing element-name order (which also rules
   out an element occurring twice, which the printer refuses) and that
   every element and constraint name lexes back as one identifier.
   Timing parameters and the rest of the model are valid by
   construction ([Timing.t] and [Model.t] are private to their
   validating constructors), so they print and elaborate back as they
   are. *)
let elaboration_ordered (m : Model.t) =
  let g = m.Model.comm in
  let name e = (Comm_graph.element g e).Element.name in
  let nodes_ordered tg =
    let node_name v = name (Task_graph.element_of_node tg v) in
    let rec from v =
      v >= Task_graph.size tg
      || (String.compare (node_name (v - 1)) (node_name v) < 0 && from (v + 1))
    in
    from 1
  in
  List.for_all
    (fun (e : Element.t) -> Lexer.is_identifier e.Element.name)
    (Comm_graph.elements g)
  && List.for_all
       (fun (c : Timing.t) ->
         Lexer.is_identifier c.Timing.name && nodes_ordered c.Timing.graph)
       m.Model.constraints

(* Elaboration canonicalizes task graphs (nodes ordered alphabetically
   by element name, edges sorted), so a certificate built against a
   programmatic or rewritten model must be re-indexed onto the
   canonical form before it is written — otherwise the reloaded model's
   node numbering would no longer line up with the witness exec arrays
   and the digest would not round-trip.  Element ids are stable under
   print/elaborate (elements are printed in id order), so the schedule
   needs no translation.  A model already in that form (every model
   built by [Elaborate], so every daemon model) is its own canonical
   form and skips the round trip. *)
let canonicalize m cert =
  if cert.Certificate.digest <> Certificate.digest_of_model m then
    invalid_arg
      "Persist.save_certificate_string: certificate does not bind to the model";
  if elaboration_ordered m then (m, cert)
  else
    let src = Printer.print m in
    match Elaborate.load src with
    | Error errs ->
        invalid_arg
          ("Persist.save_certificate_string: model does not re-elaborate: "
          ^ String.concat "; " errs)
    | Ok m' ->
        (* Index constraints by name once: one certificate carries a
           witness per constraint, so a linear find here is quadratic in
           the model size (felt at daemon scale, where every admission
           persists a fresh certificate). *)
        let index cs =
          let tbl = Hashtbl.create (List.length cs) in
          List.iter (fun (c : Timing.t) -> Hashtbl.replace tbl c.Timing.name c) cs;
          tbl
        in
        let old_by_name = index m.Model.constraints in
        let new_by_name = index m'.Model.constraints in
        let remap_witness (name, w) =
          match
            (Hashtbl.find_opt old_by_name name, Hashtbl.find_opt new_by_name name)
          with
          | Some c_old, Some c_new
            when Task_graph.size c_old.Timing.graph
                 = Task_graph.size c_new.Timing.graph ->
              let old_elems = Task_graph.node_elements c_old.Timing.graph in
              let node_of_elem e =
                let n = Array.length old_elems in
                let rec go i = if i >= n || old_elems.(i) = e then i else go (i + 1) in
                go 0
              in
              (* perm.(new node) = old node carrying the same element
                 (unique: printable task graphs have no duplicate
                 occurrences). *)
              let perm =
                Array.map node_of_elem
                  (Task_graph.node_elements c_new.Timing.graph)
              in
              let n = Array.length perm in
              let remap_exec (x : Certificate.exec) =
                if Array.length x <> n then x
                else Array.init n (fun i -> x.(perm.(i)))
              in
              let w' =
                match w with
                | Certificate.Async es -> Certificate.Async (List.map remap_exec es)
                | Certificate.Periodic es ->
                    Certificate.Periodic (Array.map remap_exec es)
              in
              (name, w')
          | _ ->
              (* Unknown constraint or size mismatch: keep verbatim; the
                 checker reports it. *)
              (name, w)
        in
        ( m',
          {
            Certificate.digest = Certificate.digest_of_model m';
            schedule = cert.Certificate.schedule;
            witnesses = List.map remap_witness cert.Certificate.witnesses;
          } )

(* The file embeds the certified model as specification source, so a
   certificate is checkable self-contained: synthesis may rewrite the
   model (merging, pipelining) before scheduling, and the certificate
   binds to the model actually scheduled, not to the input spec.  The
   model is a final field after [Certificate.to_json]'s, rendered
   through a JSON-escaping view of the same sink. *)
let render_certificate s m cert =
  let m', cert' = canonicalize m cert in
  Certificate.render_fields s cert';
  Rt_graph.Sink.add_string s ",\"model\":\"";
  Printer.render (Rt_graph.Sink.json_escaping s) m';
  Rt_graph.Sink.add_string s "\"}\n"

let save_certificate_string m cert =
  let b = Buffer.create 4096 in
  render_certificate (Rt_graph.Sink.of_buffer b) m cert;
  Buffer.contents b

let certificate_digest m cert =
  let h = Rt_graph.Fnv.create () in
  render_certificate (Rt_graph.Sink.of_fnv h) m cert;
  Rt_graph.Fnv.to_string h

let check_certificate m cert =
  match canonicalize m cert with
  | _ -> Ok ()
  | exception Invalid_argument e -> Error e

let save_certificate_file path m cert =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (save_certificate_string m cert))

let json_int j =
  match Rt_obs.Json.to_float j with
  | Some f when Float.is_integer f -> Some (int_of_float f)
  | _ -> None

let ( let* ) r f = Result.bind r f

let req what = function Some v -> Ok v | None -> Error ("certificate: " ^ what)

let parse_schedule j =
  let* slots = req "schedule must be an int array" (Rt_obs.Json.to_list j) in
  let* ints =
    List.fold_left
      (fun acc s ->
        let* acc = acc in
        let* v = req "schedule entries must be integers" (json_int s) in
        Ok (v :: acc))
      (Ok []) slots
  in
  let arr =
    List.rev_map
      (fun v -> if v < 0 then Schedule.Idle else Schedule.Run v)
      ints
    |> Array.of_list
  in
  if Array.length arr = 0 then Error "certificate: empty schedule"
  else Ok (Schedule.of_array arr)

let parse_exec j =
  let* pairs = req "exec must be a list" (Rt_obs.Json.to_list j) in
  let* rev =
    List.fold_left
      (fun acc p ->
        let* acc = acc in
        match Rt_obs.Json.to_list p with
        | Some [ s; f ] -> (
            match (json_int s, json_int f) with
            | Some s, Some f -> Ok ((s, f) :: acc)
            | _ -> Error "certificate: exec entries must be [start,finish]")
        | _ -> Error "certificate: exec entries must be [start,finish]")
      (Ok []) pairs
  in
  Ok (Array.of_list (List.rev rev))

let parse_witness j =
  let* name =
    req "witness needs a \"constraint\" name"
      (Option.bind (Rt_obs.Json.member "constraint" j) Rt_obs.Json.to_string)
  in
  let* kind =
    req "witness needs a \"kind\""
      (Option.bind (Rt_obs.Json.member "kind" j) Rt_obs.Json.to_string)
  in
  let* execs_j =
    req "witness needs \"execs\""
      (Option.bind (Rt_obs.Json.member "execs" j) Rt_obs.Json.to_list)
  in
  let* rev =
    List.fold_left
      (fun acc e ->
        let* acc = acc in
        let* x = parse_exec e in
        Ok (x :: acc))
      (Ok []) execs_j
  in
  let execs = List.rev rev in
  match kind with
  | "async" -> Ok (name, Certificate.Async execs)
  | "periodic" -> Ok (name, Certificate.Periodic (Array.of_list execs))
  | k -> Error (Printf.sprintf "certificate: unknown witness kind %S" k)

let load_certificate_string s =
  structured "certificate" @@ fun () ->
  let* j = Rt_obs.Json.parse s in
  let* fmt =
    req "missing \"format\""
      (Option.bind (Rt_obs.Json.member "format" j) Rt_obs.Json.to_string)
  in
  if fmt <> "rtsyn-certificate" then
    Error (Printf.sprintf "certificate: unexpected format %S" fmt)
  else
    let* version =
      req "missing \"version\""
        (Option.bind (Rt_obs.Json.member "version" j) json_int)
    in
    if version <> Certificate.version then
      Error
        (Printf.sprintf "certificate: version %d unsupported (want %d)"
           version Certificate.version)
    else
      let* digest =
        req "missing \"digest\""
          (Option.bind (Rt_obs.Json.member "digest" j) Rt_obs.Json.to_string)
      in
      let* schedule =
        let* sj = req "missing \"schedule\"" (Rt_obs.Json.member "schedule" j) in
        parse_schedule sj
      in
      let* witnesses_j =
        req "missing \"witnesses\""
          (Option.bind (Rt_obs.Json.member "witnesses" j) Rt_obs.Json.to_list)
      in
      let* rev =
        List.fold_left
          (fun acc w ->
            let* acc = acc in
            let* parsed = parse_witness w in
            Ok (parsed :: acc))
          (Ok []) witnesses_j
      in
      let* model_src =
        req "missing \"model\""
          (Option.bind (Rt_obs.Json.member "model" j) Rt_obs.Json.to_string)
      in
      let* m =
        Result.map_error
          (fun errs -> "certificate model: " ^ String.concat "; " errs)
          (Elaborate.load model_src)
      in
      Ok
        ( m,
          {
            Certificate.digest;
            schedule;
            witnesses = List.rev rev;
          } )

let load_certificate_file path =
  match open_in_bin path with
  | exception Sys_error e -> Error e
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          load_certificate_string
            (really_input_string ic (in_channel_length ic)))
