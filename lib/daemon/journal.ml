type record =
  | Init of { spec : string; digest : string; schedule : string; cert : string }
  | Admit of {
      name : string;
      decl : string;
      digest : string;
      schedule : string;
      cert : string;
    }
  | Retire of { name : string; digest : string; cert : string }

let digest_string = Rt_graph.Fnv.string

let obj fields =
  "{"
  ^ String.concat ","
      (List.map
         (fun (k, v) ->
           Rt_graph.Sink.json_string k ^ ":" ^ Rt_graph.Sink.json_string v)
         fields)
  ^ "}"

let serialize = function
  | Init { spec; digest; schedule; cert } ->
      obj
        [
          ("op", "init");
          ("spec", spec);
          ("digest", digest);
          ("schedule", schedule);
          ("cert", cert);
        ]
  | Admit { name; decl; digest; schedule; cert } ->
      obj
        [
          ("op", "admit");
          ("name", name);
          ("decl", decl);
          ("digest", digest);
          ("schedule", schedule);
          ("cert", cert);
        ]
  | Retire { name; digest; cert } ->
      obj [ ("op", "retire"); ("name", name); ("digest", digest); ("cert", cert) ]

let field j k =
  Option.bind (Rt_obs.Json.member k j) Rt_obs.Json.to_string

let parse_line line =
  match Rt_obs.Json.parse line with
  | Error e -> Error e
  | Ok j -> (
      let req k = match field j k with
        | Some v -> Ok v
        | None -> Error (Printf.sprintf "missing field %S" k)
      in
      let ( let* ) = Result.bind in
      match field j "op" with
      | Some "init" ->
          let* spec = req "spec" in
          let* digest = req "digest" in
          let* schedule = req "schedule" in
          let* cert = req "cert" in
          Ok (Init { spec; digest; schedule; cert })
      | Some "admit" ->
          let* name = req "name" in
          let* decl = req "decl" in
          let* digest = req "digest" in
          let* schedule = req "schedule" in
          let* cert = req "cert" in
          Ok (Admit { name; decl; digest; schedule; cert })
      | Some "retire" ->
          let* name = req "name" in
          let* digest = req "digest" in
          let* cert = req "cert" in
          Ok (Retire { name; digest; cert })
      | Some op -> Error (Printf.sprintf "unknown op %S" op)
      | None -> Error "missing \"op\"")

let load path =
  if not (Sys.file_exists path) then Ok []
  else
    match In_channel.with_open_bin path In_channel.input_all with
    | exception Sys_error e -> Error e
    | contents ->
        (* A line is acknowledged only if its trailing newline made it
           to disk; anything after the last newline is a torn tail. *)
        let upto =
          match String.rindex_opt contents '\n' with
          | None -> 0
          | Some i -> i + 1
        in
        let lines =
          String.split_on_char '\n' (String.sub contents 0 upto)
          |> List.filter (fun l -> String.trim l <> "")
        in
        let n = List.length lines in
        let rec go i acc = function
          | [] -> Ok (List.rev acc)
          | line :: rest -> (
              match parse_line line with
              | Ok r -> go (i + 1) (r :: acc) rest
              | Error e when i = n ->
                  (* Torn final record (crash mid-write, never
                     acknowledged): drop it.  [e] intentionally unused
                     beyond this point. *)
                  ignore e;
                  Ok (List.rev acc)
              | Error e ->
                  Error
                    (Printf.sprintf
                       "journal corrupt at record %d (of %d): %s — refusing \
                        to replay a damaged prefix"
                       i n e))
        in
        go 1 [] lines

type t = { path : string; mutable fd : Unix.file_descr }

let open_append path =
  match Unix.openfile path [ Unix.O_WRONLY; Unix.O_APPEND; Unix.O_CREAT ] 0o644 with
  | exception Unix.Unix_error (e, _, _) ->
      Error (path ^ ": " ^ Unix.error_message e)
  | fd -> Ok { path; fd }

let write_all fd s =
  let b = Bytes.unsafe_of_string s in
  let n = Bytes.length b in
  let rec go off =
    if off < n then go (off + Unix.write fd b off (n - off))
  in
  go 0

let append t record =
  match
    write_all t.fd (serialize record ^ "\n");
    Unix.fsync t.fd
  with
  | () -> Ok ()
  | exception Unix.Unix_error (e, _, _) ->
      Error (t.path ^ ": " ^ Unix.error_message e)

let truncate t record =
  let tmp = t.path ^ ".tmp" in
  match
    let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
    write_all fd (serialize record ^ "\n");
    Unix.fsync fd;
    Unix.close fd;
    Unix.rename tmp t.path;
    Unix.close t.fd;
    t.fd <- Unix.openfile t.path [ Unix.O_WRONLY; Unix.O_APPEND ] 0o644
  with
  | () -> Ok ()
  | exception Unix.Unix_error (e, _, _) ->
      Error (t.path ^ ": " ^ Unix.error_message e)

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()
