let version = 1

type op =
  | Admit of string
  | What_if of string
  | Retire of string
  | Reverify
  | Stats
  | Snapshot
  | Shutdown

type request = {
  id : string;
  op : op;
  budget_ms : int option;
  fuel : int option;
}

let str j k = Option.bind (Rt_obs.Json.member k j) Rt_obs.Json.to_string

let int_field j k =
  match Option.bind (Rt_obs.Json.member k j) Rt_obs.Json.to_float with
  | Some f when Float.is_integer f && f >= 0. -> Some (int_of_float f)
  | _ -> None

let parse_request_id line =
  match Rt_obs.Json.parse line with
  | Ok j -> Option.value ~default:"" (str j "id")
  | Error _ -> ""

let parse line =
  match Rt_obs.Json.parse line with
  | Error e -> Error ("parse", "malformed request: " ^ e)
  | Ok j -> (
      match int_field j "v" with
      | None -> Error ("version", "missing protocol version \"v\"")
      | Some v when v <> version ->
          Error
            ( "version",
              Printf.sprintf "protocol version %d unsupported (want %d)" v
                version )
      | Some _ -> (
          let id = Option.value ~default:"" (str j "id") in
          let budget_ms = int_field j "budget_ms" in
          let fuel = int_field j "fuel" in
          let with_op op = Ok { id; op; budget_ms; fuel } in
          let need_field op k =
            match str j k with
            | Some v when v <> "" -> with_op (op v)
            | _ ->
                Error
                  ("parse", Printf.sprintf "op requires a %S string field" k)
          in
          match str j "op" with
          | Some "admit" -> need_field (fun d -> Admit d) "decl"
          | Some "what-if" -> need_field (fun d -> What_if d) "decl"
          | Some "retire" -> need_field (fun n -> Retire n) "name"
          | Some "reverify" -> with_op Reverify
          | Some "stats" -> with_op Stats
          | Some "snapshot" -> with_op Snapshot
          | Some "shutdown" -> with_op Shutdown
          | Some op -> Error ("parse", Printf.sprintf "unknown op %S" op)
          | None -> Error ("parse", "missing \"op\"")))

type field = S of string | I of int | F of float | B of bool | Raw of string

let escape = Rt_graph.Sink.json_string

let render_field = function
  | S s -> escape s
  | I i -> string_of_int i
  | F f -> Printf.sprintf "%.6g" f
  | B b -> string_of_bool b
  | Raw r -> r

let render base fields =
  "{"
  ^ String.concat ","
      (base
      @ List.map (fun (k, v) -> escape k ^ ":" ^ render_field v) fields)
  ^ "}"

let ok ~id fields =
  render
    [ Printf.sprintf "\"v\":%d" version; "\"id\":" ^ escape id; "\"ok\":true" ]
    fields

let error ~id ~kind ?retry_after_ms message =
  let err =
    render
      [ "\"kind\":" ^ escape kind; "\"message\":" ^ escape message ]
      (match retry_after_ms with
      | Some ms -> [ ("retry_after_ms", I ms) ]
      | None -> [])
  in
  render
    [ Printf.sprintf "\"v\":%d" version; "\"id\":" ^ escape id; "\"ok\":false" ]
    [ ("error", Raw err) ]
