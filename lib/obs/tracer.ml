type phase = B | E | X | I | M

type event = {
  name : string;
  cat : string;
  ph : phase;
  ts : int;
  dur : int;
  pid : int;
  tid : int;
  arg : (string * string) option;
}

let wall_pid = 1
let sim_pid = 2
let slot_us = 1000
let ring_capacity = 1 lsl 16

type ring = {
  tid : int;
  buf : event array;
  mutable len : int;
  mutable drops : int;
  mutable last_ts : int; (* last wall-clock B/E timestamp on this ring *)
  mutable seq : int; (* registration order, for deterministic drains *)
}

let null_event =
  { name = ""; cat = ""; ph = I; ts = 0; dur = 0; pid = 0; tid = 0; arg = None }

let enabled_flag = Atomic.make false
let enabled () = Atomic.get enabled_flag

(* Ring list is only mutated under [lock]; the epoch is written under
   [lock] before [enabled_flag] is set, so the Atomic enable acts as the
   release fence recording domains acquire through. *)
let lock = Mutex.create ()
let rings : ring list ref = ref []
let next_seq = ref 0
let epoch = ref 0.0

let key =
  Domain.DLS.new_key (fun () ->
      let r =
        {
          tid = (Domain.self () :> int);
          buf = Array.make ring_capacity null_event;
          len = 0;
          drops = 0;
          last_ts = 0;
          seq = 0;
        }
      in
      Mutex.lock lock;
      r.seq <- !next_seq;
      incr next_seq;
      rings := r :: !rings;
      Mutex.unlock lock;
      r)

let my_ring () = Domain.DLS.get key

let push r ev =
  if r.len < ring_capacity then begin
    r.buf.(r.len) <- ev;
    r.len <- r.len + 1
  end
  else r.drops <- r.drops + 1

let now_us () = int_of_float ((Unix.gettimeofday () -. !epoch) *. 1e6)

(* Strictly monotone per-ring stamp for wall-clock B/E events. *)
let stamp r =
  let ts = max (now_us ()) (r.last_ts + 1) in
  r.last_ts <- ts;
  ts

let clear () =
  Mutex.lock lock;
  List.iter
    (fun r ->
      r.len <- 0;
      r.drops <- 0;
      r.last_ts <- 0)
    !rings;
  Mutex.unlock lock

let enable () =
  Mutex.lock lock;
  List.iter
    (fun r ->
      r.len <- 0;
      r.drops <- 0;
      r.last_ts <- 0)
    !rings;
  epoch := Unix.gettimeofday ();
  Mutex.unlock lock;
  Atomic.set enabled_flag true

let disable () = Atomic.set enabled_flag false

let span ?(cat = "") name f =
  if not (enabled ()) then f ()
  else begin
    let r = my_ring () in
    push r
      {
        name;
        cat;
        ph = B;
        ts = stamp r;
        dur = 0;
        pid = wall_pid;
        tid = r.tid;
        arg = None;
      };
    Fun.protect
      ~finally:(fun () ->
        push r
          {
            name;
            cat;
            ph = E;
            ts = stamp r;
            dur = 0;
            pid = wall_pid;
            tid = r.tid;
            arg = None;
          })
      f
  end

let instant ?(cat = "") name =
  if enabled () then begin
    let r = my_ring () in
    push r
      {
        name;
        cat;
        ph = I;
        ts = stamp r;
        dur = 0;
        pid = wall_pid;
        tid = r.tid;
        arg = None;
      }
  end

let complete ?(cat = "") ?(pid = sim_pid) ~tid ~ts_us ~dur_us name =
  if enabled () then
    push (my_ring ())
      { name; cat; ph = X; ts = ts_us; dur = dur_us; pid; tid; arg = None }

let instant_at ?(cat = "") ?(pid = sim_pid) ~tid ~ts_us name =
  if enabled () then
    push (my_ring ())
      { name; cat; ph = I; ts = ts_us; dur = 0; pid; tid; arg = None }

let track_name ?(pid = sim_pid) ~tid name =
  if enabled () then
    push (my_ring ())
      {
        name = "thread_name";
        cat = "";
        ph = M;
        ts = 0;
        dur = 0;
        pid;
        tid;
        arg = Some ("name", name);
      }

let dropped () =
  Mutex.lock lock;
  let n = List.fold_left (fun acc r -> acc + r.drops) 0 !rings in
  Mutex.unlock lock;
  n

let drain () =
  Mutex.lock lock;
  let rs = List.sort (fun a b -> compare a.seq b.seq) !rings in
  let events =
    List.concat_map (fun r -> Array.to_list (Array.sub r.buf 0 r.len)) rs
  in
  Mutex.unlock lock;
  List.stable_sort
    (fun a b ->
      let c = compare a.pid b.pid in
      if c <> 0 then c
      else
        let c = compare a.tid b.tid in
        if c <> 0 then c else compare a.ts b.ts)
    events

let string_of_phase = function
  | B -> "B"
  | E -> "E"
  | X -> "X"
  | I -> "i"
  | M -> "M"

(* Not [Rt_graph.Sink]'s JSON escaper: this one also writes [\r] and
   [\t] as short escapes where that one writes [\u000d] and [\u0009],
   so trace files keep their own bytes. *)
let escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let write_json oc events =
  output_string oc "{\"traceEvents\":[\n";
  List.iteri
    (fun i ev ->
      if i > 0 then output_string oc ",\n";
      Printf.fprintf oc
        "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"%s\",\"ts\":%d,\"pid\":%d,\"tid\":%d"
        (escape ev.name)
        (escape (if ev.cat = "" then "default" else ev.cat))
        (string_of_phase ev.ph) ev.ts ev.pid ev.tid;
      if ev.ph = X then Printf.fprintf oc ",\"dur\":%d" ev.dur;
      (match ev.arg with
      | Some (k, v) ->
          Printf.fprintf oc ",\"args\":{\"%s\":\"%s\"}" (escape k) (escape v)
      | None -> ());
      output_string oc "}")
    events;
  output_string oc "\n],\"displayTimeUnit\":\"ms\"}\n"

let with_trace ~file f =
  enable ();
  Fun.protect
    ~finally:(fun () ->
      disable ();
      let events = drain () in
      let oc = open_out file in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () -> write_json oc events))
    f
