type t = {
  deadline : float option; (* absolute Unix.gettimeofday deadline *)
  fuel : int Atomic.t option;
  reason : string option Atomic.t; (* sticky exhaustion reason *)
  started : float;
}

let create ?wall_s ?fuel () =
  (match wall_s with
  | Some w when w < 0.0 -> invalid_arg "Budget.create: negative wall_s"
  | _ -> ());
  (match fuel with
  | Some f when f < 0 -> invalid_arg "Budget.create: negative fuel"
  | _ -> ());
  let now = Unix.gettimeofday () in
  {
    deadline = Option.map (fun w -> now +. w) wall_s;
    fuel = Option.map Atomic.make fuel;
    reason = Atomic.make None;
    started = now;
  }

let exhausted b = Atomic.get b.reason

let trip b reason =
  (* First writer wins; later trips keep the original reason. *)
  ignore (Atomic.compare_and_set b.reason None (Some reason));
  false

let spend b n =
  match Atomic.get b.reason with
  | Some _ -> false
  | None -> (
      let fuel_ok =
        match b.fuel with
        | None -> true
        | Some f -> Atomic.fetch_and_add f (-n) > 0
      in
      if not fuel_ok then trip b "state budget exhausted"
      else
        match b.deadline with
        | None -> true
        | Some dl ->
            if Unix.gettimeofday () <= dl then true
            else trip b "wall-clock budget exhausted")

let check b =
  match (Atomic.get b.reason, b.deadline) with
  | Some _, _ -> false
  | None, Some dl when Unix.gettimeofday () > dl ->
      trip b "wall-clock budget exhausted"
  | None, _ -> true

let wall_elapsed b = Unix.gettimeofday () -. b.started
