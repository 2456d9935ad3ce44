open Rt_core
module Certificate = Rt_check.Certificate

type kind = Slot_swap | Window_shift | Digest_tamper | Drop_witness

let kinds = [ Slot_swap; Window_shift; Digest_tamper; Drop_witness ]

let kind_name = function
  | Slot_swap -> "slot-swap"
  | Window_shift -> "window-shift"
  | Digest_tamper -> "digest-tamper"
  | Drop_witness -> "drop-witness"

(* ------------------------------------------------------------------ *)
(* Site-local transformations.  Every mutant is structurally distinct  *)
(* from its original by construction; the guaranteed-rejection         *)
(* arguments below assume the original certificate is genuine (its     *)
(* witnesses name real trace instances), which is what the harness     *)
(* feeds in.                                                           *)
(* ------------------------------------------------------------------ *)

let tamper_digest d =
  if String.length d = 0 then "x"
  else
    String.mapi
      (fun i c -> if i = 0 then (if c = '0' then '1' else '0') else c)
      d

let execs_of = function
  | Certificate.Async es -> es
  | Certificate.Periodic es -> Array.to_list es

(* Move the claimed start of the exec's node 0 one slot left, keeping
   the finish.  Each trace slot of an element belongs to exactly one of
   its instances, so the instance finishing at [f] is unique and starts
   at [s]; the mutated claim [s-1, f) matches nothing and the checker's
   exec re-validation fails (and [s = 0] falls outside the certifiable
   coordinate range — also a rejection). *)
let shift_exec (x : Certificate.exec) =
  if Array.length x = 0 then None
  else
    let s, f = x.(0) in
    let x' = Array.copy x in
    x'.(0) <- (s - 1, f);
    Some x'

let shift_witness = function
  | Certificate.Async [] -> None
  | Certificate.Async (x :: rest) ->
      Option.map (fun x' -> Certificate.Async (x' :: rest)) (shift_exec x)
  | Certificate.Periodic es ->
      if Array.length es = 0 then None
      else
        Option.map
          (fun x' ->
            let es' = Array.copy es in
            es'.(0) <- x';
            Certificate.Periodic es')
          (shift_exec es.(0))

(* Swap the schedule slot under a witnessed instance start with the
   first slot holding different contents.  The witnessed element then
   no longer runs at its claimed start (instance starts are first run
   slots), so the claimed instance cannot exist in the mutated trace. *)
let swap_for cert w =
  let slots = Schedule.slots cert.Certificate.schedule in
  let cycle = Array.length slots in
  match execs_of w with
  | x :: _ when Array.length x > 0 && cycle > 1 ->
      let s, _ = x.(0) in
      let i = s mod cycle in
      let j = ref (-1) in
      Array.iteri (fun k sk -> if !j < 0 && sk <> slots.(i) then j := k) slots;
      if !j < 0 then None
      else begin
        let slots' = Array.copy slots in
        slots'.(i) <- slots.(!j);
        slots'.(!j) <- slots.(i);
        Some { cert with Certificate.schedule = Schedule.of_array slots' }
      end
  | _ -> None

let with_witness cert i w' =
  {
    cert with
    Certificate.witnesses =
      List.mapi
        (fun j (n, w) -> if i = j then (n, w') else (n, w))
        cert.Certificate.witnesses;
  }

let without_witness cert i =
  {
    cert with
    Certificate.witnesses =
      List.filteri (fun j _ -> j <> i) cert.Certificate.witnesses;
  }

let mutate kind (cert : Certificate.t) =
  match kind with
  | Digest_tamper ->
      Some { cert with Certificate.digest = tamper_digest cert.Certificate.digest }
  | Drop_witness -> (
      match cert.Certificate.witnesses with
      | [] -> None
      | _ -> Some (without_witness cert 0))
  | Window_shift ->
      let rec go i = function
        | [] -> None
        | (_, w) :: rest -> (
            match shift_witness w with
            | Some w' -> Some (with_witness cert i w')
            | None -> go (i + 1) rest)
      in
      go 0 cert.Certificate.witnesses
  | Slot_swap ->
      let rec go = function
        | [] -> None
        | (_, w) :: rest -> (
            match swap_for cert w with Some c -> Some c | None -> go rest)
      in
      go cert.Certificate.witnesses

let mutants (cert : Certificate.t) =
  let named kind = Option.map (fun c -> (kind_name kind, c)) (mutate kind cert) in
  let site_mutants =
    (* One drop and one shift per witness position, so multi-constraint
       certificates exercise every witness, not just the first. *)
    List.concat
      (List.mapi
         (fun i (name, w) ->
           let drop = Some (Printf.sprintf "drop-witness:%s" name, without_witness cert i) in
           let shift =
             Option.map
               (fun w' -> (Printf.sprintf "window-shift:%s" name, with_witness cert i w'))
               (shift_witness w)
           in
           let swap =
             Option.map
               (fun c -> (Printf.sprintf "slot-swap:%s" name, c))
               (swap_for cert w)
           in
           List.filter_map Fun.id [ drop; shift; swap ])
         cert.Certificate.witnesses)
  in
  List.filter_map Fun.id [ named Digest_tamper ] @ site_mutants
