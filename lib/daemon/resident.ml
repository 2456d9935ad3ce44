(* The resident index.  Every field is persistent: [add] and [remove]
   return a new index sharing all it did not touch, so a candidate that
   is never committed costs no rollback.

   Constraints carry their declaration position, a counter that only
   grows; the model lists constraints in ascending position, so "first
   constraint index" (Decompose's component order) is "least
   position". *)

open Rt_core
module IMap = Map.Make (Int)
module SMap = Map.Make (String)
module FMap = Map.Make (Float)

type component = {
  first : int;  (* least declaration position among the members *)
  members : (int * Timing.t) list;  (* ascending position *)
  elements : int list;  (* sorted *)
  key : string;  (* Canon.of_constraints of the members *)
}

type t = {
  comm : Comm_graph.t;
  pipelinable : bool;  (* Comm_graph.all_pipelinable comm, premise (iii) *)
  names : (int * Timing.t) SMap.t;
  owner : int IMap.t;  (* element -> [first] of its component *)
  comps : component IMap.t;  (* [first] -> component, in component order *)
  keys : int SMap.t;  (* the multiset of component keys *)
  rates : int FMap.t IMap.t;
      (* element -> the multiset of the rates its constraints impose
         (Admission.element_rates) *)
  tops : float array;
      (* element -> the maximum of its rates, 0. for none; a fresh array
         per update, never written once built *)
  late : string IMap.t;
      (* position -> Admission.constraint_deadline's diagnostic, for the
         constraints that fail it *)
  ratio_sum : float;  (* Theorem 3 premise (i), summed in declaration order *)
  halving : int;  (* constraints failing Theorem 3 premise (ii) *)
  asynchronous : int;
  next : int;  (* the position the next added constraint gets *)
  model : Model.t Lazy.t;
      (* built on first use; only the serving domain forces it *)
}

(* ------------------------------------------------------------------ *)
(* Components                                                          *)
(* ------------------------------------------------------------------ *)

let elements_of (c : Timing.t) = Task_graph.elements_used c.graph

let component members elements =
  {
    first = fst (List.hd members);
    members;
    elements;
    key = Canon.of_constraints (List.map snd members);
  }

(* The components of [m], in Decompose.components' order, with
   constraint [i] of [m] at position [pos.(i)]. *)
let components_of (m : Model.t) pos =
  Decompose.components m
  |> List.map (fun (d : Decompose.component) ->
         component
           (List.map2 (fun i c -> (pos.(i), c)) d.indices d.constraints)
           d.elements)

(* The components of [members], a valid constraint set in ascending
   position. *)
let partition comm members =
  components_of
    (Model.make ~comm ~constraints:(List.map snd members))
    (Array.of_list (List.map fst members))

let bump k d keys =
  match SMap.find_opt k keys with
  | None -> SMap.add k d keys
  | Some n when n + d = 0 -> SMap.remove k keys
  | Some n -> SMap.add k (n + d) keys

let place comp t =
  {
    t with
    comps = IMap.add comp.first comp t.comps;
    owner =
      List.fold_left
        (fun o e -> IMap.add e comp.first o)
        t.owner comp.elements;
    keys = bump comp.key 1 t.keys;
  }

let displace comp t =
  {
    t with
    comps = IMap.remove comp.first t.comps;
    owner = List.fold_left (fun o e -> IMap.remove e o) t.owner comp.elements;
    keys = bump comp.key (-1) t.keys;
  }

(* ------------------------------------------------------------------ *)
(* Per-constraint admission terms                                      *)
(* ------------------------------------------------------------------ *)

(* Count [rate] [d] more times in element [e]'s multiset; set the
   element's maximum in [tops]. *)
let adjust_rate d tops rates (e, rate) =
  let own = Option.value ~default:FMap.empty (IMap.find_opt e rates) in
  let n = Option.value ~default:0 (FMap.find_opt rate own) + d in
  let own = if n = 0 then FMap.remove rate own else FMap.add rate n own in
  tops.(e) <-
    (match FMap.max_binding_opt own with Some (r, _) -> r | None -> 0.);
  if FMap.is_empty own then IMap.remove e rates else IMap.add e own rates

(* Everything about [c] at [pos] except its component, writing the
   maxima into [tops]: a copy of [t.tops] the result owns. *)
let account ~tops d pos (c : Timing.t) t =
  let comm = t.comm in
  {
    t with
    names =
      (if d > 0 then SMap.add c.name (pos, c) t.names
       else SMap.remove c.name t.names);
    rates =
      List.fold_left (adjust_rate d tops) t.rates
        (Admission.element_rates comm c);
    tops;
    late =
      (match Admission.constraint_deadline comm c with
      | Ok () -> t.late
      | Error why ->
          if d > 0 then IMap.add pos why t.late else IMap.remove pos t.late);
    halving =
      (if Model.theorem3_halving comm c = None then t.halving
       else t.halving + d);
    asynchronous =
      (if Timing.is_asynchronous c then t.asynchronous + d else t.asynchronous);
  }

(* ------------------------------------------------------------------ *)
(* Construction and update                                             *)
(* ------------------------------------------------------------------ *)

(* Premise (i)'s sum as Model.theorem3_premises forms it. *)
let ratio_sum (m : Model.t) =
  List.fold_left
    (fun acc c -> acc +. Model.theorem3_ratio m.comm c)
    0.0 m.constraints

let of_model (m : Model.t) =
  let members = List.mapi (fun i c -> (i, c)) m.Model.constraints in
  let empty =
    {
      comm = m.Model.comm;
      pipelinable = Comm_graph.all_pipelinable m.Model.comm;
      names = SMap.empty;
      owner = IMap.empty;
      comps = IMap.empty;
      keys = SMap.empty;
      rates = IMap.empty;
      tops = Array.make (Comm_graph.n_elements m.Model.comm) 0.;
      late = IMap.empty;
      ratio_sum = 0.0;
      halving = 0;
      asynchronous = 0;
      next = List.length members;
      model = Lazy.from_val m;
    }
  in
  let tops = empty.tops in
  let t =
    List.fold_left (fun t (pos, c) -> account ~tops 1 pos c t) empty members
  in
  let t =
    List.fold_left
      (fun t comp -> place comp t)
      t
      (components_of m (Array.init t.next Fun.id))
  in
  { t with ratio_sum = ratio_sum m }

let comm t = t.comm
let model t = Lazy.force t.model
let mem t name = SMap.mem name t.names
let is_empty t = SMap.is_empty t.names

let add t (c : Timing.t) =
  if mem t c.name then
    invalid_arg ("Resident.add: constraint " ^ c.name ^ " is resident");
  let pos = t.next in
  let absorbed =
    List.filter_map (fun e -> IMap.find_opt e t.owner) (elements_of c)
    |> List.sort_uniq Int.compare
    |> List.map (fun first -> IMap.find first t.comps)
  in
  let members =
    (match absorbed with
    | [ comp ] -> comp.members
    | comps ->
        List.concat_map (fun comp -> comp.members) comps
        |> List.sort (fun (a, _) (b, _) -> Int.compare a b))
    @ [ (pos, c) ]
  in
  let elements =
    List.concat_map (fun comp -> comp.elements) absorbed @ elements_of c
    |> List.sort_uniq Int.compare
  in
  let base = t.model in
  let t = List.fold_left (fun t comp -> displace comp t) t absorbed in
  let t =
    place (component members elements)
      (account ~tops:(Array.copy t.tops) 1 pos c t)
  in
  {
    t with
    ratio_sum = t.ratio_sum +. Model.theorem3_ratio t.comm c;
    next = pos + 1;
    model =
      lazy
        (match Model.add (Lazy.force base) c with
        | Ok m -> m
        | Error es -> invalid_arg ("Resident.add: " ^ String.concat "; " es));
  }

let remove t name =
  match SMap.find_opt name t.names with
  | None -> t
  | Some (pos, c) ->
      let comp =
        IMap.find (IMap.find (List.hd (elements_of c)) t.owner) t.comps
      in
      let rest = List.filter (fun (p, _) -> p <> pos) comp.members in
      let m = Model.remove (model t) name in
      let t =
        account ~tops:(Array.copy t.tops) (-1) pos c (displace comp t)
      in
      let t =
        List.fold_left (fun t comp -> place comp t) t (partition t.comm rest)
      in
      (* A float sum cannot drop a term exactly: the survivors' terms
         are added again, in declaration order. *)
      { t with ratio_sum = ratio_sum m; model = Lazy.from_val m }

(* ------------------------------------------------------------------ *)
(* Queries                                                             *)
(* ------------------------------------------------------------------ *)

let components t = IMap.bindings t.comps |> List.map snd
let constraints comp = List.map snd comp.members
let elements comp = comp.elements
let size comp = List.length comp.members
let component_key comp = comp.key

let key t =
  SMap.fold
    (fun k n acc -> List.rev_append (List.init n (fun _ -> k)) acc)
    t.keys []
  |> List.rev |> Canon.of_component_keys

(* Admission.admit on the indexed model.  The deadline check reports
   the first failing constraint in declaration order; the rate sum is
   Admission.rate_bound's, over the same per-element maxima in the same
   ascending order; premise (i)'s sum is kept in declaration order.
   Only a model of periodic constraints that fails Theorem 3 takes the
   whole-model EDF tests. *)
let admission t =
  match IMap.min_binding_opt t.late with
  | Some (_, why) -> Admission.Impossible why
  | None -> (
      match Admission.rate_check (Array.fold_left ( +. ) 0.0 t.tops) with
      | Error why -> Admission.Impossible why
      | Ok () -> (
          if
            Model.theorem3_ratio_ok t.ratio_sum && t.halving = 0
            && t.pipelinable
          then Admission.Guaranteed "theorem3"
          else if t.asynchronous > 0 then Admission.Inconclusive
          else
            match Admission.edf_sufficient (model t) with
            | Some name -> Admission.Guaranteed name
            | None -> Admission.Inconclusive))
