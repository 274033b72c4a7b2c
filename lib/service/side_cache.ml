open Cfq_itembase
open Cfq_txdb
open Cfq_constr
open Cfq_mining
open Cfq_core

type spec = {
  info : Item_info.t;
  minsup : int;
  max_level : int option;
  constraints : One_var.t list;
}

let side (ctx : Exec.ctx) (q : Query.t) = function
  | `S ->
      {
        info = ctx.Exec.s_info;
        minsup = Tx_db.absolute_support ctx.Exec.db q.Query.s_minsup;
        max_level = q.Query.max_level;
        constraints = q.Query.s_constraints;
      }
  | `T ->
      {
        info = ctx.Exec.t_info;
        minsup = Tx_db.absolute_support ctx.Exec.db q.Query.t_minsup;
        max_level = q.Query.max_level;
        constraints = q.Query.t_constraints;
      }

(* everything of the covering rule but the constraints: same table, a
   threshold no higher, mined at least as deep *)
let fits ~cached ~requested =
  cached.info == requested.info
  && cached.minsup <= requested.minsup
  &&
  match (cached.max_level, requested.max_level) with
  | None, _ -> true
  | Some _, None -> false
  | Some c, Some r -> c >= r

let covers ~cached ~requested =
  fits ~cached ~requested
  && Entail.subsumes ~cached:cached.constraints ~requested:requested.constraints

(* keep [e] in [out] when it is valid for [spec] *)
let keep spec checks out (e : Frequent.entry) =
  if
    e.Frequent.support >= spec.minsup
    && (match spec.max_level with
       | Some cap -> Itemset.cardinal e.Frequent.set <= cap
       | None -> true)
    && List.for_all
         (fun c ->
           incr checks;
           One_var.eval spec.info c e.Frequent.set)
         spec.constraints
  then out := e :: !out

let filter iter spec src checks =
  let out = ref [] in
  iter (keep spec checks out) src;
  Array.of_list (List.rev !out)

let filter_valid spec freq checks = filter Frequent.iter spec freq checks
let filter_entries spec entries checks = filter Array.iter spec entries checks

(* The collection is stored condensed (closed sets only) when the round
   trip is provably lossless; the cache charges [weight], memoized, so a
   condensed entry makes room for more distinct sides under one budget. *)
type entry = {
  spec : spec;
  epoch : int;  (* database generation the supports are exact for *)
  cond : Condensed.t;
  weight : int;  (* [Condensed.bytes cond] *)
  key : string;
}

let fresh ~epoch spec cond =
  {
    spec;
    epoch;
    cond;
    weight = Condensed.bytes cond;
    key =
      Fingerprint.side_key ~info:spec.info ~minsup_abs:spec.minsup ~max_level:spec.max_level
        spec.constraints;
  }

let promoted e ~epoch ~minsup cond = fresh ~epoch { e.spec with minsup } cond
let spec e = e.spec
let condensed e = e.cond

type found =
  | Covering of entry
  | Neighbours of (entry * One_var.t) list

let bump sides e = ignore (Lru.find sides e.key : entry option)

let lookup sides ~epoch spec =
  let best, neighbours =
    Lru.fold
      (fun ((best, neighbours) as acc) ~key:_ ~value:e ->
        if e.epoch <> epoch then acc
        else if covers ~cached:e.spec ~requested:spec then
          match best with
          | Some b when Condensed.n_sets b.cond <= Condensed.n_sets e.cond -> acc
          | _ -> (Some e, neighbours)
        else if Option.is_some best || not (fits ~cached:e.spec ~requested:spec) then acc
        else
          match Entail.widening ~cached:e.spec.constraints ~requested:spec.constraints with
          | Some atom -> (best, (e, atom) :: neighbours)
          | None -> acc)
      (None, []) sides
  in
  match best with
  | Some e ->
      bump sides e;
      Covering e
  | None -> Neighbours (List.rev neighbours)

type plan =
  | Covered of entry
  | Relaxed of entry * One_var.t
  | Cold

let plan ~nonneg spec = function
  | Covering e -> Covered e
  | Neighbours [] -> Cold
  | Neighbours [ (e, atom) ] -> Relaxed (e, atom)
  | Neighbours (first :: rest) ->
      let info = spec.info in
      let permits = Bundle.permits_item (Bundle.compile ~nonneg info spec.constraints) in
      let band atom =
        (* the negation compiles to its one witness group *)
        match Bundle.requires (Bundle.compile ~nonneg info [ Entail.negation atom ]) with
        | [ witness ] ->
            let n = ref 0 in
            for i = 0 to Item_info.universe_size info - 1 do
              if Sel.eval info witness i && permits i then incr n
            done;
            !n
        | _ -> max_int
      in
      let weigh ((e, atom) as n) = ((band atom, Condensed.n_sets e.cond), n) in
      let _, (e, atom) =
        List.fold_left
          (fun (bw, bn) n ->
            let w, n = weigh n in
            if compare w bw < 0 then (w, n) else (bw, bn))
          (weigh first) rest
      in
      Relaxed (e, atom)

let relaxation spec atom = { spec with constraints = Entail.negation atom :: spec.constraints }

let merge_relaxation spec atom ~relax ~neighbour ~mined checks =
  let kept = filter_valid { spec with constraints = atom :: spec.constraints } neighbour checks in
  let fresh = filter_valid relax mined checks in
  Frequent.of_entries (Array.to_list kept @ Array.to_list fresh)

let insert sides e = ignore (Lru.insert sides e.key ~weight:e.weight e : bool)

let stale sides ~epoch =
  (* fold is MRU-first; consing flips it *)
  Lru.fold (fun acc ~key:_ ~value -> if value.epoch < epoch then value :: acc else acc) [] sides

let promote sides ~stale e' =
  (match Lru.find sides stale.key with
  | Some cur when cur.epoch < e'.epoch -> Lru.remove sides stale.key
  | Some _ | None -> ());
  Lru.insert sides e'.key ~weight:e'.weight e'

let purge sides ~epoch =
  List.iter (fun e -> Lru.remove sides e.key) (stale sides ~epoch)
