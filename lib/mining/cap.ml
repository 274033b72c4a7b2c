open Cfq_itembase
open Cfq_txdb
open Cfq_constr

let log_src = Logs.Src.create "cfq.cap" ~doc:"CAP levelwise engine"

module Log = (val Logs.src_log log_src)

type t = {
  db : Tx_db.t;
  info : Item_info.t;
  counters : Counters.t;
  stats : Level_stats.t;
  minsup : int;
  max_level : int;
  mutable bundle : Bundle.t;
  mutable level : int;
  mutable pool : Frequent.entry array;
  mutable pool_tbl : unit Itemset.Hashtbl.t;
  mutable freq_items : Item.t array;
  mutable primary : Sel.t option;  (* witness group driving generation *)
  mutable pending : Candidate.t;
  mutable extra_filter : (Itemset.t -> bool) option;
  mutable levels_rev : Frequent.entry array list;
  mutable exhausted : bool;
}

let create db info ?(max_level = max_int) ~minsup bundle =
  {
    db;
    info;
    counters = Counters.create ();
    stats = Level_stats.create ();
    minsup;
    max_level;
    bundle;
    level = 0;
    pool = [||];
    pool_tbl = Itemset.Hashtbl.create 16;
    freq_items = [||];
    primary = None;
    pending = Candidate.Sets [||];
    extra_filter = None;
    levels_rev = [];
    exhausted = false;
  }

let counters t = t.counters
let stats t = t.stats
let bundle t = t.bundle
let db t = t.db
let level t = t.level
let frequent_items t = Array.copy t.freq_items
let set_extra_filter t f = t.extra_filter <- Some f

let rebuild_pool t entries =
  t.pool <- entries;
  let tbl = Itemset.Hashtbl.create (2 * Array.length entries) in
  Array.iter (fun e -> Itemset.Hashtbl.replace tbl e.Frequent.set ()) entries;
  t.pool_tbl <- tbl

let add_constraints ~nonneg t cs =
  t.bundle <- Bundle.add ~nonneg t.bundle cs;
  if t.level >= 1 then begin
    (* re-apply the (possibly narrowed) universe filter to the item pool *)
    Counters.add_constraint_checks t.counters (Array.length t.freq_items);
    t.freq_items <-
      Array.of_seq
        (Seq.filter (Bundle.permits_item t.bundle) (Array.to_seq t.freq_items));
    let keep e =
      Itemset.for_all (Bundle.permits_item t.bundle) e.Frequent.set
      && Bundle.am_ok t.bundle e.Frequent.set
    in
    Counters.add_constraint_checks t.counters (Array.length t.pool);
    rebuild_pool t (Array.of_seq (Seq.filter keep (Array.to_seq t.pool)))
  end

(* The admission test of one level, applied to every generated candidate
   and charging its anti-monotone checks; [None] when it can reject
   nothing (no check, no extra filter), so the level needs no filter and
   its candidates may stay implicit. *)
let admission t =
  let n_am = List.length t.bundle.Bundle.am_checks in
  if n_am = 0 && Option.is_none t.extra_filter then None
  else
    let extra = Option.value t.extra_filter ~default:(fun _ -> true) in
    Some
      (fun cand ->
        if n_am > 0 then Counters.add_constraint_checks t.counters n_am;
        Bundle.am_ok t.bundle cand && extra cand)

let singletons t admit =
  let n = Item_info.universe_size t.info in
  Counters.add_constraint_checks t.counters n;
  let items = List.filter (Bundle.permits_item t.bundle) (List.init n Fun.id) in
  match admit with
  | None -> Candidate.Items (Array.of_list items)
  | Some admit ->
      Candidate.Sets (Array.of_list (List.filter admit (List.map Itemset.singleton items)))

let choose_primary t =
  (* the most selective witness group (fewest frequent witnesses) drives
     generation; the others are deferred to final validity checking *)
  match Bundle.requires t.bundle with
  | [] -> None
  | groups ->
      let count_witnesses sel =
        Counters.add_constraint_checks t.counters (Array.length t.freq_items);
        Array.fold_left
          (fun acc i -> if Sel.eval t.info sel i then acc + 1 else acc)
          0 t.freq_items
      in
      let best, _ =
        List.fold_left
          (fun (best, best_n) sel ->
            let n = count_witnesses sel in
            match best with
            | None -> (Some sel, n)
            | Some _ -> if n < best_n then (Some sel, n) else (best, best_n))
          (None, max_int) groups
      in
      best

let level2_candidates t =
  t.primary <- choose_primary t;
  match t.primary with
  | None -> Candidate.Pairs t.freq_items
  | Some sel ->
      let witnesses =
        Array.of_seq (Seq.filter (Sel.eval t.info sel) (Array.to_seq t.freq_items))
      in
      Candidate.Witness_pairs { items = t.freq_items; witnesses }

let deeper_candidates t =
  let prev = Array.map (fun e -> e.Frequent.set) t.pool in
  let prev_mem s = Itemset.Hashtbl.mem t.pool_tbl s in
  match t.primary with
  | None -> Candidate.Sets (Candidate.apriori_gen ~prev ~prev_mem)
  | Some sel ->
      (* every candidate holds a witness, so counting may skip the rows
         holding none *)
      let is_witness = Sel.eval t.info sel in
      Candidate.Witness_sets
        {
          sets = Candidate.extension_gen ~prev ~prev_mem ~ext_items:t.freq_items ~is_witness;
          witnesses = Array.of_seq (Seq.filter is_witness (Array.to_seq t.freq_items));
        }

let next_candidates t =
  if t.exhausted || t.level >= t.max_level then None
  else begin
    let admit = admission t in
    let raw =
      match t.level with
      | 0 -> singletons t admit
      | 1 -> level2_candidates t
      | _ -> deeper_candidates t
    in
    Counters.add_candidates_generated t.counters (Candidate.count raw);
    let cands =
      match admit with
      | Some admit when t.level > 0 -> Candidate.filter admit raw
      | _ -> raw
    in
    if Candidate.count cands = 0 then begin
      t.exhausted <- true;
      None
    end
    else begin
      t.pending <- cands;
      Some cands
    end
  end

let absorb t supports =
  let n = Candidate.count t.pending in
  if Counting.n_supports supports <> n then
    invalid_arg "Cap.absorb: supports misaligned with candidates";
  let entries = Counting.frequent supports ~minsup:t.minsup in
  t.level <- t.level + 1;
  let kernel = Counting.label supports in
  Level_stats.record t.stats
    { Level_stats.level = t.level; candidates = n; counted = n; frequent = Array.length entries; kernel };
  if t.level = 1 then
    t.freq_items <-
      Array.map
        (fun e ->
          match Itemset.min_item e.Frequent.set with
          | Some i -> i
          | None -> assert false)
        entries;
  rebuild_pool t entries;
  t.levels_rev <- entries :: t.levels_rev;
  t.pending <- Candidate.Sets [||];
  Log.debug (fun m ->
      m "level %d: %d candidates, %d frequent" t.level n (Array.length entries));
  if Array.length entries = 0 then t.exhausted <- true;
  entries

let step ?par ?session t io =
  match next_candidates t with
  | None -> false
  | Some cands ->
      let supports =
        match Counting.count_pass ?par ?session t.db io [ (t.counters, cands) ] with
        | [ s ] -> s
        | _ -> assert false
      in
      let (_ : Frequent.entry array) = absorb t supports in
      true

let result t = Frequent.of_levels (List.rev t.levels_rev)

let run ?par ?session t io =
  while step ?par ?session t io do
    ()
  done;
  result t
