open Cfq_itembase

(* Byte model shared with the service cache: approximate heap bytes of the
   boxed representation, so a raw collection and its closed form are
   priced on one scale. *)
let itemset_weight s = 24 + (8 * Itemset.cardinal s)
let entry_weight (e : Frequent.entry) = 32 + itemset_weight e.Frequent.set
let frequent_weight freq = Frequent.fold (fun acc e -> acc + entry_weight e) 128 freq

type repr =
  | Closed of Frequent.entry array array
      (* per-cardinality buckets of the closed sets, lex-sorted within a
         bucket; bucket [k-1] holds cardinality-k entries (may be empty) *)
  | Raw of Frequent.t

type t = {
  repr : repr;
  n_sets : int;
  max_level : int;
  raw_bytes : int;
  stored_bytes : int;
}

let is_condensed t = match t.repr with Closed _ -> true | Raw _ -> false
let n_sets t = t.n_sets
let raw_bytes t = t.raw_bytes
let bytes t = t.stored_bytes

let raw freq =
  let b = frequent_weight freq in
  let n = Frequent.n_sets freq in
  {
    repr = Raw freq;
    n_sets = n;
    max_level = Frequent.max_level freq;
    raw_bytes = b;
    stored_bytes = b;
  }

(* Itemset.powerset refuses sets above this cardinality, and a closed set of
   more than 2^20 subsets would be hopeless to reconstruct anyway. *)
let max_closed_card = 20

(* The round-trip is the identity iff the collection is downward closed with
   anti-monotone supports and each level is strictly lex-sorted:
   - downward closure makes "subsets of closed sets" enumerate exactly the
     member sets (every member sits under a maximal member, which is closed);
   - anti-monotone supports make "max over closed supersets" exact: the
     absorption chain s -> s+{i} (equal support) ends at a closed superset of
     equal support, and no closed superset can exceed it;
   - strict lex order per level lets reconstruction reproduce the original
     array order byte for byte.
   CAP output and FUP promotions satisfy all three; collections filtered by a
   non-anti-monotone succinct constraint (e.g. Dom ⊇ V) fail the closure
   check and stay raw. *)
let condensable freq =
  let ml = Frequent.max_level freq in
  if ml > max_closed_card then false
  else begin
    let ok = ref true in
    (try
       for k = 1 to ml do
         let lvl = Frequent.level freq k in
         Array.iteri
           (fun i (e : Frequent.entry) ->
             if i > 0 && Itemset.compare lvl.(i - 1).Frequent.set e.set >= 0
             then raise Exit;
             if k >= 2 then
               Itemset.iter_delete_one e.set (fun d ->
                   match Frequent.support freq d with
                   | Some sup when sup >= e.support -> ()
                   | Some _ | None -> raise Exit))
           lvl
       done
     with Exit -> ok := false);
    !ok
  end

let closed_buckets freq =
  let ml = Frequent.max_level freq in
  let buckets = Array.make (max ml 1) [] in
  (* Frequent.closed yields entries in level order, lex within a level, so
     rev-consing per bucket keeps each bucket lex-sorted. *)
  List.iter
    (fun (e : Frequent.entry) ->
      let k = Itemset.cardinal e.set in
      buckets.(k - 1) <- e :: buckets.(k - 1))
    (Frequent.closed freq);
  Array.map (fun l -> Array.of_list (List.rev l)) buckets

let of_frequent ?(force = false) freq =
  let r = raw freq in
  if r.n_sets = 0 || not (condensable freq) then r
  else begin
    let buckets = closed_buckets freq in
    let stored =
      Array.fold_left
        (Array.fold_left (fun acc e -> acc + entry_weight e))
        160 buckets
    in
    if force || stored < r.raw_bytes then
      {
        repr = Closed buckets;
        n_sets = r.n_sets;
        max_level = r.max_level;
        raw_bytes = r.raw_bytes;
        stored_bytes = stored;
      }
    else r
  end

let to_frequent t =
  match t.repr with
  | Raw f -> f
  | Closed buckets ->
      let tbl = Itemset.Hashtbl.create (2 * t.n_sets) in
      Array.iter
        (Array.iter (fun (e : Frequent.entry) ->
             Itemset.powerset e.set (fun s ->
                 if Itemset.cardinal s > 0 then
                   match Itemset.Hashtbl.find_opt tbl s with
                   | Some sup when sup >= e.support -> ()
                   | _ -> Itemset.Hashtbl.replace tbl s e.support)))
        buckets;
      let levels = Array.make t.max_level [] in
      Itemset.Hashtbl.iter
        (fun s sup ->
          let k = Itemset.cardinal s in
          levels.(k - 1) <- { Frequent.set = s; support = sup } :: levels.(k - 1))
        tbl;
      Frequent.of_levels
        (Array.to_list
           (Array.map
              (fun l ->
                let a = Array.of_list l in
                Array.sort
                  (fun (a : Frequent.entry) b -> Itemset.compare a.set b.set)
                  a;
                a)
              levels))
