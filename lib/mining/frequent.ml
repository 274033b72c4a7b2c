open Cfq_itembase

type entry = {
  set : Itemset.t;
  support : int;
}

type t = {
  levels : entry array array;  (* levels.(k-1) = size-k entries *)
  table : int Itemset.Hashtbl.t;
}

let build levels =
  let table = Itemset.Hashtbl.create 1024 in
  Array.iter
    (Array.iter (fun e -> Itemset.Hashtbl.replace table e.set e.support))
    levels;
  { levels; table }

let empty = build [||]

let of_levels ls =
  (* drop trailing empty levels *)
  let arr = Array.of_list ls in
  let last = ref (Array.length arr) in
  while !last > 0 && Array.length arr.(!last - 1) = 0 do
    decr last
  done;
  build (Array.sub arr 0 !last)

let of_entries entries =
  let max_k = List.fold_left (fun m e -> max m (Itemset.cardinal e.set)) 0 entries in
  let levels = Array.make max_k [] in
  List.iter
    (fun e ->
      let k = Itemset.cardinal e.set in
      if k >= 1 then levels.(k - 1) <- e :: levels.(k - 1))
    entries;
  of_levels
    (Array.to_list
       (Array.map
          (fun l ->
            let level = Array.of_list l in
            Array.sort (fun a b -> Itemset.compare a.set b.set) level;
            level)
          levels))

let max_level t = Array.length t.levels
let level t k = if k >= 1 && k <= Array.length t.levels then t.levels.(k - 1) else [||]
let n_sets t = Itemset.Hashtbl.length t.table
let support t s = Itemset.Hashtbl.find_opt t.table s
let mem t s = Itemset.Hashtbl.mem t.table s

let l1_items t =
  let l1 = level t 1 in
  Itemset.of_array
    (Array.map
       (fun e ->
         match Itemset.min_item e.set with
         | Some i -> i
         | None -> invalid_arg "Frequent.l1_items: empty set at level 1")
       l1)

let iter f t = Array.iter (Array.iter f) t.levels
let fold f acc t = Array.fold_left (Array.fold_left f) acc t.levels
let to_list t = List.rev (fold (fun acc e -> e :: acc) [] t)

let filter_entries p t =
  (* trailing levels may empty out: rebuild through of_levels *)
  of_levels
    (Array.to_list
       (Array.map (fun lvl -> Array.of_seq (Seq.filter p (Array.to_seq lvl))) t.levels))

let filter p t = filter_entries (fun e -> p e.set) t

(* [iter_l1_extensions t f] calls [f sub support] for every recorded set
   [sup] (with its recorded [support]) and every delete-one subset [sub]
   whose removed item is in L1: exactly the pairs (S, S ∪ {i}), i ∈ L1,
   that the closed/maximal definitions probe, found in O(sets × k) *)
let iter_l1_extensions t f =
  let l1 = l1_items t in
  Itemset.Hashtbl.iter
    (fun sup support ->
      let d = ref 0 in
      Itemset.iter_delete_one sup (fun sub ->
          if Itemset.mem (Itemset.get sup !d) l1 then f sub support;
          incr d))
    t.table

let closed t =
  (* a set is absorbed when an L1 extension of it has equal support *)
  let extension_supports = Itemset.Hashtbl.create 64 in
  iter_l1_extensions t (fun sub support ->
      if mem t sub then Itemset.Hashtbl.add extension_supports sub support);
  fold
    (fun acc e ->
      if List.mem e.support (Itemset.Hashtbl.find_all extension_supports e.set)
      then acc
      else e :: acc)
    [] t
  |> List.rev

let maximal t =
  (* a set is maximal iff none of its single-item extensions within L1 is
     frequent *)
  let extendable = Itemset.Hashtbl.create 64 in
  iter_l1_extensions t (fun sub _ -> Itemset.Hashtbl.replace extendable sub ());
  fold
    (fun acc e -> if Itemset.Hashtbl.mem extendable e.set then acc else e :: acc)
    [] t
  |> List.rev
