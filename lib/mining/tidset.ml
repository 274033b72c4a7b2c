open Cfq_itembase
open Cfq_txdb

type t = {
  vecs : Bitvec.t option array;  (* indexed by item; None = not live *)
  n_rows : int;
}

type source = Db of Tx_db.t | Rows of int array array

let set_row t ~row items =
  let n_vecs = Array.length t.vecs in
  Array.iter
    (fun item ->
      if item < n_vecs then
        match Array.unsafe_get t.vecs item with
        | Some v -> Bitvec.add v row
        | None -> ())
    items

let build io source items =
  let n_rows = match source with Db db -> Tx_db.size db | Rows txs -> Array.length txs in
  let max_item = Array.fold_left max (-1) items in
  let vecs = Array.make (max_item + 1) None in
  Array.iter (fun i -> vecs.(i) <- Some (Bitvec.create ~universe_size:n_rows)) items;
  let t = { vecs; n_rows } in
  (match source with
  | Db db ->
      let row = ref 0 in
      Tx_db.iter_scan db io (fun tx ->
          set_row t ~row:!row (Itemset.unsafe_to_array tx.Transaction.items);
          incr row)
  | Rows txs -> Array.iteri (fun row items -> set_row t ~row items) txs);
  t

let of_db db io ~universe_size =
  build io (Db db) (Array.init universe_size Fun.id)

let vec t item =
  if item >= 0 && item < Array.length t.vecs then t.vecs.(item) else None

type scratch = Bitvec.t

let scratch t = Bitvec.create ~universe_size:t.n_rows

exception Uncovered

let get_vec t item =
  match vec t item with Some v -> v | None -> raise_notrace Uncovered

let support_into t scratch s =
  try
    match Itemset.cardinal s with
    | 0 -> t.n_rows
    | 1 -> Bitvec.cardinal (get_vec t (Itemset.get s 0))
    | 2 ->
        Bitvec.inter_cardinal (get_vec t (Itemset.get s 0)) (get_vec t (Itemset.get s 1))
    | k ->
        Bitvec.blit ~src:(get_vec t (Itemset.get s 0)) ~dst:scratch;
        for i = 1 to k - 1 do
          Bitvec.inter_inplace scratch (get_vec t (Itemset.get s i))
        done;
        Bitvec.cardinal scratch
  with Uncovered -> 0

let support t s = support_into t (scratch t) s

let supports t cands =
  let scr = scratch t in
  Array.map (support_into t scr) cands

let mine t ~minsup =
  let frequent =
    Array.of_list
      (List.filter_map
         (fun i ->
           match vec t i with
           | Some v when Bitvec.cardinal v >= minsup -> Some (i, v)
           | _ -> None)
         (List.init (Array.length t.vecs) Fun.id))
  in
  let n = Array.length frequent in
  let entries = ref [] in
  (* depth-first: extend [set] (with tid set [tids]) by the frequent items
     after position [j0] *)
  let rec grow set tids j0 =
    for j = j0 to n - 1 do
      let i, v = frequent.(j) in
      let support = Bitvec.inter_cardinal tids v in
      if support >= minsup then begin
        let set = Itemset.add i set in
        entries := { Frequent.set; support } :: !entries;
        grow set (Bitvec.inter tids v) (j + 1)
      end
    done
  in
  Array.iteri
    (fun j (i, v) ->
      let set = Itemset.singleton i in
      entries := { Frequent.set; support = Bitvec.cardinal v } :: !entries;
      grow set v (j + 1))
    frequent;
  Frequent.of_entries !entries
