open Cfq_itembase
open Cfq_txdb

type t = {
  vecs : Bitvec.t option array;  (* indexed by item; None = not live *)
  n_rows : int;
  valid_min_card : int;
}

let words_per_row n_rows = (n_rows + Bitvec.bits_per_word - 1) / Bitvec.bits_per_word

let words_needed ~n_items ~n_rows = n_items * words_per_row n_rows

type source = Db of Tx_db.t | Projected of Projection.t | Rows of int array array

let source_rows = function
  | Db db -> Tx_db.size db
  | Projected p -> Projection.tuples p
  | Rows txs -> Array.length txs

(* Raw range walk over an already-charged source. *)
let iter_rows source ~lo ~hi f =
  if hi >= lo then
    match source with
    | Db db ->
        Tx_db.iter_range db ~lo ~hi (fun tx ->
            f (Itemset.unsafe_to_array tx.Transaction.items))
    | Projected p -> Projection.iter_range p ~lo ~hi f
    | Rows txs ->
        for r = lo to hi do
          f txs.(r)
        done

let set_row t ~row items =
  let n_vecs = Array.length t.vecs in
  Array.iter
    (fun item ->
      if item < n_vecs then
        match Array.unsafe_get t.vecs item with
        | Some v -> Bitvec.add v row
        | None -> ())
    items

(* Word-aligned row ranges: concurrent fills then touch disjoint words of
   every bitvector, so the parallel build is race-free. *)
let word_ranges rows max_chunks =
  let bpw = Bitvec.bits_per_word in
  let words = words_per_row rows in
  if words = 0 then []
  else begin
    let k = max 1 (min max_chunks words) in
    let per = words / k and rem = words mod k in
    let out = ref [] and wlo = ref 0 in
    for c = 0 to k - 1 do
      let len = per + if c < rem then 1 else 0 in
      if len > 0 then begin
        let lo = !wlo * bpw and hi = min rows ((!wlo + len) * bpw) - 1 in
        out := (lo, hi) :: !out
      end;
      wlo := !wlo + len
    done;
    List.rev !out
  end

let build ?pool ?(domains = 1) ?(valid_min_card = 1) io source items =
  let n_rows = source_rows source in
  let max_item = Array.fold_left max (-1) items in
  let vecs = Array.make (max_item + 1) None in
  Array.iter (fun i -> vecs.(i) <- Some (Bitvec.create ~universe_size:n_rows)) items;
  let t = { vecs; n_rows; valid_min_card } in
  let fill ~lo ~hi =
    let row = ref lo in
    iter_rows source ~lo ~hi (fun items ->
        set_row t ~row:!row items;
        incr row)
  in
  (match source with
  | Db db when domains <= 1 ->
      (* the sequential walk validates each page as it delivers it *)
      let row = ref 0 in
      Tx_db.iter_scan db io (fun tx ->
          set_row t ~row:!row (Itemset.unsafe_to_array tx.Transaction.items);
          incr row)
  | _ -> (
      (match source with
      | Db db -> Tx_db.begin_scan db io
      | Projected p -> Projection.charge_scan p io
      | Rows _ -> ());
      match word_ranges n_rows (4 * domains) with
      | ranges when domains > 1 && List.length ranges > 1 ->
          let ranges = Array.of_list ranges in
          ignore
            (Cfq_exec_pool.Pool.fan_out ?pool ~domains
               ~n_tasks:(Array.length ranges)
               ~init:(fun () -> ())
               ~work:(fun () c ->
                 let lo, hi = ranges.(c) in
                 fill ~lo ~hi)
               ()
              : unit list)
      | _ -> fill ~lo:0 ~hi:(n_rows - 1)));
  t

let of_db db io ~universe_size =
  build io (Db db) (Array.init universe_size Fun.id)

let n_rows t = t.n_rows
let valid_min_card t = t.valid_min_card

let vec t item =
  if item >= 0 && item < Array.length t.vecs then t.vecs.(item) else None

let covers t items = Array.for_all (fun i -> vec t i <> None) items

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

let supports ?pool ?(domains = 1) t cands =
  let n = Array.length cands in
  if domains <= 1 || n <= 1 then begin
    let scr = scratch t in
    Array.map (support_into t scr) cands
  end
  else begin
    let out = Array.make n 0 in
    let n_tasks = min n (4 * domains) in
    let per = n / n_tasks and rem = n mod n_tasks in
    ignore
      (Cfq_exec_pool.Pool.fan_out ?pool ~domains ~n_tasks ~init:(fun () -> scratch t)
         ~work:(fun scr c ->
           let lo = (c * per) + min c rem in
           for i = lo to lo + per + (if c < rem then 1 else 0) - 1 do
             out.(i) <- support_into t scr cands.(i)
           done)
         ()
        : scratch list);
    out
  end

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
