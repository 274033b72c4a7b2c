(* Shared generators and brute-force reference implementations. *)

open Cfq_itembase
open Cfq_txdb
open Cfq_constr

let price = Cfq_quest.Item_gen.price_attr
let typ = Cfq_quest.Item_gen.type_attr

(* deterministic attribute tables for a small universe: prices 10*i mod 70,
   types i mod 4 — varied enough to exercise every constraint family *)
let small_info n =
  let prices = Array.init n (fun i -> float_of_int (10 * ((i * 3 mod 7) + 1))) in
  let types = Array.init n (fun i -> float_of_int (i mod 4)) in
  let info = Item_info.create ~universe_size:n in
  Item_info.add_column info price prices;
  Item_info.add_column info typ types;
  info

let itemset_of_mask n mask =
  let out = ref [] in
  for i = n - 1 downto 0 do
    if mask land (1 lsl i) <> 0 then out := i :: !out
  done;
  Itemset.of_list !out

(* every non-empty subset of [0, n) *)
let all_subsets n =
  List.init ((1 lsl n) - 1) (fun m -> itemset_of_mask n (m + 1))

let db_of_lists txs = Tx_db.create (Array.of_list (List.map Itemset.of_list txs))

(* [rows] seeded random rows over [0, n), each of 1 to n-1 items: large
   enough databases for a parallel default without a generator per row *)
let seeded_rows ~seed ~n rows =
  let rng = Random.State.make [| seed |] in
  Array.init rows (fun _ ->
      Itemset.of_list
        (List.init (1 + Random.State.int rng (n - 1)) (fun _ -> Random.State.int rng n)))

let support_of db s =
  let io = Io_stats.create () in
  Tx_db.support db io s

(* all frequent sets by definition *)
let brute_frequent db ~n ~minsup =
  List.filter (fun s -> support_of db s >= minsup) (all_subsets n)

(* Definition 3: valid S-sets of a 2-var constraint (S-sets need not be
   frequent; the existential T must be) *)
let brute_valid_s db ~n ~minsup ~s_info ~t_info c =
  let frequent_t = brute_frequent db ~n ~minsup in
  List.filter
    (fun s -> List.exists (fun t -> Two_var.eval ~s_info ~t_info c s t) frequent_t)
    (all_subsets n)

let brute_valid_t db ~n ~minsup ~s_info ~t_info c =
  let frequent_s = brute_frequent db ~n ~minsup in
  List.filter
    (fun t -> List.exists (fun s -> Two_var.eval ~s_info ~t_info c s t) frequent_s)
    (all_subsets n)

(* reference answer of a full CFQ: all frequent valid pairs *)
let brute_answer db ~n ~s_info ~t_info (q : Cfq_core.Query.t) =
  let minsup_s = Tx_db.absolute_support db q.Cfq_core.Query.s_minsup in
  let minsup_t = Tx_db.absolute_support db q.Cfq_core.Query.t_minsup in
  let ok_one info cs s = List.for_all (fun c -> One_var.eval info c s) cs in
  let fs =
    List.filter
      (fun s -> ok_one s_info q.Cfq_core.Query.s_constraints s)
      (brute_frequent db ~n ~minsup:minsup_s)
  in
  let ft =
    List.filter
      (fun t -> ok_one t_info q.Cfq_core.Query.t_constraints t)
      (brute_frequent db ~n ~minsup:minsup_t)
  in
  List.concat_map
    (fun s ->
      List.filter_map
        (fun t ->
          if
            List.for_all
              (fun c -> Two_var.eval ~s_info ~t_info c s t)
              q.Cfq_core.Query.two_var
          then Some (s, t)
          else None)
        ft)
    fs

(* ------------------------------------------------------------------ *)
(* QCheck generators *)

let gen_universe_size = QCheck2.Gen.int_range 5 9

let gen_tx n =
  QCheck2.Gen.(
    let* len = int_range 1 (max 1 (n - 1)) in
    let* items = list_repeat len (int_range 0 (n - 1)) in
    return items)

let gen_db_lists n = QCheck2.Gen.(list_size (int_range 20 60) (gen_tx n))

(* a database plus its universe size *)
let gen_db =
  QCheck2.Gen.(
    let* n = gen_universe_size in
    let* txs = gen_db_lists n in
    return (n, db_of_lists txs))

let gen_cmp = QCheck2.Gen.oneofl [ Cmp.Le; Cmp.Lt; Cmp.Ge; Cmp.Gt; Cmp.Eq; Cmp.Ne ]
let gen_dir_cmp = QCheck2.Gen.oneofl [ Cmp.Le; Cmp.Lt; Cmp.Ge; Cmp.Gt ]
let gen_agg = QCheck2.Gen.oneofl [ Agg.Min; Agg.Max; Agg.Sum; Agg.Avg; Agg.Count ]
let gen_minmax = QCheck2.Gen.oneofl [ Agg.Min; Agg.Max ]

let gen_value_set =
  QCheck2.Gen.(
    let* vals = list_size (int_range 1 3) (oneofl [ 0.; 1.; 2.; 3. ]) in
    return (Value_set.of_list vals))

let gen_price_const = QCheck2.Gen.(map float_of_int (int_range 0 80))

let gen_one_var =
  QCheck2.Gen.(
    oneof
      [
        (let* vs = gen_value_set in
         oneofl
           [
             One_var.Dom_subset (typ, vs);
             One_var.Dom_superset (typ, vs);
             One_var.Dom_disjoint (typ, vs);
             One_var.Dom_intersect (typ, vs);
             One_var.Dom_not_superset (typ, vs);
           ]);
        (let* agg = gen_agg in
         let* op = gen_cmp in
         let* c = gen_price_const in
         return (One_var.Agg_cmp (agg, price, op, c)));
        (let* op = gen_cmp in
         let* k = int_range 1 4 in
         return (One_var.Card_cmp (op, k)));
      ])

let gen_setop =
  QCheck2.Gen.oneofl
    [
      Two_var.Disjoint;
      Two_var.Intersect;
      Two_var.Subset;
      Two_var.Not_subset;
      Two_var.Superset;
      Two_var.Not_superset;
      Two_var.Set_eq;
      Two_var.Set_ne;
    ]

let gen_two_var =
  QCheck2.Gen.(
    oneof
      [
        (let* op = gen_setop in
         return (Two_var.Set2 (typ, op, typ)));
        (let* agg1 = gen_agg in
         let* agg2 = gen_agg in
         let* op = gen_cmp in
         return (Two_var.Agg2 (agg1, price, op, agg2, price)));
      ])

let gen_two_var_minmax =
  QCheck2.Gen.(
    let* agg1 = gen_minmax in
    let* agg2 = gen_minmax in
    let* op = gen_dir_cmp in
    return (Two_var.Agg2 (agg1, price, op, agg2, price)))

(* random full query over the small universe *)
let gen_query =
  QCheck2.Gen.(
    let* s_cs = list_size (int_range 0 2) gen_one_var in
    let* t_cs = list_size (int_range 0 2) gen_one_var in
    let* two = list_size (int_range 0 2) gen_two_var in
    let* sup_s = int_range 5 25 in
    let* sup_t = int_range 5 25 in
    return
      (Cfq_core.Query.make
         ~s_minsup:(float_of_int sup_s /. 100.)
         ~t_minsup:(float_of_int sup_t /. 100.)
         ~s_constraints:s_cs ~t_constraints:t_cs ~two_var:two ()))

let gen_itemset n =
  QCheck2.Gen.(
    let* mask = int_range 1 ((1 lsl n) - 1) in
    return (itemset_of_mask n mask))

(* printers for counterexample reporting *)
let print_db (n, db) =
  let buf = Buffer.create 128 in
  Buffer.add_string buf (Printf.sprintf "n=%d txs=[" n);
  for i = 0 to Tx_db.size db - 1 do
    Buffer.add_string buf (Itemset.to_string (Tx_db.get db i).Transaction.items)
  done;
  Buffer.add_string buf "]";
  Buffer.contents buf

(* [long_factor] scales [count] under qcheck's own QCHECK_LONG=1 *)
let qtest ?(count = 200) ?long_factor name gen print prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name ~count ?long_factor ~print gen prop)

let sorted_pairs l =
  List.sort
    (fun (a1, b1) (a2, b2) ->
      match Itemset.compare a1 a2 with 0 -> Itemset.compare b1 b2 | c -> c)
    l
