open Cfq_itembase
open Cfq_txdb
open Cfq_mining

let unit name f = Alcotest.test_case name `Quick f

let build db n =
  let io = Io_stats.create () in
  let v = Tidset.of_db db io ~universe_size:n in
  (v, io)

let sorted_levels f =
  List.for_all
    (fun k ->
      let level = Array.map (fun e -> e.Frequent.set) (Frequent.level f k) in
      let sorted = Array.copy level in
      Array.sort Itemset.compare sorted;
      level = sorted)
    (List.init (Frequent.max_level f) (fun k -> k + 1))

let suite =
  [
    unit "tid sets give singleton supports in one scan" (fun () ->
        let db = Helpers.db_of_lists [ [ 0; 1 ]; [ 1 ]; [ 0; 2 ]; [ 1; 2 ] ] in
        let v, io = build db 3 in
        let support items = Tidset.support v (Itemset.of_list items) in
        Alcotest.(check int) "item 0" 2 (support [ 0 ]);
        Alcotest.(check int) "item 1" 3 (support [ 1 ]);
        Alcotest.(check int) "item 2" 2 (support [ 2 ]);
        Alcotest.(check int) "item outside the universe" 0 (support [ 5 ]);
        Alcotest.(check int) "set holding such an item" 0 (support [ 1; 5 ]);
        Alcotest.(check int) "one scan" 1 (Io_stats.scans io));
    unit "empty set has full support" (fun () ->
        let db = Helpers.db_of_lists [ [ 0 ]; [ 1 ] ] in
        let v, _ = build db 2 in
        Alcotest.(check int) "n" 2 (Tidset.support v Itemset.empty));
    Helpers.qtest ~count:150 "vertical support equals horizontal counting"
      (QCheck2.Gen.pair Helpers.gen_db (Helpers.gen_itemset 9))
      (fun ((n, db), s) -> Helpers.print_db (n, db) ^ " set=" ^ Itemset.to_string s)
      (fun ((n, db), s) ->
        let v, _ = build db (max n 9) in
        Tidset.support v s = Helpers.support_of db s);
    (* minsup from 1 up to a fifth of the database, over a universe that
       also holds items no transaction contains *)
    Helpers.qtest ~count:100 "eclat mining equals apriori"
      QCheck2.Gen.(
        let* n, db = Helpers.gen_db in
        let* absent = int_range 0 3 in
        let* minsup = int_range 1 (max 1 (Tx_db.size db / 5)) in
        return ((n, db), absent, minsup))
      (fun ((n, db), absent, minsup) ->
        Printf.sprintf "%s absent=%d minsup=%d" (Helpers.print_db (n, db)) absent
          minsup)
      (fun ((n, db), absent, minsup) ->
        let universe_size = n + absent in
        let v, _ = build db universe_size in
        let eclat = Tidset.mine v ~minsup in
        let io = Io_stats.create () in
        let apriori =
          (Apriori.mine db (Helpers.small_info universe_size) io ~minsup ())
            .Apriori.frequent
        in
        sorted_levels eclat
        && Frequent.n_sets eclat = Frequent.n_sets apriori
        && Frequent.fold
             (fun acc e -> acc && Frequent.support apriori e.Frequent.set = Some e.Frequent.support)
             true eclat);
    unit "supports batches" (fun () ->
        let db = Helpers.db_of_lists [ [ 0; 1 ]; [ 0; 1 ]; [ 1 ] ] in
        let v, _ = build db 2 in
        Alcotest.(check (array int)) "batch" [| 2; 3; 2 |]
          (Tidset.supports v
             [| Itemset.of_list [ 0 ]; Itemset.of_list [ 1 ]; Itemset.of_list [ 0; 1 ] |]));
  ]
