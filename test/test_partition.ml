open Cfq_itembase
open Cfq_txdb
open Cfq_mining
open Cfq_baselines

let unit name f = Alcotest.test_case name `Quick f

let frequent_equal a b =
  Frequent.n_sets a = Frequent.n_sets b
  && Frequent.fold
       (fun acc e -> acc && Frequent.support b e.Frequent.set = Some e.Frequent.support)
       true a

let suite =
  [
    Helpers.qtest ~count:100 "partition mining equals apriori (2 partitions)"
      Helpers.gen_db Helpers.print_db (fun (n, db) ->
        let minsup = max 1 (Tx_db.size db / 5) in
        let io = Io_stats.create () in
        let part = Partition.mine db io ~minsup ~n_partitions:2 ~universe_size:n in
        let io2 = Io_stats.create () in
        let apriori = (Apriori.mine db (Helpers.small_info n) io2 ~minsup ()).Apriori.frequent in
        frequent_equal part apriori);
    Helpers.qtest ~count:60 "partition mining equals apriori (5 partitions)"
      Helpers.gen_db Helpers.print_db (fun (n, db) ->
        let minsup = max 1 (Tx_db.size db / 4) in
        let io = Io_stats.create () in
        let part = Partition.mine db io ~minsup ~n_partitions:5 ~universe_size:n in
        let io2 = Io_stats.create () in
        let apriori = (Apriori.mine db (Helpers.small_info n) io2 ~minsup ()).Apriori.frequent in
        frequent_equal part apriori);
    Helpers.qtest ~count:60 "partition mining takes exactly two scans" Helpers.gen_db
      Helpers.print_db (fun (n, db) ->
        let io = Io_stats.create () in
        let _ =
          Partition.mine db io ~minsup:(max 1 (Tx_db.size db / 5)) ~n_partitions:3
            ~universe_size:n
        in
        Io_stats.scans io = 2);
    unit "single partition degenerates to exact mining" (fun () ->
        let db = Helpers.db_of_lists [ [ 0; 1 ]; [ 0; 1 ]; [ 1; 2 ] ] in
        let io = Io_stats.create () in
        let f = Partition.mine db io ~minsup:2 ~n_partitions:1 ~universe_size:3 in
        Alcotest.(check (option int)) "pair" (Some 2)
          (Frequent.support f (Itemset.of_list [ 0; 1 ]));
        Alcotest.(check (option int)) "item 2 infrequent" None
          (Frequent.support f (Itemset.of_list [ 2 ])));
    unit "more partitions than transactions still works" (fun () ->
        let db = Helpers.db_of_lists [ [ 0 ]; [ 0 ] ] in
        let io = Io_stats.create () in
        let f = Partition.mine db io ~minsup:2 ~n_partitions:10 ~universe_size:1 in
        Alcotest.(check int) "one set" 1 (Frequent.n_sets f));
    unit "maximal sets" (fun () ->
        let db =
          Helpers.db_of_lists [ [ 0; 1; 2 ]; [ 0; 1; 2 ]; [ 3 ]; [ 3 ]; [ 0; 3 ] ]
        in
        let io = Io_stats.create () in
        let f = (Apriori.mine db (Helpers.small_info 4) io ~minsup:2 ()).Apriori.frequent in
        let maximal = Frequent.maximal f in
        let sets = List.map (fun e -> Itemset.to_string e.Frequent.set) maximal in
        (* {0,1,2} and {3} are maximal; {0,3} appears once only *)
        Alcotest.(check (list string)) "maximal" [ "{i3}"; "{i0,i1,i2}" ] sets);
    unit "closed sets compress losslessly" (fun () ->
        let db = Helpers.db_of_lists [ [ 0; 1 ]; [ 0; 1 ]; [ 0 ] ] in
        let io = Io_stats.create () in
        let f = (Apriori.mine db (Helpers.small_info 2) io ~minsup:2 ()).Apriori.frequent in
        (* {0} support 3 closed; {1} support 2 absorbed by {0,1} support 2 *)
        let closed = Frequent.closed f in
        let names = List.map (fun e -> Itemset.to_string e.Frequent.set) closed in
        Alcotest.(check (list string)) "closed" [ "{i0}"; "{i0,i1}" ] names);
    Helpers.qtest ~count:60 "every frequent set has a closed superset of equal support"
      Helpers.gen_db Helpers.print_db (fun (n, db) ->
        let io = Io_stats.create () in
        let f =
          (Apriori.mine db (Helpers.small_info n) io ~minsup:(max 1 (Tx_db.size db / 5)) ())
            .Apriori.frequent
        in
        let closed = Frequent.closed f in
        Frequent.fold
          (fun acc e ->
            acc
            && List.exists
                 (fun c ->
                   Itemset.subset e.Frequent.set c.Frequent.set
                   && c.Frequent.support = e.Frequent.support)
                 closed)
          true f);
    Helpers.qtest ~count:60 "every frequent set is contained in some maximal set"
      Helpers.gen_db Helpers.print_db (fun (n, db) ->
        let io = Io_stats.create () in
        let f =
          (Apriori.mine db (Helpers.small_info n) io ~minsup:(max 1 (Tx_db.size db / 5)) ())
            .Apriori.frequent
        in
        let maximal = Frequent.maximal f in
        Frequent.fold
          (fun acc e ->
            acc
            && List.exists (fun m -> Itemset.subset e.Frequent.set m.Frequent.set) maximal)
          true f);
  ]
