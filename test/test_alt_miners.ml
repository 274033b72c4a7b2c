(* Alternative mining substrates: FP-growth and Toivonen sampling must agree
   exactly with Apriori. *)

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

let apriori_of db n minsup =
  let io = Io_stats.create () in
  (Apriori.mine db (Helpers.small_info n) io ~minsup ()).Apriori.frequent

let suite =
  [
    Helpers.qtest ~count:100 "fp-growth equals apriori" Helpers.gen_db Helpers.print_db
      (fun (n, db) ->
        let minsup = max 1 (Tx_db.size db / 5) in
        let io = Io_stats.create () in
        let fp = Fp_growth.mine db io ~minsup ~universe_size:n in
        frequent_equal fp (apriori_of db n minsup));
    Helpers.qtest ~count:60 "fp-growth takes exactly two scans" Helpers.gen_db
      Helpers.print_db (fun (n, db) ->
        let io = Io_stats.create () in
        let _ = Fp_growth.mine db io ~minsup:(max 1 (Tx_db.size db / 4)) ~universe_size:n in
        Io_stats.scans io = 2);
    unit "fp-growth on a classic example" (fun () ->
        (* the textbook FP-tree example *)
        let db =
          Helpers.db_of_lists
            [ [ 0; 1; 2 ]; [ 0; 1 ]; [ 0; 2 ]; [ 0 ]; [ 1; 2 ]; [ 1 ]; [ 2 ] ]
        in
        let io = Io_stats.create () in
        let f = Fp_growth.mine db io ~minsup:3 ~universe_size:3 in
        Alcotest.(check (option int)) "{0}" (Some 4) (Frequent.support f (Itemset.of_list [ 0 ]));
        Alcotest.(check (option int)) "{1}" (Some 4) (Frequent.support f (Itemset.of_list [ 1 ]));
        Alcotest.(check (option int)) "{2}" (Some 4) (Frequent.support f (Itemset.of_list [ 2 ]));
        Alcotest.(check (option int)) "{0,1} below threshold" None
          (Frequent.support f (Itemset.of_list [ 0; 1 ])));
    Helpers.qtest ~count:80 "sampling-with-border-expansion equals apriori"
      Helpers.gen_db Helpers.print_db (fun (n, db) ->
        let minsup = max 1 (Tx_db.size db / 5) in
        let io = Io_stats.create () in
        let outcome =
          Sampling.mine db io ~minsup ~universe_size:n ~sample_frac:0.5 ()
        in
        frequent_equal outcome.Sampling.frequent (apriori_of db n minsup));
    Helpers.qtest ~count:40 "sampling with a tiny sample is still exact" Helpers.gen_db
      Helpers.print_db (fun (n, db) ->
        let minsup = max 1 (Tx_db.size db / 4) in
        let io = Io_stats.create () in
        let outcome =
          Sampling.mine db io ~minsup ~universe_size:n ~sample_frac:0.15 ~seed:7 ()
        in
        frequent_equal outcome.Sampling.frequent (apriori_of db n minsup));
    unit "negative border of a small collection" (fun () ->
        (* F = {∅-closed: {0},{1},{0,1}} over universe {0,1,2}:
           border = {2} (missing singleton) only — every 2-set over F's
           items is present *)
        let f = Itemset.Hashtbl.create 8 in
        List.iter
          (fun l -> Itemset.Hashtbl.replace f (Itemset.of_list l) ())
          [ [ 0 ]; [ 1 ]; [ 0; 1 ] ];
        let border = Sampling.negative_border ~universe_size:3 f in
        Alcotest.(check (list string)) "border" [ "{i2}" ]
          (List.map Itemset.to_string border));
    unit "negative border includes joinable gaps" (fun () ->
        let f = Itemset.Hashtbl.create 8 in
        List.iter
          (fun l -> Itemset.Hashtbl.replace f (Itemset.of_list l) ())
          [ [ 0 ]; [ 1 ]; [ 2 ]; [ 0; 1 ]; [ 0; 2 ]; [ 1; 2 ] ];
        let border = Sampling.negative_border ~universe_size:3 f in
        Alcotest.(check (list string)) "border" [ "{i0,i1,i2}" ]
          (List.map Itemset.to_string border));
    Helpers.qtest ~count:100 "dhp equals apriori" Helpers.gen_db Helpers.print_db
      (fun (n, db) ->
        let minsup = max 1 (Tx_db.size db / 5) in
        let io = Io_stats.create () in
        let dhp = Dhp.mine db io ~minsup ~universe_size:n ~n_buckets:13 in
        frequent_equal dhp.Dhp.frequent (apriori_of db n minsup));
    Helpers.qtest ~count:60 "dhp hash filter is sound and never grows C2"
      Helpers.gen_db Helpers.print_db (fun (n, db) ->
        let minsup = max 1 (Tx_db.size db / 5) in
        let io = Io_stats.create () in
        let dhp = Dhp.mine db io ~minsup ~universe_size:n ~n_buckets:7 in
        (* every frequent pair must survive the filter, and the filter can
           only shrink the candidate set *)
        dhp.Dhp.c2_filtered <= dhp.Dhp.c2_plain
        && Frequent.fold
             (fun acc e -> acc && Itemset.cardinal e.Frequent.set <= n)
             true dhp.Dhp.frequent);
    unit "dhp filter actually prunes on a skewed example" (fun () ->
        (* items 0,1 always together; many buckets so other pairs miss *)
        let db =
          Helpers.db_of_lists
            [ [ 0; 1 ]; [ 0; 1 ]; [ 0; 1 ]; [ 2 ]; [ 2 ]; [ 3 ]; [ 3 ]; [ 4 ]; [ 4 ] ]
        in
        let io = Io_stats.create () in
        let dhp = Dhp.mine db io ~minsup:2 ~universe_size:5 ~n_buckets:101 in
        Alcotest.(check int) "plain C2 = C(5,2)" 10 dhp.Dhp.c2_plain;
        Alcotest.(check bool) "filtered well below" true (dhp.Dhp.c2_filtered < 5);
        Alcotest.(check (option int)) "{0,1} found" (Some 3)
          (Frequent.support dhp.Dhp.frequent (Itemset.of_list [ 0; 1 ])));
    Helpers.qtest ~count:100 "apriori-tid equals apriori" Helpers.gen_db
      Helpers.print_db (fun (n, db) ->
        let minsup = max 1 (Tx_db.size db / 5) in
        let io = Io_stats.create () in
        let tid = Apriori_tid.mine db io ~minsup ~universe_size:n in
        frequent_equal tid.Apriori_tid.frequent (apriori_of db n minsup));
    Helpers.qtest ~count:60 "apriori-tid scans the database exactly twice"
      Helpers.gen_db Helpers.print_db (fun (n, db) ->
        let io = Io_stats.create () in
        let _ = Apriori_tid.mine db io ~minsup:(max 1 (Tx_db.size db / 4)) ~universe_size:n in
        Io_stats.scans io = 2);
    Helpers.qtest ~count:60 "apriori-tid encoded database only shrinks"
      Helpers.gen_db Helpers.print_db (fun (n, db) ->
        let io = Io_stats.create () in
        let o = Apriori_tid.mine db io ~minsup:(max 1 (Tx_db.size db / 4)) ~universe_size:n in
        let rec non_increasing = function
          | a :: (b :: _ as rest) -> a >= b && non_increasing rest
          | _ -> true
        in
        non_increasing o.Apriori_tid.encoded_sizes);
    unit "sampling reports its rounds and sample size" (fun () ->
        let db = Helpers.db_of_lists [ [ 0; 1 ]; [ 0; 1 ]; [ 0 ]; [ 1 ]; [ 2 ] ] in
        let io = Io_stats.create () in
        let o = Sampling.mine db io ~minsup:2 ~universe_size:3 ~sample_frac:1.0 () in
        Alcotest.(check int) "full sample" 5 o.Sampling.sample_size;
        Alcotest.(check bool) "at least one round" true (o.Sampling.rounds >= 1));
  ]
