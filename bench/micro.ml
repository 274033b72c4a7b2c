(* Bechamel micro-benchmarks of the core primitives: one Test.make per
   operation, all run in one pass with a short quota and reported as ns/run. *)

open Bechamel
open Cfq_itembase
open Cfq_constr
open Cfq_mining
open Cfq_quest

let itemset_fixtures () =
  let rng = Splitmix.create ~seed:99L in
  let random_set n =
    Itemset.of_array (Dist.sample_without_replacement rng ~n:1000 ~k:n)
  in
  (random_set 10, random_set 10, random_set 200)

let tests () =
  let a, b, big = itemset_fixtures () in
  let info =
    Item_gen.item_info
      ~prices:(Item_gen.uniform_prices (Splitmix.create ~seed:98L) ~n:1000 ~lo:0. ~hi:1000.)
      ()
  in
  let cands =
    Array.init 500 (fun i -> Itemset.of_list [ i mod 40; 40 + (i mod 30); 70 + (i mod 25) ])
  in
  let cands = Array.of_seq (Itemset.Set.to_seq (Itemset.Set.of_seq (Array.to_seq cands))) in
  let trie = Trie.build cands in
  let trie_counts = Array.make (Trie.n_candidates trie) 0 in
  let tx = Array.init 40 (fun i -> i * 3) in
  let pool = Array.map (fun c -> { Frequent.set = c; support = 10 }) cands in
  let prev = Array.map (fun e -> e.Frequent.set) pool in
  let tbl = Itemset.Hashtbl.create 1024 in
  Array.iter (fun s -> Itemset.Hashtbl.replace tbl s ()) prev;
  let l1 = Itemset.of_array (Array.init 100 (fun i -> i)) in
  let price = Item_gen.price_attr in
  let two = Two_var.Agg2 (Agg.Max, price, Cmp.Le, Agg.Min, price) in
  [
    Test.make ~name:"itemset-union" (Staged.stage (fun () -> Itemset.union a b));
    Test.make ~name:"itemset-inter" (Staged.stage (fun () -> Itemset.inter a b));
    Test.make ~name:"itemset-subset-big" (Staged.stage (fun () -> Itemset.subset a big));
    Test.make ~name:"itemset-hash" (Staged.stage (fun () -> Itemset.hash big));
    Test.make ~name:"trie-count-tx"
      (Staged.stage (fun () -> Trie.count_row trie trie_counts tx 0 (Array.length tx)));
    Test.make ~name:"candidate-apriori-gen"
      (Staged.stage (fun () ->
           Candidate.apriori_gen ~prev ~prev_mem:(Itemset.Hashtbl.mem tbl)));
    Test.make ~name:"reduce-quasi-succinct"
      (Staged.stage (fun () ->
           Reduce.reduce ~s_info:info ~t_info:info ~l1_s:l1 ~l1_t:l1 two));
    Test.make ~name:"mgf-compile-bundle"
      (Staged.stage (fun () ->
           Bundle.compile ~nonneg:true info
             [
               One_var.Agg_cmp (Agg.Max, price, Cmp.Le, 500.);
               One_var.Agg_cmp (Agg.Min, price, Cmp.Le, 100.);
             ]));
    Test.make ~name:"item-info-sum"
      (Staged.stage (fun () -> Item_info.sum_of info price big));
  ]

(* counting backends, bit vectors and pair joins get their own fixtures *)
let tests_extra () =
  let rng = Splitmix.create ~seed:97L in
  let db =
    Quest_gen.generate rng { (Quest_gen.scaled 2000) with Quest_gen.n_items = 300 }
  in
  let io = Cfq_txdb.Io_stats.create () in
  let tidset = Tidset.of_db db io ~universe_size:300 in
  let probe = Itemset.of_list [ 3; 40; 77 ] in
  let a = Bitvec.of_itemset ~universe_size:1000 (Itemset.of_array (Array.init 100 (fun i -> i * 7))) in
  let b = Bitvec.of_itemset ~universe_size:1000 (Itemset.of_array (Array.init 100 (fun i -> i * 5))) in
  let info =
    Item_gen.item_info
      ~prices:(Item_gen.uniform_prices (Splitmix.create ~seed:96L) ~n:300 ~lo:0. ~hi:1000.)
      ()
  in
  let entries =
    Array.init 400 (fun i ->
        { Frequent.set = Itemset.of_list [ i mod 300 ]; support = 5 })
  in
  let minmax =
    Cfq_constr.Two_var.Agg2
      (Cfq_constr.Agg.Max, Item_gen.price_attr, Cfq_constr.Cmp.Le, Cfq_constr.Agg.Min,
       Item_gen.price_attr)
  in
  let form two_var () =
    Cfq_core.Pairs.form ~s_info:info ~t_info:info ~valid_s:entries ~valid_t:entries
      ~two_var ()
  in
  [
    Test.make ~name:"vertical-support" (Staged.stage (fun () -> Tidset.support tidset probe));
    Test.make ~name:"bitvec-inter-card" (Staged.stage (fun () -> Bitvec.inter_cardinal a b));
    Test.make ~name:"bitvec-union" (Staged.stage (fun () -> Bitvec.union a b));
    Test.make ~name:"pairs-sort-join-400x400" (Staged.stage (form [ minmax ]));
    Test.make ~name:"pairs-nested-loop-400x400"
      (Staged.stage
         (form
            [ Cfq_constr.Two_var.Set2 (Item_gen.price_attr, Cfq_constr.Two_var.Disjoint, Item_gen.price_attr) ]));
  ]

let run () =
  Printf.printf "\n=== Microbenchmarks (Bechamel, ns/run) ===\n%!";
  let cfg = Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.25) ~kde:None () in
  let instances = [ Toolkit.Instance.monotonic_clock ] in
  let grouped = Test.make_grouped ~name:"cfq" ~fmt:"%s %s" (tests () @ tests_extra ()) in
  let raw = Benchmark.all cfg instances grouped in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun name est acc -> (name, est) :: acc) results [] in
  let t = Cfq_report.Table.create [ "operation"; "ns/run" ] in
  List.iter
    (fun (name, est) ->
      let ns =
        match Analyze.OLS.estimates est with
        | Some [ v ] -> Printf.sprintf "%.1f" v
        | Some _ | None -> "n/a"
      in
      Cfq_report.Table.add_row t [ name; ns ])
    (List.sort (fun (a, _) (b, _) -> String.compare a b) rows);
  Cfq_report.Table.print t
