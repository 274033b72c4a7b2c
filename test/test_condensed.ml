(* The condensation layer: [Condensed.of_frequent |> to_frequent] must be
   the identity — levels, per-level order, supports and membership — for
   every collection the service caches: unconstrained Apriori output,
   CAP output under random 1-var constraints (where the raw fallback may
   fire), every kernel and domain count.  test_backends runs the
   condensing service on every backend. *)

open Cfq_itembase
open Cfq_txdb
open Cfq_constr
open Cfq_mining

let unit name f = Alcotest.test_case name `Quick f

(* strict identity: same levels, same per-level order, same supports *)
let frequent_identical a b =
  let level_eq k =
    let la = Frequent.level a k and lb = Frequent.level b k in
    Array.length la = Array.length lb
    && Array.for_all2
         (fun (e1 : Frequent.entry) (e2 : Frequent.entry) ->
           Itemset.equal e1.set e2.set && e1.support = e2.support)
         la lb
  in
  Frequent.max_level a = Frequent.max_level b
  && List.for_all level_eq (List.init (Frequent.max_level a) (fun k -> k + 1))

let frequent_str f =
  String.concat "; "
    (List.map
       (fun (e : Frequent.entry) ->
         Printf.sprintf "%s:%d" (Itemset.to_string e.set) e.support)
       (Frequent.to_list f))

(* ------------------------------------------------------------------ *)
(* units *)

(* {0,1,2} always co-occur, so its 7 subsets share one support — a single
   closed set; the {3} filler is the second *)
let correlated_db () =
  Helpers.db_of_lists
    (List.init 20 (fun i -> if i < 12 then [ 0; 1; 2 ] else [ 3 ]))

let mine db ~minsup =
  let info = Helpers.small_info 5 in
  let io = Io_stats.create () in
  let out = Apriori.mine db info io ~minsup () in
  out.Apriori.frequent

let entry set support = { Frequent.set = Itemset.of_list set; support }

let condensed_shrinks_correlated () =
  let freq = mine (correlated_db ()) ~minsup:5 in
  Alcotest.(check int) "8 frequent sets" 8 (Frequent.n_sets freq);
  let c = Condensed.of_frequent freq in
  Alcotest.(check bool) "condensed" true (Condensed.is_condensed c);
  (* the closed form stores two sets, {0,1,2}:12 and {3}:8, on a 160-byte
     base *)
  Alcotest.(check int) "two closed sets"
    (160 + Condensed.entry_weight (entry [ 0; 1; 2 ] 12) + Condensed.entry_weight (entry [ 3 ] 8))
    (Condensed.bytes c);
  Alcotest.(check int) "n_sets preserved" 8 (Condensed.n_sets c);
  Alcotest.(check bool) "strictly smaller" true
    (Condensed.bytes c < Condensed.raw_bytes c);
  let back = Condensed.to_frequent c in
  Alcotest.(check string) "round-trip identity" (frequent_str freq)
    (frequent_str back);
  Alcotest.(check bool) "structurally identical" true
    (frequent_identical freq back)

let raw_fallback_on_closure_gap () =
  (* {0,1} present without {1}: not downward closed, must stay raw *)
  let freq =
    Frequent.of_levels [ [| entry [ 0 ] 5 |]; [| entry [ 0; 1 ] 5 |] ]
  in
  let c = Condensed.of_frequent ~force:true freq in
  Alcotest.(check bool) "not condensed" false (Condensed.is_condensed c);
  Alcotest.(check bool) "to_frequent is physically the input" true
    (Condensed.to_frequent c == freq)

let raw_fallback_on_support_violation () =
  (* support({1}) < support({0,1}) breaks anti-monotonicity: the closed
     reconstruction would inflate {1}, so condensation must refuse *)
  let freq =
    Frequent.of_levels
      [ [| entry [ 0 ] 5; entry [ 1 ] 3 |]; [| entry [ 0; 1 ] 5 |] ]
  in
  let c = Condensed.of_frequent ~force:true freq in
  Alcotest.(check bool) "not condensed" false (Condensed.is_condensed c)

let raw_weight_matches_model () =
  (* a mined collection, {0} cut out: not downward closed, so stored raw *)
  let mined = mine (correlated_db ()) ~minsup:5 in
  let freq =
    Frequent.of_levels
      (List.map
         (fun k ->
           Array.of_list
             (List.filter
                (fun (e : Frequent.entry) -> not (Itemset.equal e.set (Itemset.of_list [ 0 ])))
                (Array.to_list (Frequent.level mined k))))
         [ 1; 2; 3 ])
  in
  let r = Condensed.of_frequent freq in
  Alcotest.(check bool) "raw stores nothing extra" false (Condensed.is_condensed r);
  Alcotest.(check int) "raw bytes = frequent_weight"
    (Condensed.frequent_weight freq) (Condensed.bytes r);
  Alcotest.(check int) "stored bytes = raw bytes" (Condensed.raw_bytes r) (Condensed.bytes r)

(* ------------------------------------------------------------------ *)
(* qcheck: identity round-trip across kernels × domains *)

let kernels = Counting.all_kernels
let domain_grid = [ 1; 3 ]

let gen_mined =
  QCheck2.Gen.(
    let* n, db = Helpers.gen_db in
    let* minsup = int_range 2 8 in
    let* kernel_i = int_range 0 (List.length kernels - 1) in
    let* domains = oneofl domain_grid in
    return (n, db, minsup, kernel_i, domains))

let print_mined (n, db, minsup, kernel_i, domains) =
  Printf.sprintf "minsup=%d kernel=%s domains=%d %s" minsup
    (fst (List.nth kernels kernel_i))
    domains
    (Helpers.print_db (n, db))

let mine_kernel db n ~minsup ~kernel ~domains =
  let info = Helpers.small_info n in
  let io = Io_stats.create () in
  let par = Counting.par ~min_rows_per_domain:1 domains in
  let session = Counting.create_session kernel in
  let out = Apriori.mine db info io ~par ~session ~minsup () in
  out.Apriori.frequent

let prop_round_trip (n, db, minsup, kernel_i, domains) =
  let kernel = snd (List.nth kernels kernel_i) in
  let freq = mine_kernel db n ~minsup ~kernel ~domains in
  let c = Condensed.of_frequent ~force:true freq in
  let back = Condensed.to_frequent c in
  if not (frequent_identical freq back) then
    QCheck2.Test.fail_reportf "round-trip mismatch: [%s] became [%s]"
      (frequent_str freq) (frequent_str back);
  (* Apriori output is exactly the frequent sets: always condensable *)
  Frequent.n_sets freq = 0
  || Condensed.is_condensed c
  || QCheck2.Test.fail_reportf "unconstrained mine fell back to raw: [%s]"
       (frequent_str freq)

(* CAP under random 1-var constraints: the collection may not be downward
   closed (succinct non-anti-monotone atoms), so condensation may fall
   back to raw — but the round-trip must still be the identity *)
let gen_constrained =
  QCheck2.Gen.(
    let* n, db = Helpers.gen_db in
    let* minsup = int_range 2 8 in
    let* cs = list_size (int_range 0 2) Helpers.gen_one_var in
    return (n, db, minsup, cs))

let print_constrained (n, db, minsup, cs) =
  Printf.sprintf "minsup=%d cs=[%s] %s" minsup
    (String.concat "; " (List.map One_var.to_string cs))
    (Helpers.print_db (n, db))

let prop_constrained_round_trip (n, db, minsup, cs) =
  let info = Helpers.small_info n in
  let bundle = Bundle.compile ~nonneg:true info cs in
  let state = Cap.create db info ~minsup bundle in
  let io = Io_stats.create () in
  let freq = Cap.run state io in
  let c = Condensed.of_frequent ~force:true freq in
  let back = Condensed.to_frequent c in
  frequent_identical freq back
  || QCheck2.Test.fail_reportf "constrained round-trip mismatch: [%s] vs [%s]"
       (frequent_str freq) (frequent_str back)

let suite =
  [
    unit "correlated collection condenses to one closed set"
      condensed_shrinks_correlated;
    unit "closure gap falls back to raw" raw_fallback_on_closure_gap;
    unit "support violation falls back to raw" raw_fallback_on_support_violation;
    unit "raw weight matches the byte model" raw_weight_matches_model;
    Helpers.qtest ~count:120 "condensed: round-trip identity (kernels × domains)"
      gen_mined print_mined prop_round_trip;
    Helpers.qtest ~count:120 "condensed: identity under CAP constraints"
      gen_constrained print_constrained prop_constrained_round_trip;
  ]
