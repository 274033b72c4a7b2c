(* The query service: LRU cache mechanics, constraint entailment,
   fingerprint canonicalisation, and the three serving paths (cold,
   answer-cache, subsumption) against brute-force and Exec references. *)

open Cfq_itembase
open Cfq_constr
open Cfq_mining
open Cfq_core
open Cfq_service

let price = Helpers.price
let typ = Helpers.typ

(* ------------------------------------------------------------------ *)
(* Lru *)

let lru_evicts_at_budget () =
  let c = Lru.create ~budget:10 in
  Alcotest.(check bool) "a fits" true (Lru.insert c "a" ~weight:4 1);
  Alcotest.(check bool) "b fits" true (Lru.insert c "b" ~weight:4 2);
  Alcotest.(check bool) "c fits, evicting" true (Lru.insert c "c" ~weight:4 3);
  Alcotest.(check int) "two entries survive" 2 (Lru.length c);
  Alcotest.(check int) "weight back under budget" 8 (Lru.weight c);
  Alcotest.(check bool) "oldest gone" false (Lru.mem c "a");
  Alcotest.(check bool) "newest present" true (Lru.mem c "c");
  Alcotest.(check int) "one eviction" 1 (Lru.evictions c)

let lru_find_bumps_recency () =
  let c = Lru.create ~budget:10 in
  ignore (Lru.insert c "a" ~weight:4 1 : bool);
  ignore (Lru.insert c "b" ~weight:4 2 : bool);
  Alcotest.(check (option int)) "find a" (Some 1) (Lru.find c "a");
  ignore (Lru.insert c "c" ~weight:4 3 : bool);
  (* "a" was touched after "b", so "b" is the LRU victim *)
  Alcotest.(check bool) "bumped entry survives" true (Lru.mem c "a");
  Alcotest.(check bool) "stale entry evicted" false (Lru.mem c "b")

let lru_oversized_refused () =
  let c = Lru.create ~budget:10 in
  Alcotest.(check bool) "refused" false (Lru.insert c "x" ~weight:11 1);
  Alcotest.(check int) "nothing stored" 0 (Lru.length c);
  ignore (Lru.insert c "a" ~weight:4 1 : bool);
  (* re-binding a live key to an oversized value drops the stale binding *)
  Alcotest.(check bool) "refused again" false (Lru.insert c "a" ~weight:11 2);
  Alcotest.(check bool) "stale binding dropped" false (Lru.mem c "a");
  Alcotest.(check int) "empty" 0 (Lru.weight c)

let lru_replace_updates_weight () =
  let c = Lru.create ~budget:10 in
  ignore (Lru.insert c "a" ~weight:4 1 : bool);
  ignore (Lru.insert c "a" ~weight:6 2 : bool);
  Alcotest.(check int) "one entry" 1 (Lru.length c);
  Alcotest.(check int) "new weight" 6 (Lru.weight c);
  Alcotest.(check (option int)) "new value" (Some 2) (Lru.find c "a")

let lru_fold_mru_first () =
  let c = Lru.create ~budget:100 in
  List.iter (fun k -> ignore (Lru.insert c k ~weight:1 0 : bool)) [ "a"; "b"; "c" ];
  let keys () = List.rev (Lru.fold (fun acc ~key ~value:_ -> key :: acc) [] c) in
  Alcotest.(check (list string)) "insertion recency" [ "c"; "b"; "a" ] (keys ());
  ignore (Lru.find c "a" : int option);
  Alcotest.(check (list string)) "after bump" [ "a"; "c"; "b" ] (keys ())

(* qcheck: the budget invariant [Lru.weight <= budget] holds after every
   operation of any insert/find/remove sequence, and the tracked weight is
   exactly the sum of the live entries' weights *)

type lru_op = Op_insert of int * int | Op_find of int | Op_remove of int

let gen_lru_ops =
  QCheck2.Gen.(
    let* budget = int_range 0 64 in
    let* ops =
      list_size (int_range 1 60)
        (oneof
           [
             (let* k = int_range 0 7 in
              let* w = int_range 0 20 in
              return (Op_insert (k, w)));
             (let* k = int_range 0 7 in
              return (Op_find k));
             (let* k = int_range 0 7 in
              return (Op_remove k));
           ])
    in
    return (budget, ops))

let print_lru_ops (budget, ops) =
  Printf.sprintf "budget=%d [%s]" budget
    (String.concat "; "
       (List.map
          (function
            | Op_insert (k, w) -> Printf.sprintf "ins k%d w%d" k w
            | Op_find k -> Printf.sprintf "find k%d" k
            | Op_remove k -> Printf.sprintf "rm k%d" k)
          ops))

let prop_lru_budget_invariant (budget, ops) =
  let c = Lru.create ~budget in
  let model = Hashtbl.create 8 in
  List.for_all
    (fun op ->
      (match op with
      | Op_insert (k, w) ->
          let key = string_of_int k in
          Hashtbl.remove model key;
          if Lru.insert c key ~weight:w w then Hashtbl.replace model key w
      | Op_find k -> ignore (Lru.find c (string_of_int k) : int option)
      | Op_remove k ->
          let key = string_of_int k in
          Lru.remove c key;
          Hashtbl.remove model key);
      (* evictions drop from the model whatever the cache dropped *)
      Hashtbl.iter
        (fun key _ -> if not (Lru.mem c key) then Hashtbl.remove model key)
        (Hashtbl.copy model);
      let live = Hashtbl.fold (fun _ w acc -> acc + w) model 0 in
      if Lru.weight c > Lru.budget c then
        QCheck2.Test.fail_reportf "over budget after %s: %d > %d"
          (print_lru_ops (budget, [ op ]))
          (Lru.weight c) (Lru.budget c);
      Lru.weight c = live && Lru.length c = Hashtbl.length model)
    ops

(* ------------------------------------------------------------------ *)
(* Entail *)

let check_implies msg expected c1 c2 =
  Alcotest.(check bool) msg expected (Entail.implies c1 c2)

let entail_bounds () =
  let minp op k = One_var.Agg_cmp (Agg.Min, price, op, k) in
  let sump op k = One_var.Agg_cmp (Agg.Sum, price, op, k) in
  check_implies "min >= 50 -> min >= 40" true (minp Cmp.Ge 50.) (minp Cmp.Ge 40.);
  check_implies "min >= 40 -/-> min >= 50" false (minp Cmp.Ge 40.) (minp Cmp.Ge 50.);
  check_implies "sum <= 30 -> sum <= 50" true (sump Cmp.Le 30.) (sump Cmp.Le 50.);
  check_implies "sum <= 50 -/-> sum <= 30" false (sump Cmp.Le 50.) (sump Cmp.Le 30.);
  check_implies "eq -> le" true (minp Cmp.Eq 40.) (minp Cmp.Le 40.);
  check_implies "gt -> ge" true (minp Cmp.Gt 40.) (minp Cmp.Ge 40.);
  check_implies "min bound says nothing about max" false (minp Cmp.Ge 50.)
    (One_var.Agg_cmp (Agg.Max, price, Cmp.Ge, 40.));
  check_implies "card <= 2 -> card <= 3" true
    (One_var.Card_cmp (Cmp.Le, 2))
    (One_var.Card_cmp (Cmp.Le, 3))

let entail_value_sets () =
  let vs l = Value_set.of_list l in
  check_implies "subset of smaller -> subset of larger" true
    (One_var.Dom_subset (typ, vs [ 1. ]))
    (One_var.Dom_subset (typ, vs [ 1.; 2. ]));
  check_implies "subset of larger -/-> subset of smaller" false
    (One_var.Dom_subset (typ, vs [ 1.; 2. ]))
    (One_var.Dom_subset (typ, vs [ 1. ]));
  check_implies "superset of larger -> superset of smaller" true
    (One_var.Dom_superset (typ, vs [ 1.; 2. ]))
    (One_var.Dom_superset (typ, vs [ 2. ]));
  check_implies "disjoint from larger -> disjoint from smaller" true
    (One_var.Dom_disjoint (typ, vs [ 1.; 2. ]))
    (One_var.Dom_disjoint (typ, vs [ 1. ]))

let entail_conjunction () =
  let minp k = One_var.Agg_cmp (Agg.Min, price, Cmp.Ge, k) in
  Alcotest.(check bool) "conjunction entails a weaker atom" true
    (Entail.conj_implies [ minp 50.; One_var.Card_cmp (Cmp.Le, 3) ] (minp 40.));
  Alcotest.(check bool) "nonempty is trivially entailed" true
    (Entail.conj_implies [] One_var.Nonempty);
  Alcotest.(check bool) "tightened request reuses broad cache" true
    (Entail.subsumes ~cached:[ minp 40. ]
       ~requested:[ minp 50.; One_var.Card_cmp (Cmp.Le, 3) ]);
  Alcotest.(check bool) "broadened request cannot" false
    (Entail.subsumes ~cached:[ minp 50. ] ~requested:[ minp 40. ])

(* [Entail.widening] names the one cached bound the request widens *)
let entail_widening () =
  let minp op k = One_var.Agg_cmp (Agg.Min, price, op, k) in
  let maxp op k = One_var.Agg_cmp (Agg.Max, price, op, k) in
  let types = One_var.Dom_subset (typ, Value_set.of_list [ 1.; 2. ]) in
  let check msg expected ~cached ~requested =
    Alcotest.(check (option string))
      msg
      (Option.map One_var.to_string expected)
      (Option.map One_var.to_string (Entail.widening ~cached ~requested))
  in
  check "a lowered min floor" (Some (minp Cmp.Ge 50.)) ~cached:[ minp Cmp.Ge 50.; types ]
    ~requested:[ minp Cmp.Gt 40.; types ];
  check "a raised max ceiling" (Some (maxp Cmp.Lt 30.)) ~cached:[ maxp Cmp.Lt 30. ]
    ~requested:[ maxp Cmp.Le 60.; types ];
  check "two bounds widened" None ~cached:[ minp Cmp.Ge 50.; maxp Cmp.Le 30. ]
    ~requested:[ minp Cmp.Ge 40.; maxp Cmp.Le 60. ];
  check "a bound dropped, not widened" None ~cached:[ minp Cmp.Ge 50. ] ~requested:[ types ];
  check "a widened value set" None
    ~cached:[ One_var.Dom_subset (typ, Value_set.of_list [ 1. ]) ]
    ~requested:[ types ];
  check "nothing to widen" None ~cached:[ minp Cmp.Ge 40. ] ~requested:[ minp Cmp.Ge 50. ];
  Alcotest.(check string) "negation" (One_var.to_string (maxp Cmp.Ge 30.))
    (One_var.to_string (Entail.negation (maxp Cmp.Lt 30.)))

(* On random itemsets, a widened request splits exactly along the atom:
   every set satisfying it satisfies the atom or its negation, never both,
   also where a price is NaN (the request's own bound rules such sets
   out).  The request holds a random bound and up to two other atoms; the
   cached conjunction tightens the bound and keeps the others. *)
let gen_widening =
  QCheck2.Gen.(
    let* n = int_range 5 9 in
    let* nan_item = opt (int_range 0 (n - 1)) in
    let* agg, op = oneofl [ (Agg.Min, Cmp.Ge); (Agg.Min, Cmp.Gt); (Agg.Max, Cmp.Le); (Agg.Max, Cmp.Lt) ] in
    let* c = int_range 0 80 in
    let* shift = int_range 1 30 in
    let* cached_op = oneofl (if agg = Agg.Min then [ Cmp.Ge; Cmp.Gt ] else [ Cmp.Le; Cmp.Lt ]) in
    let* others = list_size (int_range 0 2) Helpers.gen_one_var in
    let* sets = list_size (int_range 20 40) (Helpers.gen_itemset n) in
    let req_bound = One_var.Agg_cmp (agg, price, op, float_of_int c) in
    let tightened = float_of_int (if agg = Agg.Min then c + shift else c - shift) in
    return
      ( n,
        nan_item,
        req_bound :: others,
        One_var.Agg_cmp (agg, price, cached_op, tightened) :: others,
        sets ))

let print_widening (n, nan_item, req, cached, sets) =
  Printf.sprintf "n=%d nan=%s req=[%s] cached=[%s] sets=%s" n
    (match nan_item with Some i -> string_of_int i | None -> "-")
    (String.concat "; " (List.map One_var.to_string req))
    (String.concat "; " (List.map One_var.to_string cached))
    (String.concat "," (List.map Itemset.to_string sets))

let prop_widening (n, nan_item, req, cached, sets) =
  let info =
    match nan_item with
    | None -> Helpers.small_info n
    | Some i ->
        (* [Helpers.small_info]'s columns, with one price NaN *)
        let small = Helpers.small_info n in
        let info = Item_info.create ~universe_size:n in
        let col attr = Array.init n (Item_info.value small attr) in
        let prices = col price in
        prices.(i) <- Float.nan;
        Item_info.add_column info price prices;
        Item_info.add_column info typ (col typ);
        info
  in
  let holds cs s = List.for_all (fun c -> One_var.eval info c s) cs in
  match Entail.widening ~cached ~requested:req with
  | None ->
      (* the others may entail the tightened bound on their own; then
         nothing is widened and the cache covers the request *)
      Entail.subsumes ~cached ~requested:req
  | Some atom ->
      let neg = Entail.negation atom in
      List.for_all
        (fun s ->
          let r = holds req s and a = One_var.eval info atom s and na = One_var.eval info neg s in
          (not r) || (a <> na))
        sets

(* ------------------------------------------------------------------ *)
(* Fingerprint *)

let fixture () =
  let txs = List.init 40 (fun i -> [ i mod 6; ((i * 2) + 1) mod 6; ((i * 3) + 2) mod 6 ]) in
  let db = Helpers.db_of_lists txs in
  let info = Helpers.small_info 6 in
  Exec.context db info

let fingerprint_canonical () =
  let ctx = fixture () in
  let c1 = One_var.Agg_cmp (Agg.Min, price, Cmp.Ge, 20.) in
  let c2 = One_var.Card_cmp (Cmp.Le, 3) in
  let q cs = Query.make ~s_minsup:0.1 ~t_minsup:0.1 ~s_constraints:cs () in
  Alcotest.(check string) "conjunction order is irrelevant"
    (Fingerprint.query_key ctx (q [ c1; c2 ]))
    (Fingerprint.query_key ctx (q [ c2; c1 ]));
  Alcotest.(check bool) "threshold is part of the key" true
    (Fingerprint.query_key ctx (Query.make ~s_minsup:0.1 ())
    <> Fingerprint.query_key ctx (Query.make ~s_minsup:0.2 ()))

let fingerprint_physical_identity () =
  let db1 = Helpers.db_of_lists [ [ 0; 1 ]; [ 1; 2 ] ] in
  let db2 = Helpers.db_of_lists [ [ 0; 1 ]; [ 1; 2 ] ] in
  Alcotest.(check int) "same value, same id" (Fingerprint.db_id db1)
    (Fingerprint.db_id db1);
  Alcotest.(check bool) "distinct loads never alias" true
    (Fingerprint.db_id db1 <> Fingerprint.db_id db2)

(* a fingerprinted database or attribute table stays collectable: live
   seals make a new database each, and every shell load or gen a new
   table, and the superseded ones must not pile up *)
let fingerprint_pins_nothing () =
  let dbs = ref 0 and tables = ref 0 in
  let fingerprint_fresh () =
    let db = Helpers.db_of_lists [ [ 0; 1 ]; [ 1; 2 ] ] in
    let info = Helpers.small_info 3 in
    Gc.finalise_last (fun () -> incr dbs) db;
    Gc.finalise_last (fun () -> incr tables) info;
    let key = Fingerprint.query_key (Exec.context db info) (Query.make ()) in
    ignore (Sys.opaque_identity key : string)
  in
  for _ = 1 to 1000 do
    fingerprint_fresh ()
  done;
  Gc.full_major ();
  Alcotest.(check int) "every dropped database was collected" 1000 !dbs;
  Alcotest.(check int) "every dropped table was collected" 1000 !tables;
  (* the key names a table by its id, in the key format of every cache *)
  let info = Helpers.small_info 3 in
  Alcotest.(check string) "side key"
    (Printf.sprintf "side|info=%d|minsup=2|maxlvl=3|card <= 2" (Item_info.id info))
    (Fingerprint.side_key ~info ~minsup_abs:2 ~max_level:(Some 3) [ One_var.Card_cmp (Cmp.Le, 2) ]);
  Alcotest.(check bool) "equal columns, distinct tables" true
    (Item_info.id info <> Item_info.id (Helpers.small_info 3))

(* ------------------------------------------------------------------ *)
(* Service paths *)

let set_pairs answer_pairs =
  Helpers.sorted_pairs
    (List.map (fun (s, t) -> (s.Frequent.set, t.Frequent.set)) answer_pairs)

let pairs_str l =
  String.concat "; "
    (List.map (fun (s, t) -> Itemset.to_string s ^ "," ^ Itemset.to_string t) l)

let expect_ok = function
  | Ok a -> a
  | Error e -> Alcotest.failf "service error: %s" (Service.error_to_string e)

(* a pair with its supports *)
let pair_exact ((s : Frequent.entry), (t : Frequent.entry)) =
  Printf.sprintf "%s@%d,%s@%d" (Itemset.to_string s.Frequent.set) s.Frequent.support
    (Itemset.to_string t.Frequent.set) t.Frequent.support

(* pairs with supports, in the order they were returned *)
let exact_pairs pairs = String.concat " " (List.map pair_exact pairs)

(* the service's answer to [q] is Exec.run's, supports included *)
let check_exact ctx service msg q =
  let a = expect_ok (Service.run service q) in
  let sorted pairs = List.sort compare (List.map pair_exact pairs) in
  Alcotest.(check (list string)) msg
    (sorted (Exec.run ~collect_pairs:true ctx q).Exec.pairs)
    (sorted a.Service.pairs);
  a

let check_against_exec ctx service msg q =
  let cold = Exec.run ~collect_pairs:true ctx q in
  let a = expect_ok (Service.run service q) in
  Alcotest.(check string) msg
    (pairs_str (Helpers.sorted_pairs (List.map (fun (s, t) -> (s.Frequent.set, t.Frequent.set)) cold.Exec.pairs)))
    (pairs_str (set_pairs a.Service.pairs));
  a

let broad_query =
  Query.make ~s_minsup:0.1 ~t_minsup:0.1
    ~s_constraints:[ One_var.Agg_cmp (Agg.Min, price, Cmp.Ge, 20.) ]
    ~t_constraints:[ One_var.Agg_cmp (Agg.Max, price, Cmp.Le, 60.) ]
    ~two_var:[ Two_var.Set2 (typ, Two_var.Intersect, typ) ]
    ()

let service_answer_cache_hit () =
  let ctx = fixture () in
  let service = Service.create ~config:{ Service.default_config with domains = 1 } ctx in
  Fun.protect ~finally:(fun () -> Service.shutdown service) @@ fun () ->
  let r1 = check_against_exec ctx service "cold run matches Exec" broad_query in
  Alcotest.(check string) "first run is cold" "cold"
    (Service.served_from_name r1.Service.served_from);
  let r2 = expect_ok (Service.run service broad_query) in
  Alcotest.(check string) "second run hits the answer cache" "answer-cache"
    (Service.served_from_name r2.Service.served_from);
  Alcotest.(check string) "verbatim pairs"
    (pairs_str (set_pairs r1.Service.pairs))
    (pairs_str (set_pairs r2.Service.pairs));
  Alcotest.(check int) "no counting on a hit" 0 r2.Service.support_counted;
  Alcotest.(check int) "no checking on a hit" 0 r2.Service.constraint_checks;
  let m = Service.metrics service in
  Alcotest.(check int) "metrics: one hit" 1 m.Metrics.answer_hits;
  Alcotest.(check int) "metrics: both queries served" 2 m.Metrics.queries

let service_subsumption_reuse () =
  let ctx = fixture () in
  let service = Service.create ~config:{ Service.default_config with domains = 1 } ctx in
  Fun.protect ~finally:(fun () -> Service.shutdown service) @@ fun () ->
  ignore (check_against_exec ctx service "broad query matches Exec" broad_query : Service.answer);
  (* the analyst tightens: higher thresholds, strictly stronger constraints *)
  let tightened =
    Query.make ~s_minsup:0.15 ~t_minsup:0.2
      ~s_constraints:
        [ One_var.Agg_cmp (Agg.Min, price, Cmp.Ge, 30.); One_var.Card_cmp (Cmp.Le, 3) ]
      ~t_constraints:[ One_var.Agg_cmp (Agg.Max, price, Cmp.Le, 50.) ]
      ~two_var:[ Two_var.Set2 (typ, Two_var.Intersect, typ) ]
      ()
  in
  let r = check_against_exec ctx service "tightened query matches Exec" tightened in
  Alcotest.(check string) "served by filtering cached collections" "subsumed"
    (Service.served_from_name r.Service.served_from);
  Alcotest.(check int) "no mining on a subsumed query" 0 r.Service.support_counted;
  Alcotest.(check int) "no scans either" 0 r.Service.scans;
  let m = Service.metrics service in
  Alcotest.(check bool) "metrics saw subsumption hits" true (m.Metrics.subsumption_hits > 0)

let service_deadline_clean_error () =
  let ctx = fixture () in
  let service = Service.create ~config:{ Service.default_config with domains = 1 } ctx in
  Fun.protect ~finally:(fun () -> Service.shutdown service) @@ fun () ->
  (match Service.run service ~deadline:(-1.) broad_query with
  | Error Service.Deadline_exceeded -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Service.error_to_string e)
  | Ok _ -> Alcotest.fail "expired query produced an answer");
  let m = Service.metrics service in
  Alcotest.(check int) "metrics: one expiry" 1 m.Metrics.deadline_expired;
  Alcotest.(check int) "expired query cached nothing" 0 m.Metrics.answer_entries;
  (* the service is unharmed: the same query without a deadline succeeds *)
  ignore (check_against_exec ctx service "after expiry, still correct" broad_query : Service.answer)

let service_eviction_at_budget () =
  let ctx = fixture () in
  (* depth-1 collections are a few hundred bytes each; a ~2 KiB budget holds
     only a couple, so a descending-threshold sweep (no reuse possible: every
     cached collection sits above the requested threshold) must evict *)
  let config = { Service.default_config with domains = 1; cache_budget = 2048 } in
  let service = Service.create ~config ctx in
  Fun.protect ~finally:(fun () -> Service.shutdown service) @@ fun () ->
  let thresholds = [ 0.9; 0.7; 0.5; 0.3; 0.2; 0.15; 0.1; 0.05 ] in
  List.iter
    (fun minsup ->
      let q = Query.make ~s_minsup:minsup ~t_minsup:minsup ~max_level:1 () in
      ignore
        (check_against_exec ctx service
           (Printf.sprintf "correct under eviction at minsup %g" minsup)
           q
          : Service.answer))
    thresholds;
  let m = Service.metrics service in
  let side_budget = config.Service.cache_budget - (config.Service.cache_budget / 4) in
  Alcotest.(check bool) "evictions happened" true (m.Metrics.evictions > 0);
  Alcotest.(check bool) "side cache within budget" true (m.Metrics.side_bytes <= side_budget);
  Alcotest.(check bool) "answer cache within budget" true
    (m.Metrics.answer_bytes <= config.Service.cache_budget / 4)

(* doc/CONDENSED.md's byte model, written out independently of the service:
   an entry weighs 32 + (24 + 8 per item); a raw answer 256 + 16 per pair
   plus both entries; a packed one 256 + each side's distinct entries + two
   8-byte indices per pair *)
let entry_bytes (e : Frequent.entry) = 56 + (8 * Itemset.cardinal e.Frequent.set)

let raw_answer_bytes pairs =
  List.fold_left (fun acc (s, t) -> acc + 16 + entry_bytes s + entry_bytes t) 256 pairs

let packed_answer_bytes pairs =
  let distinct proj =
    List.sort_uniq Itemset.compare (List.map (fun p -> (proj p).Frequent.set) pairs)
    |> List.fold_left (fun acc set -> acc + 56 + (8 * Itemset.cardinal set)) 0
  in
  256 + distinct fst + distinct snd + (16 * List.length pairs)

(* per-set weighing equals the byte model's per-pair definition, over
   random joins of every method with and without residual constraints:
   the packed pairs are the join's, in its order, and a packer fed the
   same pairs one at a time packs and weighs the same *)
let gen_packed_join =
  let gen_side =
    QCheck2.Gen.(
      map
        (fun sets ->
          Array.of_list
            (List.map
               (fun s -> { Frequent.set = s; support = 1 + Itemset.cardinal s })
               (List.sort_uniq Itemset.compare sets)))
        (list_size (int_range 0 12) (Helpers.gen_itemset 6)))
  in
  QCheck2.Gen.(
    triple (list_size (int_range 0 3) Helpers.gen_two_var) gen_side gen_side)

let print_packed_join (cs, vs, vt) =
  Printf.sprintf "%s |S|=%d |T|=%d"
    (String.concat " & " (List.map Two_var.to_string cs))
    (Array.length vs) (Array.length vt)

let prop_weigh_per_set (cs, vs, vt) =
  let info = Helpers.small_info 6 in
  let emitted = ref [] in
  let stats =
    Pairs.form ~s_info:info ~t_info:info ~valid_s:vs ~valid_t:vt ~two_var:cs
      ~on_run:(Pairs.pairwise (fun i j -> emitted := (i, j) :: !emitted))
      ()
  in
  let emitted = List.rev !emitted in
  let _, w =
    Packed.join ~s_info:info ~t_info:info ~valid_s:vs ~valid_t:vt ~two_var:cs
  in
  let pairs = Packed.pairs w.Packed.pk in
  let one_by_one = Packed.packer vs vt in
  List.iter (fun (i, j) -> Packed.add_pair one_by_one i j) emitted;
  let w' = Packed.finish one_by_one in
  pairs = List.map (fun (i, j) -> (vs.(i), vt.(j))) emitted
  && Packed.n_pairs w.Packed.pk = stats.Pairs.n_pairs
  && w.Packed.raw_weight = raw_answer_bytes pairs
  && w.Packed.packed_weight = packed_answer_bytes pairs
  && w'.Packed.pk.Packed.pk_idx = w.Packed.pk.Packed.pk_idx
  && w'.Packed.raw_weight = w.Packed.raw_weight
  && w'.Packed.packed_weight = w.Packed.packed_weight

(* every insert of a session is priced by the byte model over the pairs it
   returned: after a cold anchor query mines one side collection, distinct
   refinements are all subsumed, so each adds exactly one packed answer
   insert to the ratio metrics, and the answer cache ends holding every
   answer.  A re-issue is a hit that inserts nothing and returns the pairs
   in the order first served.  Every answer — cold, subsumed, a hit, and
   re-served after evictions — is Exec.run's, supports included. *)
let service_bytes_follow_model () =
  let ctx = fixture () in
  let service = Service.create ~config:{ Service.default_config with domains = 1 } ctx in
  Fun.protect ~finally:(fun () -> Service.shutdown service) @@ fun () ->
  (* unconstrained, both paths filter the same level-sorted collection, so
     the anchor's pairs, packed over several index chunks, must come back
     in exactly the order Exec's join emits them *)
  let anchor_q = Query.make ~s_minsup:0.1 ~t_minsup:0.1 () in
  let anchor = expect_ok (Service.run service anchor_q) in
  Alcotest.(check string) "anchor pairs in the join's order"
    (exact_pairs (Exec.run ~collect_pairs:true ctx anchor_q).Exec.pairs)
    (exact_pairs anchor.Service.pairs);
  Alcotest.(check bool) "the anchor answer spans several index chunks" true
    (anchor.Service.n_pairs > 256);
  let refinements =
    [
      broad_query;
      Query.make ~s_minsup:0.1 ~t_minsup:0.15
        ~two_var:[ Two_var.Set2 (typ, Two_var.Set_eq, typ) ]
        ();
      Query.make ~s_minsup:0.2 ~t_minsup:0.1
        ~two_var:[ Two_var.Agg2 (Agg.Max, price, Cmp.Le, Agg.Min, price) ]
        ();
      Query.make ~s_minsup:0.1 ~t_minsup:0.1 ~max_level:2
        ~s_constraints:[ One_var.Card_cmp (Cmp.Ge, 2) ]
        ();
    ]
  in
  let inserted =
    List.map
      (fun q ->
        let before = Service.metrics service in
        let a = check_exact ctx service "refinement matches Exec" q in
        let after = Service.metrics service in
        Alcotest.(check string) "both sides subsumed" "subsumed"
          (Service.served_from_name a.Service.served_from);
        Alcotest.(check int) "one packed insert" 1
          (after.Metrics.cond_inserts - before.Metrics.cond_inserts);
        let stored = packed_answer_bytes a.Service.pairs in
        Alcotest.(check int) "raw-equivalent bytes"
          (raw_answer_bytes a.Service.pairs)
          (after.Metrics.cond_raw_bytes - before.Metrics.cond_raw_bytes);
        Alcotest.(check int) "stored bytes" stored
          (after.Metrics.cond_bytes - before.Metrics.cond_bytes);
        (* a re-issue is a hit: it inserts nothing and returns the same
           pairs in the same order *)
        let hit = expect_ok (Service.run service q) in
        Alcotest.(check string) "re-issue is an answer-cache hit" "answer-cache"
          (Service.served_from_name hit.Service.served_from);
        Alcotest.(check string) "the hit returns the same pairs in order"
          (exact_pairs a.Service.pairs) (exact_pairs hit.Service.pairs);
        (stored, a.Service.n_pairs))
      refinements
  in
  Alcotest.(check bool) "the refinements returned pairs" true
    (List.exists (fun (_, n) -> n > 0) inserted);
  let m = Service.metrics service in
  Alcotest.(check int) "answer-cache bytes"
    (List.fold_left (fun acc (b, _) -> acc + b) (packed_answer_bytes anchor.Service.pairs) inserted)
    m.Metrics.answer_bytes;
  Alcotest.(check bool) "hits reconstructed" true (m.Metrics.reconstructions >= List.length refinements);
  (* a budget of a few answers: a descending sweep evicts, and the
     refinements come back cold or subsumed, still exactly Exec's *)
  let small =
    Service.create ~config:{ Service.default_config with domains = 1; cache_budget = 4096 } ctx
  in
  Fun.protect ~finally:(fun () -> Service.shutdown small) @@ fun () ->
  let sweep =
    List.map
      (fun minsup -> Query.make ~s_minsup:minsup ~t_minsup:minsup ~max_level:1 ())
      [ 0.9; 0.5; 0.2; 0.1 ]
  in
  List.iter
    (fun q -> ignore (check_exact ctx small "under eviction" q : Service.answer))
    (refinements @ sweep @ refinements);
  let m = Service.metrics small in
  Alcotest.(check bool) "the small budget evicted" true (m.Metrics.evictions > 0);
  Alcotest.(check bool) "stored bytes never exceed raw" true
    (m.Metrics.cond_bytes <= m.Metrics.cond_raw_bytes)

(* a side with no valid set and a join with no pair both pack to an empty
   answer that weighs the 256-byte base and serves back empty *)
let service_empty_answers () =
  let ctx = fixture () in
  let service = Service.create ~config:{ Service.default_config with domains = 1 } ctx in
  Fun.protect ~finally:(fun () -> Service.shutdown service) @@ fun () ->
  let empty_side = Query.make ~s_minsup:0.99 ~t_minsup:0.1 () in
  let empty_join =
    (* prices 10 40 70 30 60 20: every S-set costs >= 60, every T-set <= 20 *)
    Query.make ~s_minsup:0.1 ~t_minsup:0.1
      ~s_constraints:[ One_var.Agg_cmp (Agg.Min, price, Cmp.Ge, 60.) ]
      ~t_constraints:[ One_var.Agg_cmp (Agg.Max, price, Cmp.Le, 20.) ]
      ~two_var:[ Two_var.Agg2 (Agg.Max, price, Cmp.Le, Agg.Min, price) ]
      ()
  in
  List.iteri
    (fun k (name, q) ->
      let a = check_against_exec ctx service name q in
      Alcotest.(check int) (name ^ ": no pairs") 0 a.Service.n_pairs;
      let hit = expect_ok (Service.run service q) in
      Alcotest.(check string) (name ^ ": served again from the cache") "answer-cache"
        (Service.served_from_name hit.Service.served_from);
      Alcotest.(check int) (name ^ ": still empty") 0 (List.length hit.Service.pairs);
      Alcotest.(check int) (name ^ ": base weight only") (256 * (k + 1))
        (Service.metrics service).Metrics.answer_bytes)
    [ ("empty side", empty_side); ("empty join", empty_join) ]

(* Condensation buys hits at a fixed budget.  Planted patterns on items
   0..39 (prices >= 300) with noise on items 40..79 (prices < 300): every
   subset of a pattern has the pattern's support, so a handful of closed
   sets stand in for each collection, and the price floor keeps mining on
   the pattern items.  The smallest budget the condensed working set fits
   is below the raw-equivalent size of the same working set, and under it a
   two-pass replay (pass 2 re-issues pass 1) hits on every re-issue, every
   answer Exec.run's. *)
let condensed_hits_more_at_a_fixed_budget () =
  let rng = Cfq_quest.Splitmix.create ~seed:20260823L in
  let pattern lo prob =
    Cfq_quest.Planted.pattern ~partial_prob:0. ~prob (Itemset.of_list (List.init 5 (fun i -> lo + i)))
  in
  let db =
    Cfq_quest.Planted.generate rng ~n_transactions:300 ~universe:(40, 80) ~noise_len:4.
      [ pattern 0 0.5; pattern 6 0.45; pattern 12 0.4 ]
  in
  let prices =
    Array.init 80 (fun i -> if i < 40 then 300. +. (2. *. float_of_int i) else 100. +. (2. *. float_of_int (i - 40)))
  in
  let types = Array.init 80 (fun i -> float_of_int (i mod 4)) in
  let ctx = Exec.context db (Cfq_quest.Item_gen.item_info ~prices ~types ()) in
  let queries =
    List.concat_map
      (fun minsup ->
        List.map
          (fun lo ->
            Parser.parse
              (Printf.sprintf
                 "{(S,T) | freq(S) >= %g & freq(T) >= %g & S.Price >= %g & T.Price >= %g & S.Type = T.Type}"
                 minsup minsup lo lo))
          [ 300.; 308.; 316.; 324. ])
      [ 0.3; 0.33 ]
  in
  let n = List.length queries in
  (* [passes] replays of the script, every answer checked against
     Exec.run; the metrics and the first pass's answers *)
  let replay ~budget ~passes =
    let service =
      Service.create ~config:{ Service.default_config with domains = 1; cache_budget = budget } ctx
    in
    Fun.protect ~finally:(fun () -> Service.shutdown service) @@ fun () ->
    let answers =
      List.init passes (fun pass ->
          List.map
            (fun q -> check_exact ctx service (Printf.sprintf "pass %d matches Exec" (pass + 1)) q)
            queries)
    in
    (Service.metrics service, List.hd answers)
  in
  (* the smallest budget a working set fits: 3/4 of it holds sides, 1/4 answers *)
  let fits ~side_bytes ~answer_bytes = max ((side_bytes * 4 / 3) + 1) ((answer_bytes * 4) + 1) in
  let need, answers = replay ~budget:(1 lsl 28) ~passes:1 in
  let budget =
    fits ~side_bytes:need.Metrics.side_bytes ~answer_bytes:need.Metrics.answer_bytes
  in
  (* the raw-equivalent working set: every insert of one pass is cached,
     so the ratio metrics' raw bytes are the raw sides plus the raw answers *)
  let raw_answers = List.fold_left (fun acc a -> acc + raw_answer_bytes a.Service.pairs) 0 answers in
  let raw_sides = need.Metrics.cond_raw_bytes - raw_answers in
  Alcotest.(check bool) "the sides are stored closed" true (need.Metrics.side_bytes < raw_sides);
  Alcotest.(check bool) "the answers are stored packed" true
    (need.Metrics.answer_bytes < raw_answers);
  let raw_fit = fits ~side_bytes:raw_sides ~answer_bytes:raw_answers in
  Alcotest.(check bool)
    (Printf.sprintf "condensed working set fits in less (%d < %d)" budget raw_fit)
    true (budget < raw_fit);
  let m, _ = replay ~budget ~passes:2 in
  Alcotest.(check int) "every re-issue hits" n m.Metrics.answer_hits;
  Alcotest.(check bool) "every hit reconstructed" true (m.Metrics.reconstructions >= n)

(* ------------------------------------------------------------------ *)
(* qcheck: a (possibly cache-served) refinement returns exactly the
   brute-force answer *)

let gen_refinement =
  QCheck2.Gen.(
    let* n_db = Helpers.gen_db in
    let* q1 = Helpers.gen_query in
    let* extra = Helpers.gen_one_var in
    let* bump = int_range 0 10 in
    return (n_db, q1, extra, bump))

let print_refinement ((n, db), q1, extra, bump) =
  Printf.sprintf "%s q1=%s extra=%s bump=%d" (Helpers.print_db (n, db))
    (Query.to_string q1) (One_var.to_string extra) bump

let prop_refinement ((n, db), q1, extra, bump) =
  let info = Helpers.small_info n in
  let ctx = Exec.context db info in
  (* q2 refines q1: threshold no lower, one more S-side atom — the shape
     subsumption reuse targets, though reuse itself is never assumed *)
  let q2 =
    {
      q1 with
      Query.s_minsup = min 1. (q1.Query.s_minsup +. (float_of_int bump /. 100.));
      s_constraints = extra :: q1.Query.s_constraints;
    }
  in
  let service = Service.create ~config:{ Service.default_config with domains = 1 } ctx in
  Fun.protect ~finally:(fun () -> Service.shutdown service) @@ fun () ->
  let check_one label q =
    let expected =
      Helpers.sorted_pairs (Helpers.brute_answer db ~n ~s_info:info ~t_info:info q)
    in
    match Service.run service q with
    | Error e -> QCheck2.Test.fail_reportf "%s: %s" label (Service.error_to_string e)
    | Ok a ->
        let got = set_pairs a.Service.pairs in
        if got <> expected then
          QCheck2.Test.fail_reportf "%s served %s: got [%s], brute [%s]" label
            (Service.served_from_name a.Service.served_from)
            (pairs_str got) (pairs_str expected);
        (* a query served purely from cache must not have counted anything *)
        (match a.Service.served_from with
        | Service.Answer_cache | Service.Subsumed | Service.Degraded ->
            if a.Service.support_counted <> 0 then
              QCheck2.Test.fail_reportf "%s: cache-served but counted %d" label
                a.Service.support_counted
        | Service.Cold -> ());
        true
  in
  check_one "q1" q1 && check_one "q2 (refinement)" q2

(* ------------------------------------------------------------------ *)
(* Relaxation: a loosened side from its cached neighbour               *)
(* ------------------------------------------------------------------ *)

type step = Loosen_s of int | Loosen_t of int | Narrow_s of int | Narrow_t of int | Raise of int | Swap

let step_str = function
  | Loosen_s k -> Printf.sprintf "loosen S %d" k
  | Loosen_t k -> Printf.sprintf "loosen T %d" k
  | Narrow_s k -> Printf.sprintf "narrow S %d" k
  | Narrow_t k -> Printf.sprintf "narrow T %d" k
  | Raise k -> Printf.sprintf "raise %d%%" k
  | Swap -> "swap join"

(* An analyst's script over a random database: both sides banded by price
   (S from below, T from above, strict or not), maybe a Type atom on
   either side, joined by Type or by price order; then a loosening of
   either side, and random loosenings, narrowings, support raises and
   join swaps, under either kernel. *)
let gen_script =
  QCheck2.Gen.(
    let* n_db = Helpers.gen_db in
    let* s_lo = int_range 10 70 and* t_hi = int_range 10 70 in
    let* s_op = oneofl [ Cmp.Ge; Cmp.Gt ] and* t_op = oneofl [ Cmp.Le; Cmp.Lt ] in
    let* s_type = opt Helpers.gen_value_set and* t_type = opt Helpers.gen_value_set in
    let* minsup = int_range 2 20 in
    let* by_type = bool in
    let* kernel = oneofl [ Counting.Trie; Counting.Direct2 ] in
    let amount = int_range 5 30 in
    let* first = oneof [ map (fun k -> Loosen_s k) amount; map (fun k -> Loosen_t k) amount ] in
    let* rest =
      list_size (int_range 2 6)
        (oneof
           [
             map (fun k -> Loosen_s k) amount;
             map (fun k -> Loosen_t k) amount;
             map (fun k -> Narrow_s k) amount;
             map (fun k -> Narrow_t k) amount;
             map (fun k -> Raise k) (int_range 1 5);
             return Swap;
           ])
    in
    return
      (n_db, (s_lo, s_op, s_type), (t_hi, t_op, t_type), minsup, by_type, kernel, first :: rest))

let script_queries ((s_lo, s_op, s_type), (t_hi, t_op, t_type), minsup, by_type, steps) =
  let query s_lo t_hi minsup by_type =
    let dom = Option.map (fun vs -> One_var.Dom_subset (typ, vs)) in
    Query.make
      ~s_minsup:(float_of_int minsup /. 100.)
      ~t_minsup:(float_of_int minsup /. 100.)
      ~s_constraints:
        (One_var.Agg_cmp (Agg.Min, price, s_op, float_of_int s_lo) :: Option.to_list (dom s_type))
      ~t_constraints:
        (One_var.Agg_cmp (Agg.Max, price, t_op, float_of_int t_hi) :: Option.to_list (dom t_type))
      ~two_var:
        [
          (if by_type then Two_var.Set2 (typ, Two_var.Set_eq, typ)
           else Two_var.Agg2 (Agg.Max, price, Cmp.Le, Agg.Min, price));
        ]
      ()
  in
  let _, qs =
    List.fold_left
      (fun ((s_lo, t_hi, minsup, by_type), qs) step ->
        let st =
          match step with
          | Loosen_s k -> (s_lo - k, t_hi, minsup, by_type)
          | Loosen_t k -> (s_lo, t_hi + k, minsup, by_type)
          | Narrow_s k -> (s_lo + k, t_hi, minsup, by_type)
          | Narrow_t k -> (s_lo, t_hi - k, minsup, by_type)
          | Raise k -> (s_lo, t_hi, minsup + k, by_type)
          | Swap -> (s_lo, t_hi, minsup, not by_type)
        in
        let s_lo, t_hi, minsup, by_type = st in
        (st, query s_lo t_hi minsup by_type :: qs))
      ((s_lo, t_hi, minsup, by_type), [ query s_lo t_hi minsup by_type ])
      steps
  in
  List.rev qs

let print_script (n_db, s, t, minsup, by_type, kernel, steps) =
  Printf.sprintf "%s kernel=%s steps=[%s] queries=[%s]" (Helpers.print_db n_db)
    (Counting.kernel_name kernel)
    (String.concat "; " (List.map step_str steps))
    (String.concat " | "
       (List.map Query.to_string (script_queries (s, t, minsup, by_type, steps))))

(* Every answer of the script equals [Exec.run]'s, supports included, and
   brute force; the opening loosening is served as a relaxation. *)
let prop_script ((n, db), s, t, minsup, by_type, kernel, steps) =
  let info = Helpers.small_info n in
  let ctx = Exec.context db info in
  let service =
    Service.create ~config:{ Service.default_config with domains = 1; kernel } ctx
  in
  Fun.protect ~finally:(fun () -> Service.shutdown service) @@ fun () ->
  List.iteri
    (fun i q ->
      let sorted pairs = List.sort compare (List.map pair_exact pairs) in
      let expected = sorted (Exec.run ~collect_pairs:true ctx q).Exec.pairs in
      let brute = Helpers.sorted_pairs (Helpers.brute_answer db ~n ~s_info:info ~t_info:info q) in
      match Service.run service q with
      | Error e -> QCheck2.Test.fail_reportf "query %d: %s" i (Service.error_to_string e)
      | Ok a ->
          if sorted a.Service.pairs <> expected || set_pairs a.Service.pairs <> brute then
            QCheck2.Test.fail_reportf "query %d (%s) served %s [%s]: got [%s], exec [%s]" i
              (Query.to_string q)
              (Service.served_from_name a.Service.served_from)
              (String.concat "; " a.Service.notes)
              (String.concat " " (sorted a.Service.pairs))
              (String.concat " " expected))
    (script_queries (s, t, minsup, by_type, steps));
  let m = Service.metrics service in
  if m.Metrics.sides_relaxed < 1 then QCheck2.Test.fail_report "no side was relaxed";
  true

(* The merge keeps the relaxation mine's witness-holding sets only.  On a
   fixed database, a service caches S under [min(S.Price) >= 40] and is
   then asked [>= 20]: it serves the lowered side as a relaxation of the
   cached one, the neighbour's sets that satisfy the old bound merged with
   the sets the relaxation mine (CAP under the request and
   [min(S.Price) < 40]) finds valid under the negation too, so holding a
   witness, and its pairs are Exec.run's with their supports.  The
   fixture matters: filtering the mine by the request alone would keep a
   non-witness singleton of its level 1, which the neighbour holds
   already, and put it in twice. *)
let relaxation_merges_witness_sets_only () =
  let n = 8 in
  let info = Helpers.small_info n in
  let db =
    Helpers.db_of_lists
      (List.init 40 (fun i -> [ i mod n; ((i * 3) + 1) mod n; ((i * 5) + 2) mod n; (i * 7) mod n ]))
  in
  let minp k = One_var.Agg_cmp (Agg.Min, price, Cmp.Ge, k) in
  let atom = minp 40. and req = [ minp 20. ] in
  let neg = Entail.negation atom in
  Alcotest.(check (option string)) "the widened atom" (Some (One_var.to_string atom))
    (Option.map One_var.to_string (Entail.widening ~cached:[ atom ] ~requested:req));
  let minsup = 4 in
  let mined =
    let state = Cap.create db info ~minsup (Bundle.compile ~nonneg:true info (neg :: req)) in
    Frequent.to_list (Cap.run state (Cfq_txdb.Io_stats.create ()))
  in
  let non_witness =
    List.filter
      (fun e ->
        Itemset.cardinal e.Frequent.set = 1
        && List.for_all (fun c -> One_var.eval info c e.Frequent.set) req
        && not (One_var.eval info neg e.Frequent.set))
      mined
  in
  Alcotest.(check bool) "the relaxation mine holds a non-witness singleton" true
    (non_witness <> []);
  let ctx = Exec.context db info in
  let service = Service.create ~config:{ Service.default_config with domains = 1 } ctx in
  Fun.protect ~finally:(fun () -> Service.shutdown service) @@ fun () ->
  (* T's constraint neither covers S's nor differs from it by one bound *)
  let q s =
    Query.make ~s_minsup:0.1 ~t_minsup:0.1 ~s_constraints:[ s ]
      ~t_constraints:[ One_var.Agg_cmp (Agg.Max, price, Cmp.Le, 30.) ]
      ()
  in
  ignore (check_exact ctx service "the cached neighbour's query" (q atom) : Service.answer);
  let a = check_exact ctx service "the lowered query equals Exec.run" (q (minp 20.)) in
  Alcotest.(check string) "served after a mine" "cold"
    (Service.served_from_name a.Service.served_from);
  Alcotest.(check int) "one side relaxed" 1 (Service.metrics service).Metrics.sides_relaxed

(* What a scripted session costs, answer by answer, on one worker over a
   fixed database: its serving path, pairs and every charge, then the
   side-cache counters, on both kernels; then one seal on a live source
   and the record it returns.  The figures are pinned: a change to how
   sides are looked up, relaxed or mined that moves any of them changes
   what the service does.  The identical-sides query mines S and serves T
   from the collection S just cached. *)
let pinned_session_costs () =
  let n = 8 in
  let info = Helpers.small_info n in
  let db =
    Helpers.db_of_lists
      (List.init 40 (fun i -> [ i mod n; ((i * 3) + 1) mod n; ((i * 5) + 2) mod n; (i * 7) mod n ]))
  in
  let ctx = Exec.context db info in
  let minp k = One_var.Agg_cmp (Agg.Min, price, Cmp.Ge, k) in
  let maxp k = One_var.Agg_cmp (Agg.Max, price, Cmp.Le, k) in
  let by_type = [ Two_var.Set2 (typ, Two_var.Intersect, typ) ] in
  let q ?(minsup = 0.1) s t =
    Query.make ~s_minsup:minsup ~t_minsup:minsup ~s_constraints:s ~t_constraints:t
      ~two_var:by_type ()
  in
  let opening = q [ minp 20. ] [ maxp 60. ] in
  let narrowed = q [ minp 30. ] [ maxp 60. ] in
  let card2 = [ One_var.Card_cmp (Cmp.Le, 2) ] in
  let script =
    [
      `Ask ("cold", opening);
      `Ask ("identical sides", q ~minsup:0.2 card2 card2);
      `Ask ("narrowed", narrowed);
      `Ask ("re-issued", narrowed);
      `Ask ("loosened", q [ minp 10. ] [ maxp 60. ]);
      `Ask ("raised support", q ~minsup:0.2 [ minp 20. ] [ maxp 60. ]);
      `Ask ("unsatisfiable", q [ minp 60.; One_var.Agg_cmp (Agg.Min, price, Cmp.Le, 20.) ] card2);
      `Clear;
      `Ask ("re-issued after clear", opening);
    ]
  in
  let line (a : Service.answer) =
    Printf.sprintf "%s pairs=%d counted=%d checks=%d scans=%d pages=%d"
      (Service.served_from_name a.Service.served_from)
      a.Service.n_pairs a.Service.support_counted a.Service.constraint_checks
      a.Service.scans a.Service.pages_read
  in
  let expected =
    [
      "cold: cold pairs=748 counted=86 checks=1079 scans=8 pages=8";
      "identical sides: cold pairs=210 counted=36 checks=440 scans=2 pages=2";
      "narrowed: subsumed pairs=399 counted=0 checks=659 scans=0 pages=0";
      "re-issued: answer-cache pairs=399 counted=0 checks=0 scans=0 pages=0";
      "loosened: cold pairs=1530 counted=45 checks=2113 scans=4 pages=4";
      "raised support: subsumed pairs=89 counted=0 checks=223 scans=0 pages=0";
      "unsatisfiable: cold pairs=0 counted=0 checks=0 scans=0 pages=0";
      "re-issued after clear: cold pairs=748 counted=86 checks=1079 scans=8 pages=8";
      "subsumption_hits=6 sides_mined=6 sides_relaxed=1";
    ]
  in
  List.iter
    (fun (kname, kernel) ->
      let service =
        Service.create ~config:{ Service.default_config with domains = 1; kernel } ctx
      in
      Fun.protect ~finally:(fun () -> Service.shutdown service) @@ fun () ->
      let lines =
        List.filter_map
          (function
            | `Clear ->
                Service.cache_clear service;
                None
            | `Ask (label, q) ->
                let a = check_exact ctx service (kname ^ " " ^ label ^ ": equals Exec.run") q in
                Some (label ^ ": " ^ line a))
          script
      in
      let m = Service.metrics service in
      let lines =
        lines
        @ [
            Printf.sprintf "subsumption_hits=%d sides_mined=%d sides_relaxed=%d"
              m.Metrics.subsumption_hits m.Metrics.sides_mined m.Metrics.sides_relaxed;
          ]
      in
      Alcotest.(check (list string)) (kname ^ ": the session's costs") expected lines)
    Counting.all_kernels;
  (* one seal on a live source: test_live's "fault during maintenance"
     fixture with no fault, whose low side counts {2} against the old
     database *)
  let src = Cfq_live.Source.of_mem (Array.init 24 (fun _ -> Itemset.of_list [ 0; 1 ])) in
  let service =
    Service.create ~config:{ Service.default_config with domains = 1 }
      (Exec.context (Cfq_live.Source.db src) (Helpers.small_info 4))
  in
  Fun.protect ~finally:(fun () -> Service.shutdown service) @@ fun () ->
  Service.attach_source service src;
  let queries =
    [ Query.make ~s_minsup:0.9 ~t_minsup:0.9 (); Query.make ~s_minsup:0.25 ~t_minsup:0.25 () ]
  in
  let ask () = List.map (fun q -> line (expect_ok (Service.run service q))) queries in
  let before = ask () in
  Array.iter (Service.ingest service)
    (Array.init 6 (fun i -> Itemset.of_list (if i < 3 then [ 2 ] else [ 0; 1 ])));
  let lv =
    match Service.seal_live service with
    | Some lv -> lv
    | None -> Alcotest.fail "seal with pending returned None"
  in
  let record =
    Printf.sprintf
      "epoch=%d sealed=%d sides=%d+%d answers=%d+%d recounted=%d old_scans=%d scans=%d \
       pages=%d passes=trie:%d,direct2:%d"
      lv.Service.lv_epoch lv.Service.lv_sealed lv.Service.lv_sides_promoted
      lv.Service.lv_sides_evicted lv.Service.lv_answers_promoted lv.Service.lv_answers_evicted
      lv.Service.lv_recounted lv.Service.lv_old_scans lv.Service.lv_scans
      lv.Service.lv_pages_read lv.Service.lv_pass_counts.Counting.trie_passes
      lv.Service.lv_pass_counts.Counting.direct2_passes
  in
  Alcotest.(check (list string)) "the seal's record and the answers around it"
    [
      "cold pairs=9 counted=5 checks=0 scans=2 pages=2";
      "cold pairs=9 counted=5 checks=0 scans=2 pages=2";
      "epoch=1 sealed=6 sides=2+0 answers=2+0 recounted=1 old_scans=1 scans=3 pages=3 \
       passes=trie:0,direct2:1";
      "answer-cache pairs=9 counted=0 checks=0 scans=0 pages=0";
      "answer-cache pairs=9 counted=0 checks=0 scans=0 pages=0";
    ]
    (before @ [ record ] @ ask ())

(* every knob's printed default parses back to the default, and a
   malformed value is an Error that names the knob *)
let knobs_round_trip () =
  let d = Service.default_config in
  List.iter
    (fun (k : Service.knob) ->
      (match k.parse (k.print d) d with
      | Ok c -> Alcotest.(check bool) (k.name ^ " default round-trips") true (c = d)
      | Error msg -> Alcotest.failf "%s: default rejected: %s" k.name msg);
      match k.parse "not-a-value" d with
      | Ok _ -> Alcotest.failf "%s accepted a malformed value" k.name
      | Error msg ->
          Alcotest.(check bool) (k.name ^ " named in the error") true
            (Astring_contains.contains msg k.name))
    Service.knobs;
  (* the kernel knob takes trie and direct2 only; a removed kernel name is
     the same typed knob error as any malformed value *)
  let kernel = List.find (fun (k : Service.knob) -> k.name = "kernel") Service.knobs in
  (match kernel.parse "auto" d with
  | Ok _ -> Alcotest.fail "kernel accepted auto"
  | Error msg ->
      Alcotest.(check bool) "kernel named in the auto error" true
        (Astring_contains.contains msg "kernel");
      Alcotest.(check bool) "error lists trie, direct2" true
        (Astring_contains.contains msg "trie, direct2"));
  Alcotest.(check (list string)) "the seven knobs"
    [ "domains"; "mine-domains"; "cache-mb"; "deadline"; "retries"; "breaker-threshold"; "kernel" ]
    (List.map (fun (k : Service.knob) -> k.name) Service.knobs)

let suite =
  [
    Alcotest.test_case "knobs: defaults round-trip, bad values named" `Quick
      knobs_round_trip;
    Alcotest.test_case "lru: evicts at budget" `Quick lru_evicts_at_budget;
    Alcotest.test_case "lru: find bumps recency" `Quick lru_find_bumps_recency;
    Alcotest.test_case "lru: oversized entry refused" `Quick lru_oversized_refused;
    Alcotest.test_case "lru: replace updates weight" `Quick lru_replace_updates_weight;
    Alcotest.test_case "lru: fold is mru-first" `Quick lru_fold_mru_first;
    Alcotest.test_case "entail: aggregate and card bounds" `Quick entail_bounds;
    Alcotest.test_case "entail: value-set monotonicity" `Quick entail_value_sets;
    Alcotest.test_case "entail: conjunction subsumption" `Quick entail_conjunction;
    Alcotest.test_case "entail: widening names the one widened bound" `Quick entail_widening;
    Helpers.qtest ~count:300 "entail: a widened request splits along the atom" gen_widening
      print_widening prop_widening;
    Alcotest.test_case "service: a relaxation merges the witness sets only" `Quick
      relaxation_merges_witness_sets_only;
    Alcotest.test_case "service: a scripted session's pinned costs" `Quick
      pinned_session_costs;
    Helpers.qtest ~count:60 "service: loosen, narrow and raise scripts equal Exec.run"
      gen_script print_script prop_script;
    Alcotest.test_case "fingerprint: canonical constraint order" `Quick fingerprint_canonical;
    Alcotest.test_case "fingerprint: physical identity" `Quick fingerprint_physical_identity;
    Alcotest.test_case "fingerprint: dropped databases are collected" `Quick
      fingerprint_pins_nothing;
    Alcotest.test_case "service: answer-cache hit" `Quick service_answer_cache_hit;
    Alcotest.test_case "service: subsumption reuse" `Quick service_subsumption_reuse;
    Alcotest.test_case "service: deadline is a clean error" `Quick service_deadline_clean_error;
    Alcotest.test_case "service: eviction at the memory budget" `Quick service_eviction_at_budget;
    Alcotest.test_case "service: cache bytes follow the byte model" `Quick
      service_bytes_follow_model;
    Alcotest.test_case "service: empty side and empty join" `Quick service_empty_answers;
    Alcotest.test_case "service: condensed cache hits more at a fixed budget" `Quick
      condensed_hits_more_at_a_fixed_budget;
    Helpers.qtest ~count:200 "lru: weight stays within budget" gen_lru_ops print_lru_ops
      prop_lru_budget_invariant;
    Helpers.qtest ~count:60 "service: refinement equals brute force" gen_refinement
      print_refinement prop_refinement;
    Helpers.qtest ~count:300 "packed answers: per-set weights equal the per-pair byte model"
      gen_packed_join print_packed_join prop_weigh_per_set;
  ]
