(* End-to-end integration on realistic Quest data: every strategy returns
   identical answers, ccc counters order as the paper predicts, scans are
   shared by dovetailing.  Marked `Slow (a second or two each). *)

open Cfq_quest
open Cfq_core

let slow name f = Alcotest.test_case name `Slow f

let make_ctx () =
  let rng = Splitmix.create ~seed:20260706L in
  let n = 150 in
  let params = { (Quest_gen.scaled 1500) with Quest_gen.n_items = n } in
  let db = Quest_gen.generate rng params in
  let prices = Item_gen.uniform_prices rng ~n ~lo:0. ~hi:1000. in
  let types =
    Item_gen.banded_types rng ~prices ~s_lo:400. ~t_hi:600. ~n_types_per_side:10
      ~overlap:0.4
  in
  Exec.context db (Item_gen.item_info ~prices ~types ())

let queries =
  [
    ("quasi-succinct minmax",
     "{(S,T) | freq(S) >= 0.03 & freq(T) >= 0.03 & S.Price >= 400 & max(S.Price) <= min(T.Price)}");
    ("type equality",
     "{(S,T) | freq(S) >= 0.03 & freq(T) >= 0.03 & S.Price >= 400 & T.Price <= 600 & S.Type = T.Type}");
    ("disjoint types",
     "{(S,T) | freq(S) >= 0.05 & freq(T) >= 0.05 & count(S.Type) <= 2 & S.Type disjoint T.Type}");
    ("sum vs sum",
     "{(S,T) | freq(S) >= 0.04 & freq(T) >= 0.04 & sum(S.Price) <= sum(T.Price)}");
    ("witness plus superset",
     "{(S,T) | freq(S) >= 0.04 & freq(T) >= 0.04 & min(S.Price) <= 150 & S.Type subset T.Type}");
    ("avg against avg",
     "{(S,T) | freq(S) >= 0.05 & freq(T) >= 0.05 & avg(S.Price) <= avg(T.Price)}");
  ]

let strategies = [ Plan.Apriori_plus; Plan.Cap_one_var; Plan.Optimized; Plan.Sequential_t_first ]

let suite =
  [
    slow "all strategies agree on realistic data" (fun () ->
        let ctx = make_ctx () in
        List.iter
          (fun (name, text) ->
            let q = Parser.parse text in
            let results = List.map (fun s -> Exec.run ~strategy:s ctx q) strategies in
            match results with
            | baseline :: rest ->
                List.iteri
                  (fun i r ->
                    Alcotest.(check int)
                      (Printf.sprintf "%s: strategy %d pair count" name i)
                      baseline.Exec.pair_stats.Pairs.n_pairs
                      r.Exec.pair_stats.Pairs.n_pairs)
                  rest
            | [] -> assert false)
          queries);
    slow "optimizer dominates CAP which dominates nothing on counting" (fun () ->
        let ctx = make_ctx () in
        let q =
          Parser.parse
            "{(S,T) | freq(S) >= 0.03 & freq(T) >= 0.03 & S.Price >= 400 & T.Price <= \
             600 & S.Type = T.Type}"
        in
        let cap = Exec.run ~strategy:Plan.Cap_one_var ctx q in
        let opt = Exec.run ~strategy:Plan.Optimized ctx q in
        Alcotest.(check bool) "optimizer counts fewer sets" true
          (Exec.total_counted opt <= Exec.total_counted cap));
    slow "dovetail scans bounded by the deeper lattice" (fun () ->
        let ctx = make_ctx () in
        let q =
          Parser.parse "{(S,T) | freq(S) >= 0.03 & freq(T) >= 0.03 & S.Price >= 400}"
        in
        let r = Exec.run ~strategy:Plan.Optimized ctx q in
        let deepest =
          max
            (List.length r.Exec.s.Exec.levels)
            (List.length r.Exec.t.Exec.levels)
        in
        Alcotest.(check bool)
          (Printf.sprintf "scans %d <= levels %d + 1" (Cfq_txdb.Io_stats.scans r.Exec.io) deepest)
          true
          (Cfq_txdb.Io_stats.scans r.Exec.io <= deepest + 1));
    slow "V^k trace is recorded for sum queries" (fun () ->
        let ctx = make_ctx () in
        let q =
          Parser.parse "{(S,T) | freq(S) >= 0.04 & freq(T) >= 0.04 & sum(S.Price) <= sum(T.Price)}"
        in
        let r = Exec.run ~strategy:Plan.Optimized ctx q in
        Alcotest.(check bool) "a V^k note is recorded" true
          (List.exists (fun n -> Astring_contains.contains n "V^k") r.Exec.notes);
        (* every note but the counting-kernels summary belongs to V^k *)
        Alcotest.(check bool) "notes mention V^k" true
          (List.for_all
             (fun n ->
               Astring_contains.contains n "V^k"
               || Astring_contains.contains n "counting kernels")
             r.Exec.notes));
    slow "advisor recommendation is never slower than 3x the best strategy" (fun () ->
        (* sanity that the advisor does not recommend something absurd *)
        let ctx = make_ctx () in
        List.iter
          (fun (_, text) ->
            let q = Parser.parse text in
            let e = Advisor.advise ctx q in
            let counted s = Exec.total_counted (Exec.run ~strategy:s ctx q) in
            let rec_counted = counted e.Advisor.strategy in
            let best =
              List.fold_left (fun acc s -> min acc (counted s)) max_int strategies
            in
            Alcotest.(check bool)
              (Printf.sprintf "%s: recommended %d vs best %d" text rec_counted best)
              true
              (rec_counted <= (3 * best) + 300))
          queries);
  ]
