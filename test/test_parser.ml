open Cfq_constr
open Cfq_core

let unit name f = Alcotest.test_case name `Quick f

let parse = Parser.parse

(* the parser does not know attribute kinds; it defaults to Numeric *)
let ptyp = Cfq_itembase.Attr.make "Type" Cfq_itembase.Attr.Numeric

let suite =
  [
    unit "paper's introduction query" (fun () ->
        let q =
          parse
            "{(S, T) | freq(S) >= 0.01 & freq(T) >= 0.02 & sum(S.Price) <= 100 & \
             avg(T.Price) >= 200}"
        in
        Alcotest.(check (float 1e-9)) "s minsup" 0.01 q.Query.s_minsup;
        Alcotest.(check (float 1e-9)) "t minsup" 0.02 q.Query.t_minsup;
        Alcotest.(check bool) "s constraint" true
          (q.Query.s_constraints
          = [ One_var.Agg_cmp (Agg.Sum, Helpers.price, Cmp.Le, 100.) ]);
        Alcotest.(check bool) "t constraint" true
          (q.Query.t_constraints
          = [ One_var.Agg_cmp (Agg.Avg, Helpers.price, Cmp.Ge, 200.) ]);
        Alcotest.(check bool) "no 2-var" true (q.Query.two_var = []));
    unit "2-var aggregate comparison" (fun () ->
        let q = parse "sum(S.Price) <= avg(T.Price)" in
        Alcotest.(check bool) "two_var" true
          (q.Query.two_var
          = [ Two_var.Agg2 (Agg.Sum, Helpers.price, Cmp.Le, Agg.Avg, Helpers.price) ]));
    unit "2-var is normalised to S on the left" (fun () ->
        let q = parse "min(T.Price) >= max(S.Price)" in
        Alcotest.(check bool) "swapped" true
          (q.Query.two_var
          = [ Two_var.Agg2 (Agg.Max, Helpers.price, Cmp.Le, Agg.Min, Helpers.price) ]));
    unit "set operators between variables" (fun () ->
        let q = parse "S.Type = T.Type & S.Type disjoint T.Type" in
        Alcotest.(check int) "two constraints" 2 (List.length q.Query.two_var);
        Alcotest.(check bool) "eq" true
          (List.mem (Two_var.Set2 (ptyp, Two_var.Set_eq, ptyp)) q.Query.two_var);
        Alcotest.(check bool) "disjoint" true
          (List.mem
             (Two_var.Set2 (ptyp, Two_var.Disjoint, ptyp))
             q.Query.two_var));
    unit "T-side set operator swaps" (fun () ->
        let q = parse "T.Type subset S.Type" in
        Alcotest.(check bool) "superset on S" true
          (q.Query.two_var = [ Two_var.Set2 (ptyp, Two_var.Superset, ptyp) ]));
    unit "domain shorthands" (fun () ->
        let q = parse "S.Price >= 400 & T.Price <= 600" in
        Alcotest.(check bool) "min form" true
          (q.Query.s_constraints
          = [ One_var.Agg_cmp (Agg.Min, Helpers.price, Cmp.Ge, 400.) ]);
        Alcotest.(check bool) "max form" true
          (q.Query.t_constraints
          = [ One_var.Agg_cmp (Agg.Max, Helpers.price, Cmp.Le, 600.) ]));
    unit "constant value sets" (fun () ->
        let q = parse "S.Type = {2} & T.Type subset {1, 3}" in
        Alcotest.(check int) "eq gives two conds" 2 (List.length q.Query.s_constraints);
        Alcotest.(check int) "subset" 1 (List.length q.Query.t_constraints));
    unit "snacks-and-beers query from Section 2" (fun () ->
        let q =
          parse
            "{(S,T) | S.Type = {1} & T.Type = {2} & max(S.Price) <= min(T.Price)}"
        in
        Alcotest.(check int) "s" 2 (List.length q.Query.s_constraints);
        Alcotest.(check int) "t" 2 (List.length q.Query.t_constraints);
        Alcotest.(check int) "two" 1 (List.length q.Query.two_var));
    unit "count and cardinality atoms" (fun () ->
        let q = parse "count(S.Type) <= 1 & |T| <= 4" in
        Alcotest.(check bool) "count" true
          (q.Query.s_constraints = [ One_var.Agg_cmp (Agg.Count, ptyp, Cmp.Le, 1.) ]);
        Alcotest.(check bool) "card" true
          (q.Query.t_constraints = [ One_var.Card_cmp (Cmp.Le, 4) ]));
    unit "value membership atom" (fun () ->
        let q = parse "3 in S.Type & 1 in T.Type" in
        Alcotest.(check bool) "superset singleton" true
          (q.Query.s_constraints
          = [ One_var.Dom_superset (ptyp, Cfq_itembase.Value_set.singleton 3.) ]);
        Alcotest.(check int) "t side" 1 (List.length q.Query.t_constraints));
    unit "negative prices and floats lex correctly" (fun () ->
        let q = parse "sum(S.Price) <= 10.5" in
        Alcotest.(check bool) "10.5" true
          (q.Query.s_constraints = [ One_var.Agg_cmp (Agg.Sum, Helpers.price, Cmp.Le, 10.5) ]));
    unit "errors" (fun () ->
        let bad s =
          match Parser.parse_result s with
          | Ok _ -> Alcotest.fail ("expected parse error for " ^ s)
          | Error _ -> ()
        in
        bad "sum(S.Price) <= sum(S.Price)";
        bad "S.Type = ";
        bad "freq(X) >= 0.1";
        bad "min(S.Price)";
        bad "hello world";
        bad "{(S,T) | } trailing";
        bad "{(S,T) | freq(S) >= 1.5 & freq(T) >= 0.1}";
        bad "freq(T) > -0.2");
    Helpers.qtest ~count:300 "printing any query re-parses to the same semantics"
      (QCheck2.Gen.pair Helpers.gen_query (Helpers.gen_itemset 8))
      (fun (q, s) -> Query.to_string q ^ " on " ^ Cfq_itembase.Itemset.to_string s)
      (fun (q, set) ->
        (* Dom_not_superset has no concrete syntax; everything else printed
           by Query.pp must re-parse to an equivalent query *)
        let printable =
          List.for_all
            (function One_var.Dom_not_superset _ -> false | _ -> true)
            (q.Query.s_constraints @ q.Query.t_constraints)
        in
        if not printable then QCheck2.assume_fail ()
        else
          match Parser.parse_result (Query.to_string q) with
          | Error _ -> false
          | Ok q2 ->
              let info = Helpers.small_info 8 in
              let eval cs = List.for_all (fun c -> One_var.eval info c set) cs in
              let eval2 cs t =
                List.for_all
                  (fun c -> Two_var.eval ~s_info:info ~t_info:info c set t)
                  cs
              in
              let t = Cfq_itembase.Itemset.of_list [ 1; 3; 6 ] in
              eval q.Query.s_constraints = eval q2.Query.s_constraints
              && eval q.Query.t_constraints = eval q2.Query.t_constraints
              && eval2 q.Query.two_var t = eval2 q2.Query.two_var t
              && q.Query.s_minsup = q2.Query.s_minsup
              && q.Query.t_minsup = q2.Query.t_minsup);
    unit "pp round-trips through the parser" (fun () ->
        let q =
          parse
            "{(S,T) | freq(S) >= 0.05 & S.Price >= 400 & max(S.Price) <= min(T.Price)}"
        in
        let q2 = parse (Query.to_string q) in
        Alcotest.(check bool) "same two_var" true (q.Query.two_var = q2.Query.two_var);
        Alcotest.(check (float 1e-9)) "same minsup" q.Query.s_minsup q2.Query.s_minsup);
  ]
