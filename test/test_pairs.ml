open Cfq_itembase
open Cfq_constr
open Cfq_mining
open Cfq_core

let unit name f = Alcotest.test_case name `Quick f
let info = Helpers.small_info 6

(* a table whose attributes hold NaN (as [Item_csv] accepts) and both
   zeros: prices nan 10 40 70 0.5 20, types 0 1 nan 0 -0 nan *)
let nan_info =
  let t = Item_info.create ~universe_size:6 in
  Item_info.add_column t Helpers.price [| Float.nan; 10.; 40.; 70.; 0.5; 20. |];
  Item_info.add_column t Helpers.typ [| 0.; 1.; Float.nan; 0.; -0.; Float.nan |];
  t

let gen_info = QCheck2.Gen.oneofl [ info; nan_info ]
let info_name i = if i == nan_info then "nan-info" else "small-info"

let entry l = { Frequent.set = Itemset.of_list l; support = 1 }

(* reference: evaluate the conjunction on the full product *)
let brute_pairs ?(info = info) two_var vs vt =
  let out = ref [] in
  Array.iter
    (fun es ->
      Array.iter
        (fun et ->
          if
            List.for_all
              (fun c -> Two_var.eval ~s_info:info ~t_info:info c es.Frequent.set et.Frequent.set)
              two_var
          then out := (es.Frequent.set, et.Frequent.set) :: !out)
        vt)
    vs;
  Helpers.sorted_pairs !out

(* the join's emitted (i, j) indices, in emission order *)
let emitted ?(info = info) two_var vs vt =
  let got = ref [] in
  let stats =
    Pairs.form ~s_info:info ~t_info:info ~valid_s:vs ~valid_t:vt ~two_var
      ~on_run:(Pairs.pairwise (fun i j -> got := (i, j) :: !got))
      ()
  in
  (stats, List.rev !got)

(* the sorted set pairs that emitted indices name *)
let named vs vt ij =
  Helpers.sorted_pairs
    (List.map (fun (i, j) -> (vs.(i).Frequent.set, vt.(j).Frequent.set)) ij)

let collected_pairs ?info two_var vs vt =
  let stats, ij = emitted ?info two_var vs vt in
  (stats, named vs vt ij)

let gen_entries =
  QCheck2.Gen.(
    map
      (fun sets ->
        Array.of_list
          (List.map (fun s -> { Frequent.set = s; support = 1 }) (List.sort_uniq Itemset.compare sets)))
      (list_size (int_range 0 10) (Helpers.gen_itemset 6)))

let gen_case =
  QCheck2.Gen.pair gen_info
    (QCheck2.Gen.pair Helpers.gen_two_var (QCheck2.Gen.pair gen_entries gen_entries))

let print_case (info, (c, (vs, vt))) =
  Printf.sprintf "%s %s |S|=%d |T|=%d" (info_name info) (Two_var.to_string c)
    (Array.length vs) (Array.length vt)

(* each (i, j) once, in ascending i, and the set pairs they name are the
   nested-loop reference's *)
let emits_reference ~info cs vs vt =
  let stats, ij = emitted ~info cs vs vt in
  let expected = brute_pairs ~info cs vs vt in
  let got = named vs vt ij in
  let rec s_major = function
    | (i1, _) :: ((i2, _) :: _ as rest) -> i1 <= i2 && s_major rest
    | _ -> true
  in
  List.for_all
    (fun (i, j) -> i >= 0 && i < Array.length vs && j >= 0 && j < Array.length vt)
    ij
  && List.length (List.sort_uniq compare ij) = List.length ij
  && s_major ij
  && stats.Pairs.n_pairs = List.length expected
  && List.length got = List.length expected
  && List.for_all2
       (fun (a1, b1) (a2, b2) -> Itemset.equal a1 a2 && Itemset.equal b1 b2)
       got expected
  && stats.Pairs.n_paired_s = List.length (List.sort_uniq compare (List.map fst ij))
  && stats.Pairs.n_paired_t = List.length (List.sort_uniq compare (List.map snd ij))

let suite =
  [
    unit "pairs with no 2-var constraint form the full product" (fun () ->
        let vs = [| entry [ 0 ]; entry [ 1 ] |] in
        let vt = [| entry [ 2 ]; entry [ 3 ]; entry [ 4 ] |] in
        let st = Pairs.form ~s_info:info ~t_info:info ~valid_s:vs ~valid_t:vt ~two_var:[] () in
        Alcotest.(check int) "pairs" 6 st.Pairs.n_pairs;
        Alcotest.(check int) "paired s" 2 st.Pairs.n_paired_s;
        Alcotest.(check int) "paired t" 3 st.Pairs.n_paired_t;
        Alcotest.(check int) "no checks" 0 st.Pairs.checks;
        Alcotest.(check string) "nested" "nested-loop"
          (Pairs.join_method_name st.Pairs.join));
    unit "a single aggregate comparison becomes a sort join with zero checks"
      (fun () ->
        (* prices: 10 40 70 30 60 20 *)
        let vs = [| entry [ 0 ]; entry [ 2 ] |] in
        let vt = [| entry [ 1 ]; entry [ 5 ] |] in
        let c = Two_var.Agg2 (Agg.Max, Helpers.price, Cmp.Le, Agg.Min, Helpers.price) in
        let st =
          Pairs.form ~s_info:info ~t_info:info ~valid_s:vs ~valid_t:vt ~two_var:[ c ] ()
        in
        Alcotest.(check int) "pairs" 2 st.Pairs.n_pairs;
        Alcotest.(check int) "paired s" 1 st.Pairs.n_paired_s;
        Alcotest.(check int) "paired t" 2 st.Pairs.n_paired_t;
        Alcotest.(check int) "no residual checks" 0 st.Pairs.checks;
        Alcotest.(check string) "sort join" "sort-join"
          (Pairs.join_method_name st.Pairs.join));
    unit "set equality becomes a hash join" (fun () ->
        (* types: i mod 4 *)
        let vs = [| entry [ 0 ]; entry [ 1 ] |] in
        let vt = [| entry [ 4 ]; entry [ 5 ]; entry [ 2 ] |] in
        let c = Two_var.Set2 (Helpers.typ, Two_var.Set_eq, Helpers.typ) in
        let st =
          Pairs.form ~s_info:info ~t_info:info ~valid_s:vs ~valid_t:vt ~two_var:[ c ] ()
        in
        (* type({0}) = {0} matches type({4}) = {0}; type({1}) = {1} matches {5} *)
        Alcotest.(check int) "pairs" 2 st.Pairs.n_pairs;
        Alcotest.(check string) "hash join" "hash-join"
          (Pairs.join_method_name st.Pairs.join));
    unit "residual constraints are verified per candidate pair" (fun () ->
        let vs = [| entry [ 0 ] |] in
        let vt = [| entry [ 1 ]; entry [ 5 ] |] in
        let c1 = Two_var.Agg2 (Agg.Max, Helpers.price, Cmp.Le, Agg.Min, Helpers.price) in
        let c2 = Two_var.Set2 (Helpers.typ, Two_var.Disjoint, Helpers.typ) in
        let st =
          Pairs.form ~s_info:info ~t_info:info ~valid_s:vs ~valid_t:vt
            ~two_var:[ c1; c2 ] ()
        in
        (* driver keeps both T-sets; residual disjointness check runs twice *)
        Alcotest.(check int) "residual checks" 2 st.Pairs.checks;
        Alcotest.(check int) "pairs" 2 st.Pairs.n_pairs);
    unit "run callback names each pair" (fun () ->
        let vs = [| entry [ 0 ] |] in
        let vt = [| entry [ 1 ] |] in
        let got = ref [] in
        let _ =
          Pairs.form ~s_info:info ~t_info:info ~valid_s:vs ~valid_t:vt ~two_var:[]
            ~on_run:(Pairs.pairwise (fun i j -> got := (i, j) :: !got))
            ()
        in
        Alcotest.(check (list (pair int int))) "indices" [ (0, 0) ] !got);
    unit "empty sides give zero pairs" (fun () ->
        let st =
          Pairs.form ~s_info:info ~t_info:info ~valid_s:[||] ~valid_t:[| entry [ 0 ] |]
            ~two_var:[] ()
        in
        Alcotest.(check int) "zero" 0 st.Pairs.n_pairs);
    (* hash (S.Type = T.Type), sort (aggregate comparisons) and nested
       (other set relations) joins: each emits every (i, j) exactly once,
       and the entries they name are the nested-loop reference's pairs *)
    Helpers.qtest ~count:400 "every join method agrees with the nested-loop semantics"
      gen_case print_case (fun (info, (c, (vs, vt))) -> emits_reference ~info [ c ] vs vt);
    Helpers.qtest ~count:200 "conjunctions agree with the nested-loop semantics"
      (QCheck2.Gen.pair
         (QCheck2.Gen.list_size (QCheck2.Gen.int_range 2 3) Helpers.gen_two_var)
         (QCheck2.Gen.pair gen_entries gen_entries))
      (fun (cs, (vs, vt)) ->
        Printf.sprintf "%s |S|=%d |T|=%d"
          (String.concat " & " (List.map Two_var.to_string cs))
          (Array.length vs) (Array.length vt))
      (fun (cs, (vs, vt)) ->
        let stats, _ = collected_pairs cs vs vt in
        stats.Pairs.n_pairs = List.length (brute_pairs cs vs vt));
    Helpers.qtest ~count:200 "sort join on strict and Ne comparisons"
      (QCheck2.Gen.pair gen_info
         (QCheck2.Gen.pair
            QCheck2.Gen.(
              let* op = oneofl [ Cmp.Lt; Cmp.Gt; Cmp.Ne; Cmp.Eq ] in
              let* agg1 = Helpers.gen_minmax in
              let* agg2 = Helpers.gen_minmax in
              return (Two_var.Agg2 (agg1, Helpers.price, op, agg2, Helpers.price)))
            (QCheck2.Gen.pair gen_entries gen_entries)))
      print_case
      (fun (info, (c, (vs, vt))) ->
        let stats, _ = collected_pairs ~info [ c ] vs vt in
        stats.Pairs.n_pairs = List.length (brute_pairs ~info [ c ] vs vt));
    (* a NaN price: under <= a NaN T-set is in no range, and under != a
       NaN S-set pairs with every T-set, as [Two_var.eval] has it *)
    unit "the sort join treats NaN keys as the nested loop does" (fun () ->
        let vs = [| entry [ 4 ]; entry [ 0 ] |] in
        let vt = [| entry [ 0 ]; entry [ 1 ]; entry [ 2 ] |] in
        List.iter
          (fun (op, n) ->
            let c = Two_var.Agg2 (Agg.Max, Helpers.price, op, Agg.Min, Helpers.price) in
            let st, _ = collected_pairs ~info:nan_info [ c ] vs vt in
            Alcotest.(check string) "sort join" "sort-join" (Pairs.join_method_name st.Pairs.join);
            Alcotest.(check int) (Cmp.to_string op) n st.Pairs.n_pairs;
            Alcotest.(check int)
              (Cmp.to_string op ^ " = nested loop")
              (List.length (brute_pairs ~info:nan_info [ c ] vs vt))
              st.Pairs.n_pairs)
          [ (Cmp.Le, 2); (Cmp.Ne, 6); (Cmp.Eq, 0); (Cmp.Gt, 0) ]);
    (* one to three constraints, so every method runs with and without
       residuals: each pair once, S-major, and a rerun emits the same
       sequence (ties among equal keys included) *)
    Helpers.qtest ~count:300 "every method emits each pair once, S-major, in a fixed order"
      (QCheck2.Gen.pair gen_info
         (QCheck2.Gen.pair
            (QCheck2.Gen.list_size (QCheck2.Gen.int_range 1 3) Helpers.gen_two_var)
            (QCheck2.Gen.pair gen_entries gen_entries)))
      (fun (info, (cs, (vs, vt))) ->
        Printf.sprintf "%s %s |S|=%d |T|=%d" (info_name info)
          (String.concat " & " (List.map Two_var.to_string cs))
          (Array.length vs) (Array.length vt))
      (fun (info, (cs, (vs, vt))) ->
        emits_reference ~info cs vs vt
        && snd (emitted ~info cs vs vt) = snd (emitted ~info cs vs vt));
  ]
