open Cfq_itembase
open Cfq_constr

(* same comparison subject: does [x op1 k1] imply [x op2 k2] for all real x? *)
let bound_implies op1 k1 op2 k2 =
  match (op1, op2) with
  | Cmp.Le, Cmp.Le -> k1 <= k2
  | Cmp.Le, Cmp.Lt -> k1 < k2
  | Cmp.Le, Cmp.Ne -> k2 > k1
  | Cmp.Lt, Cmp.Lt -> k1 <= k2
  | Cmp.Lt, Cmp.Le -> k1 <= k2
  | Cmp.Lt, Cmp.Ne -> k2 >= k1
  | Cmp.Ge, Cmp.Ge -> k1 >= k2
  | Cmp.Ge, Cmp.Gt -> k1 > k2
  | Cmp.Ge, Cmp.Ne -> k2 < k1
  | Cmp.Gt, Cmp.Gt -> k1 >= k2
  | Cmp.Gt, Cmp.Ge -> k1 >= k2
  | Cmp.Gt, Cmp.Ne -> k2 <= k1
  | Cmp.Eq, _ -> Cmp.eval op2 k1 k2
  | Cmp.Ne, Cmp.Ne -> k1 = k2
  | _ -> false

let equal_atom c1 c2 =
  match (c1, c2) with
  | One_var.Nonempty, One_var.Nonempty -> true
  | One_var.Dom_subset (a1, v1), One_var.Dom_subset (a2, v2)
  | One_var.Dom_superset (a1, v1), One_var.Dom_superset (a2, v2)
  | One_var.Dom_disjoint (a1, v1), One_var.Dom_disjoint (a2, v2)
  | One_var.Dom_intersect (a1, v1), One_var.Dom_intersect (a2, v2)
  | One_var.Dom_not_superset (a1, v1), One_var.Dom_not_superset (a2, v2) ->
      Attr.equal a1 a2 && Value_set.equal v1 v2
  | One_var.Agg_cmp (g1, a1, op1, k1), One_var.Agg_cmp (g2, a2, op2, k2) ->
      Agg.equal g1 g2 && Attr.equal a1 a2 && op1 = op2 && k1 = k2
  | One_var.Card_cmp (op1, k1), One_var.Card_cmp (op2, k2) -> op1 = op2 && k1 = k2
  | _ -> false

(* true of every non-empty set, independent of the attribute table *)
let trivially_true = function
  | One_var.Nonempty -> true
  | One_var.Card_cmp (Cmp.Ge, k) -> k <= 1
  | One_var.Card_cmp (Cmp.Gt, k) -> k <= 0
  | One_var.Card_cmp (Cmp.Ne, k) -> k <= 0
  | _ -> false

let implies c1 c2 =
  equal_atom c1 c2 || trivially_true c2
  ||
  match (c1, c2) with
  | _, One_var.Nonempty -> true
  (* value-set monotonicity on a common attribute *)
  | One_var.Dom_subset (a1, v1), One_var.Dom_subset (a2, v2) ->
      Attr.equal a1 a2 && Value_set.subset v1 v2
  | One_var.Dom_subset (a1, v1), One_var.Dom_disjoint (a2, v2) ->
      Attr.equal a1 a2 && Value_set.disjoint v1 v2
  | One_var.Dom_subset (a1, v1), One_var.Dom_not_superset (a2, v2) ->
      Attr.equal a1 a2 && not (Value_set.subset v2 v1)
  | One_var.Dom_superset (a1, v1), One_var.Dom_superset (a2, v2) ->
      Attr.equal a1 a2 && Value_set.subset v2 v1
  | One_var.Dom_superset (a1, v1), One_var.Dom_intersect (a2, v2) ->
      Attr.equal a1 a2 && not (Value_set.disjoint v1 v2)
  | One_var.Dom_disjoint (a1, v1), One_var.Dom_disjoint (a2, v2) ->
      Attr.equal a1 a2 && Value_set.subset v2 v1
  | One_var.Dom_disjoint (a1, v1), One_var.Dom_not_superset (a2, v2) ->
      Attr.equal a1 a2 && not (Value_set.disjoint v1 v2)
  | One_var.Dom_intersect (a1, v1), One_var.Dom_intersect (a2, v2) ->
      Attr.equal a1 a2 && Value_set.subset v1 v2
  | One_var.Dom_not_superset (a1, v1), One_var.Dom_not_superset (a2, v2) ->
      Attr.equal a1 a2 && Value_set.subset v1 v2
  (* aggregate / cardinality bounds over the same subject *)
  | One_var.Agg_cmp (g1, a1, op1, k1), One_var.Agg_cmp (g2, a2, op2, k2) ->
      Agg.equal g1 g2 && Attr.equal a1 a2 && bound_implies op1 k1 op2 k2
  | One_var.Card_cmp (op1, k1), One_var.Card_cmp (op2, k2) ->
      bound_implies op1 (float_of_int k1) op2 (float_of_int k2)
  | _ -> false

let conj_implies cs c = trivially_true c || List.exists (fun c' -> implies c' c) cs

let subsumes ~cached ~requested =
  List.for_all (fun c -> conj_implies requested c) cached

let negation = function
  | One_var.Agg_cmp (Agg.Min, a, Cmp.Ge, c) -> One_var.Agg_cmp (Agg.Min, a, Cmp.Lt, c)
  | One_var.Agg_cmp (Agg.Min, a, Cmp.Gt, c) -> One_var.Agg_cmp (Agg.Min, a, Cmp.Le, c)
  | One_var.Agg_cmp (Agg.Max, a, Cmp.Le, c) -> One_var.Agg_cmp (Agg.Max, a, Cmp.Gt, c)
  | One_var.Agg_cmp (Agg.Max, a, Cmp.Lt, c) -> One_var.Agg_cmp (Agg.Max, a, Cmp.Ge, c)
  | c -> invalid_arg ("Entail.negation: " ^ One_var.to_string c)

(* [r] bounds the subject of the bound [c] in the same direction: a set
   satisfying [r] has a defined (non-NaN) aggregate, so it satisfies
   exactly one of [c] and its negation *)
let widens c r =
  match (c, r) with
  | One_var.Agg_cmp (g, a, op, _), One_var.Agg_cmp (g', a', op', _) when Agg.equal g g' && Attr.equal a a' -> (
      match (g, op, op') with
      | Agg.Min, (Cmp.Ge | Cmp.Gt), (Cmp.Ge | Cmp.Gt) | Agg.Max, (Cmp.Le | Cmp.Lt), (Cmp.Le | Cmp.Lt) -> true
      | _ -> false)
  | _ -> false

let widening ~cached ~requested =
  match List.filter (fun c -> not (conj_implies requested c)) cached with
  | [ c ] when List.exists (widens c) requested -> Some c
  | _ -> None
