open Cfq_itembase

type t = {
  universe : Sel.t;
  requires : Sel.t list;
}

let trivial = { universe = Sel.True; requires = [] }
let is_trivial t = t.universe = Sel.True && t.requires = []

let of_one_var (c : One_var.t) =
  match c with
  | One_var.Dom_subset (a, v) -> Some { universe = Sel.In (a, v); requires = [] }
  | One_var.Dom_disjoint (a, v) -> Some { universe = Sel.Not_in (a, v); requires = [] }
  | One_var.Dom_intersect (a, v) -> Some { universe = Sel.True; requires = [ Sel.In (a, v) ] }
  | One_var.Dom_superset (a, v) ->
      (* one witness per required value *)
      let requires =
        Value_set.fold (fun acc value -> Sel.Cmp (a, Cmp.Eq, value) :: acc) [] v
      in
      Some { universe = Sel.True; requires }
  | One_var.Dom_not_superset _ ->
      (* succinct per the paper, but the normalised universe/requires form
         cannot express "misses at least one of V"; handled as an
         anti-monotone filter by the engine. *)
      None
  | One_var.Agg_cmp (Agg.Min, a, ((Cmp.Ge | Cmp.Gt) as op), c) ->
      Some { universe = Sel.Cmp (a, op, c); requires = [] }
  | One_var.Agg_cmp (Agg.Min, a, ((Cmp.Le | Cmp.Lt) as op), c) ->
      Some { universe = Sel.True; requires = [ Sel.Cmp (a, op, c) ] }
  | One_var.Agg_cmp (Agg.Min, a, Cmp.Eq, c) ->
      Some { universe = Sel.Cmp (a, Cmp.Ge, c); requires = [ Sel.Cmp (a, Cmp.Eq, c) ] }
  | One_var.Agg_cmp (Agg.Max, a, ((Cmp.Le | Cmp.Lt) as op), c) ->
      Some { universe = Sel.Cmp (a, op, c); requires = [] }
  | One_var.Agg_cmp (Agg.Max, a, ((Cmp.Ge | Cmp.Gt) as op), c) ->
      Some { universe = Sel.True; requires = [ Sel.Cmp (a, op, c) ] }
  | One_var.Agg_cmp (Agg.Max, a, Cmp.Eq, c) ->
      Some { universe = Sel.Cmp (a, Cmp.Le, c); requires = [ Sel.Cmp (a, Cmp.Eq, c) ] }
  | One_var.Agg_cmp (_, _, Cmp.Ne, _) -> None
  | One_var.Agg_cmp ((Agg.Sum | Agg.Avg | Agg.Count), _, _, _) -> None
  | One_var.Card_cmp _ -> None
  | One_var.Nonempty -> Some trivial

let combine a b =
  { universe = Sel.conj [ a.universe; b.universe ]; requires = a.requires @ b.requires }

let combine_all l = List.fold_left combine trivial l

let permits_item info t e = Sel.eval info t.universe e

let requires_witness info t s =
  List.for_all (fun sel -> Itemset.exists (fun e -> Sel.eval info sel e) s) t.requires

let satisfied info t s =
  Itemset.for_all (fun e -> permits_item info t e) s && requires_witness info t s
