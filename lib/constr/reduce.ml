open Cfq_itembase

type t = {
  s_conds : One_var.t list;
  t_conds : One_var.t list;
  s_tight : bool;
  t_tight : bool;
}

let no_pruning = { s_conds = []; t_conds = []; s_tight = false; t_tight = false }

(* |S| < 0: unsatisfiable, used when the opposite side has no frequent set *)
let absurd = One_var.Card_cmp (Cmp.Lt, 0)

let reduce ~s_info ~t_info ~l1_s ~l1_t c =
  if Itemset.is_empty l1_s || Itemset.is_empty l1_t then
    { s_conds = [ absurd ]; t_conds = [ absurd ]; s_tight = true; t_tight = true }
  else
    match c with
    | Two_var.Set2 (a, op, b) -> (
        let vs = (L1_stats.make s_info a l1_s).L1_stats.values in
        let vt = (L1_stats.make t_info b l1_t).L1_stats.values in
        match op with
        | Two_var.Disjoint ->
            (* Lemmas 2, 3 and Corollary 1 *)
            {
              s_conds = [ One_var.Dom_not_superset (a, vt) ];
              t_conds = [ One_var.Dom_not_superset (b, vs) ];
              s_tight = true;
              t_tight = true;
            }
        | Two_var.Intersect ->
            {
              s_conds = [ One_var.Dom_intersect (a, vt) ];
              t_conds = [ One_var.Dom_intersect (b, vs) ];
              s_tight = true;
              t_tight = true;
            }
        | Two_var.Subset ->
            {
              s_conds = [ One_var.Dom_subset (a, vt) ];
              t_conds = [ One_var.Dom_intersect (b, vs) ];
              (* C1 needs one frequent T covering all of CS.A — not certified
                 by L1 alone, so conservatively non-tight *)
              s_tight = false;
              t_tight = true;
            }
        | Two_var.Not_subset ->
            {
              s_conds = [ One_var.Nonempty ];
              t_conds = [ One_var.Dom_not_superset (b, vs) ];
              s_tight = false;
              t_tight = true;
            }
        | Two_var.Superset ->
            {
              s_conds = [ One_var.Dom_intersect (a, vt) ];
              t_conds = [ One_var.Dom_subset (b, vs) ];
              s_tight = true;
              t_tight = false;
            }
        | Two_var.Not_superset ->
            {
              s_conds = [ One_var.Dom_not_superset (a, vt) ];
              t_conds = [ One_var.Nonempty ];
              s_tight = true;
              t_tight = false;
            }
        | Two_var.Set_eq ->
            {
              s_conds = [ One_var.Dom_subset (a, vt) ];
              t_conds = [ One_var.Dom_subset (b, vs) ];
              s_tight = false;
              t_tight = false;
            }
        | Two_var.Set_ne -> no_pruning)
    | Two_var.Agg2 (agg1, a, op, agg2, b) -> (
        let stats_s = L1_stats.make s_info a l1_s in
        let stats_t = L1_stats.make t_info b l1_t in
        let tight =
          (* min/max bounds are attained by frequent singletons; sum/avg/count
             bounds are not certified attainable *)
          match (agg1, agg2) with
          | (Agg.Min | Agg.Max), (Agg.Min | Agg.Max) -> true
          | _ -> false
        in
        let directional op =
          let ub_t = Option.get (L1_stats.achievable_ub agg2 stats_t) in
          let lb_t = Option.get (L1_stats.achievable_lb agg2 stats_t) in
          let ub_s = Option.get (L1_stats.achievable_ub agg1 stats_s) in
          let lb_s = Option.get (L1_stats.achievable_lb agg1 stats_s) in
          match Cmp.direction op with
          | `Upper ->
              (* agg1(S.A) ≤ agg2(T.B): S bounded above by the best T can
                 offer, T bounded below by the least S can need *)
              ( [ One_var.Agg_cmp (agg1, a, op, ub_t) ],
                [ One_var.Agg_cmp (agg2, b, Cmp.flip op, lb_s) ] )
          | `Lower ->
              ( [ One_var.Agg_cmp (agg1, a, op, lb_t) ],
                [ One_var.Agg_cmp (agg2, b, Cmp.flip op, ub_s) ] )
          | `Equal | `Distinct -> assert false
        in
        match Cmp.direction op with
        | `Upper | `Lower ->
            let s_conds, t_conds = directional op in
            { s_conds; t_conds; s_tight = tight; t_tight = tight }
        | `Equal ->
            let s_le, t_ge = directional Cmp.Le in
            let s_ge, t_le = directional Cmp.Ge in
            {
              s_conds = s_le @ s_ge;
              t_conds = t_ge @ t_le;
              s_tight = false;
              t_tight = false;
            }
        | `Distinct ->
            (* valid unless the other side can only ever produce one value;
               with ≥ 2 achievable values every non-empty set is valid *)
            let distinct_t = Value_set.cardinal stats_t.L1_stats.values >= 2 in
            let distinct_s = Value_set.cardinal stats_s.L1_stats.values >= 2 in
            {
              s_conds = [];
              t_conds = [];
              s_tight = tight && distinct_t;
              t_tight = tight && distinct_s;
            })
