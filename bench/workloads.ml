(* Workload builders for the paper's Section 7 experiments. *)

open Cfq_itembase
open Cfq_quest
open Cfq_core

type scale = {
  n_tx : int;
  n_items : int;
  seed : int64;
}

(* The paper uses 100,000 transactions over 1,000 items; the default here is
   scaled down for a few-minute harness run.  FULL=1 restores paper scale. *)
let default_scale () =
  let full =
    match Sys.getenv_opt "FULL" with
    | Some ("1" | "true" | "yes") -> true
    | Some _ | None -> false
  in
  { n_tx = (if full then 100_000 else 20_000); n_items = 1000; seed = 20260706L }

let quest_db scale =
  let rng = Splitmix.create ~seed:scale.seed in
  let params =
    { (Quest_gen.scaled scale.n_tx) with Quest_gen.n_items = scale.n_items }
  in
  Quest_gen.generate rng params

(* ------------------------------------------------------------------ *)
(* §7.1 — single quasi-succinct 2-var constraint over uniform prices.
   S is restricted to Price ∈ [s_lo, 1000], T to Price ∈ [0, v]; the
   x-axis of Figure 8(a) is the percentage overlap of the two ranges. *)

type fig8a = {
  ctx : Exec.ctx;
  query : float -> float -> Query.t;  (* s_lo -> v -> query *)
}

let fig8a_v_for_overlap ~s_lo ~overlap_pct =
  s_lo +. (overlap_pct /. 100. *. (1000. -. s_lo))

let fig8a_workload scale =
  let db = quest_db scale in
  let rng = Splitmix.create ~seed:(Int64.add scale.seed 1L) in
  let prices = Item_gen.uniform_prices rng ~n:scale.n_items ~lo:0. ~hi:1000. in
  let info = Item_gen.item_info ~prices () in
  let query s_lo v =
    Parser.parse
      (Printf.sprintf
         "{(S,T) | freq(S) >= 0.005 & freq(T) >= 0.005 & S.Price >= %g & T.Price <= %g \
          & max(S.Price) <= min(T.Price)}"
         s_lo v)
  in
  { ctx = Exec.context db info; query }

(* ------------------------------------------------------------------ *)
(* §7.2 — 1-var range constraints plus the 2-var S.Type = T.Type, with a
   controllable overlap between the S-side and T-side type sets. *)

type fig8b = {
  ctx : Exec.ctx;
  query : Query.t;
}

let fig8b_workload scale ~s_lo ~t_hi ~type_overlap =
  let db = quest_db scale in
  let rng = Splitmix.create ~seed:(Int64.add scale.seed 2L) in
  let prices = Item_gen.uniform_prices rng ~n:scale.n_items ~lo:0. ~hi:1000. in
  let types =
    Item_gen.banded_types rng ~prices ~s_lo ~t_hi ~n_types_per_side:50
      ~overlap:type_overlap
  in
  let info = Item_gen.item_info ~prices ~types () in
  let query =
    Parser.parse
      (Printf.sprintf
         "{(S,T) | freq(S) >= 0.005 & freq(T) >= 0.005 & S.Price >= %g & T.Price <= %g \
          & S.Type = T.Type}"
         s_lo t_hi)
  in
  { ctx = Exec.context db info; query }

(* ------------------------------------------------------------------ *)
(* §7.3 — sum(S.Price) <= sum(T.Price) with planted long patterns so the
   S lattice reaches high cardinality under a low threshold.  S items are
   [0, n/2), T items [n/2, n); prices are normal with different means. *)

type fig73 = {
  ctx : Exec.ctx;
  query : Query.t;
  max_s_pattern : int;
}

let fig73_workload scale ~t_mean =
  let n = scale.n_items in
  let half = n / 2 in
  let rng = Splitmix.create ~seed:(Int64.add scale.seed 3L) in
  let pat lo len prob =
    Planted.pattern ~prob (Itemset.of_list (List.init len (fun i -> lo + i)))
  in
  let patterns =
    [
      (* S-side: nested long patterns, the largest of size 14 *)
      pat 0 14 0.03;
      pat 0 8 0.06;
      pat 20 6 0.05;
      pat 40 4 0.08;
      (* T-side patterns *)
      pat half 6 0.05;
      pat (half + 20) 4 0.08;
      pat (half + 40) 3 0.10;
    ]
  in
  let db =
    Planted.generate rng ~n_transactions:scale.n_tx ~universe:(0, n) ~noise_len:6.
      patterns
  in
  let prices =
    Item_gen.split_prices rng ~n ~split:half
      ~low:(fun r -> Dist.normal_clamped r ~mean:1000. ~stddev:10. ~lo:0. ~hi:2000.)
      ~high:(fun r -> Dist.normal_clamped r ~mean:t_mean ~stddev:10. ~lo:0. ~hi:2000.)
  in
  let info = Item_gen.item_info ~prices () in
  let query =
    Parser.parse
      (Printf.sprintf
         "{(S,T) | freq(S) >= 0.02 & freq(T) >= 0.02 & S.Item <= %d & T.Item >= %d & \
          sum(S.Price) <= sum(T.Price)}"
         (half - 1) half)
  in
  { ctx = Exec.context db info; query; max_s_pattern = 14 }
