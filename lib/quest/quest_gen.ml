open Cfq_itembase
open Cfq_txdb

type params = {
  n_items : int;
  n_transactions : int;
  avg_tx_len : float;
  avg_pattern_len : float;
  n_patterns : int;
  correlation : float;
  corruption_mean : float;
  corruption_stddev : float;
}

let default_params =
  {
    n_items = 1000;
    n_transactions = 100_000;
    avg_tx_len = 10.;
    avg_pattern_len = 4.;
    n_patterns = 2000;
    correlation = 0.5;
    corruption_mean = 0.5;
    corruption_stddev = 0.1;
  }

let scaled n =
  {
    default_params with
    n_transactions = n;
    n_patterns = max 50 (n / 50);
  }

let pattern_table rng p =
  let sets = Array.make p.n_patterns Itemset.empty in
  let weights = Array.make p.n_patterns 0. in
  let corruptions = Array.make p.n_patterns 0. in
  let prev = ref [||] in
  for i = 0 to p.n_patterns - 1 do
    (* clamped to the universe: a longer pattern could never collect enough
       distinct items below *)
    let len = min p.n_items (max 1 (Dist.poisson rng ~mean:(p.avg_pattern_len -. 1.) + 1)) in
    (* fraction of items inherited from the previous pattern, exponentially
       distributed around the correlation level (AS'94, Section 4) *)
    let inherit_frac =
      if Array.length !prev = 0 then 0.
      else Float.min 1. (Dist.exponential rng ~mean:p.correlation)
    in
    let n_inherit = min (Array.length !prev) (int_of_float (inherit_frac *. float_of_int len)) in
    let inherited =
      if n_inherit = 0 then [||]
      else begin
        let idx = Dist.sample_without_replacement rng ~n:(Array.length !prev) ~k:n_inherit in
        Array.map (fun j -> !prev.(j)) idx
      end
    in
    let chosen = Hashtbl.create 8 in
    Array.iter (fun e -> Hashtbl.replace chosen e ()) inherited;
    while Hashtbl.length chosen < len do
      Hashtbl.replace chosen (Splitmix.int rng p.n_items) ()
    done;
    let items = Hashtbl.fold (fun e () acc -> e :: acc) chosen [] in
    let set = Itemset.of_list items in
    sets.(i) <- set;
    prev := Itemset.to_array set;
    weights.(i) <- Dist.exponential rng ~mean:1.;
    corruptions.(i) <-
      Float.min 0.95 (Float.max 0. (Dist.normal rng ~mean:p.corruption_mean ~stddev:p.corruption_stddev))
  done;
  let cumulative = Array.make p.n_patterns 0. in
  let acc = ref 0. in
  for i = 0 to p.n_patterns - 1 do
    acc := !acc +. weights.(i);
    cumulative.(i) <- !acc
  done;
  (sets, cumulative, corruptions)

let patterns rng p =
  let sets, cumulative, _ = pattern_table rng p in
  Array.mapi (fun i s -> (s, cumulative.(i))) sets

let generate_itemsets rng p =
  let sets, cumulative, corruptions = pattern_table rng p in
  let out = Array.make p.n_transactions Itemset.empty in
  (* a pattern put back because it did not fit is carried to the next tx *)
  let carried = ref None in
  for t = 0 to p.n_transactions - 1 do
    (* clamped to the universe: [acc] holds distinct items, so a larger
       target could never be reached *)
    let target = min p.n_items (max 1 (Dist.poisson rng ~mean:p.avg_tx_len)) in
    let acc = Hashtbl.create (2 * target) in
    let add_pattern idx =
      (* corrupt: repeatedly drop a random item while a uniform draw exceeds
         the pattern's corruption level *)
      let items = ref (Array.copy (Itemset.to_array sets.(idx))) in
      let c = corruptions.(idx) in
      let continue = ref true in
      while !continue && Array.length !items > 0 do
        if Splitmix.float rng < c then begin
          let d = Splitmix.int rng (Array.length !items) in
          let n = Array.length !items in
          let next = Array.make (n - 1) 0 in
          Array.blit !items 0 next 0 d;
          Array.blit !items (d + 1) next d (n - 1 - d);
          items := next
        end
        else continue := false
      done;
      Array.iter (fun e -> Hashtbl.replace acc e ()) !items
    in
    let continue = ref true in
    (* over a small universe the patterns can stop contributing new items
       while still "fitting"; the attempt bound keeps the loop finite *)
    let attempts = ref 0 in
    while !continue do
      incr attempts;
      let idx =
        match !carried with
        | Some i ->
            carried := None;
            i
        | None -> Dist.pick_weighted rng cumulative
      in
      let size = Itemset.cardinal sets.(idx) in
      if Hashtbl.length acc + size <= target then add_pattern idx
      else begin
        (* does not fit: half the time add anyway, else carry to next tx *)
        if Splitmix.bool rng then add_pattern idx else carried := Some idx;
        continue := false
      end;
      if Hashtbl.length acc >= target || !attempts > 8 * (target + 1) then
        continue := false
    done;
    if Hashtbl.length acc = 0 then Hashtbl.replace acc (Splitmix.int rng p.n_items) ();
    out.(t) <- Itemset.of_list (Hashtbl.fold (fun e () l -> e :: l) acc [])
  done;
  out

let generate rng p = Tx_db.create (generate_itemsets rng p)

let market ~seed ~n_tx ~n_items ~n_types =
  let rng = Splitmix.create ~seed:(Int64.of_int seed) in
  let db = generate rng { (scaled n_tx) with n_items } in
  let prices = Item_gen.uniform_prices rng ~n:n_items ~lo:0. ~hi:1000. in
  let types = Array.init n_items (fun _ -> float_of_int (Splitmix.int rng n_types)) in
  (db, Item_gen.item_info ~prices ~types ())
