open Cfq_itembase

let uniform_prices rng ~n ~lo ~hi = Array.init n (fun _ -> Dist.uniform rng ~lo ~hi)

let split_prices rng ~n ~split ~low ~high =
  Array.init n (fun i -> if i < split then low rng else high rng)

let banded_types rng ~prices ~s_lo ~t_hi ~n_types_per_side ~overlap =
  if overlap <= 0. || overlap > 1. then invalid_arg "Item_gen.banded_types: overlap";
  let n = n_types_per_side in
  let k = max 1 (int_of_float (Float.round (overlap *. float_of_int n))) in
  let draw lo width = float_of_int (lo + Splitmix.int rng width) in
  Array.map
    (fun price ->
      let s_side = price >= s_lo and t_side = price <= t_hi in
      if s_side && t_side then draw (n - k) k
      else if s_side then draw 0 n
      else if t_side then draw (n - k) n
      else draw 0 (2 * n))
    prices

let price_attr = Attr.make "Price" Attr.Numeric
let type_attr = Attr.make "Type" Attr.Categorical

let item_info ~prices ?types () =
  let info = Item_info.create ~universe_size:(Array.length prices) in
  Item_info.add_column info price_attr prices;
  (match types with
  | Some t -> Item_info.add_column info type_attr t
  | None -> ());
  info

let random_taxonomy rng ~n_items ~branching ~depth =
  if branching < 1 || depth < 1 then invalid_arg "Item_gen.random_taxonomy";
  (* a complete tree laid out level by level: node 0 is the root *)
  let level_start = Array.make (depth + 1) 0 in
  let total = ref 0 in
  let width = ref 1 in
  for l = 0 to depth - 1 do
    level_start.(l) <- !total;
    total := !total + !width;
    width := !width * branching
  done;
  level_start.(depth) <- !total;
  let parent =
    Array.init !total (fun c ->
        if c = 0 then -1
        else begin
          (* locate c's level, then its parent one level up *)
          let l = ref 1 in
          while c >= level_start.(!l + 1) do
            incr l
          done;
          level_start.(!l - 1) + ((c - level_start.(!l)) / branching)
        end)
  in
  let leaves = level_start.(depth) - level_start.(depth - 1) in
  let item_category =
    Array.init n_items (fun _ -> level_start.(depth - 1) + Splitmix.int rng leaves)
  in
  Taxonomy.make ~parent ~item_category
