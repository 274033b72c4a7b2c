(* Seeded input generators for the four workloads.  Everything the
   program sees — transactions, the item table, query texts, ingest
   batches — is a pure function of the seed; nothing reads the
   environment.  Each purpose draws from its own split stream, so
   changing one generator leaves the others' inputs unchanged.

   A workload's design is the same for every seed: which query families
   it asks, the stratum of its range each query parameter falls in, the
   kind and size of each refinement step.  The seed relabels the items of
   the transactions, draws the item table, the position of every
   parameter within its stratum, and the order of queries within a block.
   Seeds thus differ in their inputs but hardly in their cost mix, which
   keeps the run-to-run spread of a metric across seeds small. *)

open Cfq_itembase
open Cfq_quest

let n_items = 1000
let n_types = 20

let stream seed k =
  let root = Splitmix.create ~seed in
  for _ = 1 to k do
    ignore (Splitmix.next_int64 root : int64)
  done;
  Splitmix.split root

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Splitmix.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done

let permutation rng n =
  let a = Array.init n Fun.id in
  shuffle rng a;
  a

(* How many transactions hold each item. *)
let item_supports sets =
  let support = Array.make n_items 0 in
  Array.iter (Itemset.iter (fun i -> support.(i) <- support.(i) + 1)) sets;
  support

(* Price on [0, 1000] and one of twenty Types per item, each uniform
   over the items and independent of how often an item occurs: ranked by
   support, every ten consecutive items take one price from each tenth of
   the range and every twenty consecutive items take each Type once, in a
   seeded order.  So every price band and every Type holds items of every
   popularity, whatever the seed. *)
let item_info seed sets =
  let rng = stream seed 1 in
  let support = item_supports sets in
  let ranked = Array.init n_items Fun.id in
  Array.stable_sort (fun a b -> Int.compare support.(b) support.(a)) ranked;
  let prices = Array.make n_items 0. and types = Array.make n_items 0. in
  let deal width assign =
    for block = 0 to (n_items / width) - 1 do
      let order = Array.init width Fun.id in
      shuffle rng order;
      Array.iteri (fun j slot -> assign ranked.((block * width) + j) slot) order
    done
  in
  deal 10 (fun item decile ->
      prices.(item) <- Float.round (100. *. (float_of_int decile +. Splitmix.float rng)));
  deal n_types (fun item ty -> types.(item) <- float_of_int ty);
  Item_gen.item_info ~prices ~types ()

(* Quest transactions over the 1000-item universe, |T| = 10, |I| = 4 and
   |L| = 1000 potentially large itemsets, which near 1% support gives
   frequent sets of up to five or six items.  The Quest database is drawn
   from one fixed data seed and the run's seed relabels its items: every
   seed gets different transactions with the same lattice shape.  (Drawn
   afresh, the few heaviest patterns of the table move the number of
   frequent pairs and triples, and a query's cost, by a fifth from seed
   to seed.) *)
let data_seed = 0x0DA7A5EEDL

let transactions seed n =
  let sets =
    Quest_gen.generate_itemsets (Splitmix.create ~seed:data_seed)
      { Quest_gen.default_params with Quest_gen.n_items; n_transactions = n; n_patterns = 1000 }
  in
  let label = permutation (stream seed 2) n_items in
  Array.map (fun s -> Itemset.of_array (Array.map (fun i -> label.(i)) (Itemset.to_array s))) sets

let item_occurrences sets = Array.fold_left (fun acc s -> acc + Itemset.cardinal s) 0 sets

(* [rank_support sets r] is the relative support of the [r]-th most
   frequent item.  Queries name supports by such ranks — the analyst
   keeps the [r] most frequent items — so the number of frequent items,
   which drives the cost of the first counting passes, is the same in
   every seed's data. *)
let rank_support sets =
  let support = item_supports sets in
  Array.sort (fun a b -> Int.compare b a) support;
  fun r -> float_of_int support.(r - 1) /. float_of_int (Array.length sets)

(* ------------------------------------------------------------------ *)
(* The design stream and stratified draws *)

let design () = Splitmix.create ~seed:0x5E55_10A1L

(* A point of stratum [k] of [n] equal strata of [0, 1): the seed moves
   it by up to a tenth of the stratum's width either side of the centre. *)
let in_stratum values k n =
  (float_of_int k +. 0.5 +. (0.2 *. (Splitmix.float values -. 0.5))) /. float_of_int n

(* ------------------------------------------------------------------ *)
(* adhoc / store: the paper's three 2-var families.

   The stream is made of blocks.  Within a block each family gets the
   same number of queries; each query's swept parameter takes its own
   stratum and its second parameter the stratum a fixed permutation
   assigns, and the supports rotate through three item ranks.  Every block —
   and so every prefix of whole blocks — covers the sweeps evenly. *)

let adhoc_ranks = [| 280; 240; 200 |]

let adhoc_stream seed ~support ~blocks ~per_family =
  let values = stream seed 3 and design = design () in
  let seen = Hashtbl.create 256 in
  let rec distinct f =
    let q = f () in
    if Hashtbl.mem seen q then distinct f
    else begin
      Hashtbl.add seen q ();
      q
    end
  in
  let at k = in_stratum values k per_family in
  List.concat_map
    (fun b ->
      let minsup k = support adhoc_ranks.((k + b) mod Array.length adhoc_ranks) in
      let family render =
        let second = permutation design per_family in
        Array.init per_family (fun k -> distinct (fun () -> render (minsup k) (at k) (at second.(k))))
      in
      let block =
        Array.concat
          [
            (* fig8a: max(S.Price) <= min(T.Price), swept over the overlap
               of the S band [s_lo, 1000] and the T band [0, v] *)
            family (fun m u1 u2 ->
                let s_lo = Float.round (200. +. (200. *. u2)) in
                Printf.sprintf
                  "{(S,T) | freq(S) >= %.5f & freq(T) >= %.5f & S.Price >= %.0f & T.Price <= %.0f \
                   & max(S.Price) <= min(T.Price)}"
                  m m s_lo
                  (Float.round (s_lo +. (u1 *. (1000. -. s_lo)))));
            (* fig8b: S.Type = T.Type, swept over the S band's floor *)
            family (fun m u1 u2 ->
                Printf.sprintf
                  "{(S,T) | freq(S) >= %.5f & freq(T) >= %.5f & S.Price >= %.0f & T.Price <= %.0f \
                   & S.Type = T.Type}"
                  m m
                  (Float.round (200. +. (300. *. u1)))
                  (Float.round (500. +. (300. *. u2))));
            (* section 7.3: sum(S.Price) <= sum(T.Price), swept over the S
               band's ceiling *)
            family (fun m u1 u2 ->
                Printf.sprintf
                  "{(S,T) | freq(S) >= %.5f & freq(T) >= %.5f & S.Price <= %.0f & T.Price >= %.0f \
                   & sum(S.Price) <= sum(T.Price)}"
                  m m
                  (Float.round (300. +. (200. *. u1)))
                  (Float.round (400. +. (300. *. u2))));
          ]
      in
      shuffle values block;
      Array.to_list block)
    (List.init blocks Fun.id)

(* ------------------------------------------------------------------ *)
(* session / live: an analyst refining one query shape.

   A query keeps both supports equal, bounds S from below and T from
   above by Price, and joins the sides either by Type or by price order.
   Narrowing a band or raising the support is entailed by the query it
   refines (the service answers it from cached sides); widening a band
   past every band asked before is not (a cold mine). *)

type join = Type_eq | Price_order

type shape = {
  minsup : float;
  s_lo : int;  (** S.Price >= s_lo *)
  t_hi : int;  (** T.Price <= t_hi *)
  join : join;
}

let text q =
  Printf.sprintf
    "{(S,T) | freq(S) >= %.5f & freq(T) >= %.5f & S.Price >= %d & T.Price <= %d & %s}"
    q.minsup q.minsup q.s_lo q.t_hi
    (match q.join with
    | Type_eq -> "S.Type = T.Type"
    | Price_order -> "max(S.Price) <= min(T.Price)")

let max_minsup = 0.025
let min_band_gap = 150
let round5 x = Float.round (x *. 1e5) /. 1e5

(* [n] opening queries: the support (as an item rank between [low] and
   [high]), S floor and T ceiling each take every stratum of their range
   once, paired by fixed permutations, and the joins alternate. *)
let openings ~design ~values ~support ~ranks:(low, high) ~n =
  let pm = permutation design n and pl = permutation design n and ph = permutation design n in
  List.init n (fun k ->
      let rank = low - truncate (float_of_int (low - high) *. in_stratum values pm.(k) n) in
      {
        minsup = round5 (support rank);
        s_lo = 100 + truncate (200. *. in_stratum values pl.(k) n);
        t_hi = 700 + truncate (200. *. in_stratum values ph.(k) n);
        join = (if k mod 2 = 0 then Type_eq else Price_order);
      })

let swap_join q = { q with join = (if q.join = Type_eq then Price_order else Type_eq) }

(* A refinement the answer to [q]'s sides entails: raise the S floor,
   lower the T ceiling, or raise the support. *)
let narrow design q =
  let step = 5 + Splitmix.int design 36 in
  let possible = function
    | 0 -> q.s_lo + 40 + min_band_gap < q.t_hi
    | 1 -> q.t_hi - 40 - min_band_gap > q.s_lo
    | _ -> q.minsup +. 0.001 <= max_minsup
  in
  let d = Splitmix.int design 3 in
  match List.find_opt possible [ d; (d + 1) mod 3; (d + 2) mod 3 ] with
  | Some 0 -> { q with s_lo = q.s_lo + step }
  | Some 1 -> { q with t_hi = q.t_hi - step }
  | Some _ -> { q with minsup = round5 (q.minsup +. (0.0005 *. float_of_int (1 + (step mod 2)))) }
  | None -> swap_join q

(* A refinement no earlier query entails: widen a band past every band
   asked so far. *)
let loosen design ~lowest_s_lo ~highest_t_hi q =
  let widen_s = Splitmix.bool design and step = 10 + Splitmix.int design 31 in
  if (widen_s && lowest_s_lo > 40) || highest_t_hi > 960 then
    { q with s_lo = max 0 (lowest_s_lo - step) }
  else { q with t_hi = min 1000 (highest_t_hi + step) }

type step = Narrow | Reissue | Loosen | Swap_join

(* One analyst: the opening query (cold), then [len - 1] refinements —
   about half narrowings, a quarter re-issues of an earlier query of the
   script, a tenth loosenings and the rest join swaps over the same
   sides. *)
let script design ~len first =
  let issued = ref [ first ] in
  let lowest_s_lo = ref first.s_lo and highest_t_hi = ref first.t_hi in
  let cur = ref first in
  for _ = 2 to len do
    let r = Splitmix.int design 20 in
    let step =
      if r < 11 then Narrow else if r < 16 then Reissue else if r < 18 then Loosen else Swap_join
    in
    let next =
      match step with
      | Narrow -> narrow design !cur
      | Reissue -> List.nth !issued (Splitmix.int design (List.length !issued))
      | Loosen -> loosen design ~lowest_s_lo:!lowest_s_lo ~highest_t_hi:!highest_t_hi !cur
      | Swap_join -> swap_join !cur
    in
    lowest_s_lo := min !lowest_s_lo next.s_lo;
    highest_t_hi := max !highest_t_hi next.t_hi;
    issued := next :: !issued;
    cur := next
  done;
  List.rev_map text !issued

let session_scripts seed ~support ~scripts ~len =
  let values = stream seed 4 and design = design () in
  List.map (script design ~len) (openings ~design ~values ~support ~ranks:(300, 220) ~n:scripts)

(* The live analysts: [first] opening queries before the first seal;
   then per epoch [reissues] queries asked at the previous epoch (served
   from promoted answers), [narrowed] refinements of them, and the opening
   queries of [arrivals] new analysts.  Each new analyst sets a lower S
   floor than anyone before, so no cached side entails it: a cold mine. *)
let live_queries seed ~support ~epochs ~first ~reissues ~narrowed ~arrivals =
  let values = stream seed 5 and design = design () in
  let opening = openings ~design ~values ~support ~ranks:(280, 220) ~n:first in
  let floor = List.fold_left (fun a q -> min a q.s_lo) 1000 opening in
  let late =
    Array.of_list
      (List.mapi
         (fun j q -> { q with s_lo = max 0 (floor - (5 * (j + 1))) })
         (openings ~design ~values ~support ~ranks:(280, 220) ~n:(epochs * arrivals)))
  in
  let prev = ref (Array.of_list opening) in
  let per_epoch =
    List.init epochs (fun e ->
        let pick () = !prev.(Splitmix.int design (Array.length !prev)) in
        let again = List.init reissues (fun _ -> pick ()) in
        let next = List.init narrowed (fun _ -> narrow design (pick ())) in
        let epoch = again @ next @ List.init arrivals (fun i -> late.((e * arrivals) + i)) in
        prev := Array.of_list epoch;
        List.map text epoch)
  in
  (List.map text opening, per_epoch)
