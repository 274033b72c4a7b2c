open Cfq_itembase
open Cfq_txdb

type side = {
  old_frequent : Frequent.t;
  old_minsup : int;
  union_minsup : int;
  max_level : int option;
}

type 'a outcome = {
  frequent : 'a;
  old_scans : int;
  counted_against_old : int;
}

let ceil_frac frac n = max 1 (int_of_float (Float.ceil (frac *. float_of_int n)))

(* A deduplicating registry of sets: each distinct set gets one slot, so a
   set shared by many sides is counted once. *)
type registry = { slots : int Itemset.Hashtbl.t; mutable sets : Itemset.t list }

let registry () = { slots = Itemset.Hashtbl.create 1024; sets = [] }

let slot r set =
  match Itemset.Hashtbl.find_opt r.slots set with
  | Some i -> i
  | None ->
      let i = Itemset.Hashtbl.length r.slots in
      Itemset.Hashtbl.add r.slots set i;
      r.sets <- set :: r.sets;
      i

let registered r = Array.of_list (List.rev r.sets)

let within cap set =
  match cap with None -> true | Some k -> Itemset.cardinal set <= k

(* per-level observability of the shared pass: candidates = distinct old
   sets delta-counted plus distinct seeded newcomers, frequent = distinct
   sets that won for at least one side; the kernel tag distinguishes the
   pure delta pass ("fup-delta") from a level that also paid the
   old-database count ("fup-old") *)
let record_levels lstats ~old_sets ~old_won ~new_sets ~new_won =
  let levels = Hashtbl.create 8 in
  let bump set ~fresh ~won =
    let k = Itemset.cardinal set in
    let o, n, f = Option.value ~default:(0, 0, 0) (Hashtbl.find_opt levels k) in
    let o, n = if fresh then (o, n + 1) else (o + 1, n) in
    Hashtbl.replace levels k (o, n, if won then f + 1 else f)
  in
  Array.iteri (fun i set -> bump set ~fresh:false ~won:old_won.(i)) old_sets;
  Array.iteri (fun i set -> bump set ~fresh:true ~won:new_won.(i)) new_sets;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) levels []
  |> List.sort compare
  |> List.iter (fun (level, (o, n, f)) ->
         Level_stats.record lstats
           {
             Level_stats.level;
             candidates = o + n;
             counted = o + n;
             frequent = f;
             kernel = (if n > 0 then "fup-old" else "fup-delta");
           })

let update_abs ?par ?session ?stats ~old_db ~delta io ~universe_size sides =
  List.iter
    (fun s ->
      if s.union_minsup < s.old_minsup then
        invalid_arg "Incremental.update_abs: union_minsup < old_minsup")
    sides;
  if sides = [] then { frequent = []; old_scans = 0; counted_against_old = 0 }
  else begin
    let sides = Array.of_list sides in
    (* the one delta pass: its tid sets count every old set and seed every
       side's newcomers *)
    let tids = Tidset.of_db delta io ~universe_size in
    (* 1. every distinct old set, counted once in the increment *)
    let olds = registry () in
    let old_slots =
      Array.map
        (fun s ->
          Frequent.fold
            (fun acc e -> (slot olds e.Frequent.set, e) :: acc)
            [] s.old_frequent)
        sides
    in
    let old_sets = registered olds in
    let delta_counts = Tidset.supports tids old_sets in
    let old_won = Array.make (Array.length old_sets) false in
    let winners =
      Array.mapi
        (fun i s ->
          List.fold_left
            (fun acc (j, (e : Frequent.entry)) ->
              let support = delta_counts.(j) + e.Frequent.support in
              if support >= s.union_minsup then begin
                old_won.(j) <- true;
                { Frequent.set = e.Frequent.set; support } :: acc
              end
              else acc)
            [] old_slots.(i))
        sides
    in
    (* 2. a set that was not frequent in a side's old collection needs at
       least [union_minsup - old_minsup + 1] support inside the increment
       to be frequent overall; one mine at the lowest such threshold seeds
       every side exactly *)
    let seed_threshold s = max 1 (s.union_minsup - (s.old_minsup - 1)) in
    let min_threshold =
      Array.fold_left (fun m s -> min m (seed_threshold s)) max_int sides
    in
    let seeds =
      Frequent.to_list (Tidset.mine tids ~minsup:min_threshold)
      |> List.stable_sort (fun (a : Frequent.entry) b ->
             compare b.support a.support)
      |> Array.of_list
    in
    let news = registry () in
    let new_slots =
      Array.map
        (fun s ->
          let t = seed_threshold s in
          let rec take acc j =
            if j >= Array.length seeds || seeds.(j).Frequent.support < t then acc
            else
              let e = seeds.(j) in
              let acc =
                if
                  Frequent.mem s.old_frequent e.Frequent.set
                  || not (within s.max_level e.Frequent.set)
                then acc
                else (slot news e.Frequent.set, e) :: acc
              in
              take acc (j + 1)
          in
          take [] 0)
        sides
    in
    let new_sets = registered news in
    (* 3. one old-database scan counts every side's newcomers, and none
       is paid when there are none ([count_pass] skips an empty pass).  If
       it fails, only the sides that needed it fail: the rest are already
       decided by the delta alone. *)
    let old_counts =
      match
        Counting.count_pass ?par ?session old_db io
          [ (Counters.create (), Candidate.Sets new_sets) ]
      with
      | [ s ] -> Ok (Counting.counts s)
      | _ -> assert false
      | exception e -> Error e
    in
    let new_won = Array.make (Array.length new_sets) false in
    let frequent =
      Array.to_list
        (Array.mapi
           (fun i s ->
             match (new_slots.(i), old_counts) with
             | [], _ -> Ok (Frequent.of_entries winners.(i))
             | _ :: _, Error e -> Error e
             | slots, Ok counts ->
                 (* the delta supports of the seeds are exact *)
                 List.fold_left
                   (fun acc (j, (e : Frequent.entry)) ->
                     let support = counts.(j) + e.Frequent.support in
                     if support >= s.union_minsup then begin
                       new_won.(j) <- true;
                       { Frequent.set = e.Frequent.set; support } :: acc
                     end
                     else acc)
                   winners.(i) slots
                 |> Frequent.of_entries
                 |> Result.ok)
           sides)
    in
    Option.iter
      (fun lstats -> record_levels lstats ~old_sets ~old_won ~new_sets ~new_won)
      stats;
    {
      frequent;
      old_scans = (if Array.length new_sets > 0 then 1 else 0);
      counted_against_old = Array.length new_sets;
    }
  end

(* The collection was mined at absolute threshold [m] over [base] rows, so
   it answers every fraction f with ceil(f·base) >= m, i.e. f > (m-1)/base.
   For those f over the union, ceil(f·union) > (m-1)·union/base, hence
   >= floor((m-1)·union/base) + 1 — promoting to that threshold keeps every
   previously answerable fraction answerable.  It is >= m (union >= base),
   so the FUP seeding threshold stays positive. *)
let promoted_minsup ~old_minsup ~base_txs ~union_txs =
  if base_txs = 0 then max 1 old_minsup
  else max old_minsup (((old_minsup - 1) * union_txs / base_txs) + 1)

let update ~old_db ~old_frequent ~delta io ~minsup_frac ~universe_size =
  let n_old = Tx_db.size old_db and n_delta = Tx_db.size delta in
  let old_minsup = ceil_frac minsup_frac n_old in
  let union_minsup = ceil_frac minsup_frac (n_old + n_delta) in
  (* a shrinking fraction could in principle lower the union threshold below
     the old one; FUP's seeding argument needs it monotone *)
  let union_minsup = max union_minsup old_minsup in
  let out =
    update_abs ~old_db ~delta io ~universe_size
      [ { old_frequent; old_minsup; union_minsup; max_level = None } ]
  in
  match out.frequent with
  | [ Ok frequent ] -> { out with frequent }
  | [ Error e ] -> raise e
  | _ -> assert false
