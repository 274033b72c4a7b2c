open Cfq_itembase
open Cfq_txdb

type par = {
  domains : int;
  pool : Cfq_exec_pool.Pool.t option;
  min_rows_per_domain : int;
}

let default_min_rows_per_domain = 2048

let par ?pool ?(min_rows_per_domain = default_min_rows_per_domain) domains =
  { domains = max 1 domains; pool; min_rows_per_domain = max 1 min_rows_per_domain }

let sequential =
  { domains = 1; pool = None; min_rows_per_domain = default_min_rows_per_domain }

(* How many participants a region of [work_items] rows is worth: fanning a
   few hundred rows over domains costs more in spawn and merge than the
   rows themselves.  Equality with the sequential pass is unaffected —
   parallel regions are bit-identical at every width. *)
let eff_domains p ~work_items =
  let d = max 1 p.domains in
  if d = 1 || work_items <= 0 then 1
  else min d (max 1 (work_items / p.min_rows_per_domain))

(* ------------------------------------------------------------------ *)
(* Kernels                                                             *)
(* ------------------------------------------------------------------ *)

type kernel = Trie | Direct2

let kernel_name = function Trie -> "trie" | Direct2 -> "direct2"
let all_kernels = [ ("trie", Trie); ("direct2", Direct2) ]
let kernel_of_string s = List.assoc_opt s all_kernels

let direct2_budget_words = 1 lsl 22
let direct2_max_sparsity = 16

let direct2_admissible ~n_cands ~n_cells =
  n_cells <= direct2_budget_words && n_cells <= direct2_max_sparsity * max 1 n_cands

(* ------------------------------------------------------------------ *)
(* Sessions                                                            *)
(* ------------------------------------------------------------------ *)

type pass_counts = { trie_passes : int; direct2_passes : int }
type pass_shape = { shared_families : int; rows_skipped : int }

type session = {
  kernel : kernel;
  mutable last_fams : string list;
  mutable last_shape : pass_shape;
  mutable n_trie : int;
  mutable n_direct2 : int;
}

let create_session kernel =
  { kernel; last_fams = []; last_shape = { shared_families = 0; rows_skipped = 0 }; n_trie = 0; n_direct2 = 0 }

let last_kernels s = s.last_fams
let last_shape s = s.last_shape

let last_kernel s =
  match List.sort_uniq compare s.last_fams with
  | [] -> "trie"
  | ls -> String.concat "+" ls

let pass_counts s = { trie_passes = s.n_trie; direct2_passes = s.n_direct2 }

let describe s = Printf.sprintf "trie=%d direct2=%d" s.n_trie s.n_direct2

(* ------------------------------------------------------------------ *)
(* Family representations                                              *)
(* ------------------------------------------------------------------ *)

(* [R_hist items]: a family of singletons, read off the pass's shared item
   histogram; [items.(i)] is candidate [i]'s item.  [R_view d]: a pair
   family read off the pass's shared level-2 triangle, [d] being the
   shared layout's view of the family's candidates. *)
type rep = R_trie of Trie.t | R_d2 of Direct2.t | R_view of Direct2.t | R_hist of int array

let rep_label = function R_trie _ -> "trie" | R_d2 _ | R_view _ | R_hist _ -> "direct2"

let all_singletons cands =
  Array.length cands > 0 && Array.for_all (fun s -> Itemset.cardinal s = 1) cands

(* The triangle a family of pairs would count into on its own, when
   admissible; no candidate's cell is looked up yet. *)
let own_triangle cands =
  match Direct2.of_pairs cands with
  | Some t when direct2_admissible ~n_cands:(Array.length cands) ~n_cells:(Direct2.n_cells t) ->
      Some t
  | _ -> None

(* Two or more pair families with a triangle of their own share one over
   the items of all their candidates when it is admissible for their
   distinct candidates, so each row is ranked and its pairs incremented
   once for all of them.  Only those families join, so no label changes.
   The shared layout and each family's view of it, by family index. *)
let share_pairs families own =
  let pairs, triangles =
    List.split
      (List.filter_map
         (fun f -> Option.map (fun t -> (f, t)) own.(f))
         (List.init (Array.length own) Fun.id))
  in
  if List.compare_length_with pairs 2 < 0 then None
  else begin
    let u = Direct2.union triangles in
    let n_cells = Direct2.n_cells u in
    let total = List.fold_left (fun n f -> n + Array.length families.(f)) 0 pairs in
    (* the total bounds the distinct count, and bounds the cells
       [n_distinct] marks *)
    if not (direct2_admissible ~n_cands:total ~n_cells) then None
    else begin
      let views = List.map (fun f -> (f, Direct2.view u families.(f))) pairs in
      if direct2_admissible ~n_cands:(Direct2.n_distinct (List.map snd views)) ~n_cells then
        Some (u, views)
      else None
    end
  end

(* Under [Direct2]: the histogram for a singleton family, a view of the
   shared triangle or a triangle of its own for a pair family, and a trie
   for the rest. *)
let direct2_reps families =
  let own = Array.map own_triangle families in
  let shared = share_pairs families own in
  let reps =
    Array.mapi
      (fun f cands ->
        if all_singletons cands then R_hist (Array.map (fun s -> Itemset.get s 0) cands)
        else
          match (own.(f), shared) with
          | Some _, Some (_, views) -> R_view (List.assoc f views)
          | Some t, None -> R_d2 (Direct2.view t cands)
          | None, _ -> R_trie (Trie.build cands))
      families
  in
  (reps, Option.map fst shared)

(* A pass's plan, built once on the coordinator and never mutated, so one
   plan serves every domain and every shard. *)
type plan = {
  reps : rep array;  (* one per family *)
  hist_size : int;  (* 1 + the largest histogram candidate item; 0 if none *)
  shared : Direct2.t option;  (* the triangle every [R_view] family reads *)
  keep : Bytes.t;
      (* row trimming: 1 at every item of some candidate, 0 elsewhere; empty
         when rows are walked whole *)
  min_k : int;  (* row trimming: the smallest candidate cardinality *)
}

(* DHP-style trimming: when every family is a trie of sets of at least two
   items, an item that occurs in no candidate cannot complete one, and a
   row with fewer than [min_k] candidate items contains none. *)
let trim_of families reps =
  let min_k =
    Array.fold_left (Array.fold_left (fun k s -> min k (Itemset.cardinal s))) max_int families
  in
  if min_k < 2 || not (Array.for_all (function R_trie _ -> true | _ -> false) reps) then
    (Bytes.empty, 0)
  else begin
    let size =
      Array.fold_left
        (Array.fold_left (fun m s ->
             match Itemset.max_item s with Some i -> max m (i + 1) | None -> m))
        0 families
    in
    let keep = Bytes.make size '\000' in
    Array.iter (Array.iter (Itemset.iter (fun i -> Bytes.set keep i '\001'))) families;
    (keep, min_k)
  end

let plan_of kernel families =
  let families = Array.of_list families in
  let reps, shared, (keep, min_k) =
    match kernel with
    | Trie -> (Array.map (fun c -> R_trie (Trie.build c)) families, None, (Bytes.empty, 0))
    | Direct2 ->
        let reps, shared = direct2_reps families in
        (reps, shared, trim_of families reps)
  in
  let hist_size =
    Array.fold_left
      (fun acc rep ->
        match rep with
        | R_hist items -> Array.fold_left (fun m i -> max m (i + 1)) acc items
        | _ -> acc)
      0 reps
  in
  { reps; hist_size; shared; keep; min_k }

(* One participant's accumulators: the item histogram, the shared
   triangle's cells ([||] without one), one array per family ([||] for a
   histogram or shared-triangle family), the trimmed-row scratch and the
   count of rows trimming skipped. *)
type local = {
  hist : int array;
  shared_cells : int array;
  accs : int array array;
  scr : Direct2.scratch;
  mutable row : int array;
  mutable skipped : int;
}

let local_of p =
  {
    hist = Array.make p.hist_size 0;
    shared_cells = (match p.shared with Some d -> Direct2.init_cells d | None -> [||]);
    accs =
      Array.map
        (function
          | R_trie t -> Array.make (Trie.n_candidates t) 0
          | R_d2 d -> Direct2.init_cells d
          | R_view _ | R_hist _ -> [||])
        p.reps;
    scr = Direct2.scratch ();
    row = (if Bytes.length p.keep > 0 then Array.make 64 0 else [||]);
    skipped = 0;
  }

(* A trimmed row: the candidate items of [items.(off) .. items.(off + len
   - 1)] are copied into the participant's scratch, and every trie walks
   the copy, or nothing when fewer than [min_k] remain. *)
let count_trimmed p st items off len =
  if off < 0 || len < 0 || off + len > Array.length items then
    invalid_arg "Counting.count_trimmed";
  if Array.length st.row < len then st.row <- Array.make (max len (2 * Array.length st.row)) 0;
  let row = st.row and keep = p.keep in
  let kn = Bytes.length keep and n = off + len in
  (* branch-free: every item is stored, and the cursor advances by its
     keep byte (0 or 1) *)
  let m = ref 0 and j = ref off in
  while !j < n && Array.unsafe_get items !j < kn do
    let i = Array.unsafe_get items !j in
    Array.unsafe_set row !m i;
    m := !m + Char.code (Bytes.unsafe_get keep i);
    incr j
  done;
  let m = !m in
  if m < p.min_k then st.skipped <- st.skipped + 1
  else
    for f = 0 to Array.length p.reps - 1 do
      match Array.unsafe_get p.reps f with
      | R_trie t -> Trie.count_row t (Array.unsafe_get st.accs f) row 0 m
      | R_d2 _ | R_view _ | R_hist _ -> ()
    done

(* A whole row.  The row is [items.(off) .. items.(off + len - 1)]; items
   are non-negative and ascend, so the histogram stops at the first item
   past its end. *)
let count_row p st items off len =
  if off < 0 || len < 0 || off + len > Array.length items then
    invalid_arg "Counting.count_row";
  let hist = st.hist in
  let hn = Array.length hist and n = off + len in
  let j = ref off in
  while !j < n && Array.unsafe_get items !j < hn do
    let i = Array.unsafe_get items !j in
    Array.unsafe_set hist i (Array.unsafe_get hist i + 1);
    incr j
  done;
  (match p.shared with
  | Some d -> Direct2.count_row d st.shared_cells st.scr items off len
  | None -> ());
  for f = 0 to Array.length p.reps - 1 do
    match Array.unsafe_get p.reps f with
    | R_trie t -> Trie.count_row t (Array.unsafe_get st.accs f) items off len
    | R_d2 d -> Direct2.count_row d (Array.unsafe_get st.accs f) st.scr items off len
    | R_view _ | R_hist _ -> ()
  done

(* The participant's row callback, chosen once per pass: it allocates
   nothing. *)
let row_fn p st =
  if Bytes.length p.keep > 0 then fun items off len -> count_trimmed p st items off len
  else fun items off len -> count_row p st items off len

(* merge by addition: int addition is order-independent, so any merge
   order gives the sequential totals exactly *)
let add_into total local =
  let add dst src = Array.iteri (fun i v -> dst.(i) <- dst.(i) + v) src in
  add total.hist local.hist;
  add total.shared_cells local.shared_cells;
  Array.iter2 add total.accs local.accs;
  total.skipped <- total.skipped + local.skipped

(* per-family counts in candidate order *)
let extract p st =
  Array.to_list
    (Array.mapi
       (fun f rep ->
         match rep with
         | R_trie _ -> st.accs.(f)
         | R_d2 d -> Direct2.extract d st.accs.(f)
         | R_view v -> Direct2.extract v st.shared_cells
         | R_hist items -> Array.map (fun i -> st.hist.(i)) items)
       p.reps)

(* ------------------------------------------------------------------ *)
(* The scan loop                                                       *)
(* ------------------------------------------------------------------ *)

(* One charged pass over [db] counting every family of the plan; returns
   the participant's accumulators.  Every representation walks the same
   pages in the same order, so the page, checksum and fault walk is the
   same for every kernel.  ccc support-counted is charged by
   [count_shared] before the scan, per candidate and kernel-independent by
   construction. *)
let scan_count ~par db io p =
  let domains = eff_domains par ~work_items:(Tx_db.size db) in
  if domains = 1 then begin
    let st = local_of p in
    Tx_db.scan_rows db io (row_fn p st);
    st
  end
  else begin
    (* one logical scan: the coordinator validates every page here — same
       fault/checksum walk, same injector draw order as [scan_rows] — then
       the chunks fan out to participants counting into private arrays *)
    Tx_db.begin_scan db io;
    let chunks = Array.of_list (Tx_db.scan_chunks db ~max_chunks:(4 * domains)) in
    let locals =
      Cfq_exec_pool.Pool.fan_out ?pool:par.pool ~domains ~n_tasks:(Array.length chunks)
        ~init:(fun () -> local_of p)
        ~work:(fun st c ->
          let lo, hi = chunks.(c) in
          Tx_db.rows db ~lo ~hi (row_fn p st))
        ()
    in
    (* merge in participant-slot order *)
    let total = local_of p in
    List.iter (add_into total) locals;
    total
  end

(* ------------------------------------------------------------------ *)
(* Count distribution over sharded composites                          *)
(* ------------------------------------------------------------------ *)

(* Candidate supports are additive over a partition of the transactions,
   so each shard counts every candidate against its own slice and the
   coordinator's elementwise sum is the exact global support — the classic
   count-distribution scheme.  The caller is charged one logical composite
   scan per pass (same as the sequential path on the same composite); each
   shard's local I/O lands in its [Tx_db.shard_io] sink.  Every shard reads
   the coordinator's plan. *)
let distributed ~par db subs io p =
  let ns = Array.length subs in
  (* any injector — on the composite, a shard or a replica behind a shard's
     failover view — keeps the shards in their deterministic index order,
     so the first failing shard wins and the draw sequence repeats *)
  let faulted = Tx_db.backend_faulted db || Array.exists Tx_db.backend_faulted subs in
  (* one logical scan for the whole composite pass; with composite-level
     faults installed this runs the full page/checksum walk, drawing the
     same injector decisions as a sequential scan of the same composite *)
  Tx_db.begin_scan db io;
  let sh_io = Tx_db.shard_io db in
  let run_shard k =
    try scan_count ~par:sequential subs.(k) sh_io.(k) p
    with Cfq_error.Error e ->
      (* shard-local error pages -> composite coordinates *)
      let base = Tx_db.shard_page_base db k in
      let e =
        match e with
        | Cfq_error.Transient_io { page } -> Cfq_error.Transient_io { page = page + base }
        | Cfq_error.Corrupt_page { page } -> Cfq_error.Corrupt_page { page = page + base }
        | e -> e
      in
      Cfq_error.raise_error e
  in
  let per_shard = Array.make ns None in
  if faulted || max 1 par.domains = 1 then
    for k = 0 to ns - 1 do
      per_shard.(k) <- Some (run_shard k)
    done
  else
    ignore
      (Cfq_exec_pool.Pool.fan_out ?pool:par.pool ~domains:par.domains ~n_tasks:ns
         ~init:(fun () -> ())
         ~work:(fun () k -> per_shard.(k) <- Some (run_shard k))
         ()
        : unit list);
  (* merge in shard order: exact global supports are the per-shard
     partial sums *)
  let total = local_of p in
  Array.iter (fun st -> add_into total (Option.get st)) per_shard;
  total

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)
(* ------------------------------------------------------------------ *)

let count_shared ?(par = sequential) ?session db io families =
  (* the ccc charge: one support-counted tick per candidate, before the
     scan, so it is identical for every kernel *)
  List.iter
    (fun (counters, cands) -> Counters.add_support_counted counters (Array.length cands))
    families;
  let n_cands = List.fold_left (fun acc (_, cands) -> acc + Array.length cands) 0 families in
  if n_cands = 0 then
    (* nothing to count anywhere: skip the scan and charge no I/O *)
    List.map (fun (_, cands) -> Array.make (Array.length cands) 0) families
  else begin
    let kernel = match session with Some s -> s.kernel | None -> Trie in
    let p = plan_of kernel (List.map snd families) in
    let total =
      match Tx_db.shards db with
      | Some subs when Array.length subs > 1 -> distributed ~par db subs io p
      | _ -> scan_count ~par db io p
    in
    (* logical passes: a distributed pass counts once, like the composite's
       one charged scan, so the same mine reports the same counts on every
       backend *)
    (match session with
    | Some s ->
        let labels = Array.to_list (Array.map rep_label p.reps) in
        s.last_fams <- labels;
        s.last_shape <-
          {
            shared_families =
              Array.fold_left (fun n r -> match r with R_view _ -> n + 1 | _ -> n) 0 p.reps;
            rows_skipped = total.skipped;
          };
        if List.mem "direct2" labels then s.n_direct2 <- s.n_direct2 + 1;
        if List.mem "trie" labels then s.n_trie <- s.n_trie + 1
    | None -> ());
    extract p total
  end

let count_level ?par ?session db io counters cands =
  match count_shared ?par ?session db io [ (counters, cands) ] with
  | [ counts ] -> counts
  | _ -> assert false

let count_sets db io cands =
  let p = plan_of Trie [ cands ] in
  match extract p (scan_count ~par:sequential db io p) with
  | [ counts ] -> counts
  | _ -> assert false
