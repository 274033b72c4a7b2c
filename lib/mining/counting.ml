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
  mutable last_shape : pass_shape;
  mutable n_trie : int;
  mutable n_direct2 : int;
}

let create_session kernel =
  { kernel; last_shape = { shared_families = 0; rows_skipped = 0 }; n_trie = 0; n_direct2 = 0 }

let last_shape s = s.last_shape
let pass_counts s = { trie_passes = s.n_trie; direct2_passes = s.n_direct2 }

let describe_counts c = Printf.sprintf "trie=%d direct2=%d" c.trie_passes c.direct2_passes
let describe s = describe_counts (pass_counts s)

(* ------------------------------------------------------------------ *)
(* Family representations                                              *)
(* ------------------------------------------------------------------ *)

(* [R_trie (t, sets)]: the trie of [sets], the family's candidates or an
   implicit family's expansion.  [R_hist items]: a singleton family, read
   off the pass's shared item histogram; [items.(i)] is candidate [i]'s
   item.  [R_tri d]: a pair family counted into a triangle of its own.
   [R_shared]: a pair family read off the pass's shared triangle. *)
type rep = R_trie of Trie.t * Itemset.t array | R_hist of int array | R_tri of Direct2.t | R_shared

let trie_of sets = R_trie (Trie.build sets, sets)

let all_singletons cands =
  Array.length cands > 0 && Array.for_all (fun s -> Itemset.cardinal s = 1) cands

(* A family under [Direct2], before sharing is decided: the histogram, a
   triangle over [items] when admissible, or the trie.  An implicit pair
   family ranks all its items, as its expansion would. *)
type choice = Hist of int array | Tri of Item.t array | Tried of Itemset.t array

let choose fam =
  let tri items =
    let n_cells =
      match Candidate.witnesses fam with
      | Some witnesses -> Direct2.n_witness_cells ~items ~witnesses
      | None ->
          let r = Array.length items in
          r * (r - 1) / 2
    in
    direct2_admissible ~n_cands:(Candidate.count fam) ~n_cells
  in
  match fam with
  | _ when Candidate.count fam = 0 -> Tried [||]
  | Candidate.Items items -> Hist items
  | (Candidate.Sets cands | Candidate.Witness_sets { sets = cands; _ }) when all_singletons cands ->
      Hist (Array.map (fun s -> Itemset.get s 0) cands)
  | Candidate.Sets cands | Candidate.Witness_sets { sets = cands; _ } -> (
      match Direct2.pair_items cands with
      | Some items when tri items -> Tri items
      | _ -> Tried cands)
  | Candidate.Pairs items | Candidate.Witness_pairs { items; _ } ->
      if tri items then Tri items else Tried (Candidate.to_sets fam)

(* The witnesses a layout over [fams] may restrict itself to: their union
   when every family has them, so every candidate holds one ([None] when
   some family counts pairs without one). *)
let union_witnesses fams =
  let ws = List.map Candidate.witnesses fams in
  if List.mem None ws then None else Some (Array.concat (List.map Option.get ws))

(* Two or more pair families with a triangle of their own share one over
   the items of all of them when it is admissible for their distinct
   candidates (duplicates once), so each row is ranked and its pairs
   incremented once for all of them.  Only those families join, so no
   label changes.  When every one of them has witnesses, they share the
   rectangle of the union of their witnesses instead. *)
let share fams choices =
  let tris =
    List.filter_map
      (fun f -> match choices.(f) with Tri items -> Some (fams.(f), items) | _ -> None)
      (List.init (Array.length fams) Fun.id)
  in
  if List.compare_length_with tris 2 < 0 then None
  else begin
    let u = Direct2.of_items ?witnesses:(union_witnesses (List.map fst tris)) (List.map snd tris) in
    let admissible n_cands = direct2_admissible ~n_cands ~n_cells:(Direct2.n_cells u) in
    let n_distinct () =
      let seen = Bytes.make (Direct2.n_cells u) '\000' and n = ref 0 in
      let mark c =
        if Bytes.get seen c = '\000' then begin
          Bytes.set seen c '\001';
          incr n
        end
      in
      List.iter
        (fun (fam, items) ->
          match fam with
          | Candidate.Sets cands | Candidate.Witness_sets { sets = cands; _ } ->
              Array.iter (fun s -> mark (Direct2.cell u (Itemset.get s 0) (Itemset.get s 1))) cands
          | form ->
              let rk = Direct2.ranks u items in
              Candidate.iter_pairs form (fun i j -> mark (Direct2.rank_cell u rk.(i) rk.(j))))
        tris;
      !n
    in
    (* the distinct count lies between the largest implicit family (whose
       candidates are distinct) and the total *)
    let lo, total =
      List.fold_left
        (fun (lo, total) (fam, _) ->
          let n = Candidate.count fam in
          ((match fam with Candidate.Sets _ | Candidate.Witness_sets _ -> lo | _ -> max lo n), total + n))
        (0, 0) tris
    in
    if admissible total && (admissible lo || admissible (n_distinct ())) then Some u else None
  end

(* a family's own triangle, or rectangle when it has witnesses *)
let tri_of fam items = Direct2.of_items ?witnesses:(Candidate.witnesses fam) [ items ]

let direct2_reps fams =
  let choices = Array.map choose fams in
  let shared = share fams choices in
  let reps =
    Array.mapi
      (fun f -> function
        | Hist items -> R_hist items
        | Tri items -> if shared = None then R_tri (tri_of fams.(f) items) else R_shared
        | Tried sets -> trie_of sets)
      choices
  in
  (reps, shared)

(* A pass's plan, built once on the coordinator and never mutated, so one
   plan serves every domain and every shard. *)
type plan = {
  fams : Candidate.t array;
  reps : rep array;  (* one per family *)
  hist_size : int;  (* 1 + the largest histogram candidate item; 0 if none *)
  shared : Direct2.t option;  (* the triangle every [R_shared] family reads *)
  keep : Bytes.t;
      (* row trimming: 1 at every item of some candidate, 0 elsewhere; empty
         when rows are walked whole *)
  min_k : int;  (* row trimming: the smallest candidate cardinality *)
  unit_bit : int array;
      (* witness skipping: family [f]'s bit, set in [wit] at its witnesses
         and tested against a row's bits, or 0 when the family counts
         every row *)
  shared_bit : int;  (* the shared triangle's bit, 0 when unrestricted *)
  wit : int array;  (* item -> the bits of the units it is a witness of *)
  restricted : int;  (* the bits of every restricted unit; 0: no skipping *)
  always : bool;  (* some unit counts every row, so no row is skipped whole *)
}

(* DHP-style trimming: when every family is a trie of sets of at least two
   items, an item that occurs in no candidate cannot complete one, and a
   row with fewer than [min_k] candidate items contains none. *)
let trim_of reps =
  let sets = List.filter_map (function R_trie (_, s) -> Some s | _ -> None) (Array.to_list reps) in
  let min_k = List.fold_left (Array.fold_left (fun k s -> min k (Itemset.cardinal s))) max_int sets in
  if min_k < 2 || not (Array.for_all (function R_trie _ -> true | _ -> false) reps) then
    (Bytes.empty, 0)
  else begin
    let size =
      List.fold_left
        (Array.fold_left (fun m s ->
             match Itemset.max_item s with Some i -> max m (i + 1) | None -> m))
        0 sets
    in
    let keep = Bytes.make size '\000' in
    List.iter (Array.iter (Itemset.iter (fun i -> Bytes.set keep i '\001'))) sets;
    (keep, min_k)
  end

(* Witness skipping, under [Direct2]: a family of a witness form with a
   trie or a layout of its own is a unit with a bit of its own, and so is
   the shared layout when every family it serves has witnesses; a row
   holding none of a unit's witnesses cannot support any of its
   candidates, so that unit skips it.  A row's bits are the union of its
   items' bits in [wit].  Families past the 60th, and the histogram,
   count every row. *)
let shared_unit = 1 lsl 61

let witness_units fams reps shared =
  let unit_bit =
    Array.mapi
      (fun f rep ->
        match rep with
        | (R_trie _ | R_tri _) when f < 60 && Candidate.witnesses fams.(f) <> None -> 1 lsl f
        | _ -> 0)
      reps
  in
  (* the union of the witnesses of the families whose representation
     [served] picks, when there are some and every one has witnesses *)
  let served_by served =
    match List.filter (fun f -> served reps.(f)) (List.init (Array.length reps) Fun.id) with
    | [] -> None
    | fs -> union_witnesses (List.map (Array.get fams) fs)
  in
  let shared_witnesses =
    match shared with
    | Some d when Direct2.restricted d -> served_by (fun r -> r = R_shared)
    | _ -> None
  in
  let shared_bit = if shared_witnesses = None then 0 else shared_unit in
  let units =
    List.concat
      (Array.to_list
         (Array.mapi
            (fun f b ->
              if b = 0 then []
              else [ (b, Option.get (Candidate.witnesses fams.(f))) ])
            unit_bit))
    @ match shared_witnesses with Some ws -> [ (shared_unit, ws) ] | None -> []
  in
  let size = List.fold_left (fun m (_, ws) -> Array.fold_left (fun m w -> max m (w + 1)) m ws) 0 units in
  let wit = Array.make size 0 in
  List.iter (fun (b, ws) -> Array.iter (fun w -> if w >= 0 then wit.(w) <- wit.(w) lor b) ws) units;
  let restricted = List.fold_left (fun r (b, _) -> r lor b) 0 units in
  let always =
    Array.exists2
      (fun rep b ->
        match rep with
        | R_hist _ -> true
        | R_trie (_, sets) -> b = 0 && Array.length sets > 0
        | R_tri _ -> b = 0
        | R_shared -> false)
      reps unit_bit
    || (shared <> None && shared_bit = 0)
  in
  (unit_bit, shared_bit, wit, restricted, always)

let plan_of kernel fams =
  let fams = Array.of_list fams in
  let reps, shared, (keep, min_k) =
    match kernel with
    | Trie -> (Array.map (fun c -> trie_of (Candidate.to_sets c)) fams, None, (Bytes.empty, 0))
    | Direct2 ->
        let reps, shared = direct2_reps fams in
        (reps, shared, trim_of reps)
  in
  let hist_size =
    Array.fold_left
      (fun acc rep ->
        match rep with
        | R_hist items -> Array.fold_left (fun m i -> max m (i + 1)) acc items
        | _ -> acc)
      0 reps
  in
  let unit_bit, shared_bit, wit, restricted, always =
    match kernel with
    | Trie -> (Array.make (Array.length fams) 0, 0, [||], 0, true)
    | Direct2 -> witness_units fams reps shared
  in
  {
    fams;
    reps;
    hist_size;
    shared;
    keep;
    min_k;
    unit_bit;
    shared_bit;
    wit;
    restricted;
    always;
  }

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
          | R_trie (t, _) -> Array.make (Trie.n_candidates t) 0
          | R_tri d -> Direct2.init_cells d
          | R_shared | R_hist _ -> [||])
        p.reps;
    scr = Direct2.scratch ();
    row = (if Bytes.length p.keep > 0 then Array.make 64 0 else [||]);
    skipped = 0;
  }

(* The union of the witness bits of the row's items: bit [b] is set when
   the row holds a witness of the unit [b]. *)
let row_bits p items off n =
  let wit = p.wit in
  let wn = Array.length wit in
  let bits = ref 0 and j = ref off in
  while !j < n && Array.unsafe_get items !j < wn do
    bits := !bits lor Array.unsafe_get wit (Array.unsafe_get items !j);
    incr j
  done;
  !bits

(* whether a unit of bit [b] counts a row of bits [bits] *)
let unit_counts b bits = b = 0 || bits land b <> 0

(* A trimmed row: the candidate items of [items.(off) .. items.(off + len
   - 1)] are copied into the participant's scratch, and every trie walks
   the copy, or nothing when fewer than [min_k] remain; a trie of a
   witness form walks only a row whose [bits] hold its own. *)
let count_trimmed p st items off len bits =
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
      | R_trie (t, _) ->
          if unit_counts (Array.unsafe_get p.unit_bit f) bits then
            Trie.count_row t (Array.unsafe_get st.accs f) row 0 m
      | R_tri _ | R_shared | R_hist _ -> ()
    done

(* A whole row.  The row is [items.(off) .. items.(off + len - 1)]; items
   are non-negative and ascend, so the histogram stops at the first item
   past its end.  A unit of a witness form counts only a row whose [bits]
   hold its own. *)
let count_row p st items off len bits =
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
  | Some d when unit_counts p.shared_bit bits -> Direct2.count_row d st.shared_cells st.scr items off len
  | Some _ | None -> ());
  for f = 0 to Array.length p.reps - 1 do
    if unit_counts (Array.unsafe_get p.unit_bit f) bits then
      match Array.unsafe_get p.reps f with
      | R_trie (t, _) -> Trie.count_row t (Array.unsafe_get st.accs f) items off len
      | R_tri d -> Direct2.count_row d (Array.unsafe_get st.accs f) st.scr items off len
      | R_shared | R_hist _ -> ()
  done

(* The participant's row callback, chosen once per pass: it allocates
   nothing.  A pass with witness units first takes the row's bits, and
   skips a row no unit counts. *)
let row_fn p st =
  let witness count items off len =
    if off < 0 || len < 0 || off + len > Array.length items then invalid_arg "Counting.row_fn";
    let bits = row_bits p items off (off + len) in
    if (not p.always) && bits land p.restricted = 0 then st.skipped <- st.skipped + 1
    else count p st items off len bits
  in
  match (Bytes.length p.keep > 0, p.restricted = 0) with
  | true, true -> fun items off len -> count_trimmed p st items off len (-1)
  | false, true -> fun items off len -> count_row p st items off len (-1)
  | true, false -> witness count_trimmed
  | false, false -> witness count_row

(* merge by addition: int addition is order-independent, so any merge
   order gives the sequential totals exactly *)
let add_into total local =
  let add dst src = Array.iteri (fun i v -> dst.(i) <- dst.(i) + v) src in
  add total.hist local.hist;
  add total.shared_cells local.shared_cells;
  Array.iter2 add total.accs local.accs;
  total.skipped <- total.skipped + local.skipped

(* ------------------------------------------------------------------ *)
(* Supports                                                            *)
(* ------------------------------------------------------------------ *)

(* A family's counted supports: its kernel label and the supports of
   candidates [0 .. n-1] with the set of candidate [i] (listed sets, an
   implicit family's expansion, or singletons boxed on demand), or an
   implicit pair family with the triangle it was counted into. *)
type supports =
  | Counted of string * (int -> Itemset.t) * int array
  | Cells of Candidate.t * Direct2.t * int array

let label = function Counted (l, _, _) -> l | Cells _ -> "direct2"

let n_supports = function
  | Counted (_, _, c) -> Array.length c
  | Cells (form, _, _) -> Candidate.count form

let counts = function
  | Counted (_, _, c) -> c
  | Cells _ -> invalid_arg "Counting.counts: an implicit family"

let frequent s ~minsup =
  let out = ref [] in
  let keep set support = out := { Frequent.set; support } :: !out in
  match s with
  | Counted (_, set, counts) ->
      Array.iteri (fun i c -> if c >= minsup then keep (set i) c) counts;
      let entries = Array.of_list !out in
      Array.sort (fun a b -> Itemset.compare a.Frequent.set b.Frequent.set) entries;
      entries
  | Cells (form, d, cells) ->
      (* row by row, in [Itemset.compare] order: row [i]'s cells sit at
         [row_base rk.(i) + rk.(j)], contiguous when the family's items are
         the layout's.  A candidate needs a witness on either side. *)
      let items = Candidate.items form and marked = Candidate.witness_mask form in
      let rk = Direct2.ranks d items in
      let n = Array.length items in
      if Array.length cells < Direct2.n_cells d then invalid_arg "Counting.frequent: cells";
      (* the positions of the witnesses, and for each position the first
         of them after it *)
      let wpos = Array.of_list (List.filter (Array.get marked) (List.init n Fun.id)) in
      let first_after = Array.make n 0 in
      let q = ref 0 in
      for i = 0 to n - 1 do
        while !q < Array.length wpos && wpos.(!q) <= i do
          incr q
        done;
        first_after.(i) <- !q
      done;
      for i = 0 to n - 2 do
        if Direct2.row_contiguous d rk.(i) then begin
          let base = Direct2.row_base d rk.(i) and all = marked.(i) in
          for j = i + 1 to n - 1 do
            let c = Array.unsafe_get cells (base + Array.unsafe_get rk j) in
            if c >= minsup && (all || Array.unsafe_get marked j) then
              keep (Itemset.unsafe_of_sorted_array [| items.(i); items.(j) |]) c
          done
        end
        else
          (* a rectangle's non-witness: its pairs sit in the rows of the
             later witnesses *)
          for q = first_after.(i) to Array.length wpos - 1 do
            let j = wpos.(q) in
            let c = Array.unsafe_get cells (Direct2.rank_cell d rk.(i) rk.(j)) in
            if c >= minsup then keep (Itemset.unsafe_of_sorted_array [| items.(i); items.(j) |]) c
          done
      done;
      Array.of_list (List.rev !out)

(* per-family supports *)
let extract p st =
  let read d cells = function
    | Candidate.Sets cands | Candidate.Witness_sets { sets = cands; _ } ->
        Counted
          ( "direct2",
            Array.get cands,
            Array.map (fun s -> cells.(Direct2.cell d (Itemset.get s 0) (Itemset.get s 1))) cands )
    | form -> Cells (form, d, cells)
  in
  Array.to_list
    (Array.mapi
       (fun f rep ->
         match rep with
         | R_trie (_, sets) -> Counted ("trie", Array.get sets, st.accs.(f))
         | R_hist items ->
             Counted
               ( "direct2",
                 (fun k -> Itemset.singleton items.(k)),
                 Array.map (fun i -> st.hist.(i)) items )
         | R_tri d -> read d st.accs.(f) p.fams.(f)
         | R_shared -> read (Option.get p.shared) st.shared_cells p.fams.(f))
       p.reps)

(* ------------------------------------------------------------------ *)
(* The scan loop                                                       *)
(* ------------------------------------------------------------------ *)

(* One charged pass over [db] counting every family of the plan; returns
   the participant's accumulators.  Every representation walks the same
   pages in the same order, so the page, checksum and fault walk is the
   same for every kernel.  ccc support-counted is charged by
   [count_pass] before the scan, per candidate and kernel-independent by
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
(* The entry point                                                     *)
(* ------------------------------------------------------------------ *)

let count_pass ?(par = sequential) ?session db io families =
  (* the ccc charge: one support-counted tick per candidate, before the
     scan, so it is identical for every kernel and form *)
  List.iter
    (fun (counters, c) -> Counters.add_support_counted counters (Candidate.count c))
    families;
  if List.for_all (fun (_, c) -> Candidate.count c = 0) families then
    (* nothing to count anywhere: skip the scan and charge no I/O *)
    List.map (fun _ -> Counted ("trie", Array.get [||], [||])) families
  else begin
    let kernel = match session with Some s -> s.kernel | None -> Trie in
    let p = plan_of kernel (List.map snd families) in
    let total =
      match Tx_db.shards db with
      | Some subs when Array.length subs > 1 -> distributed ~par db subs io p
      | _ -> scan_count ~par db io p
    in
    let supports = extract p total in
    (* logical passes: a distributed pass counts once, like the composite's
       one charged scan, so the same mine reports the same counts on every
       backend *)
    (match session with
    | Some s ->
        s.last_shape <-
          {
            shared_families =
              Array.fold_left (fun n r -> if r = R_shared then n + 1 else n) 0 p.reps;
            rows_skipped = total.skipped;
          };
        let uses k = List.exists (fun x -> label x = k) supports in
        if uses "direct2" then s.n_direct2 <- s.n_direct2 + 1;
        if uses "trie" then s.n_trie <- s.n_trie + 1
    | None -> ());
    supports
  end
