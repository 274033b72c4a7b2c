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

(* How many participants a region of [work_items] rows (or candidates) is
   worth: fanning a few hundred rows over domains costs more in spawn and
   merge than the rows themselves.  Equality with the sequential pass is
   unaffected — parallel regions are bit-identical at every width. *)
let eff_domains p ~work_items =
  let d = max 1 p.domains in
  if d = 1 || work_items <= 0 then 1
  else min d (max 1 (work_items / p.min_rows_per_domain))

(* ------------------------------------------------------------------ *)
(* Kernel plans                                                        *)
(* ------------------------------------------------------------------ *)

type kernel = Auto | Trie | Direct2 | Vertical

let kernel_name = function
  | Auto -> "auto"
  | Trie -> "trie"
  | Direct2 -> "direct2"
  | Vertical -> "vertical"

let all_kernels =
  [ ("auto", Auto); ("trie", Trie); ("direct2", Direct2); ("vertical", Vertical) ]

let kernel_of_string s = List.assoc_opt s all_kernels

type plan = {
  kernel : kernel;
  budget_words : int;
  projection : bool;
  vertical_min_card : int;
  direct2_max_sparsity : int;
}

let default_plan =
  {
    kernel = Auto;
    budget_words = 1 lsl 22;
    projection = true;
    vertical_min_card = 3;
    direct2_max_sparsity = 16;
  }

let plan_of_kernel k = { default_plan with kernel = k; projection = k = Auto }

(* ------------------------------------------------------------------ *)
(* Planner cutoffs                                                     *)
(* ------------------------------------------------------------------ *)

(* Per-kernel unit costs the Auto planner prices its bitmap decisions
   with, taken from the committed BENCH_counting.json of a commodity
   x86-64 box: seconds per item occurrence scanned (trie walk, bitmap
   build) and seconds per candidate-word intersected (bitmap probes).
   They are constants, so every plan is a pure function of the candidate
   geometry and repeats exactly for a seed. *)
let trie_cost = 6e-7
let build_cost = 5e-8
let probe_cost = 2.5e-9

let direct2_admissible plan ~n_cands ~n_cells =
  n_cells <= plan.budget_words && n_cells <= plan.direct2_max_sparsity * max 1 n_cands

let vertical_admissible plan ~n_live_items ~n_rows ~min_card =
  min_card >= plan.vertical_min_card
  && Tidset.words_needed ~n_items:n_live_items ~n_rows <= plan.budget_words

let projection_admissible plan ~est_words =
  plan.projection && est_words <= plan.budget_words

let words_per_row n_rows = Tidset.words_needed ~n_items:1 ~n_rows

(* Building bitmaps over [n_rows] rows holding [occ] item occurrences, then
   probing [n_cands] candidates of cardinality [card], must cost no more
   than the trie walk over the same rows (deeper passes then come free, so
   beating one pass is a conservative bar). *)
let bitmaps_beat_trie ~occ ~n_rows ~card ~n_cands =
  let words = float_of_int (words_per_row n_rows) in
  let inters = float_of_int (max 1 (card - 1)) in
  (occ *. build_cost) +. (float_of_int n_cands *. inters *. words *. probe_cost)
  <= occ *. trie_cost

(* Cold-build admission: standing up bitmaps with a charged scan only pays
   when the bitmaps beat the trie walk it replaces.  This is the 0.73x fix:
   huge candidate sets over few rows make the probes alone slower than the
   scan. *)
let vertical_cold_admissible plan ~n_live_items ~n_rows ~min_card ~avg_len ~n_cands =
  vertical_admissible plan ~n_live_items ~n_rows ~min_card
  && bitmaps_beat_trie
       ~occ:(float_of_int n_rows *. Float.max 1. avg_len)
       ~n_rows ~card:min_card ~n_cands

(* ------------------------------------------------------------------ *)
(* Sessions                                                            *)
(* ------------------------------------------------------------------ *)

type pass_counts = {
  trie_passes : int;
  direct2_passes : int;
  vertical_passes : int;
  projected_scans : int;
  bitmap_builds : int;
}

type session = {
  plan : plan;
  mutable bound_db : Tx_db.t option;
  mutable bitmaps : Tidset.t option;
  mutable proj : Projection.t option;
  mutable last_fams : string list;
  mutable n_trie : int;
  mutable n_direct2 : int;
  mutable n_vertical : int;
  mutable n_projected : int;
  mutable n_builds : int;
  (* one sub-session per shard when counting over a sharded composite:
     each shard keeps its own materialised bitmaps/projection, sized to
     its slice of the data *)
  mutable shard_sessions : session array;
}

let create_session ?(plan = default_plan) () =
  {
    plan;
    bound_db = None;
    bitmaps = None;
    proj = None;
    last_fams = [];
    n_trie = 0;
    n_direct2 = 0;
    n_vertical = 0;
    n_projected = 0;
    n_builds = 0;
    shard_sessions = [||];
  }

let last_kernels s = s.last_fams

let last_kernel s =
  match
    List.sort_uniq compare (List.filter (fun l -> l <> "") s.last_fams)
  with
  | [] -> "trie"
  | ls -> String.concat "+" ls

(* logical passes: a distributed level counts once, like the composite's
   one charged scan, so the same mine reports the same counts on every
   backend *)
let pass_counts s =
  {
    trie_passes = s.n_trie;
    direct2_passes = s.n_direct2;
    vertical_passes = s.n_vertical;
    projected_scans = s.n_projected;
    bitmap_builds = s.n_builds;
  }

let describe s =
  let c = pass_counts s in
  Printf.sprintf "trie=%d direct2=%d vertical=%d projected-scans=%d bitmap-builds=%d"
    c.trie_passes c.direct2_passes c.vertical_passes c.projected_scans
    c.bitmap_builds

(* ------------------------------------------------------------------ *)
(* The trie pass — the reference, fault-pinned and forced-trie path    *)
(* ------------------------------------------------------------------ *)

(* ccc support-counted is charged by [count_shared] before dispatch, so the
   pass bodies below never touch the counters: the charge is per candidate
   and kernel-independent by construction. *)
let trie_count ~par db io cands_list =
  let tries = List.map Trie.build cands_list in
  let domains = eff_domains par ~work_items:(Tx_db.size db) in
  if domains = 1 then begin
    Tx_db.iter_scan db io (fun tx ->
        let items = Cfq_itembase.Itemset.unsafe_to_array tx.Transaction.items in
        List.iter (fun trie -> Trie.count_tx trie items) tries);
    List.map Trie.counts tries
  end
  else begin
    (* one logical scan: the coordinator validates every page here — same
       fault/checksum walk, same injector draw order as [iter_scan] — then
       the chunks fan out to participants counting into private arrays *)
    Tx_db.begin_scan db io;
    let chunks = Array.of_list (Tx_db.scan_chunks db ~max_chunks:(4 * domains)) in
    let accs =
      Cfq_exec_pool.Pool.fan_out ?pool:par.pool ~domains
        ~n_tasks:(Array.length chunks)
        ~init:(fun () ->
          List.map (fun trie -> Array.make (Trie.n_candidates trie) 0) tries)
        ~work:(fun locals c ->
          let lo, hi = chunks.(c) in
          Tx_db.iter_range db ~lo ~hi (fun tx ->
              let items = Cfq_itembase.Itemset.unsafe_to_array tx.Transaction.items in
              List.iter2
                (fun trie local -> Trie.count_tx_into trie local items)
                tries locals))
        ()
    in
    (* merge in participant-slot order; int addition is order-independent,
       so the totals equal the sequential pass exactly *)
    List.iter
      (fun locals ->
        List.iter2
          (fun trie local ->
            let total = Trie.counts trie in
            Array.iteri (fun i v -> total.(i) <- total.(i) + v) local)
          tries locals)
      accs;
    List.map Trie.counts tries
  end

(* ------------------------------------------------------------------ *)
(* Scan substrates: the database or the current projection              *)
(* ------------------------------------------------------------------ *)

type substrate = S_db | S_proj of Projection.t

let substrate_rows db = function
  | S_db -> Tx_db.size db
  | S_proj p -> Projection.tuples p

(* Sequential substrate walk; charges exactly one scan. *)
let iter_sub db io substrate f =
  match substrate with
  | S_db ->
      Tx_db.iter_scan db io (fun tx ->
          f (Cfq_itembase.Itemset.unsafe_to_array tx.Transaction.items))
  | S_proj p ->
      Projection.charge_scan p io;
      let n = Projection.tuples p in
      if n > 0 then Projection.iter_range p ~lo:0 ~hi:(n - 1) f

(* Charge one scan and return the parallel chunk list. *)
let chunks_sub db io substrate ~max_chunks =
  match substrate with
  | S_db ->
      Tx_db.begin_scan db io;
      Tx_db.scan_chunks db ~max_chunks
  | S_proj p ->
      Projection.charge_scan p io;
      Projection.chunks p ~max_chunks

(* Raw range walk over an already-charged substrate. *)
let iter_range_sub db substrate ~lo ~hi f =
  match substrate with
  | S_db ->
      Tx_db.iter_range db ~lo ~hi (fun tx ->
          f (Cfq_itembase.Itemset.unsafe_to_array tx.Transaction.items))
  | S_proj p -> Projection.iter_range p ~lo ~hi f

(* ------------------------------------------------------------------ *)
(* Mixed trie/direct2 scan passes, with fused projection building       *)
(* ------------------------------------------------------------------ *)

type f_rep = R_trie of Trie.t | R_d2 of Direct2.t

let rep_label = function R_trie _ -> "trie" | R_d2 _ -> "direct2"

let acc_of = function
  | R_trie t -> Array.make (Trie.n_candidates t) 0
  | R_d2 d -> Direct2.init_cells d

let count_into rep acc scr items =
  match rep with
  | R_trie t -> Trie.count_tx_into t acc items
  | R_d2 d -> Direct2.count_tx_into d acc scr items

let extract rep acc =
  match rep with R_trie _ -> acc | R_d2 d -> Direct2.extract d acc

(* Keep a transaction's live items iff at least [min_len] survive. *)
let project_tx live_mask min_len items =
  let n = Array.length items and nm = Array.length live_mask in
  let cnt = ref 0 in
  for j = 0 to n - 1 do
    let it = Array.unsafe_get items j in
    if it < nm && Array.unsafe_get live_mask it then incr cnt
  done;
  if !cnt < min_len then None
  else begin
    let out = Array.make !cnt 0 in
    let w = ref 0 in
    for j = 0 to n - 1 do
      let it = Array.unsafe_get items j in
      if it < nm && Array.unsafe_get live_mask it then begin
        Array.unsafe_set out !w it;
        incr w
      end
    done;
    Some out
  end

(* One charged pass over [substrate] counting every family with its chosen
   representation, optionally building the next projection in the same
   walk.  [proj_spec = Some (live_mask, min_len)] describes the projection
   to fuse in.  Returns the per-family counts (candidate order) and the
   projected transactions (scan order — deterministic for every [domains]:
   chunk slots are concatenated in chunk order, so the result is the same
   sequence the sequential walk produces). *)
let scan_count ~par db io substrate fams ~proj_spec =
  let domains = eff_domains par ~work_items:(substrate_rows db substrate) in
  if domains = 1 then begin
    let accs = List.map (fun (_, rep) -> acc_of rep) fams in
    let scr = Direct2.scratch () in
    let pbuf = ref [] in
    iter_sub db io substrate (fun items ->
        List.iter2 (fun (_, rep) acc -> count_into rep acc scr items) fams accs;
        match proj_spec with
        | Some (mask, min_len) -> (
            match project_tx mask min_len items with
            | Some arr -> pbuf := arr :: !pbuf
            | None -> ())
        | None -> ());
    let counts = List.map2 (fun (_, rep) acc -> extract rep acc) fams accs in
    let proj =
      match proj_spec with
      | Some _ -> Some (Array.of_list (List.rev !pbuf))
      | None -> None
    in
    (counts, proj)
  end
  else begin
    let chunks = Array.of_list (chunks_sub db io substrate ~max_chunks:(4 * domains)) in
    let n_chunks = Array.length chunks in
    let slots = Array.make n_chunks [||] in
    let accs =
      Cfq_exec_pool.Pool.fan_out ?pool:par.pool ~domains ~n_tasks:n_chunks
        ~init:(fun () ->
          (List.map (fun (_, rep) -> acc_of rep) fams, Direct2.scratch ()))
        ~work:(fun (locals, scr) c ->
          let lo, hi = chunks.(c) in
          let pbuf = ref [] in
          iter_range_sub db substrate ~lo ~hi (fun items ->
              List.iter2
                (fun (_, rep) acc -> count_into rep acc scr items)
                fams locals;
              match proj_spec with
              | Some (mask, min_len) -> (
                  match project_tx mask min_len items with
                  | Some arr -> pbuf := arr :: !pbuf
                  | None -> ())
              | None -> ());
          (* distinct slot per task: no write races, deterministic order *)
          if proj_spec <> None then slots.(c) <- Array.of_list (List.rev !pbuf))
        ()
    in
    let totals = List.map (fun (_, rep) -> acc_of rep) fams in
    List.iter
      (fun (locals, _) ->
        List.iter2
          (fun total local -> Array.iteri (fun i v -> total.(i) <- total.(i) + v) local)
          totals locals)
      accs;
    let counts = List.map2 (fun (_, rep) total -> extract rep total) fams totals in
    let proj =
      match proj_spec with
      | Some _ -> Some (Array.concat (Array.to_list slots))
      | None -> None
    in
    (counts, proj)
  end

(* ------------------------------------------------------------------ *)
(* Candidate geometry                                                  *)
(* ------------------------------------------------------------------ *)

(* What a pass's kernel choice reads off its candidates: the smallest
   cardinality ([max_int] when there are none), which items occur (a mask
   indexed by item) and those items ascending. *)
type geometry = { min_card : int; live_mask : bool array; live : int array }

let geometry cands_list =
  let min_card = ref max_int and max_item = ref (-1) in
  List.iter
    (Array.iter (fun c ->
         let k = Cfq_itembase.Itemset.cardinal c in
         if k < !min_card then min_card := k;
         match Cfq_itembase.Itemset.max_item c with
         | Some i when i > !max_item -> max_item := i
         | _ -> ()))
    cands_list;
  let live_mask = Array.make (!max_item + 1) false in
  List.iter
    (Array.iter (Cfq_itembase.Itemset.iter (fun i -> live_mask.(i) <- true)))
    cands_list;
  let live = ref [] in
  for i = Array.length live_mask - 1 downto 0 do
    if live_mask.(i) then live := i :: !live
  done;
  { min_card = !min_card; live_mask; live = Array.of_list !live }

(* Materialised tid sets answer the pass with zero I/O. *)
let bitmaps_answer bm g =
  Tidset.valid_min_card bm <= g.min_card && Tidset.covers bm g.live

(* ------------------------------------------------------------------ *)
(* The adaptive pass                                                   *)
(* ------------------------------------------------------------------ *)

let adaptive s ~par db io families =
  (* a session follows one run over one database; rebinding resets the
     materialised state *)
  (match s.bound_db with
  | Some d when d == db -> ()
  | _ ->
      s.bound_db <- Some db;
      s.bitmaps <- None;
      s.proj <- None);
  let cands_list = List.map snd families in
  let g = geometry cands_list in
  let min_card = g.min_card and live_mask = g.live_mask and live = g.live in
  if min_card < 1 then begin
    (* an empty-set candidate: only the trie path handles cardinality 0 *)
    s.n_trie <- s.n_trie + 1;
    s.last_fams <- List.map (fun _ -> "trie") families;
    trie_count ~par db io cands_list
  end
  else begin
    let plan = s.plan in
    let n_live = Array.length live in
    let n_cands_total =
      List.fold_left (fun a c -> a + Array.length c) 0 cands_list
    in
    let answer_from bm =
      s.n_vertical <- s.n_vertical + 1;
      s.last_fams <- List.map (fun _ -> "vertical") families;
      List.map
        (fun cands ->
          Tidset.supports ?pool:par.pool
            ~domains:(eff_domains par ~work_items:(Array.length cands))
            bm cands)
        cands_list
    in
    match s.bitmaps with
    | Some bm when bitmaps_answer bm g ->
        (* zero-I/O pass: every level answered from the materialised bitmaps *)
        answer_from bm
    | _ -> (
        let substrate =
          match s.proj with
          | Some p when Projection.covers p ~items:live ~min_card -> S_proj p
          | _ -> S_db
        in
        let rows = substrate_rows db substrate in
        let avg_len = Float.max 1. (Tx_db.avg_tx_len db) in
        let want_vertical =
          match plan.kernel with
          | Vertical -> true
          | Auto ->
              (* cold build: a charged scan stands the bitmaps up, so it
                 must beat the trie walk it displaces on measured costs *)
              vertical_cold_admissible plan ~n_live_items:n_live
                ~n_rows:rows ~min_card ~avg_len ~n_cands:n_cands_total
          | Trie | Direct2 -> false
        in
        if want_vertical then begin
          let valid_min_card =
            match substrate with S_db -> 1 | S_proj p -> Projection.min_len p
          in
          let bm =
            Tidset.build ?pool:par.pool
              ~domains:(eff_domains par ~work_items:rows)
              ~valid_min_card io
              (match substrate with
              | S_db -> Tidset.Db db
              | S_proj p -> Tidset.Projected p)
              live
          in
          (match substrate with
          | S_proj _ -> s.n_projected <- s.n_projected + 1
          | S_db -> ());
          s.bitmaps <- Some bm;
          s.proj <- None;
          s.n_builds <- s.n_builds + 1;
          answer_from bm
        end
        else begin
          let reps =
            List.map
              (fun cands ->
                let d2 =
                  match plan.kernel with
                  | Direct2 | Auto -> (
                      match Direct2.shape cands with
                      | Some d
                        when direct2_admissible plan
                               ~n_cands:(Array.length cands)
                               ~n_cells:(Direct2.n_cells d) ->
                          Some d
                      | _ -> None)
                  | Trie | Vertical -> None
                in
                match d2 with Some d -> R_d2 d | None -> R_trie (Trie.build cands))
              cands_list
          in
          let proj_spec =
            if (not plan.projection) || min_card < 2 then None
            else begin
              let allowed =
                match substrate with
                | S_proj _ ->
                    (* reprojection only shrinks: live is a subset of the
                       projection's live items (coverage held), so it always
                       fits if the current one does *)
                    true
                | S_db ->
                    let est =
                      Tx_db.size db
                      + int_of_float
                          (float_of_int (Tx_db.size db) *. Tx_db.avg_tx_len db)
                    in
                    projection_admissible plan ~est_words:est
              in
              if allowed then Some (live_mask, min_card + 1) else None
            end
          in
          let counts, new_proj =
            scan_count ~par db io substrate
              (List.combine cands_list reps)
              ~proj_spec
          in
          (match new_proj with
          | Some txs ->
              (* amortized vertical switch: the projected rows are already
                 in memory, so if the next level admits bitmaps we build
                 them here, free of I/O, instead of re-scanning the
                 projection on the next pass — the build piggybacks on the
                 scan we just charged.  Probes must still beat the
                 projected trie walk they replace (current candidate count
                 as a conservative proxy for the next level's). *)
              let next_card = min_card + 1 in
              let n_rows' = Array.length txs in
              let occ' =
                Array.fold_left (fun a t -> a + Array.length t) 0 txs
              in
              let fused =
                plan.kernel = Auto
                && vertical_admissible plan ~n_live_items:n_live
                     ~n_rows:n_rows' ~min_card:next_card
                && bitmaps_beat_trie ~occ:(float_of_int occ') ~n_rows:n_rows'
                     ~card:next_card ~n_cands:n_cands_total
              in
              if fused then begin
                let bm =
                  Tidset.build ?pool:par.pool
                    ~domains:(eff_domains par ~work_items:n_rows')
                    ~valid_min_card:next_card io (Tidset.Rows txs) live
                in
                s.bitmaps <- Some bm;
                s.proj <- None;
                s.n_builds <- s.n_builds + 1
              end
              else
                s.proj <-
                  Some
                    (Projection.make ~page_model:(Tx_db.page_model db)
                       ~universe_size:(Array.length live_mask)
                       ~live ~min_len:(min_card + 1) txs)
          | None -> ());
          (match substrate with
          | S_proj _ -> s.n_projected <- s.n_projected + 1
          | S_db -> ());
          let labels = List.map rep_label reps in
          s.last_fams <- labels;
          if List.mem "direct2" labels then s.n_direct2 <- s.n_direct2 + 1;
          if List.mem "trie" labels then s.n_trie <- s.n_trie + 1;
          counts
        end)
  end

(* ------------------------------------------------------------------ *)
(* Count distribution over sharded composites                          *)
(* ------------------------------------------------------------------ *)

(* Candidate supports are additive over a partition of the transactions,
   so each shard counts every candidate against its own slice and the
   coordinator's elementwise sum is the exact global support — the classic
   count-distribution scheme.  The caller is charged one logical composite
   scan per pass (same as the sequential path on the same composite); each
   shard's local I/O lands in its [Tx_db.shard_io] sink. *)

(* Called on the coordinator before any shard runs: allocating lazily from
   inside the fan-out would let two domains each install their own array,
   losing one shard's sub-session and the bitmaps it builds. *)
let ensure_shard_sessions s n =
  if Array.length s.shard_sessions <> n then
    s.shard_sessions <- Array.init n (fun _ -> create_session ~plan:s.plan ())

(* Mirror of [adaptive]'s zero-I/O branch, evaluated over every shard
   sub-session: when each shard would answer the pass from materialised
   bitmaps covering the live items, no shard touches its pages and the
   composite scan charge is skipped — exactly as the unsharded session
   skips it. *)
let all_bitmap_covered s families =
  let g = geometry (List.map snd families) in
  g.min_card >= 1
  && Array.for_all
       (fun sk ->
         match sk.bitmaps with Some bm -> bitmaps_answer bm g | None -> false)
       s.shard_sessions

let distributed ~par ~session db subs io families =
  let ns = Array.length subs in
  let cands_list = List.map snd families in
  (* an injector on the composite or on a shard pins the pass to the trie,
     as in the unsharded path.  A replica-level injector does not: failover
     hides it, so the pass it sees is the healthy one.  [backend_faulted]
     does see that injector, and any of them keeps the shards in their
     deterministic sequential order below. *)
  let pinned_trie =
    Tx_db.faults db <> None
    || Array.exists (fun sub -> Tx_db.faults sub <> None) subs
    || match session with None -> true | Some s -> s.plan.kernel = Trie
  in
  let faulted =
    Tx_db.backend_faulted db || Array.exists Tx_db.backend_faulted subs
  in
  (match session with
  | Some s when pinned_trie ->
      s.n_trie <- s.n_trie + 1;
      s.last_fams <- List.map (fun _ -> "trie") families
  | Some s -> ensure_shard_sessions s ns
  | None -> ());
  let zero_io =
    (not pinned_trie)
    &&
    match session with
    | Some s -> all_bitmap_covered s families
    | None -> false
  in
  (* one logical scan for the whole composite pass; with composite-level
     faults installed this runs the full page/checksum walk, drawing the
     same injector decisions as a sequential scan of the same composite *)
  if not zero_io then Tx_db.begin_scan db io;
  let sh_io = Tx_db.shard_io db in
  let run_shard k =
    let sub = subs.(k) in
    try
      if pinned_trie then trie_count ~par:sequential sub sh_io.(k) cands_list
      else
        let s = Option.get session in
        adaptive s.shard_sessions.(k) ~par:sequential sub sh_io.(k) families
    with Cfq_error.Error e ->
      (* shard-local error pages -> composite coordinates *)
      let base = Tx_db.shard_page_base db k in
      let e =
        match e with
        | Cfq_error.Transient_io { page } ->
            Cfq_error.Transient_io { page = page + base }
        | Cfq_error.Corrupt_page { page } ->
            Cfq_error.Corrupt_page { page = page + base }
        | e -> e
      in
      Cfq_error.raise_error e
  in
  let shard_work () =
    match session with
    | Some s when not pinned_trie ->
        Array.fold_left
          (fun (p, b) sk -> (p + sk.n_projected, b + sk.n_builds))
          (0, 0) s.shard_sessions
    | _ -> (0, 0)
  in
  let projected0, builds0 = shard_work () in
  let per_shard = Array.make ns [] in
  if faulted || max 1 par.domains = 1 then
    (* sequential shard order: with injectors installed the first failing
       shard must win deterministically *)
    for k = 0 to ns - 1 do
      per_shard.(k) <- run_shard k
    done
  else
    ignore
      (Cfq_exec_pool.Pool.fan_out ?pool:par.pool ~domains:par.domains
         ~n_tasks:ns
         ~init:(fun () -> ())
         ~work:(fun () k -> per_shard.(k) <- run_shard k)
         ()
        : unit list);
  (* labels of a distributed adaptive pass: per family, the union of the
     shards' kernel choices (shards may legitimately diverge — a small
     shard can go vertical while a big one still scans).  The pass counts
     once per kernel any shard ran, and once if any shard scanned a
     projection or built bitmaps. *)
  (match session with
  | Some s when not pinned_trie ->
      let ran l = Array.exists (fun sk -> List.mem l sk.last_fams) s.shard_sessions in
      if ran "trie" then s.n_trie <- s.n_trie + 1;
      if ran "direct2" then s.n_direct2 <- s.n_direct2 + 1;
      if ran "vertical" then s.n_vertical <- s.n_vertical + 1;
      let projected1, builds1 = shard_work () in
      if projected1 > projected0 then s.n_projected <- s.n_projected + 1;
      if builds1 > builds0 then s.n_builds <- s.n_builds + 1;
      let label_of fi =
        let labs =
          Array.fold_left
            (fun acc sk ->
              match List.nth_opt sk.last_fams fi with
              | Some l when l <> "" && not (List.mem l acc) -> l :: acc
              | _ -> acc)
            [] s.shard_sessions
        in
        match List.rev labs with
        | [] -> "trie"
        | [ l ] -> l
        | ls -> String.concat "/" ls
      in
      s.last_fams <- List.mapi (fun fi _ -> label_of fi) families
  | _ -> ());
  (* merge: exact global supports are the per-shard partial sums *)
  List.mapi
    (fun fi (_, cands) ->
      let total = Array.make (Array.length cands) 0 in
      Array.iter
        (fun counts ->
          let c = List.nth counts fi in
          Array.iteri (fun i v -> total.(i) <- total.(i) + v) c)
        per_shard;
      total)
    families

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)
(* ------------------------------------------------------------------ *)

let count_shared ?(par = sequential) ?session db io families =
  (* the ccc charge: one support-counted tick per candidate, before kernel
     dispatch, so it is identical for every kernel *)
  List.iter
    (fun (counters, cands) ->
      Counters.add_support_counted counters (Array.length cands))
    families;
  let n_cands =
    List.fold_left (fun acc (_, cands) -> acc + Array.length cands) 0 families
  in
  if n_cands = 0 then
    (* nothing to count anywhere: skip the scan and charge no I/O *)
    List.map (fun (_, cands) -> Array.make (Array.length cands) 0) families
  else
    match Tx_db.shards db with
    | Some subs when Array.length subs > 1 ->
        distributed ~par ~session db subs io families
    | _ -> (
        match session with
        | None -> trie_count ~par db io (List.map snd families)
        | Some s when s.plan.kernel = Trie || Tx_db.faults db <> None ->
            (* forced trie, or faults installed: the paper's page/fault walk
               must be preserved exactly, so the adaptive substrates are out *)
            s.n_trie <- s.n_trie + 1;
            s.last_fams <- List.map (fun _ -> "trie") families;
            trie_count ~par db io (List.map snd families)
        | Some s -> adaptive s ~par db io families)

let count_level ?par ?session db io counters cands =
  match count_shared ?par ?session db io [ (counters, cands) ] with
  | [ counts ] -> counts
  | _ -> assert false
