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

type session = {
  kernel : kernel;
  mutable last_fams : string list;
  mutable n_trie : int;
  mutable n_direct2 : int;
}

let create_session kernel = { kernel; last_fams = []; n_trie = 0; n_direct2 = 0 }
let last_kernels s = s.last_fams

let last_kernel s =
  match List.sort_uniq compare s.last_fams with
  | [] -> "trie"
  | ls -> String.concat "+" ls

let pass_counts s = { trie_passes = s.n_trie; direct2_passes = s.n_direct2 }

let describe s = Printf.sprintf "trie=%d direct2=%d" s.n_trie s.n_direct2

(* ------------------------------------------------------------------ *)
(* Family representations                                              *)
(* ------------------------------------------------------------------ *)

type rep = R_trie of Trie.t | R_d2 of Direct2.t

let rep_label = function R_trie _ -> "trie" | R_d2 _ -> "direct2"

let rep_of kernel cands =
  let d2 =
    match kernel with
    | Trie -> None
    | Direct2 -> (
        match Direct2.shape cands with
        | Some d
          when direct2_admissible ~n_cands:(Array.length cands) ~n_cells:(Direct2.n_cells d) ->
            Some d
        | _ -> None)
  in
  match d2 with Some d -> R_d2 d | None -> R_trie (Trie.build cands)

(* Accumulators are per participant; the representations themselves are
   never mutated, so one set serves every domain and every shard. *)
let acc_of = function
  | R_trie t -> Array.make (Trie.n_candidates t) 0
  | R_d2 d -> Direct2.init_cells d

let count_into rep acc scr items =
  match rep with
  | R_trie t -> Trie.count_tx_into t acc items
  | R_d2 d -> Direct2.count_tx_into d acc scr items

let extract rep acc = match rep with R_trie _ -> acc | R_d2 d -> Direct2.extract d acc

(* ------------------------------------------------------------------ *)
(* The scan loop                                                       *)
(* ------------------------------------------------------------------ *)

(* One charged pass over [db] counting every family with its
   representation; returns the per-family counts in candidate order.  Both
   representations walk the same pages in the same order, so the page,
   checksum and fault walk is the same for every kernel.  ccc
   support-counted is charged by [count_shared] before the scan, per
   candidate and kernel-independent by construction. *)
let scan_count ~par db io reps =
  let domains = eff_domains par ~work_items:(Tx_db.size db) in
  if domains = 1 then begin
    let accs = List.map acc_of reps in
    let scr = Direct2.scratch () in
    Tx_db.iter_scan db io (fun tx ->
        let items = Cfq_itembase.Itemset.unsafe_to_array tx.Transaction.items in
        List.iter2 (fun rep acc -> count_into rep acc scr items) reps accs);
    List.map2 extract reps accs
  end
  else begin
    (* one logical scan: the coordinator validates every page here — same
       fault/checksum walk, same injector draw order as [iter_scan] — then
       the chunks fan out to participants counting into private arrays *)
    Tx_db.begin_scan db io;
    let chunks = Array.of_list (Tx_db.scan_chunks db ~max_chunks:(4 * domains)) in
    let accs =
      Cfq_exec_pool.Pool.fan_out ?pool:par.pool ~domains ~n_tasks:(Array.length chunks)
        ~init:(fun () -> (List.map acc_of reps, Direct2.scratch ()))
        ~work:(fun (locals, scr) c ->
          let lo, hi = chunks.(c) in
          Tx_db.iter_range db ~lo ~hi (fun tx ->
              let items = Cfq_itembase.Itemset.unsafe_to_array tx.Transaction.items in
              List.iter2 (fun rep acc -> count_into rep acc scr items) reps locals))
        ()
    in
    (* merge in participant-slot order; int addition is order-independent,
       so the totals equal the sequential pass exactly *)
    let totals = List.map acc_of reps in
    List.iter
      (fun (locals, _) ->
        List.iter2
          (fun total local -> Array.iteri (fun i v -> total.(i) <- total.(i) + v) local)
          totals locals)
      accs;
    List.map2 extract reps totals
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
   the coordinator's representations. *)
let distributed ~par db subs io reps =
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
    try scan_count ~par:sequential subs.(k) sh_io.(k) reps
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
  let per_shard = Array.make ns [] in
  if faulted || max 1 par.domains = 1 then
    for k = 0 to ns - 1 do
      per_shard.(k) <- run_shard k
    done
  else
    ignore
      (Cfq_exec_pool.Pool.fan_out ?pool:par.pool ~domains:par.domains ~n_tasks:ns
         ~init:(fun () -> ())
         ~work:(fun () k -> per_shard.(k) <- run_shard k)
         ()
        : unit list);
  (* merge: exact global supports are the per-shard partial sums *)
  let add a b = Array.mapi (fun i v -> v + b.(i)) a in
  Array.fold_left (List.map2 add) per_shard.(0) (Array.sub per_shard 1 (ns - 1))

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
    let reps = List.map (fun (_, cands) -> rep_of kernel cands) families in
    let counts =
      match Tx_db.shards db with
      | Some subs when Array.length subs > 1 -> distributed ~par db subs io reps
      | _ -> scan_count ~par db io reps
    in
    (* logical passes: a distributed pass counts once, like the composite's
       one charged scan, so the same mine reports the same counts on every
       backend *)
    (match session with
    | Some s ->
        let labels = List.map rep_label reps in
        s.last_fams <- labels;
        if List.mem "direct2" labels then s.n_direct2 <- s.n_direct2 + 1;
        if List.mem "trie" labels then s.n_trie <- s.n_trie + 1
    | None -> ());
    counts
  end

let count_level ?par ?session db io counters cands =
  match count_shared ?par ?session db io [ (counters, cands) ] with
  | [ counts ] -> counts
  | _ -> assert false
