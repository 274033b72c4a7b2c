open Cfq_itembase

(* ------------------------------------------------------------------ *)
(* per-page checksums: a cheap rolling hash over (tid, items), fixed at
   load time and re-derivable from the resident data, so a scan can detect
   a page whose stored checksum no longer matches what it reads.  Exposed
   so an external backend (Cfq_store) can persist checksums this module's
   fault machinery will accept. *)

module Checksum = struct
  let seed = 0x2545F491

  let add_row h tid items off len =
    let h = ref ((h * 31) + tid + 1) in
    for j = off to off + len - 1 do
      h := (!h * 131) + items.(j) + 1
    done;
    !h land max_int
end

type row = int array -> int -> int -> unit

(* The tuple source: either the resident array, or an external paged
   backend (closures provided by Cfq_store reading through its buffer
   pool).  Both are read as rows (see [rows_extent]); the transaction
   view of a scan is derived from its rows.  Everything page-shaped —
   page_of, page count, checksums, the fault walk, chunking — lives in [t]
   itself, so both backends share one and the same scan/fault/verify
   machinery. *)
type ext = {
  ext_rows : lo:int -> hi:int -> row -> unit;
  ext_get : int -> Transaction.t;
  ext_avg_len : float;
}

type data =
  | Mem of Transaction.t array
  | Ext of ext

type t = {
  id : int;  (* process-unique, stamped at construction *)
  data : data;
  n : int;
  page_model : Page_model.t;
  pages : int;
  page_of : int array;  (* tx index -> (first) page holding it *)
  checksums : int array;  (* per page, over the resident transactions *)
  mutable faults : Fault.t option;
  (* an external backend's own fault probe: a replicated store reports
     whether any of its replicas carries an injector, so callers that pin
     faulted scans to a deterministic order (count_pass) see turbulence
     the composite's [faults] field cannot *)
  mutable backend_faults : unit -> bool;
  shard_meta : shard_meta option;
  mutable run_starts : int array option;  (* memoised scan_chunks geometry *)
}

(* A sharded composite: the sub-databases in tid order plus the prefix-sum
   offset tables translating between global and shard-local coordinates.
   [sh_io] carries one stats sink per shard so distributed counting can
   attribute its logical I/O per shard. *)
and shard_meta = {
  subs : t array;
  tx_base : int array;  (* length n_shards + 1; tx_base.(k) = first global tid of shard k *)
  pg_base : int array;  (* length n_shards + 1; pg_base.(k) = first global page of shard k *)
  sh_io : Io_stats.t array;
}

let compute_checksums ~pages ~page_of txs =
  let sums = Array.make (max 0 pages) Checksum.seed in
  Array.iteri
    (fun i tx ->
      let p = page_of.(i) in
      let a = Itemset.unsafe_to_array tx.Transaction.items in
      sums.(p) <- Checksum.add_row sums.(p) i a 0 (Array.length a))
    txs;
  sums

let next_id = Atomic.make 1
let fresh_id () = Atomic.fetch_and_add next_id 1

let create ?(page_model = Page_model.default) itemsets =
  let txs = Array.mapi (fun tid items -> Transaction.make ~tid ~items) itemsets in
  let sizes = Array.map Itemset.cardinal itemsets in
  let page_of, pages = Page_model.assign page_model sizes in
  {
    id = fresh_id ();
    data = Mem txs;
    n = Array.length txs;
    page_model;
    pages;
    page_of;
    checksums = compute_checksums ~pages ~page_of txs;
    faults = None;
    backend_faults = (fun () -> false);
    shard_meta = None;
    run_starts = None;
  }

let of_backend ?(page_model = Page_model.default) ~pages ~page_of ~checksums
    ~avg_tx_len ~rows ~get () =
  if Array.length checksums <> pages then
    invalid_arg "Tx_db.of_backend: one checksum per page required";
  {
    id = fresh_id ();
    data = Ext { ext_rows = rows; ext_get = get; ext_avg_len = avg_tx_len };
    n = Array.length page_of;
    page_model;
    pages;
    page_of;
    checksums;
    faults = None;
    backend_faults = (fun () -> false);
    shard_meta = None;
    run_starts = None;
  }

let id t = t.id
let size t = t.n
let pages t = t.pages
let page_model t = t.page_model

let set_faults t faults = t.faults <- faults
let faults t = t.faults
let set_backend_faults t probe = t.backend_faults <- probe
let backend_faulted t = t.faults <> None || t.backend_faults ()
let page_of_tx t tid = t.page_of.(tid)

(* shared, not copied: callers treat these as read-only *)
let page_table t = t.page_of
let checksum_table t = t.checksums

let get t tid =
  (match t.faults with
  | None -> ()
  | Some fl -> Fault.on_get fl ~page:t.page_of.(tid));
  match t.data with Mem txs -> txs.(tid) | Ext e -> e.ext_get tid

(* deliver rows [lo..hi] from whichever backend holds them *)
let rows_extent t ~lo ~hi f =
  match t.data with
  | Mem txs ->
      for k = lo to hi do
        let a = Itemset.unsafe_to_array txs.(k).Transaction.items in
        f a 0 (Array.length a)
      done
  | Ext e -> if hi >= lo then e.ext_rows ~lo ~hi f

(* The transaction view of a row stream that starts at [lo]: row k is tid
   [lo + k].  A backend reuses its row arrays, so the view copies each row
   into a fresh itemset; a resident row is the stored transaction's own
   array, so the memory view hands out the stored transaction. *)
let tx_view t ~lo f =
  let tid = ref lo in
  match t.data with
  | Mem txs ->
      fun _ _ _ ->
        f txs.(!tid);
        incr tid
  | Ext _ ->
      fun items off len ->
        f
          (Transaction.make ~tid:!tid
             ~items:(Itemset.unsafe_of_sorted_array (Array.sub items off len)));
        incr tid

(* stored checksum of [page] as the read layer sees it: a tampered page
   reads back a flipped checksum, so verification fails *)
let stored_checksum t fl page =
  if Fault.tampered fl ~page then t.checksums.(page) lxor 1 else t.checksums.(page)

let verify_hash t fl ~page h =
  if stored_checksum t fl page <> h then begin
    Fault.note_checksum_failure fl;
    Cfq_error.raise_error (Cfq_error.Corrupt_page { page })
  end

let verify_extent t fl ~page ~lo ~hi =
  let h = ref Checksum.seed and tid = ref lo in
  rows_extent t ~lo ~hi (fun items off len ->
      h := Checksum.add_row !h !tid items off len;
      incr tid);
  verify_hash t fl ~page !h

(* one page's rows, copied out of the backend's reused row arrays as they
   are read: row r is [items.(starts.(r)) .. items.(starts.(r+1) - 1)] *)
type page_buf = {
  mutable items : int array;
  mutable starts : int array;
  mutable n_rows : int;
}

let page_buf () = { items = Array.make 64 0; starts = Array.make 16 0; n_rows = 0 }

let grow a need =
  if need <= Array.length a then a
  else begin
    let b = Array.make (max need (2 * Array.length a)) 0 in
    Array.blit a 0 b 0 (Array.length a);
    b
  end

let buffer_row b items off len =
  let fill = b.starts.(b.n_rows) in
  b.items <- grow b.items (fill + len);
  Array.blit items off b.items fill len;
  b.starts <- grow b.starts (b.n_rows + 2);
  b.n_rows <- b.n_rows + 1;
  b.starts.(b.n_rows) <- fill + len

(* read the whole page [lo..hi] once, hashing and buffering each row, and
   hand the rows to [f] only once the page's checksum holds *)
let deliver_extent t fl buf ~page ~lo ~hi f =
  buf.n_rows <- 0;
  let h = ref Checksum.seed and tid = ref lo in
  rows_extent t ~lo ~hi (fun items off len ->
      h := Checksum.add_row !h !tid items off len;
      incr tid;
      buffer_row buf items off len);
  verify_hash t fl ~page !h;
  for r = 0 to buf.n_rows - 1 do
    f buf.items buf.starts.(r) (buf.starts.(r + 1) - buf.starts.(r))
  done

(* The checked walk of [lo..hi] under the injector [fl]: consult the
   injector and verify each page's checksum in ascending page order,
   reading each page once and delivering its rows to [f] only after the
   checksum holds ([None] verifies without delivering).  {!scan_rows},
   {!begin_scan}, {!rows_checked} and a composite's faulted shards all go
   through here, so the injector sees one and the same draw sequence
   whether the tuples are consumed inline or by parallel workers later.
   Checksums compare exactly only over complete pages; an extent that
   starts or ends mid-page (a sibling replica resuming after a physical
   read failed partway through a page) is delivered unverified rather than
   comparing a partial hash against a whole-page checksum. *)
let checked_walk t fl ~lo ~hi f =
  Fault.on_scan fl;
  let buf = page_buf () in
  let i = ref lo in
  while !i <= hi do
    let page = t.page_of.(!i) in
    Fault.on_page fl ~page;
    let j = ref !i in
    while !j <= hi && t.page_of.(!j) = page do
      incr j
    done;
    let lo = !i and hi = !j - 1 in
    let whole = (lo = 0 || t.page_of.(lo - 1) <> page) && (!j >= t.n || t.page_of.(!j) <> page) in
    (match f with
    | None -> if whole then verify_extent t fl ~page ~lo ~hi
    | Some f ->
        if whole then deliver_extent t fl buf ~page ~lo ~hi f else rows_extent t ~lo ~hi f);
    i := !j
  done

let scan_rows t stats f =
  Io_stats.record_scan stats ~pages:t.pages ~tuples:t.n;
  match t.faults with
  | None -> rows_extent t ~lo:0 ~hi:(t.n - 1) f
  | Some fl -> checked_walk t fl ~lo:0 ~hi:(t.n - 1) (Some f)

let iter_scan t stats f = scan_rows t stats (tx_view t ~lo:0 f)

let begin_scan t stats =
  Io_stats.record_scan stats ~pages:t.pages ~tuples:t.n;
  match t.faults with
  | None -> ()
  | Some fl -> checked_walk t fl ~lo:0 ~hi:(t.n - 1) None

let rows t ~lo ~hi f = rows_extent t ~lo ~hi f
let iter_range t ~lo ~hi f = rows_extent t ~lo ~hi (tx_view t ~lo f)

(* [rows] that honours an installed injector: the walk a replica runs, so
   a failover layer above it sees typed faults instead of silently wrong
   tuples *)
let rows_checked t ~lo ~hi f =
  if hi >= lo then
    match t.faults with
    | None -> rows_extent t ~lo ~hi f
    | Some fl -> checked_walk t fl ~lo ~hi (Some f)

let iter_range_checked t ~lo ~hi f = rows_checked t ~lo ~hi (tx_view t ~lo f)

(* Page run starts in tx order; chunk boundaries only ever sit on them, so
   no page is split across chunks.  The geometry is fixed for the life of a
   handle (a seal opens a fresh handle on the new generation), so it is
   computed once and memoised.  A concurrent double-compute is benign: both
   writers store identical arrays. *)
let run_starts t =
  match t.run_starts with
  | Some s -> s
  | None ->
      let n = t.n in
      let starts = ref [] in
      let i = ref 0 in
      while !i < n do
        starts := !i :: !starts;
        let page = t.page_of.(!i) in
        let j = ref !i in
        while !j < n && t.page_of.(!j) = page do
          incr j
        done;
        i := !j
      done;
      let arr = Array.of_list (List.rev !starts) in
      t.run_starts <- Some arr;
      arr

let chunk_runs t = Array.length (run_starts t)

let scan_chunks t ~max_chunks =
  let n = t.n in
  if n = 0 then []
  else begin
    let starts = run_starts t in
    let runs = Array.length starts in
    let k = max 1 (min max_chunks runs) in
    List.init k (fun c ->
        let r0 = c * runs / k and r1 = (c + 1) * runs / k in
        let lo = starts.(r0) in
        let hi = if r1 = runs then n - 1 else starts.(r1) - 1 in
        (lo, hi))
  end

let verify t =
  match t.faults with
  | None -> Ok ()
  | Some fl -> (
      let n = t.n in
      let check () =
        let i = ref 0 in
        while !i < n do
          let page = t.page_of.(!i) in
          let j = ref !i in
          while !j < n && t.page_of.(!j) = page do
            incr j
          done;
          verify_extent t fl ~page ~lo:!i ~hi:(!j - 1);
          i := !j
        done
      in
      match check () with
      | () -> Ok ()
      | exception Cfq_error.Error e -> Error e)

let absolute_support t frac =
  if frac < 0. || frac > 1. then invalid_arg "Tx_db.absolute_support";
  max 1 (int_of_float (ceil (frac *. float_of_int t.n)))

let support t stats s =
  let n = ref 0 in
  iter_scan t stats (fun tx -> if Itemset.subset s tx.Transaction.items then incr n);
  !n

let item_frequencies t stats ~universe_size =
  let freq = Array.make universe_size 0 in
  scan_rows t stats (fun items off len ->
      for j = off to off + len - 1 do
        freq.(items.(j)) <- freq.(items.(j)) + 1
      done);
  freq

let avg_tx_len t =
  if t.n = 0 then 0.
  else
    match t.data with
    | Mem txs ->
        let total =
          Array.fold_left (fun acc tx -> acc + Transaction.cardinal tx) 0 txs
        in
        float_of_int total /. float_of_int t.n
    | Ext e -> e.ext_avg_len

(* ------------------------------------------------------------------ *)
(* Sharded composites                                                  *)
(* ------------------------------------------------------------------ *)

(* largest k with base.(k) <= x; empty shards (base.(k) = base.(k+1)) are
   skipped because the search prefers the rightmost qualifying index *)
let locate base x =
  let ns = Array.length base - 1 in
  let lo = ref 0 and hi = ref (ns - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi + 1) / 2 in
    if base.(mid) <= x then lo := mid else hi := mid - 1
  done;
  !lo

let globalize_error pg_base k = function
  | Cfq_error.Transient_io { page } ->
      Cfq_error.Transient_io { page = page + pg_base.(k) }
  | Cfq_error.Corrupt_page { page } ->
      Cfq_error.Corrupt_page { page = page + pg_base.(k) }
  | e -> e

let of_shards ?page_model ?checksums ?io subs =
  let ns = Array.length subs in
  if ns = 0 then invalid_arg "Tx_db.of_shards: at least one shard required";
  let page_model =
    match page_model with Some pm -> pm | None -> subs.(0).page_model
  in
  let tx_base = Array.make (ns + 1) 0 and pg_base = Array.make (ns + 1) 0 in
  for k = 0 to ns - 1 do
    tx_base.(k + 1) <- tx_base.(k) + subs.(k).n;
    pg_base.(k + 1) <- pg_base.(k) + subs.(k).pages
  done;
  let n = tx_base.(ns) and pages = pg_base.(ns) in
  let page_of = Array.make n 0 in
  for k = 0 to ns - 1 do
    let sub = subs.(k) in
    for i = 0 to sub.n - 1 do
      page_of.(tx_base.(k) + i) <- pg_base.(k) + sub.page_of.(i)
    done
  done;
  (* rows carry no tid: a shard's row [i] is composite row [base + i] *)
  let rows ~lo ~hi f =
    let k0 = locate tx_base lo and k1 = locate tx_base hi in
    for k = k0 to k1 do
      let sub = subs.(k) in
      let base = tx_base.(k) in
      let llo = max 0 (lo - base) and lhi = min (sub.n - 1) (hi - base) in
      if lhi >= llo then begin
        match sub.faults with
        | None -> (
            (* an external backend (a store's buffer pool, a replica group
               that exhausted its siblings) may raise typed errors of its
               own: translate their pages to composite coordinates too *)
            try rows_extent sub ~lo:llo ~hi:lhi f
            with Cfq_error.Error e ->
              Cfq_error.raise_error (globalize_error pg_base k e))
        | Some fl -> (
            (* a shard with its own injector validates its slice of the
               composite scan; raised pages are translated to composite
               coordinates so callers can attribute the failure *)
            try checked_walk sub fl ~lo:llo ~hi:lhi (Some f)
            with Cfq_error.Error e ->
              Cfq_error.raise_error (globalize_error pg_base k e))
      end
    done
  in
  let get_tx tid =
    let k = locate tx_base tid in
    let base = tx_base.(k) in
    match get subs.(k) (tid - base) with
    | tx -> if base = 0 then tx else Transaction.make ~tid ~items:tx.Transaction.items
    | exception Cfq_error.Error e ->
        Cfq_error.raise_error (globalize_error pg_base k e)
  in
  let avg =
    if n = 0 then 0.
    else
      Array.fold_left
        (fun acc sub -> acc +. (avg_tx_len sub *. float_of_int sub.n))
        0. subs
      /. float_of_int n
  in
  let checksums =
    match checksums with
    | Some c ->
        if Array.length c <> pages then
          invalid_arg "Tx_db.of_shards: one checksum per composite page required";
        c
    | None ->
        (* recompute over global tids with one raw walk; shard checksums
           cover local tids and cannot be reused *)
        let sums = Array.make pages Checksum.seed in
        Array.iteri
          (fun k sub ->
            let g = ref tx_base.(k) in
            rows_extent sub ~lo:0 ~hi:(sub.n - 1) (fun items off len ->
                let p = page_of.(!g) in
                sums.(p) <- Checksum.add_row sums.(p) !g items off len;
                incr g))
          subs;
        sums
  in
  {
    id = fresh_id ();
    data = Ext { ext_rows = rows; ext_get = get_tx; ext_avg_len = avg };
    n;
    page_model;
    pages;
    page_of;
    checksums;
    faults = None;
    backend_faults = (fun () -> false);
    shard_meta =
      Some
        {
          subs;
          tx_base;
          pg_base;
          sh_io =
            (match io with
            | Some arr ->
                if Array.length arr <> ns then
                  invalid_arg "Tx_db.of_shards: one io sink per shard required";
                arr
            | None -> Array.init ns (fun _ -> Io_stats.create ()));
        };
    run_starts = None;
  }

let shard_meta_exn t =
  match t.shard_meta with
  | Some m -> m
  | None -> invalid_arg "Tx_db: not a sharded composite"

let shards t =
  match t.shard_meta with Some m -> Some m.subs | None -> None

let shard_io t =
  match t.shard_meta with Some m -> m.sh_io | None -> [||]

let shard_of_page t page =
  let m = shard_meta_exn t in
  if page < 0 || page >= t.pages then
    invalid_arg "Tx_db.shard_of_page: page out of range";
  locate m.pg_base page

let shard_page_base t k = (shard_meta_exn t).pg_base.(k)
