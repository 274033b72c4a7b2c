open Cfq_itembase
open Cfq_txdb

type recovery = {
  replayed : int;
  truncated_bytes : int;
}

type seal_info = {
  si_generation : int;
  si_base_txs : int;
  si_sealed_txs : int;
}

type t = {
  path : string;
  cache_pages : int;
  io : Io_stats.t;
  mutable seg : Segment.t;
  mutable pool : Buffer_pool.t;
  mutable db : Tx_db.t;
  (* segments superseded by a seal: their pool fds stay open until
     [close] so db handles obtained before the seal keep reading their
     (old, still-valid) snapshot instead of hitting a closed fd *)
  mutable stale : (Buffer_pool.t * Segment.t) list;
  mutable last_seal : seal_info option;
  wal : Wal.t;
  recovery : recovery;
}

let wal_path path = path ^ ".wal"

(* ------------------------------------------------------------------ *)
(* the Tx_db view: decode rows on demand through the pool *)

(* Decode scratch, one free list per domain.  A read takes a [rows] off
   its domain's list and puts it back when done, so parallel chunk
   readers never share one, a row callback that itself reads a store
   takes a second, and a warm scan allocates nothing. *)
let scratch : Page_codec.rows list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let with_scratch f =
  let free = Domain.DLS.get scratch in
  let r =
    match !free with
    | r :: rest ->
        free := rest;
        r
    | [] -> Page_codec.rows ()
  in
  match f r with
  | v ->
      free := r :: !free;
      v
  | exception e ->
      free := r :: !free;
      raise e

let deliver_rows (r : Page_codec.rows) f =
  let offs = r.Page_codec.offs in
  for i = 0 to r.Page_codec.n - 1 do
    let o = Array.unsafe_get offs i in
    f r.Page_codec.items o (Array.unsafe_get offs (i + 1) - o)
  done

let make_db seg pool =
  let l = seg.Segment.layout in
  let pm = seg.Segment.pm in
  let ps = pm.Page_model.page_size_bytes in
  let n = Array.length l.Page_codec.sizes in
  let one_page tid =
    let off = l.Page_codec.offsets.(tid) in
    off / ps = (off + Page_codec.tx_bytes l tid - 1) / ps
  in
  (* an oversized transaction spans dedicated pages: gather its bytes *)
  let decode_oversized fetch tid r =
    let off = l.Page_codec.offsets.(tid) in
    let len = Page_codec.tx_bytes l tid in
    let tmp = Bytes.create len in
    for p = off / ps to (off + len - 1) / ps do
      let page_lo = p * ps in
      let lo = max off page_lo and hi = min (off + len) (page_lo + ps) in
      fetch pool p (fun buf ->
          Bytes.blit buf (lo - page_lo) tmp (lo - off) (hi - lo))
    done;
    Page_codec.decode_rows l tmp ~base:off ~lo:tid ~hi:tid r
  in
  let get tid =
    with_scratch (fun r ->
        let off = l.Page_codec.offsets.(tid) in
        if one_page tid then
          Buffer_pool.with_page pool (off / ps) (fun buf ->
              Page_codec.decode_rows l buf ~base:(off - (off mod ps)) ~lo:tid ~hi:tid r)
        else decode_oversized Buffer_pool.with_page tid r;
        let items = Array.sub r.Page_codec.items 0 r.Page_codec.offs.(1) in
        Transaction.make ~tid ~items:(Itemset.unsafe_of_sorted_array items))
  in
  (* a scan pins each page once and decodes its in-range rows into the
     scratch under that pin, delivering them after the unpin; a decode
     fault still delivers the page's earlier rows first, so a failover
     resumes right after the last one delivered *)
  let rows ~lo ~hi f =
    with_scratch (fun r ->
        let k = ref lo in
        while !k <= hi do
          let k0 = !k in
          if not (one_page k0) then begin
            decode_oversized Buffer_pool.with_scan_page k0 r;
            deliver_rows r f;
            k := k0 + 1
          end
          else begin
            let page = l.Page_codec.offsets.(k0) / ps in
            let k1 = ref k0 in
            while
              !k1 < hi && one_page (!k1 + 1) && l.Page_codec.offsets.(!k1 + 1) / ps = page
            do
              incr k1
            done;
            let hi = !k1 in
            let fault =
              Buffer_pool.with_scan_page pool page (fun buf ->
                  match Page_codec.decode_rows l buf ~base:(page * ps) ~lo:k0 ~hi r with
                  | () -> None
                  | exception (Cfq_error.Error _ as e) -> Some e)
            in
            deliver_rows r f;
            Option.iter raise fault;
            k := hi + 1
          end
        done)
  in
  let avg_tx_len =
    if n = 0 then 0.
    else
      float_of_int (Array.fold_left ( + ) 0 l.Page_codec.sizes) /. float_of_int n
  in
  Tx_db.of_backend ~page_model:pm ~pages:l.Page_codec.pages
    ~page_of:l.Page_codec.page_of ~checksums:seg.Segment.sums ~avg_tx_len ~rows ~get ()

let attach ~cache_pages ~io seg =
  let pool =
    Buffer_pool.create ~path:seg.Segment.path
      ~page_size:seg.Segment.pm.Page_model.page_size_bytes
      ~n_pages:seg.Segment.layout.Page_codec.pages ~data_off:(Segment.data_off seg)
      ~crcs:seg.Segment.crcs ~capacity:cache_pages ~stats:io ()
  in
  (pool, make_db seg pool)

(* ------------------------------------------------------------------ *)

(* also reset the WAL: a leftover log from an earlier store at this path
   must not be replayed into the freshly built segment *)
let build ?page_model path txs =
  Segment.write ?page_model ~generation:0 path txs;
  Wal.reset (wal_path path) ~generation:0

let save_db ?page_model path db =
  let n = Tx_db.size db in
  let txs = Array.make n Itemset.empty in
  Tx_db.iter_range db ~lo:0 ~hi:(n - 1) (fun tx ->
      txs.(tx.Transaction.tid) <- tx.Transaction.items);
  build ?page_model path txs

(* fold [extra] WAL records into a next-generation segment at [path]
   (atomic rewrite, durable on return).  [seg] stays open — the caller
   decides when its readers have drained.  Returns the new generation. *)
let fold_into_segment seg path (extra : int array list) =
  let existing = Segment.read_all seg in
  let next = seg.Segment.generation + 1 in
  let all =
    Array.append existing
      (Array.of_list (List.map (fun items -> Itemset.of_array items) extra))
  in
  Segment.write ~page_model:seg.Segment.pm ~generation:next path all;
  next

let open_ ?(cache_pages = 1024) ?group_commit path =
  (* recovery.  The WAL header names the segment generation its records
     apply to; anything else (older generation, missing/torn header) is
     a leftover from before a durably completed fold and is discarded —
     never replayed a second time.  A matching WAL has its torn tail
     truncated and its valid records folded into a generation+1 segment
     (rename + dir fsync) BEFORE the WAL is reset, so a crash anywhere
     in between re-runs this same recovery without duplicating. *)
  let wp = wal_path path in
  let seg0 = Segment.open_ path in
  let s = Wal.scan wp in
  let current = s.Wal.generation = Some seg0.Segment.generation in
  let seg =
    if current && s.Wal.records <> [] then begin
      let next = fold_into_segment seg0 path s.Wal.records in
      Segment.close seg0;
      Wal.reset wp ~generation:next;
      Segment.open_ path
    end
    else begin
      if current then Wal.truncate_torn wp s
      else Wal.reset wp ~generation:seg0.Segment.generation;
      seg0
    end
  in
  let io = Io_stats.create () in
  let cache_pages = max 1 cache_pages in
  let pool, db = attach ~cache_pages ~io seg in
  {
    path;
    cache_pages;
    io;
    seg;
    pool;
    db;
    stale = [];
    last_seal = None;
    wal = Wal.open_append ?group_commit wp;
    recovery =
      (if current then
         { replayed = List.length s.Wal.records; truncated_bytes = s.Wal.torn_bytes }
       else { replayed = 0; truncated_bytes = 0 });
  }

let create ?page_model ?cache_pages ?group_commit path =
  Segment.write ?page_model ~generation:0 path [||];
  Wal.reset (wal_path path) ~generation:0;
  open_ ?cache_pages ?group_commit path

let db t = t.db
let append_tx t items = Wal.append t.wal (Itemset.to_array items)
let flush t = Wal.flush t.wal

let seal t =
  Wal.flush t.wal;
  let s = Wal.scan (wal_path t.path) in
  if s.Wal.records = [] || s.Wal.generation <> Some t.seg.Segment.generation then 0
  else begin
    let old_seg = t.seg and old_pool = t.pool in
    let base_txs = Tx_db.size t.db in
    let next = fold_into_segment old_seg t.path s.Wal.records in
    Wal.reset (wal_path t.path) ~generation:next;
    let seg = Segment.open_ t.path in
    let pool, db = attach ~cache_pages:t.cache_pages ~io:t.io seg in
    t.seg <- seg;
    t.pool <- pool;
    t.db <- db;
    (* keep the superseded segment readable until [close]: db handles
       handed out before this seal may still be mid-scan on it *)
    t.stale <- (old_pool, old_seg) :: t.stale;
    let sealed = List.length s.Wal.records in
    t.last_seal <-
      Some { si_generation = next; si_base_txs = base_txs; si_sealed_txs = sealed };
    sealed
  end

let close t =
  Wal.close t.wal;
  List.iter
    (fun (pool, seg) ->
      Buffer_pool.close pool;
      Segment.close seg)
    t.stale;
  t.stale <- [];
  Buffer_pool.close t.pool;
  Segment.close t.seg

(* ------------------------------------------------------------------ *)
(* page-level export / verify seam: positioned reads on the segment's own
   fd, deliberately bypassing the buffer pool — cached frames would mask
   on-disk rot.  Not safe to interleave with [seal] on the same handle
   (both reposition the segment fd); the scrubber runs between seals. *)

type page_fault_kind = Bad_crc | Bad_checksum
type page_fault = { pf_page : int; pf_kind : page_fault_kind }

let page_fault_kind_name = function
  | Bad_crc -> "bad-crc"
  | Bad_checksum -> "bad-checksum"

let page_faults_to_string faults =
  String.concat ", "
    (List.map
       (fun f -> Printf.sprintf "%d/%s" f.pf_page (page_fault_kind_name f.pf_kind))
       faults)

let pread_exact t ~off buf ~pos len =
  ignore (Unix.lseek t.seg.Segment.fd off Unix.SEEK_SET);
  let o = ref 0 in
  while !o < len do
    let r = Unix.read t.seg.Segment.fd buf (pos + !o) (len - !o) in
    if r = 0 then
      Cfq_error.raise_error
        (Cfq_error.Corrupt_page
           { page = (off - Segment.data_off t.seg) / t.seg.Segment.pm.Page_model.page_size_bytes });
    o := !o + r
  done

(* One pass, one read per page.  Each page's raw CRC is checked as it
   arrives; the run of transactions whose records start on a page (one
   page, or the dedicated pages of an oversized record) is then decoded
   with the scan's page decoder and its rolling hash compared with the
   logical checksum the scan layer checks.  A page already condemned by
   its CRC is not re-reported as a checksum fault. *)
let verify_pages ?(throttle = fun ~page:_ -> ()) t =
  let seg = t.seg in
  let l = seg.Segment.layout in
  let ps = seg.Segment.pm.Page_model.page_size_bytes in
  let n = Array.length l.Page_codec.sizes in
  let faults = ref [] in
  let buf = ref (Bytes.create ps) in
  let r = Page_codec.rows () in
  let i = ref 0 and page = ref 0 in
  while !page < l.Page_codec.pages do
    let p = !page in
    let j = ref !i in
    while !j < n && l.Page_codec.page_of.(!j) = p do
      incr j
    done;
    let last =
      if !j = !i then p
      else (l.Page_codec.offsets.(!j - 1) + Page_codec.tx_bytes l (!j - 1) - 1) / ps
    in
    if Bytes.length !buf < (last - p + 1) * ps then buf := Bytes.create ((last - p + 1) * ps);
    let read_ok = ref true and first_bad = ref false in
    for q = p to last do
      throttle ~page:q;
      let pos = (q - p) * ps in
      let bad =
        match pread_exact t ~off:(Segment.data_off seg + (q * ps)) !buf ~pos ps with
        | () -> Crc32.sub !buf pos ps <> seg.Segment.crcs.(q)
        | exception Cfq_error.Error _ ->
            read_ok := false;
            true
      in
      if bad then begin
        faults := { pf_page = q; pf_kind = Bad_crc } :: !faults;
        if q = p then first_bad := true
      end
    done;
    if !j > !i && not !first_bad then begin
      let sum =
        if not !read_ok then None
        else
        match Page_codec.decode_rows l !buf ~base:(p * ps) ~lo:!i ~hi:(!j - 1) r with
        | () ->
            let h = ref Tx_db.Checksum.seed and offs = r.Page_codec.offs in
            for k = 0 to r.Page_codec.n - 1 do
              h :=
                Tx_db.Checksum.add_row !h (!i + k) r.Page_codec.items offs.(k)
                  (offs.(k + 1) - offs.(k))
            done;
            Some !h
        | exception Cfq_error.Error _ -> None
      in
      if sum <> Some seg.Segment.sums.(p) then
        faults := { pf_page = p; pf_kind = Bad_checksum } :: !faults
    end;
    i := !j;
    page := last + 1
  done;
  List.sort compare (List.rev !faults)

let read_all t = Segment.read_all t.seg

let size t = Tx_db.size t.db
let pages t = Tx_db.pages t.db
let page_model t = t.seg.Segment.pm
let universe_size t = t.seg.Segment.universe
let generation t = t.seg.Segment.generation
let io t = t.io
let last_recovery t = t.recovery
let last_seal t = t.last_seal
let wal_counters t = (Wal.appended t.wal, Wal.fsyncs t.wal)
let cache_pages t = t.cache_pages
let path t = t.path
