open Cfq_txdb
module Store = Cfq_store.Store

(* A replica group: R physical stores holding byte-identical copies of one
   shard's slice.  Reads route to the preferred replica and fail over on
   typed faults; writes mirror to every healthy replica under a majority
   quorum.  Because every replica packs the same page geometry, the group
   surfaces one Tx_db view whose pages, checksums and logical charges are
   those of any single replica — which replica actually served a read is
   invisible to answers, ccc and I/O accounting. *)

type t = {
  base : string;  (* sharded-store path *)
  shard : int;
  cache_pages : int option;
  group_commit : int option;
  stores : Store.t option array;  (* [None] = unopenable *)
  health : Manifest.health array;
  faults : Fault.t option array;  (* per-replica injectors, reinstalled on seal *)
  write_faults : bool array;  (* test hook: fail mirrored writes to replica j *)
  mutable preferred : int;
  mutable failovers : int;
  read_errors : int array;
  write_errors : int array;
  io : Io_stats.t;  (* shard sink shared with the composite (failovers land here) *)
  mutable db : Tx_db.t;
}

exception No_healthy_replica of int  (* shard *)

let shard_path base k = Printf.sprintf "%s.shard%d" base k

(* replica 0 is the shard's primary store file — the same [PATH.shardK] a
   single-replica (or pre-replication) store uses — siblings mirror it at
   [PATH.shardK.rJ] *)
let replica_path base ~shard ~replica =
  let sp = shard_path base shard in
  if replica = 0 then sp else Printf.sprintf "%s.r%d" sp replica

let quorum r = (r / 2) + 1
let replica_count t = Array.length t.stores
let io t = t.io
let failovers t = t.failovers
let preferred t = t.preferred
let health t ~replica = t.health.(replica)
let read_errors t ~replica = t.read_errors.(replica)
let write_errors t ~replica = t.write_errors.(replica)
let store t ~replica = t.stores.(replica)

let healthy_order t =
  let r = Array.length t.stores in
  let rec collect i acc =
    if i >= r then List.rev acc
    else
      let j = (t.preferred + i) mod r in
      let acc =
        if t.health.(j) = Manifest.Healthy && t.stores.(j) <> None then j :: acc
        else acc
      in
      collect (i + 1) acc
  in
  collect 0 []

let preferred_store t =
  match healthy_order t with
  | j :: _ -> Option.get t.stores.(j)
  | [] -> raise (No_healthy_replica t.shard)

let retryable = function
  | Cfq_error.Transient_io _ | Cfq_error.Corrupt_page _ | Cfq_error.Query_crash _
    ->
      true
  | Cfq_error.Deadline | Cfq_error.Overload | Cfq_error.No_live_source -> false

(* ------------------------------------------------------------------ *)
(* failover reads                                                      *)
(* ------------------------------------------------------------------ *)

(* Serve [lo..hi] from the replicas in preference order.  Each replica
   runs the checked walk (its own injector + checksums + the pool's raw
   CRCs), so every fault surfaces typed before bad tuples escape.  On a
   typed fault the next sibling resumes exactly after the last delivered
   row — injected faults stop on a page boundary (validation
   precedes delivery), physical mid-page faults resume mid-page, where
   the sibling skips the partial page's checksum compare.  A completed
   range makes its replica the new preferred one (sticky routing). *)
let rec serve t order ~lo ~hi f =
  match order with
  | [] -> raise (No_healthy_replica t.shard)
  | j :: rest -> (
      let st = Option.get t.stores.(j) in
      let delivered = ref (lo - 1) in
      match
        Tx_db.rows_checked (Store.db st) ~lo ~hi (fun items off len ->
            f items off len;
            incr delivered)
      with
      | () -> if j <> t.preferred then t.preferred <- j
      | exception Cfq_error.Error e when retryable e ->
          t.read_errors.(j) <- t.read_errors.(j) + 1;
          if rest = [] then Cfq_error.raise_error e
          else begin
            t.failovers <- t.failovers + 1;
            Io_stats.record_failover t.io;
            serve t rest ~lo:(!delivered + 1) ~hi f
          end)

let rows t ~lo ~hi f = if hi >= lo then serve t (healthy_order t) ~lo ~hi f

let rec serve_get t order tid =
  match order with
  | [] -> raise (No_healthy_replica t.shard)
  | j :: rest -> (
      let st = Option.get t.stores.(j) in
      match Tx_db.get (Store.db st) tid with
      | tx ->
          if j <> t.preferred then t.preferred <- j;
          tx
      | exception Cfq_error.Error e when retryable e ->
          t.read_errors.(j) <- t.read_errors.(j) + 1;
          if rest = [] then Cfq_error.raise_error e
          else begin
            t.failovers <- t.failovers + 1;
            Io_stats.record_failover t.io;
            serve_get t rest tid
          end)

let get t tid = serve_get t (healthy_order t) tid

let make_db t =
  let rdb = Store.db (preferred_store t) in
  let db =
    Tx_db.of_backend ~page_model:(Tx_db.page_model rdb) ~pages:(Tx_db.pages rdb)
      ~page_of:(Tx_db.page_table rdb) ~checksums:(Tx_db.checksum_table rdb)
      ~avg_tx_len:(Tx_db.avg_tx_len rdb)
      ~rows:(fun ~lo ~hi f -> rows t ~lo ~hi f)
      ~get:(fun tid -> get t tid) ()
  in
  (* a replica-level injector is invisible in the view's own [faults]; the
     probe lets count_pass pin faulted passes deterministically *)
  Tx_db.set_backend_faults db (fun () ->
      Array.exists (fun f -> f <> None) t.faults);
  db

let db t = t.db

(* ------------------------------------------------------------------ *)
(* fault injection                                                     *)
(* ------------------------------------------------------------------ *)

let install_faults t =
  Array.iteri
    (fun j st ->
      match st with
      | Some st -> Tx_db.set_faults (Store.db st) t.faults.(j)
      | None -> ())
    t.stores

let set_fault t ~replica f =
  if replica < 0 || replica >= Array.length t.stores then
    invalid_arg "Replica.set_fault: no such replica";
  t.faults.(replica) <- f;
  match t.stores.(replica) with
  | Some st -> Tx_db.set_faults (Store.db st) f
  | None -> ()

let set_write_fault t ~replica v = t.write_faults.(replica) <- v

(* ------------------------------------------------------------------ *)
(* build / open                                                        *)
(* ------------------------------------------------------------------ *)

(* write the slice once per replica; returns the paths created so a failed
   sharded build can clean up *)
let build ?page_model ~replicas ~shard base slice =
  let created = ref [] in
  for j = 0 to replicas - 1 do
    let p = replica_path base ~shard ~replica:j in
    Store.build ?page_model p slice;
    created := p :: !created
  done;
  List.rev !created

let open_group ?cache_pages ?group_commit ?health ~replicas ~shard base =
  let r = max 1 replicas in
  let health =
    match health with
    | Some h ->
        if Array.length h <> r then
          invalid_arg "Replica.open_group: one health state per replica";
        Array.copy h
    | None -> Array.make r Manifest.Healthy
  in
  let stores =
    Array.init r (fun j ->
        if health.(j) = Manifest.Quarantined then
          (* still try to open — a quarantined replica's stats are useful
             and repair wants its generation — but never serve from it *)
          match Store.open_ ?cache_pages ?group_commit (replica_path base ~shard ~replica:j) with
          | st -> Some st
          | exception _ -> None
        else
          match Store.open_ ?cache_pages ?group_commit (replica_path base ~shard ~replica:j) with
          | st -> Some st
          | exception (Cfq_store.Segment.Bad_segment _ | Unix.Unix_error _) ->
              (* unopenable: quarantine instead of failing the whole shard *)
              health.(j) <- Manifest.Quarantined;
              None)
  in
  (* pick the most advanced healthy replica as the reference; healthy
     siblings that lag it (a crash between replica seals) are laggards and
     go stale until repair *)
  let ref_j = ref (-1) in
  Array.iteri
    (fun j st ->
      match st with
      | Some st when health.(j) = Manifest.Healthy ->
          let better =
            !ref_j < 0
            ||
            let cur = Option.get stores.(!ref_j) in
            Store.generation st > Store.generation cur
            || (Store.generation st = Store.generation cur
               && Store.size st > Store.size cur)
          in
          if better then ref_j := j
      | _ -> ())
    stores;
  if !ref_j < 0 then begin
    Array.iter (function Some st -> (try Store.close st with _ -> ()) | None -> ()) stores;
    raise (No_healthy_replica shard)
  end;
  let rst = Option.get stores.(!ref_j) in
  Array.iteri
    (fun j st ->
      match st with
      | Some st
        when health.(j) = Manifest.Healthy
             && (Store.generation st <> Store.generation rst
                || Store.size st <> Store.size rst
                || Store.pages st <> Store.pages rst) ->
          health.(j) <- Manifest.Stale
      | _ -> ())
    stores;
  let t =
    {
      base;
      shard;
      cache_pages;
      group_commit;
      stores;
      health;
      faults = Array.make r None;
      write_faults = Array.make r false;
      preferred = !ref_j;
      failovers = 0;
      read_errors = Array.make r 0;
      write_errors = Array.make r 0;
      io = Io_stats.create ();
      db = Tx_db.create [||];  (* replaced below *)
    }
  in
  t.db <- make_db t;
  t

let close t =
  Array.iter
    (function Some st -> (try Store.close st with _ -> ()) | None -> ())
    t.stores

(* ------------------------------------------------------------------ *)
(* mirrored ingestion                                                  *)
(* ------------------------------------------------------------------ *)

(* Apply [op] to every healthy replica.  A replica whose write fails is a
   laggard: it stops receiving writes (its data now lags) and goes stale
   until anti-entropy repair.  Fewer than [min_ok] replicas accepting
   re-raises the first failure: new writes demand a majority of the full
   replica set, while a seal — which folds already-acknowledged records —
   proceeds as long as any healthy replica survives, so a degraded shard
   can still reach the sealed boundary repair rebuilds from. *)
let mirror ?min_ok t op =
  let r = Array.length t.stores in
  let min_ok = match min_ok with Some m -> m | None -> quorum r in
  let ok = ref 0 and first_err = ref None in
  for j = 0 to r - 1 do
    if t.health.(j) = Manifest.Healthy then
      match t.stores.(j) with
      | None -> ()
      | Some st -> (
          try
            if t.write_faults.(j) then
              Cfq_error.raise_error (Cfq_error.Transient_io { page = 0 });
            op st;
            incr ok
          with e ->
            t.write_errors.(j) <- t.write_errors.(j) + 1;
            t.health.(j) <- Manifest.Stale;
            if !first_err = None then first_err := Some e)
  done;
  if !ok < min_ok then
    match !first_err with
    | Some e -> raise e
    | None -> raise (No_healthy_replica t.shard)

let append_tx t items = mirror t (fun st -> Store.append_tx st items)
let flush t = mirror t (fun st -> Store.flush st)

let seal t =
  let sealed = ref 0 in
  mirror ~min_ok:1 t (fun st -> sealed := max !sealed (Store.seal st));
  if !sealed > 0 then begin
    (* the seal replaced every replica's db handle: rebuild the failover
       view and re-install the per-replica injectors on the new handles *)
    t.db <- make_db t;
    install_faults t
  end;
  !sealed

(* ------------------------------------------------------------------ *)
(* scrub / repair support                                              *)
(* ------------------------------------------------------------------ *)

let verify_replica ?throttle t ~replica =
  match t.stores.(replica) with
  | None ->
      [ { Store.pf_page = 0; pf_kind = Store.Bad_crc } ] (* unopenable *)
  | Some st -> Store.verify_pages ?throttle st

let set_health t ~replica h = t.health.(replica) <- h

(* Anti-entropy: rebuild replica [j] from the most advanced healthy
   sibling.  The sibling is sealed first (a no-op when its WAL is empty)
   so the rebuilt segment captures everything acknowledged; the replica's
   segment is rewritten page-for-page from the sibling's decoded
   transactions — same page model, same packing, so the result is
   CRC-identical — its WAL is reset at the sibling's generation, and the
   replica is reopened and re-admitted healthy. *)
let repair t ~replica =
  if replica < 0 || replica >= Array.length t.stores then
    invalid_arg "Replica.repair: no such replica";
  match
    List.filter (fun j -> j <> replica) (healthy_order t)
  with
  | [] -> Error "no healthy sibling to repair from"
  | src_j :: _ -> (
      try
        let src = Option.get t.stores.(src_j) in
        ignore (Store.seal src : int);
        let sets = Store.read_all src in
        let gen = Store.generation src in
        let pm = Store.page_model src in
        (match t.stores.(replica) with
        | Some st -> ( try Store.close st with _ -> ())
        | None -> ());
        let p = replica_path t.base ~shard:t.shard ~replica in
        Cfq_store.Segment.write ~page_model:pm ~generation:gen p sets;
        Cfq_store.Wal.reset (p ^ ".wal") ~generation:gen;
        let st =
          Store.open_ ?cache_pages:t.cache_pages ?group_commit:t.group_commit p
        in
        t.stores.(replica) <- Some st;
        Tx_db.set_faults (Store.db st) t.faults.(replica);
        t.health.(replica) <- Manifest.Healthy;
        (* the source may have sealed pending records: refresh the view *)
        t.db <- make_db t;
        install_faults t;
        Ok ()
      with e ->
        t.health.(replica) <- Manifest.Quarantined;
        Error (Printexc.to_string e))

(* the manifest entry this group currently warrants *)
let entry t =
  let st = preferred_store t in
  {
    Manifest.s_txs = Store.size st;
    s_pages = Store.pages st;
    s_generation = Store.generation st;
    s_replicas =
      Array.mapi
        (fun j o ->
          {
            Manifest.r_generation =
              (match o with Some st -> Store.generation st | None -> 0);
            r_health = t.health.(j);
          })
        t.stores;
  }
