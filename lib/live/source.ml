open Cfq_itembase
open Cfq_txdb
module Store = Cfq_store.Store
module Sharded = Cfq_shard.Sharded
module Replica = Cfq_shard.Replica

type backend =
  | In_mem of {
      mutable mem_sets : Itemset.t array;
      mutable mem_db : Tx_db.t;
      mutable mem_pending : Itemset.t list;  (* newest first *)
      mem_rebuild : Itemset.t array -> Tx_db.t;
    }
  | On_store of Store.t
  | On_shards of Sharded.t

type t = {
  backend : backend;
  origin : string option;  (* the path a [Disk] spec named *)
  mutable epoch : int;
  mutable pending : int;
}

type spec =
  | Mem of Itemset.t array
  | Disk of { path : string; cache_pages : int option; shards : int; replicas : int }

let make ?origin backend = { backend; origin; epoch = 0; pending = 0 }

let of_mem ?rebuild sets =
  let rebuild =
    match rebuild with Some f -> f | None -> fun sets -> Tx_db.create sets
  in
  make
    (In_mem
       { mem_sets = sets; mem_db = rebuild sets; mem_pending = []; mem_rebuild = rebuild })

let of_store s = make (On_store s)

(* a manifest opens sharded as-is; a plain segment asked for shards or
   replicas is split once into a sharded twin at [PATH.sharded], reused on
   later opens; anything else opens plain *)
let open_disk ~path ~cache_pages ~shards ~replicas =
  let sharded p = On_shards (Sharded.open_ ?cache_pages p) in
  if Cfq_shard.Manifest.is_manifest path then sharded path
  else if shards > 1 || replicas > 1 then begin
    let twin = path ^ ".sharded" in
    if not (Cfq_shard.Manifest.is_manifest twin) then
      Sharded.build_from_segment ~replicas ~shards ~src:path twin;
    sharded twin
  end
  else On_store (Store.open_ ?cache_pages path)

let open_ = function
  | Mem sets -> Ok (of_mem sets)
  | Disk { shards; replicas; _ } when shards < 1 || replicas < 1 ->
      Error "shards and replicas must be >= 1"
  | Disk { path; cache_pages; shards; replicas } -> (
      match open_disk ~path ~cache_pages ~shards ~replicas with
      | backend -> Ok (make ~origin:path backend)
      | exception
          ( Cfq_store.Segment.Bad_segment msg
          | Cfq_shard.Manifest.Bad_manifest msg
          | Sys_error msg ) ->
          Error msg
      | exception Replica.No_healthy_replica k ->
          Error (Printf.sprintf "%s: shard %d has no healthy replica" path k)
      | exception Unix.Unix_error (e, _, _) ->
          Error (path ^ ": " ^ Unix.error_message e))

let close t =
  match t.backend with
  | In_mem _ -> ()
  | On_store s -> Store.close s
  | On_shards s -> Sharded.close s

let db t =
  match t.backend with
  | In_mem m -> m.mem_db
  | On_store s -> Store.db s
  | On_shards s -> Sharded.db s

let epoch t = t.epoch
let pending t = t.pending
let size t = Tx_db.size (db t)

let backend_name t =
  match t.backend with In_mem _ -> "mem" | On_store _ -> "store" | On_shards _ -> "sharded"

let sharded t = match t.backend with On_shards s -> Some s | _ -> None

let path t =
  match t.backend with
  | In_mem _ -> None
  | On_store s -> Some (Store.path s)
  | On_shards s -> Some (Sharded.path s)

let located_at t p = path t = Some p || t.origin = Some p

let fimi_universe db = match Cfq_data.Fimi.max_item db with Some i -> i + 1 | None -> 1

let universe_size t =
  match t.backend with
  | In_mem m -> fimi_universe m.mem_db
  | On_store s -> Store.universe_size s
  | On_shards s -> Sharded.universe_size s

let info_path path = path ^ ".info.csv"

(* the table covers the data's universe and every item the CSV lists: a
   sparse store's universe ends at its largest item that occurs, and a
   generated table names every item of the generator's universe *)
let read_info ~universe_size = function
  | None -> Ok (Item_info.create ~universe_size)
  | Some p -> (
      match
        Cfq_data.Item_csv.read p
          ~universe_size:(max universe_size (Cfq_data.Item_csv.max_item p + 1))
      with
      | info -> Ok info
      | exception (Cfq_data.Item_csv.Bad_format msg | Sys_error msg) -> Error msg)

let item_info t =
  List.filter_map (Option.map info_path) [ path t; t.origin ]
  |> List.find_opt Sys.file_exists
  |> read_info ~universe_size:(max 1 (universe_size t))

let save ?(shards = 1) ?(replicas = 1) path db info =
  if shards > 1 || replicas > 1 then
    Sharded.build ~shards ~replicas path
      (Array.init (Tx_db.size db) (fun i -> (Tx_db.get db i).Transaction.items))
  else Store.save_db path db;
  Cfq_data.Item_csv.write (info_path path) info

let load fimi info =
  match Cfq_data.Fimi.read fimi with
  | exception (Cfq_data.Fimi.Bad_format msg | Sys_error msg) -> Error msg
  | db -> Result.map (fun i -> (db, i)) (read_info ~universe_size:(fimi_universe db) info)

let recovery_suffix stores =
  let replayed, torn =
    Array.fold_left
      (fun (r, b) st ->
        let rc = Store.last_recovery st in
        (r + rc.Store.replayed, b + rc.Store.truncated_bytes))
      (0, 0) stores
  in
  if replayed > 0 || torn > 0 then
    Printf.sprintf " (recovered %d WAL records, dropped %d torn bytes)" replayed torn
  else ""

let summary t =
  match t.backend with
  | In_mem m ->
      Printf.sprintf "%d transactions, %d pages (in memory)" (Tx_db.size m.mem_db)
        (Tx_db.pages m.mem_db)
  | On_store s ->
      Printf.sprintf "%s: %d transactions, %d pages, cache %d pages%s" (Store.path s)
        (Store.size s) (Store.pages s) (Store.cache_pages s) (recovery_suffix [| s |])
  | On_shards s ->
      let m = Sharded.manifest s in
      let r = Sharded.replicas s in
      Printf.sprintf "%s: %d shards (%s)%s, %d transactions, %d pages, generation %d%s"
        (Sharded.path s) (Sharded.shard_count s)
        (Cfq_shard.Manifest.partition_name m.Cfq_shard.Manifest.partition)
        (if r > 1 then Printf.sprintf " x %d replicas" r else "")
        (Sharded.size s) (Sharded.pages s) m.Cfq_shard.Manifest.generation
        (recovery_suffix (Sharded.stores s))

let set_fault t ?shard ?replica f =
  let in_range what k n =
    if k >= 0 && k < n then Ok ()
    else Error (Printf.sprintf "%s %d out of range (store has %d %ss)" what k n what)
  in
  match (shard, replica, t.backend) with
  | None, None, _ ->
      Tx_db.set_faults (db t) f;
      Ok ()
  | None, Some _, _ -> Error "a replica pin needs a shard"
  | Some _, _, (In_mem _ | On_store _) -> Error "the attached store is not sharded"
  | Some k, None, On_shards s ->
      Result.map
        (fun () -> Sharded.set_shard_fault s ~shard:k f)
        (in_range "shard" k (Sharded.shard_count s))
  | Some k, Some j, On_shards s ->
      Result.bind (in_range "shard" k (Sharded.shard_count s)) (fun () ->
          Result.map
            (fun () -> Sharded.set_replica_fault s ~shard:k ~replica:j f)
            (in_range "replica" j (Sharded.replicas s)))

let fault_report ?shard ?replica f =
  let pin =
    match (shard, replica) with
    | Some k, Some j -> Printf.sprintf " (shard %d, replica %d)" k j
    | Some k, None -> Printf.sprintf " (shard %d)" k
    | None, _ -> ""
  in
  match Option.map Fault.config f with
  | None -> "fault injection off" ^ pin
  | Some c ->
      Printf.sprintf "fault injection on: transient-p=%g corrupt-p=%g spike-p=%g seed=%Ld%s"
        c.Fault.transient_p c.Fault.corrupt_p c.Fault.spike_p c.Fault.seed pin

let verify t =
  match t.backend with
  | In_mem _ -> (true, "in memory: no pages on disk to verify")
  | On_store s -> (
      match Store.verify_pages s with
      | [] ->
          (true, Printf.sprintf "%s: all %d pages verified" (Store.path s) (Store.pages s))
      | faults ->
          ( false,
            Printf.sprintf "VERIFICATION FAILED -- %s: %d bad pages: %s" (Store.path s)
              (List.length faults) (Store.page_faults_to_string faults) ))
  | On_shards s ->
      let rows = Cfq_shard.Scrub.health_report s in
      let healthy = Cfq_shard.Scrub.healthy_report rows in
      ( healthy,
        String.concat "\n  "
          ((if healthy then "all replicas healthy, every page verified"
            else "VERIFICATION FAILED")
          :: List.map Cfq_shard.Scrub.health_row_to_string rows) )

let pool_stats st =
  let io = Store.io st in
  Printf.sprintf "%d hits, %d misses, %d evictions (cache %d of %d pages)"
    (Io_stats.pool_hits io) (Io_stats.pool_misses io) (Io_stats.pool_evictions io)
    (Store.cache_pages st) (Store.pages st)

let replica_lines g =
  if Replica.replica_count g <= 1 then []
  else
    List.init (Replica.replica_count g) (fun j ->
        Printf.sprintf "  replica %d: %s%s, %d read errors, %d write errors" j
          (Cfq_shard.Manifest.health_name (Replica.health g ~replica:j))
          (if j = Replica.preferred g then " (preferred)" else "")
          (Replica.read_errors g ~replica:j) (Replica.write_errors g ~replica:j))

let io_lines t =
  match t.backend with
  | In_mem _ -> []
  | On_store s -> [ "buffer pool: " ^ pool_stats s ]
  | On_shards s ->
      let ios = Tx_db.shard_io (Sharded.db s) in
      let groups = Sharded.groups s in
      List.concat
        (List.mapi
           (fun k st ->
             Printf.sprintf "shard %d: %d transactions, %d scans, %d pages read; pool %s" k
               (Store.size st) (Io_stats.scans ios.(k)) (Io_stats.pages_read ios.(k))
               (pool_stats st)
             :: replica_lines groups.(k))
           (Array.to_list (Sharded.stores s)))
      @
      if Sharded.replicas s > 1 then
        [ Printf.sprintf "replica failovers: %d" (Sharded.failovers s) ]
      else []

let append_tx t items =
  (match t.backend with
  | In_mem m -> m.mem_pending <- items :: m.mem_pending
  | On_store s -> Store.append_tx s items
  | On_shards s -> Sharded.append_tx s items);
  t.pending <- t.pending + 1

let flush t =
  match t.backend with
  | In_mem _ -> ()
  | On_store s -> Store.flush s
  | On_shards s -> Sharded.flush s

let seal t io =
  let sealed, ranges =
    match t.backend with
    | In_mem m ->
        let k = List.length m.mem_pending in
        if k = 0 then (0, [])
        else begin
          let base = Array.length m.mem_sets in
          m.mem_sets <-
            Array.append m.mem_sets (Array.of_list (List.rev m.mem_pending));
          m.mem_pending <- [];
          m.mem_db <- m.mem_rebuild m.mem_sets;
          (k, [ (base, base + k - 1) ])
        end
    | On_store s -> (
        let k = Store.seal s in
        if k = 0 then (0, [])
        else
          match Store.last_seal s with
          | Some si ->
              ( k,
                [
                  ( si.Store.si_base_txs,
                    si.Store.si_base_txs + si.Store.si_sealed_txs - 1 );
                ] )
          | None -> (k, []))
    | On_shards s -> (
        let k = Sharded.seal s in
        if k = 0 then (0, [])
        else
          match Sharded.last_seal s with
          | Some si -> (k, si.Sharded.si_delta_ranges)
          | None -> (k, []))
  in
  if sealed = 0 || ranges = [] then None
  else begin
    t.pending <- 0;
    t.epoch <- t.epoch + 1;
    let ndb = db t in
    let base = Tx_db.size ndb - sealed in
    Some (Delta.extract ~epoch:t.epoch ~base_txs:base ~ranges ndb io)
  end

let append_file t fimi =
  match Cfq_data.Fimi.read fimi with
  | exception (Cfq_data.Fimi.Bad_format msg | Sys_error msg) -> Error msg
  | db ->
      for i = 0 to Tx_db.size db - 1 do
        append_tx t (Tx_db.get db i).Transaction.items
      done;
      Ok (Tx_db.size db)
