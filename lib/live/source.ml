open Cfq_itembase
open Cfq_txdb
module Store = Cfq_store.Store
module Sharded = Cfq_shard.Sharded

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
      | exception Cfq_shard.Replica.No_healthy_replica k ->
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

let store t = match t.backend with On_store s -> Some s | _ -> None
let sharded t = match t.backend with On_shards s -> Some s | _ -> None

let path t =
  match t.backend with
  | In_mem _ -> None
  | On_store s -> Some (Store.path s)
  | On_shards s -> Some (Sharded.path s)

let located_at t p = path t = Some p || t.origin = Some p

let universe_size t =
  match t.backend with
  | In_mem m -> (
      match Cfq_data.Fimi.max_item m.mem_db with Some i -> i + 1 | None -> 1)
  | On_store s -> Store.universe_size s
  | On_shards s -> Sharded.universe_size s

(* the table covers the data's universe and every item the CSV lists: a
   sparse store's universe ends at its largest item that occurs *)
let item_info t =
  let universe_size = max 1 (universe_size t) in
  let candidates =
    List.filter_map (Option.map (fun p -> p ^ ".info.csv")) [ path t; t.origin ]
  in
  match List.find_opt Sys.file_exists candidates with
  | None -> Ok (Item_info.create ~universe_size)
  | Some p -> (
      match
        Cfq_data.Item_csv.read p
          ~universe_size:(max universe_size (Cfq_data.Item_csv.max_item p + 1))
      with
      | info -> Ok info
      | exception (Cfq_data.Item_csv.Bad_format msg | Sys_error msg) -> Error msg)

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
