open Cfq_itembase
open Cfq_txdb
module Store = Cfq_store.Store

type seal_info = {
  si_generation : int;
  si_base_txs : int;
  si_sealed_txs : int;
  si_delta_ranges : (int * int) list;
}

type t = {
  path : string;
  cache_pages : int option;
  group_commit : int option;
  groups : Replica.t array;
  mutable db : Tx_db.t;
  mutable manifest : Manifest.t;
  mutable last_seal : seal_info option;
}

let shard_path = Replica.shard_path

(* ------------------------------------------------------------------ *)
(* Partitioner                                                         *)
(* ------------------------------------------------------------------ *)

(* page-run starts of the global greedy packing: the only places a shard
   boundary may sit, because the packer's free-space counter is spent
   entering a run start — local re-packing from there reproduces the
   global page geometry exactly *)
let run_starts page_of n =
  let starts = ref [] in
  let i = ref 0 in
  while !i < n do
    starts := !i :: !starts;
    let page = page_of.(!i) in
    let j = ref !i in
    while !j < n && page_of.(!j) = page do
      incr j
    done;
    i := !j
  done;
  Array.of_list (List.rev !starts)

(* [shards] contiguous (possibly empty) tid ranges, in order, each
   boundary snapped to a page-run start of the global packing: balanced by
   page runs, like [Tx_db.scan_chunks] *)
let tid_ranges ?(page_model = Page_model.default) sizes ~shards =
  let n = Array.length sizes in
  let shards = max 1 shards in
  let page_of, _pages = Page_model.assign page_model sizes in
  let starts = run_starts page_of n in
  let runs = Array.length starts in
  Array.init shards (fun k ->
      let r0 = k * runs / shards and r1 = (k + 1) * runs / shards in
      if r0 >= r1 then (0, -1) (* empty shard *)
      else
        let lo = starts.(r0) in
        let hi = if r1 = runs then n - 1 else starts.(r1) - 1 in
        (lo, hi))

let slices ?page_model sets ~shards =
  let sizes = Array.map Itemset.cardinal sets in
  Array.map
    (fun (lo, hi) -> if hi < lo then [||] else Array.sub sets lo (hi - lo + 1))
    (tid_ranges ?page_model sizes ~shards)

(* ------------------------------------------------------------------ *)
(* Manifest computation                                                *)
(* ------------------------------------------------------------------ *)

(* composite checksums over global tids, walking the live shard databases
   raw (page_of comes from the handles, no repacking) *)
let composite_checksums ~n_pages stores =
  let sums = Array.make n_pages Tx_db.Checksum.seed in
  let tbase = ref 0 and pbase = ref 0 in
  Array.iter
    (fun st ->
      let sub = Store.db st in
      let n = Tx_db.size sub in
      let i = ref 0 in
      Tx_db.rows sub ~lo:0 ~hi:(n - 1) (fun items off len ->
          let p = !pbase + Tx_db.page_of_tx sub !i in
          sums.(p) <- Tx_db.Checksum.add_row sums.(p) (!tbase + !i) items off len;
          incr i);
      tbase := !tbase + n;
      pbase := !pbase + Tx_db.pages sub)
    stores;
  sums

let manifest_of_entries ~generation ~replicas entries stores =
  let n_txs = Array.fold_left (fun a e -> a + e.Manifest.s_txs) 0 entries in
  let n_pages = Array.fold_left (fun a e -> a + e.Manifest.s_pages) 0 entries in
  let universe =
    Array.fold_left (fun a st -> max a (Store.universe_size st)) 0 stores
  in
  {
    Manifest.generation;
    partition = Manifest.Tid_range;
    universe;
    n_txs;
    n_pages;
    replicas;
    shards = entries;
    checksums = composite_checksums ~n_pages stores;
  }

(* a fresh build: every replica healthy at its store's generation *)
let manifest_of_stores ~generation ~replicas stores =
  let entries =
    Array.map
      (fun st ->
        {
          Manifest.s_txs = Store.size st;
          s_pages = Store.pages st;
          s_generation = Store.generation st;
          s_replicas =
            Array.make replicas
              {
                Manifest.r_generation = Store.generation st;
                r_health = Manifest.Healthy;
              };
        })
      stores
  in
  manifest_of_entries ~generation ~replicas entries stores

(* a live store: per-replica generation and health come from the groups *)
let manifest_of_groups ~generation ~replicas groups =
  let entries = Array.map Replica.entry groups in
  let stores = Array.map Replica.preferred_store groups in
  manifest_of_entries ~generation ~replicas entries stores

(* ------------------------------------------------------------------ *)
(* Build                                                               *)
(* ------------------------------------------------------------------ *)

let remove_quiet p = try Sys.remove p with Sys_error _ -> ()

let build ?page_model ?(replicas = 1) ?on_shard_built ~shards path sets =
  let shards = max 1 shards in
  let replicas = max 1 replicas in
  let parts = slices ?page_model sets ~shards in
  let created = ref [] in
  try
    Array.iteri
      (fun k slice ->
        let paths = Replica.build ?page_model ~replicas ~shard:k path slice in
        created := List.rev_append paths !created;
        match on_shard_built with Some f -> f k | None -> ())
      parts;
    (* compute the composite view from freshly opened shards so the
       manifest records exactly what open_ will see *)
    let stores = Array.init shards (fun k -> Store.open_ ~cache_pages:1 (shard_path path k)) in
    Fun.protect
      ~finally:(fun () -> Array.iter (fun st -> try Store.close st with _ -> ()) stores)
      (fun () ->
        Manifest.write path
          (manifest_of_stores ~generation:0 ~replicas stores))
  with e ->
    (* a failed build leaves no orphaned shard files: every replica store
       created so far (segment + WAL) goes, and so does the manifest temp *)
    List.iter
      (fun sp ->
        remove_quiet sp;
        remove_quiet (sp ^ ".wal"))
      !created;
    remove_quiet (path ^ ".tmp");
    raise e

let build_from_segment ?replicas ~shards ~src path =
  let seg = Cfq_store.Segment.open_ src in
  let pm = seg.Cfq_store.Segment.pm in
  let sets =
    Fun.protect
      ~finally:(fun () -> Cfq_store.Segment.close seg)
      (fun () -> Cfq_store.Segment.read_all seg)
  in
  build ~page_model:pm ?replicas ~shards path sets

(* ------------------------------------------------------------------ *)
(* Open / attach                                                       *)
(* ------------------------------------------------------------------ *)

let attach groups m =
  Tx_db.of_shards ~checksums:m.Manifest.checksums
    ~io:(Array.map Replica.io groups)
    (Array.map Replica.db groups)

(* the manifest matches iff every shard entry — sizes, generations and the
   per-replica (generation, health) pairs — agrees with the live groups *)
let manifest_matches m groups =
  Array.length groups = Array.length m.Manifest.shards
  && Array.for_all2
       (fun e g -> e = Replica.entry g)
       m.Manifest.shards groups

let open_ ?cache_pages ?group_commit path =
  let m = Manifest.read path in
  let ns = Array.length m.Manifest.shards in
  let groups = Array.make ns None in
  (try
     for k = 0 to ns - 1 do
       let health =
         Array.map
           (fun r -> r.Manifest.r_health)
           m.Manifest.shards.(k).Manifest.s_replicas
       in
       groups.(k) <-
         Some
           (Replica.open_group ?cache_pages ?group_commit ~health
              ~replicas:m.Manifest.replicas ~shard:k path)
     done
   with e ->
     Array.iter
       (function Some g -> (try Replica.close g with _ -> ()) | None -> ())
       groups;
     raise e);
  let groups = Array.map Option.get groups in
  (* self-heal a stale manifest: per-shard recovery may have folded WAL
     records, a crash during seal can leave the manifest one generation
     behind the shards, and open_group demotes laggard replicas to stale *)
  let m =
    if manifest_matches m groups then m
    else begin
      let healed =
        manifest_of_groups ~generation:(m.Manifest.generation + 1)
          ~replicas:m.Manifest.replicas groups
      in
      Manifest.write path healed;
      healed
    end
  in
  {
    path;
    cache_pages;
    group_commit;
    groups;
    db = attach groups m;
    manifest = m;
    last_seal = None;
  }

let close t = Array.iter Replica.close t.groups
let db t = t.db
let groups t = t.groups
let stores t = Array.map Replica.preferred_store t.groups
let manifest t = t.manifest
let path t = t.path
let shard_count t = Array.length t.groups
let replicas t = t.manifest.Manifest.replicas
let size t = Tx_db.size t.db
let pages t = Tx_db.pages t.db

let universe_size t =
  Array.fold_left
    (fun a g -> max a (Store.universe_size (Replica.preferred_store g)))
    0 t.groups

let failovers t =
  Array.fold_left (fun a g -> a + Replica.failovers g) 0 t.groups

(* ------------------------------------------------------------------ *)
(* Ingestion                                                           *)
(* ------------------------------------------------------------------ *)

(* the last shard holds the largest global tids: order preserved *)
let append_tx t items = Replica.append_tx t.groups.(Array.length t.groups - 1) items

let flush t = Array.iter Replica.flush t.groups

(* rewrite the manifest from the live groups (bumped generation) and
   re-attach the composite — after a seal, or after scrub changed
   replica health *)
let sync_manifest t =
  let m =
    manifest_of_groups ~generation:(t.manifest.Manifest.generation + 1)
      ~replicas:t.manifest.Manifest.replicas t.groups
  in
  Manifest.write t.path m;
  t.manifest <- m;
  t.db <- attach t.groups m

let seal t =
  let bases = Array.map (fun g -> Store.size (Replica.preferred_store g)) t.groups in
  let sealed_per = Array.map Replica.seal t.groups in
  let sealed = Array.fold_left ( + ) 0 sealed_per in
  if sealed > 0 then begin
    sync_manifest t;
    (* global delta ranges of the post-seal composite: each shard's new
       records sit at its tail, offset by the post-seal sizes of the
       shards before it.  Appends go to the last shard, so this is one
       trailing range. *)
    let ranges = ref [] and off = ref 0 in
    Array.iteri
      (fun i g ->
        let n = Store.size (Replica.preferred_store g) in
        if sealed_per.(i) > 0 then
          ranges :=
            (!off + bases.(i), !off + bases.(i) + sealed_per.(i) - 1) :: !ranges;
        off := !off + n)
      t.groups;
    t.last_seal <-
      Some
        {
          si_generation = t.manifest.Manifest.generation;
          si_base_txs = Array.fold_left ( + ) 0 bases;
          si_sealed_txs = sealed;
          si_delta_ranges = List.rev !ranges;
        }
  end;
  sealed

let last_seal t = t.last_seal

(* ------------------------------------------------------------------ *)
(* Faults, cleanup, in-memory twin                                     *)
(* ------------------------------------------------------------------ *)

let set_shard_fault t ~shard f =
  match Tx_db.shards t.db with
  | Some subs when shard >= 0 && shard < Array.length subs ->
      Tx_db.set_faults subs.(shard) f
  | _ -> invalid_arg "Sharded.set_shard_fault: no such shard"

let set_replica_fault t ~shard ~replica f =
  if shard < 0 || shard >= Array.length t.groups then
    invalid_arg "Sharded.set_replica_fault: no such shard";
  Replica.set_fault t.groups.(shard) ~replica f

let set_replica_write_fault t ~shard ~replica v =
  if shard < 0 || shard >= Array.length t.groups then
    invalid_arg "Sharded.set_replica_write_fault: no such shard";
  Replica.set_write_fault t.groups.(shard) ~replica v

let remove_files path =
  let ns, nr =
    match Manifest.read path with
    | m -> (Array.length m.Manifest.shards, m.Manifest.replicas)
    | exception _ ->
        (* manifest unreadable: probe for shard files *)
        let k = ref 0 in
        while Sys.file_exists (shard_path path !k) do
          incr k
        done;
        (!k, 1)
  in
  for k = 0 to ns - 1 do
    (* remove every replica file that exists, even beyond the recorded
       count (a crashed re-replication may have left extras) *)
    let j = ref 0 in
    let continue = ref true in
    while !continue do
      let p = Replica.replica_path path ~shard:k ~replica:!j in
      let found = Sys.file_exists p || Sys.file_exists (p ^ ".wal") in
      remove_quiet p;
      remove_quiet (p ^ ".wal");
      incr j;
      continue := found || !j < nr
    done
  done;
  remove_quiet (path ^ ".tmp");
  remove_quiet path

let mem_db ?page_model ~shards sets =
  let parts = slices ?page_model sets ~shards in
  let subs = Array.map (fun slice -> Tx_db.create ?page_model slice) parts in
  Tx_db.of_shards ?page_model subs
