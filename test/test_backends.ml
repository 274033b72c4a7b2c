(* One property, every backend.  Seeded histories (append, seal, query,
   reopen, install or clear a transient-fault injector, make one replica
   of a shard flaky) run on five backends built through
   Cfq_live.Source: memory, a 3-shard in-memory composite, a store, a
   3-shard store and a 3x2 replicated store.  After every step, against an
   in-memory twin of the sealed transactions and the brute-force oracle:
   the read surface — transactions and rows — and its charges equal the
   twin's, a flaky replica's reads included (its sibling takes over each
   read where it failed); under an injector, a scan's rows and its
   transactions draw the same decisions and fail alike; Exec.run under
   both kernels answers like the oracle (pairs and supports) at the twin's
   ccc, scans and pages; a live Service answers like the oracle and, after
   a clean seal, serves every query it cached without a scan.  While an
   injector is installed a result may instead be a typed Cfq_error. *)

open Cfq_itembase
open Cfq_txdb
open Cfq_mining
open Cfq_core
open Cfq_service
module Source = Cfq_live.Source
module Sharded = Cfq_shard.Sharded

(* a few transactions per 64-byte page: page runs, shard slices, chunk
   boundaries and the 4-frame buffer pools all see real geometry *)
let page_model = Page_model.make ~page_size_bytes:64 ()

type op =
  | Append of Itemset.t list
  | Seal
  | Query of Query.t
  | Reopen  (** disk: flush, close, reopen (recovery folds the WAL); memory: seal *)
  | Fault of int * float  (** seed and per-page transient probability *)
  | Flaky_replica of int * int
      (** shard and seed: half the page reads of the shard's first replica
          fail; a no-op without a sibling replica *)
  | Clear  (** injectors and flaky replicas *)

type history = { n : int; base : Itemset.t list; ops : op list }

let gen_history =
  QCheck2.Gen.(
    (* from 8 items up, small absolute supports give answers of thousands
       of pairs, and the oracle's cost doubles with every item *)
    let* n = int_range 4 7 in
    let sets size = map (List.map Itemset.of_list) (list_size size (Helpers.gen_tx n)) in
    let op =
      frequency
        [
          (3, map (fun txs -> Append txs) (sets (int_range 1 6)));
          (2, return Seal);
          (3, map (fun q -> Query q) Helpers.gen_query);
          (1, return Reopen);
          (1, map2 (fun seed p -> Fault (seed, p)) (int_range 0 9999) (oneofl [ 0.01; 0.05; 0.2 ]));
          (1, map2 (fun k seed -> Flaky_replica (k, seed)) (int_range 0 2) (int_range 0 9999));
          (1, return Clear);
        ]
    in
    let* base = sets (int_range 8 24) in
    let* ops = list_size (int_range 3 6) op in
    return { n; base; ops })

let op_to_string = function
  | Append txs -> "append " ^ String.concat "" (List.map Itemset.to_string txs)
  | Seal -> "seal"
  | Query q -> "query " ^ Query.to_string q
  | Reopen -> "reopen"
  | Fault (seed, p) -> Printf.sprintf "fault seed=%d p=%g" seed p
  | Flaky_replica (k, seed) -> Printf.sprintf "flaky replica 0 of shard %d seed=%d" k seed
  | Clear -> "clear"

let print_history h =
  Printf.sprintf "n=%d base=%s\n%s" h.n
    (String.concat "" (List.map Itemset.to_string h.base))
    (String.concat "\n" (List.mapi (fun i op -> Printf.sprintf "  %d: %s" i (op_to_string op)) h.ops))

type backing =
  | Mem of (Itemset.t array -> Tx_db.t)  (** how a seal rebuilds the database *)
  | Disk of (string -> Itemset.t array -> unit) * int
      (** how the file is built; replicas per shard *)

let kinds =
  [
    ("mem", Mem (Tx_db.create ~page_model));
    ("mem 3 shards", Mem (Sharded.mem_db ~page_model ~shards:3));
    ("store", Disk (Cfq_store.Store.build ~page_model, 1));
    ("store 3 shards", Disk (Sharded.build ~page_model ~shards:3, 1));
    ("store 3x2 replicas", Disk (Sharded.build ~page_model ~shards:3 ~replicas:2, 2));
  ]

type backend = {
  name : string;
  path : string option;  (** the file a disk backend reopens *)
  replicated : bool;  (** each shard has a sibling replica to fail over to *)
  mutable src : Source.t;
  mutable service : Service.t;
  mutable warm : Query.t list;  (** queries the service answered and cached *)
  mutable faulted : bool;
  mutable fault : Fault.config option;  (** the installed injector's *)
  mutable flaky : int list;  (** shards whose first replica is flaky *)
}

let open_disk path =
  Result.fold ~ok:Fun.id ~error:failwith
    (Source.open_ (Source.Disk { path; cache_pages = Some 4; shards = 1; replicas = 1 }))

(* what a store answers, not what survives a crash (test_store checks
   that): the stores live in memory when the host has a tmpfs *)
let temp_dir =
  if Sys.file_exists "/dev/shm" && Sys.is_directory "/dev/shm" then "/dev/shm"
  else Filename.get_temp_dir_name ()

(* no breaker and no backoff sleep: once a fault is cleared the next
   query must be served, and retries stay instant *)
let start info src =
  let config =
    { Service.default_config with domains = 1; breaker_threshold = 0; backoff_base = 0. }
  in
  let service = Service.create ~config (Exec.context (Source.db src) info) in
  Service.attach_source service src;
  service

let remove_files path =
  Sharded.remove_files path;
  try Sys.remove (path ^ ".wal") with Sys_error _ -> ()

let create info (name, backing) sets =
  let path, src =
    match backing with
    | Mem rebuild -> (None, Source.of_mem ~rebuild sets)
    | Disk (build, _) -> (
        let path = Filename.temp_file ~temp_dir "cfq_backends" ".cfqdb" in
        try
          build path sets;
          (Some path, open_disk path)
        with e ->
          remove_files path;
          raise e)
  in
  let replicated = match backing with Disk (_, r) -> r > 1 | Mem _ -> false in
  {
    name;
    path;
    replicated;
    src;
    service = start info src;
    warm = [];
    faulted = false;
    fault = None;
    flaky = [];
  }

(* also runs after a failed reopen, whose source is already closed *)
let dispose b =
  Service.shutdown b.service;
  (try Source.close b.src with _ -> ());
  Option.iter remove_files b.path

(* a read's outcome as ints — each transaction as tid, length, items;
   then what it returns and the scans, pages, tuples it charged *)
let tx_ints (tx : Transaction.t) =
  tx.Transaction.tid :: Itemset.cardinal tx.Transaction.items :: Itemset.to_list tx.Transaction.items

let delivered iter =
  let acc = ref [] in
  iter (fun tx -> acc := List.rev_append (tx_ints tx) !acc);
  List.rev !acc

(* a row as the same ints: rows carry no tid, the [k]-th row of a read
   from [lo] is transaction [lo + k] *)
let rows_to emit ~lo =
  let tid = ref lo in
  fun items off len ->
    emit (!tid :: len :: Array.to_list (Array.sub items off len));
    incr tid

let delivered_rows ~lo read =
  let acc = ref [] in
  read (rows_to (fun ints -> acc := List.rev_append ints !acc) ~lo);
  List.rev !acc

let charged f =
  let io = Io_stats.create () in
  let v = f io in
  v @ [ Io_stats.scans io; Io_stats.pages_read io; Io_stats.tuples_read io ]

(* every read a suite reaches a backend through; each may raise a typed
   fault while an injector is installed *)
let reads ~n db =
  let size = Tx_db.size db in
  let chunked k =
    ( Printf.sprintf "%d chunks" k,
      fun () ->
        let chunks = Tx_db.scan_chunks db ~max_chunks:k in
        let ranges iter =
          List.concat_map (fun (lo, hi) -> lo :: hi :: delivered (iter db ~lo ~hi)) chunks
        in
        let row_ranges rows =
          List.concat_map (fun (lo, hi) -> lo :: hi :: delivered_rows ~lo (rows db ~lo ~hi)) chunks
        in
        charged (fun io -> Tx_db.begin_scan db io; [])
        @ ranges Tx_db.iter_range @ ranges Tx_db.iter_range_checked @ row_ranges Tx_db.rows
        @ row_ranges Tx_db.rows_checked )
  in
  [
    ("geometry", fun () -> size :: Tx_db.pages db :: List.init size (Tx_db.page_of_tx db));
    (* a composite's shards add up to it, as the twin's one database does *)
    ( "shard totals",
      fun () ->
        let subs = Option.value (Tx_db.shards db) ~default:[| db |] in
        let sum f = Array.fold_left (fun acc sub -> acc + f sub) 0 subs in
        [ sum Tx_db.size; sum Tx_db.pages ] );
    ("scan", fun () -> charged (fun io -> delivered (Tx_db.iter_scan db io)));
    ("scan rows", fun () -> charged (fun io -> delivered_rows ~lo:0 (Tx_db.scan_rows db io)));
    ("get", fun () -> List.concat (List.init size (fun i -> tx_ints (Tx_db.get db i))));
    ( "item frequencies",
      fun () -> charged (fun io -> Array.to_list (Tx_db.item_frequencies db io ~universe_size:n)) );
    ( "support",
      fun () -> charged (fun io -> [ Tx_db.support db io (Itemset.of_list [ n - 2; n - 1 ]) ]) );
  ]
  @ List.map chunked [ 2; 3 ]

(* an answer as sorted ((S, support), (T, support)) pairs *)
let sorted_answer pairs =
  let side (e : Frequent.entry) = (e.Frequent.set, e.Frequent.support) in
  List.sort compare (List.map (fun (s, t) -> (side s, side t)) pairs)

let pairs_string pairs =
  let side (s, k) = Printf.sprintf "%s@%d" (Itemset.to_string s) k in
  String.concat " " (List.map (fun (s, t) -> side s ^ "," ^ side t) pairs)

(* what one Exec.run must reproduce besides the answer *)
let exec_cost (r : Exec.result) =
  Printf.sprintf "counted %d checks %d scans %d pages %d" (Exec.total_counted r)
    (Exec.total_checks r) (Io_stats.scans r.Exec.io) (Io_stats.pages_read r.Exec.io)

(* one step's expectation, computed once from the history alone: the
   twin's read surface, the oracle's answer to each query the step may
   ask, and the twin's cost of each Exec.run *)
type expect = {
  surface : int list list;
  answers : (Query.t * ((Itemset.t * int) * (Itemset.t * int)) list) list;
  costs : (Counting.kernel * string) list;
}

(* the expectation before the first step, then one per step *)
let expectations h ~info =
  let n = h.n in
  let surface db = List.map (fun (_, read) -> read ()) (reads ~n db) in
  let oracle db q =
    let supports = Hashtbl.create 64 in
    let side s =
      if not (Hashtbl.mem supports s) then Hashtbl.add supports s (Helpers.support_of db s);
      (s, Hashtbl.find supports s)
    in
    let pairs = Helpers.brute_answer db ~n ~s_info:info ~t_info:info q in
    (q, List.sort compare (List.map (fun (s, t) -> (side s, side t)) pairs))
  in
  let sealed = ref (Array.of_list h.base) and pending = ref [] and asked = ref [] in
  let db = ref (Tx_db.create ~page_model !sealed) in
  let plain = ref { surface = surface !db; answers = []; costs = [] } in
  let step = function
    | Append txs ->
        pending := List.rev_append txs !pending;
        !plain
    | Seal | Reopen ->
        sealed := Array.append !sealed (Array.of_list (List.rev !pending));
        pending := [];
        db := Tx_db.create ~page_model !sealed;
        plain := { !plain with surface = surface !db };
        (* a clean seal re-asks every query the service may have cached *)
        { !plain with answers = List.map (oracle !db) !asked }
    | Query q ->
        asked := q :: !asked;
        let cost (_, kernel) = (kernel, exec_cost (Exec.run ~kernel (Exec.context !db info) q)) in
        { !plain with answers = [ oracle !db q ]; costs = List.map cost Counting.all_kernels }
    | Fault _ | Flaky_replica _ | Clear -> !plain
  in
  let first = !plain in
  (first, List.rev (List.fold_left (fun acc op -> step op :: acc) [] h.ops))

let fail b step fmt =
  Format.kasprintf (fun s -> QCheck2.Test.fail_reportf "[%s] step %s: %s" b.name step s) fmt

(* a typed fault is a valid outcome only while an injector is installed *)
let faulted b step what err =
  if not b.faulted then fail b step "%s: %s with no fault installed" what err

(* Under one fresh injector of the installed config each, a scan's
   transactions and its rows (a full scan, and a checked range over every
   transaction) deliver the same prefix, fail with the same error and
   leave the injector with the same counts: the transaction view draws
   nothing of its own.  The installed injector is then replaced by a fresh
   one of the same config. *)
let check_same_draws b step =
  match b.fault with
  | None -> ()
  | Some config ->
      let db = Source.db b.src in
      let hi = Tx_db.size db - 1 in
      let under read =
        let f = Fault.create config in
        ignore (Source.set_fault b.src (Some f) : (unit, string) result);
        let acc = ref [] in
        let emit ints = acc := List.rev_append ints !acc in
        let outcome =
          match read emit with () -> "ok" | exception Cfq_error.Error e -> Cfq_error.to_string e
        in
        (List.rev !acc, outcome, Fault.stats f)
      in
      List.iter
        (fun (what, txs, rows) ->
          if under txs <> under rows then fail b step "%s: rows and transactions drew apart" what)
        [
          ( "scan",
            (fun emit -> Tx_db.iter_scan db (Io_stats.create ()) (fun tx -> emit (tx_ints tx))),
            fun emit -> Tx_db.scan_rows db (Io_stats.create ()) (rows_to emit ~lo:0) );
          ( "checked range",
            (fun emit -> Tx_db.iter_range_checked db ~lo:0 ~hi (fun tx -> emit (tx_ints tx))),
            fun emit -> Tx_db.rows_checked db ~lo:0 ~hi (rows_to emit ~lo:0) );
        ];
      ignore (Source.set_fault b.src (Some (Fault.create config)) : (unit, string) result)

let check_surface b step ~n e =
  check_same_draws b step;
  List.iter2
    (fun (what, read) want ->
      match read () with
      | got when got = want -> ()
      | got ->
          let show l = String.concat "," (List.map string_of_int l) in
          fail b step "%s differs\n got %s\nwant %s" what (show got) (show want)
      | exception Cfq_error.Error err -> faulted b step what (Cfq_error.to_string err))
    (reads ~n (Source.db b.src))
    e.surface

let check_answer b step e q ~what got =
  let want = List.assq q e.answers in
  if got <> want then fail b step "%s answer\n got %s\nwant %s" what (pairs_string got) (pairs_string want)

(* pages charged to a composite's per-shard sinks so far *)
let shard_pages db = Array.fold_left (fun acc io -> acc + Io_stats.pages_read io) 0 (Tx_db.shard_io db)

(* on a composite, the shard sinks also add up to the run's page charge *)
let check_exec b step ~info e q =
  List.iter
    (fun (kname, kernel) ->
      let what = "Exec.run " ^ kname in
      let db = Source.db b.src in
      let before = shard_pages db in
      match Exec.run_result ~collect_pairs:true ~kernel (Exec.context db info) q with
      | Ok r ->
          check_answer b step e q ~what (sorted_answer r.Exec.pairs);
          let want = List.assoc kernel e.costs in
          if exec_cost r <> want then fail b step "%s cost\n got %s\nwant %s" what (exec_cost r) want;
          let sinks = shard_pages db - before and pages = Io_stats.pages_read r.Exec.io in
          if Option.is_some (Tx_db.shards db) && sinks <> pages then
            fail b step "%s: shard sinks read %d pages, the run charged %d" what sinks pages
      | Error err -> faulted b step what (Cfq_error.to_string err))
    Counting.all_kernels

(* serve [q]; [promoted] demands a cache hit that pays no scan *)
let check_service ?(promoted = false) b step e q =
  match Service.run b.service q with
  | Ok a ->
      let from = Service.served_from_name a.Service.served_from in
      check_answer b step e q ~what:("service (" ^ from ^ ")") (sorted_answer a.Service.pairs);
      if promoted && a.Service.scans > 0 then
        fail b step "promoted query paid %d scans (%s): %s" a.Service.scans from (Query.to_string q);
      if a.Service.served_from <> Service.Degraded && not (List.memq q b.warm) then
        b.warm <- q :: b.warm
  | Error (Service.Fault err) -> faulted b step "service" (Cfq_error.to_string err)
  | Error err -> fail b step "service: %s" (Service.error_to_string err)

(* the sealed database is a new handle, so the injector stays behind.  A
   clean seal pays at most one old-database scan; every other maintenance
   scan reads at most one page per sealed transaction plus a partial one.
   It promotes every cached query. *)
let seal b step e =
  let old_pages = Tx_db.pages (Source.db b.src) in
  match Service.seal_live b.service with
  | None -> ()
  | Some lv ->
      if b.faulted then b.warm <- []
      else begin
        let old = lv.Service.lv_old_scans and pages = lv.Service.lv_pages_read in
        let bound = (old * old_pages) + ((lv.Service.lv_scans - old) * (lv.Service.lv_sealed + 1)) in
        if old > 1 then fail b step "seal paid %d old-database scans" old;
        if pages > bound then fail b step "seal charged %d pages, above the delta-sized bound %d" pages bound;
        List.iter (check_service ~promoted:true b step e) (List.rev b.warm)
      end;
      b.faulted <- false;
      b.fault <- None

let reopen b path ~start =
  Source.flush b.src;
  Service.shutdown b.service;
  Source.close b.src;
  b.src <- open_disk path;
  b.service <- start b.src;
  b.warm <- [];
  b.faulted <- false;
  b.fault <- None;
  b.flaky <- []

let set_fault b step config =
  match Source.set_fault b.src (Option.map Fault.create config) with
  | Ok () ->
      b.faulted <- config <> None;
      b.fault <- config
  | Error msg -> fail b step "set_fault: %s" msg

(* a flaky replica is no fault: its sibling serves every read exactly *)
let set_replica_fault b step k fault =
  match Source.set_fault b.src ~shard:k ~replica:0 fault with
  | Ok () -> ()
  | Error msg -> fail b step "set_fault shard %d replica 0: %s" k msg

let flaky_replica b step k seed =
  if b.replicated then begin
    set_replica_fault b step k
      (Some
         (Fault.create { Fault.default_config with seed = Int64.of_int seed; transient_p = 0.5 }));
    if not (List.mem k b.flaky) then b.flaky <- k :: b.flaky
  end

let clear b step =
  set_fault b step None;
  List.iter (fun k -> set_replica_fault b step k None) b.flaky;
  b.flaky <- []

(* one backend through the whole history *)
let run_backend h ~info (first, expects) kind =
  let n = h.n and b = create info kind (Array.of_list h.base) in
  Fun.protect ~finally:(fun () -> dispose b) @@ fun () ->
  check_surface b "base" ~n first;
  List.iteri
    (fun i (op, e) ->
      let step = Printf.sprintf "%d (%s)" i (op_to_string op) in
      (match (op, b.path) with
      | Append txs, _ -> List.iter (Service.ingest b.service) txs
      | Reopen, Some path -> reopen b path ~start:(start info)
      | (Seal | Reopen), _ -> seal b step e
      | Query q, _ ->
          check_exec b step ~info e q;
          check_service b step e q
      | Fault (seed, p), _ ->
          set_fault b step
            (Some { Fault.default_config with seed = Int64.of_int seed; transient_p = p })
      | Flaky_replica (k, seed), _ -> flaky_replica b step k seed
      | Clear, _ -> clear b step);
      check_surface b step ~n e)
    (List.combine h.ops expects)

let run_history h =
  let info = Helpers.small_info h.n in
  List.iter (run_backend h ~info (expectations h ~info)) kinds;
  true

let suite =
  [
    Helpers.qtest ~count:200 ~long_factor:50 "every backend follows the twin" gen_history print_history
      run_history;
  ]
