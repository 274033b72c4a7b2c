(* The four workloads and the timed phase that runs one of them.

   The timed phase runs whole rounds of the workload's script, one client
   in a closed loop, as many as bring the measured time closest to the
   requested seconds.  Every run of every query enters the latency
   sample.  Every round does the same work, so counts are taken from the
   first round and repeat exactly for a seed.  Last, outside any timing,
   a seeded sample of the answers is checked against an independent
   execution. *)

open Cfq_itembase
open Cfq_txdb
open Cfq_mining
open Cfq_core
open Cfq_service
module Store = Cfq_store.Store
module Sharded = Cfq_shard.Sharded

let now = Unix.gettimeofday

(* ------------------------------------------------------------------ *)
(* Workload definitions *)

type outcome = {
  served : Service.served_from option;  (** [None]: answered by [Exec.run] *)
  pairs : (Frequent.entry * Frequent.entry) list;
  n_pairs : int;
  exec : Exec.result option;
  answer : Service.answer option;
}

type op =
  | Query of string
  | Ingest of Itemset.t array
  | Seal
  | Clear  (** the next analyst starts with empty caches (not timed) *)

(* What one set-up hands to the timed phase.  The closures see the
   current service and store, which [restart] replaces. *)
type instance = {
  sets : Itemset.t array;  (** every transaction of the run, base first *)
  info : Item_info.t;
  run_query : Query.t -> (outcome, string) result;
  ingest : Itemset.t -> unit;
  seal : unit -> Service.live option;
  clear : unit -> unit;
  restart : unit -> unit;  (** restore the state the first round started from *)
  db : unit -> Tx_db.t;
  service : unit -> Service.t option;
  stores : unit -> Store.t array;  (** on-disk stores, [[||]] in memory *)
  sharded : Sharded.t option;
  files : unit -> string list;  (** the on-disk files, for bytes on disk *)
  close : unit -> unit;
}

type spec = {
  sizes : (string * int) list;
  setup : unit -> instance;
  script : instance -> op list;
  exec_span : string;  (** span name of the call that answers a query *)
}

let exec_outcome ctx q =
  let r = Exec.run ~collect_pairs:true ctx q in
  Ok
    {
      served = None;
      pairs = r.Exec.pairs;
      n_pairs = r.Exec.pair_stats.Pairs.n_pairs;
      exec = Some r;
      answer = None;
    }

let service_outcome svc q =
  match Service.run svc q with
  | Ok a ->
      Ok
        {
          served = Some a.Service.served_from;
          pairs = a.Service.pairs;
          n_pairs = a.Service.n_pairs;
          exec = None;
          answer = Some a;
        }
  | Error e -> Error (Service.error_to_string e)

let no_ingest _ = invalid_arg "this workload does not ingest"
let no_seal () = invalid_arg "this workload does not seal"

let memory_instance ~sets ~info ~db ~run_query ~service ~clear =
  {
    sets;
    info;
    run_query;
    ingest = no_ingest;
    seal = no_seal;
    clear;
    restart = ignore;
    db = (fun () -> db);
    service = (fun () -> service);
    stores = (fun () -> [||]);
    sharded = None;
    files = (fun () -> []);
    close = (fun () -> Option.iter Service.shutdown service);
  }

let generate seed n =
  Trace.span "quest.generate" (fun () ->
      let sets = Gen.transactions seed n in
      (sets, Gen.item_info seed sets))

(* session: the paper's target workload, an analyst refining queries
   through the caching service. *)
let session_tx = 20_000
let session_scripts = 10
let session_len = 40

let session seed =
  {
    sizes =
      [
        ("transactions", session_tx);
        ("items", Gen.n_items);
        ("scripts", session_scripts);
        ("queries_per_script", session_len);
      ];
    setup =
      (fun () ->
        let sets, info = generate seed session_tx in
        let db = Tx_db.create sets in
        let svc = Trace.span "service.create" (fun () -> Service.create (Exec.context db info)) in
        memory_instance ~sets ~info ~db ~service:(Some svc) ~run_query:(service_outcome svc)
          ~clear:(fun () -> Service.cache_clear svc));
    script =
      (fun inst ->
        List.concat_map
          (fun s -> Clear :: List.map (fun q -> Query q) s)
          (Gen.session_scripts seed ~support:(Gen.rank_support inst.sets) ~scripts:session_scripts
             ~len:session_len));
    exec_span = "service.run";
  }

(* adhoc: the paper's section 7 scale, no cache and no disk. *)
let adhoc_tx = 100_000
let adhoc_blocks = 10
let adhoc_per_family = 5

let adhoc seed =
  {
    sizes =
      [
        ("transactions", adhoc_tx);
        ("items", Gen.n_items);
        ("queries", adhoc_blocks * adhoc_per_family * 3);
      ];
    setup =
      (fun () ->
        let sets, info = generate seed adhoc_tx in
        let db = Tx_db.create sets in
        let ctx = Exec.context db info in
        memory_instance ~sets ~info ~db ~service:None ~run_query:(exec_outcome ctx) ~clear:ignore);
    script =
      (fun inst ->
        List.map
          (fun q -> Query q)
          (Gen.adhoc_stream seed ~support:(Gen.rank_support inst.sets) ~blocks:adhoc_blocks
             ~per_family:adhoc_per_family));
    exec_span = "cfq.exec";
  }

(* store: adhoc's data in four on-disk shards whose pools hold an eighth
   of their pages, running the first half of adhoc's stream. *)
let store_shards = 4
let store_pool_divisor = 8
let store_blocks = 5

let store seed ~dir =
  {
    sizes =
      [
        ("transactions", adhoc_tx);
        ("items", Gen.n_items);
        ("queries", store_blocks * adhoc_per_family * 3);
        ("shards", store_shards);
        ("pool_divisor", store_pool_divisor);
      ];
    setup =
      (fun () ->
        let sets, info = generate seed adhoc_tx in
        let path = Filename.concat dir "store.cfqdb" in
        Sharded.remove_files path;
        Trace.span "store.build" (fun () -> Sharded.build ~shards:store_shards path sets);
        let sh =
          Trace.span "store.open" (fun () ->
              let pages = Tx_db.pages (Tx_db.create sets) in
              Sharded.open_ ~cache_pages:(max 1 (pages / store_shards / store_pool_divisor)) path)
        in
        let ctx = Exec.context (Sharded.db sh) info in
        {
          sets;
          info;
          run_query = exec_outcome ctx;
          ingest = no_ingest;
          seal = no_seal;
          clear = ignore;
          restart = ignore;
          db = (fun () -> Sharded.db sh);
          service = (fun () -> None);
          stores = (fun () -> Sharded.stores sh);
          sharded = Some sh;
          files =
            (fun () ->
              path
              :: List.concat_map
                   (fun k ->
                     let p = Sharded.shard_path path k in
                     [ p; p ^ ".wal" ])
                   (List.init store_shards Fun.id));
          close =
            (fun () ->
              Sharded.close sh;
              Sharded.remove_files path);
        });
    script =
      (fun inst ->
        List.map
          (fun q -> Query q)
          (Gen.adhoc_stream seed ~support:(Gen.rank_support inst.sets) ~blocks:store_blocks
             ~per_family:adhoc_per_family));
    exec_span = "cfq.exec";
  }

(* live: the service over one on-disk store whose pool holds the whole
   segment, with ingests and seals between the analyst's queries. *)
let live_base = 10_000
let live_epochs = 20
let live_batch = 250
let live_first = 4
let live_reissues = 2
let live_narrowed = 4
let live_arrivals = 2

let live seed ~dir =
  let path = Filename.concat dir "live.cfqdb" in
  let remove () =
    List.iter (fun p -> if Sys.file_exists p then Sys.remove p) [ path; path ^ ".wal" ]
  in
  {
    sizes =
      [
        ("base_transactions", live_base);
        ("items", Gen.n_items);
        ("epochs", live_epochs);
        ("batch_transactions", live_batch);
        ("queries_per_epoch", live_reissues + live_narrowed + live_arrivals);
        ("opening_queries", live_first);
      ];
    setup =
      (fun () ->
        let sets, info = generate seed (live_base + (live_epochs * live_batch)) in
        let cache_pages = Tx_db.pages (Tx_db.create sets) + 16 in
        let open_live () =
          remove ();
          Trace.span "store.build" (fun () -> Store.build path (Array.sub sets 0 live_base));
          let st = Trace.span "store.open" (fun () -> Store.open_ ~cache_pages path) in
          let src = Cfq_live.Source.of_store st in
          let svc =
            Trace.span "service.create" (fun () ->
                Service.create (Exec.context (Cfq_live.Source.db src) info))
          in
          Service.attach_source svc src;
          (st, svc)
        in
        let cur = ref (open_live ()) in
        let close () =
          let st, svc = !cur in
          Service.shutdown svc;
          Store.close st;
          remove ()
        in
        {
          sets;
          info;
          run_query = (fun q -> service_outcome (snd !cur) q);
          ingest = (fun s -> Service.ingest (snd !cur) s);
          seal = (fun () -> Service.seal_live (snd !cur));
          clear = ignore;
          restart =
            (fun () ->
              close ();
              cur := open_live ());
          db = (fun () -> Store.db (fst !cur));
          service = (fun () -> Some (snd !cur));
          stores = (fun () -> [| fst !cur |]);
          sharded = None;
          files = (fun () -> [ path; path ^ ".wal" ]);
          close;
        });
    script =
      (fun inst ->
        let opening, epochs =
          Gen.live_queries seed
            ~support:(Gen.rank_support (Array.sub inst.sets 0 live_base))
            ~epochs:live_epochs ~first:live_first ~reissues:live_reissues ~narrowed:live_narrowed
            ~arrivals:live_arrivals
        in
        List.map (fun q -> Query q) opening
        @ List.concat
            (List.mapi
               (fun e qs ->
                 Ingest (Array.sub inst.sets (live_base + (e * live_batch)) live_batch)
                 :: Seal
                 :: List.map (fun q -> Query q) qs)
               epochs));
    exec_span = "service.run";
  }

let names = [ "session"; "adhoc"; "store"; "live" ]

let spec name ~seed ~dir =
  match name with
  | "session" -> Some (session seed)
  | "adhoc" -> Some (adhoc seed)
  | "store" -> Some (store seed ~dir)
  | "live" -> Some (live seed ~dir)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* The timed phase *)

(* An answer's pair count and a digest of its pairs, sorted, each with
   both sets and both supports.  The first round keeps this, not the
   pairs, of an answer the oracle checks, so that the run's peak memory
   is the system's, not the benchmark's record of it (kept pairs were
   half of [session]'s peak). *)
let answer_digest pairs =
  let a =
    Array.of_list
      (List.map
         (fun (s, t) -> (s.Frequent.set, s.Frequent.support, t.Frequent.set, t.Frequent.support))
         pairs)
  in
  let cmp (s1, n1, t1, m1) (s2, n2, t2, m2) =
    match Itemset.compare s1 s2 with
    | 0 -> (
        match Itemset.compare t1 t2 with
        | 0 -> ( match Int.compare n1 n2 with 0 -> Int.compare m1 m2 | c -> c)
        | c -> c)
    | c -> c
  in
  Array.sort cmp a;
  let b = Buffer.create 4096 in
  let set s = Itemset.iter (fun i -> Buffer.add_string b (string_of_int i ^ ",")) s in
  Array.iter
    (fun (s, n, t, m) ->
      set s;
      Buffer.add_string b (Printf.sprintf "|%d|" n);
      set t;
      Buffer.add_string b (Printf.sprintf "|%d;" m))
    a;
  (Array.length a, Digest.string (Buffer.contents b))

(* One query of the first round, kept for the counts and the oracle. *)
type qrec = {
  qid : int;
  query : Query.t;
  size : int;  (** transactions visible when it ran *)
  digest : (int * Digest.t) option;  (** [answer_digest] when the oracle checks it *)
  result : (outcome, string) result;
      (** without pairs or frequent collections: the counts need neither *)
}

(* Cumulative counters read before and after the first round. *)
type counters = {
  pool_hits : int;
  pool_misses : int;
  pool_evictions : int;
  wal_appends : int;
  wal_fsyncs : int;
  shard_pages : int array;
  shard_misses : int array;
  failovers : int;
  svc : Metrics.snapshot option;
  minor_words : float;
  major_collections : int;
}

let read_counters inst =
  let stores = inst.stores () in
  let sum f = Array.fold_left (fun a st -> a + f st) 0 stores in
  let io f st = f (Store.io st) in
  let gc = Gc.quick_stat () in
  {
    pool_hits = sum (io Io_stats.pool_hits);
    pool_misses = sum (io Io_stats.pool_misses);
    pool_evictions = sum (io Io_stats.pool_evictions);
    wal_appends = sum (fun st -> fst (Store.wal_counters st));
    wal_fsyncs = sum (fun st -> snd (Store.wal_counters st));
    shard_pages = Array.map Io_stats.pages_read (Tx_db.shard_io (inst.db ()));
    shard_misses = Array.map (io Io_stats.pool_misses) stores;
    failovers = (match inst.sharded with Some sh -> Sharded.failovers sh | None -> 0);
    svc = Option.map Service.metrics (inst.service ());
    minor_words = gc.Gc.minor_words;
    major_collections = gc.Gc.major_collections;
  }

type phase = {
  rounds : int;
  wall : float;  (** seconds spent in the script's operations *)
  elapsed : float;  (** the phase from start to end, restarts and clears included *)
  latencies : float list;  (** every query run in seconds; infinity when it failed *)
  parse_s : float list;
  path_s : (string * float) list;  (** seconds per service path, summed *)
  svc_wait_s : float;  (** wall time of service calls beyond the service's own latency *)
  svc_call_s : float;
  seal_s : float list;
  ingest_s : float;
  ingested : int;
  queries : int;
  failed : int;
  first : qrec list;
  seals : Service.live list;  (** the first round's seals *)
  before : counters;
  after : counters;
  disk_before : int;  (** on-disk bytes before the first round *)
  disk_after : int;  (** ... and after it *)
  rss_mb : float;
      (** peak resident set after the first round: later rounds repeat its
          work, and their number depends on the machine's speed *)
}

(* Peak resident set of this process, from the kernel's high-water mark
   (Linux); a run fails where /proc/self/status has no VmHWM line. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec find () =
        match String.split_on_char ':' (input_line ic) with
        | [ "VmHWM"; v ] -> Scanf.sscanf (String.trim v) "%d kB" (fun kb -> float_of_int kb /. 1024.)
        | _ -> find ()
      in
      find ())

let file_size p = if Sys.file_exists p then (Unix.stat p).Unix.st_size else 0
let files_size inst = List.fold_left (fun a p -> a + file_size p) 0 (inst.files ())

let path_name = function
  | None -> "exec"
  | Some Service.Answer_cache -> "answer_hit"
  | Some Service.Subsumed -> "subsumed"
  | Some Service.Cold -> "cold"
  | Some Service.Degraded -> "degraded"

(* [keep qid outcome] decides whether the first round keeps the digest of
   a query's answer for the oracle.  [first_round] is true for the run's very first
   round, which starts from the set-up's state; every later round
   restarts the instance first. *)
let timed_phase inst spec script ~seconds ~keep ~first_round =
  let start = now () in
  let parse_s = ref [] and paths = Hashtbl.create 8 and wall = ref 0. and latencies = ref [] in
  let timed dt = wall := !wall +. dt in
  let svc_wait = ref 0. and svc_call = ref 0. in
  let seal_s = ref [] and ingest_s = ref 0. and ingested = ref 0 in
  let queries = ref 0 and failed = ref 0 in
  let first = ref [] and seals = ref [] in
  let n_pairs_first = Hashtbl.create 512 in
  let before = ref None and after = ref None in
  let disk_before = ref 0 and disk_after = ref 0 and rss_mb = ref 0. in
  let rounds = ref 0 in
  (* whole rounds, so every query of the script weighs the same in the
     sample: as many as bring the measured time closest to [seconds] *)
  while !rounds = 0 || !wall +. (!wall /. float_of_int !rounds /. 2.) < seconds do
    let round = !rounds + 1 in
    (* a restart is preparation, not a measured operation *)
    if round > 1 || not first_round then Trace.span "round.restart" inst.restart;
    if round = 1 then begin
      before := Some (read_counters inst);
      disk_before := files_size inst
    end;
    let qid = ref 0 and epoch = ref 0 in
    List.iter
      (function
        | Clear -> Trace.span "service.clear" inst.clear
        | Query text ->
            incr qid;
            let q = !qid in
            let t0 = now () in
            let result, parse_dt =
              Trace.span ~qid:q "query" (fun () ->
                  let p0 = now () in
                  let query = Trace.span ~qid:q "cfq.parse" (fun () -> Parser.parse text) in
                  let p1 = now () in
                  let r = Trace.span ~qid:q spec.exec_span (fun () -> inst.run_query query) in
                  ((query, r), p1 -. p0))
            in
            let dt = now () -. t0 in
            let query, r = result in
            timed dt;
            latencies := (match r with Ok _ -> dt | Error _ -> Float.infinity) :: !latencies;
            incr queries;
            parse_s := parse_dt :: !parse_s;
            (match r with
            | Ok o ->
                let name = path_name o.served in
                Hashtbl.replace paths name
                  (dt +. Option.value ~default:0. (Hashtbl.find_opt paths name));
                Option.iter
                  (fun a ->
                    svc_call := !svc_call +. dt;
                    svc_wait := !svc_wait +. Float.max 0. (dt -. a.Service.latency_seconds))
                  o.answer;
                (* every round does the same work: a differing answer size
                   is a failure *)
                if round = 1 then Hashtbl.replace n_pairs_first q o.n_pairs
                else if Hashtbl.find_opt n_pairs_first q <> Some o.n_pairs then incr failed
            | Error _ -> incr failed);
            if round = 1 then begin
              let size = Tx_db.size (inst.db ()) in
              let digest =
                match r with Ok o when keep q o -> Some (answer_digest o.pairs) | _ -> None
              in
              let strip (side : Exec.side_report) = { side with frequent = Frequent.empty; valid = [||] } in
              let result =
                Result.map
                  (fun o ->
                    {
                      o with
                      pairs = [];
                      exec =
                        Option.map
                          (fun e -> { e with Exec.pairs = []; s = strip e.Exec.s; t = strip e.Exec.t })
                          o.exec;
                      answer = Option.map (fun a -> { a with Service.pairs = [] }) o.answer;
                    })
                  r
              in
              first := { qid = q; query; size; digest; result } :: !first
            end
        | Ingest batch ->
            let t0 = now () in
            Trace.span ~qid:!epoch "live.ingest" (fun () -> Array.iter inst.ingest batch);
            let dt = now () -. t0 in
            timed dt;
            ingest_s := !ingest_s +. dt;
            ingested := !ingested + Array.length batch
        | Seal ->
            incr epoch;
            let t0 = now () in
            let lv = Trace.span ~qid:!epoch "live.seal" inst.seal in
            let dt = now () -. t0 in
            timed dt;
            seal_s := dt :: !seal_s;
            if round = 1 then Option.iter (fun lv -> seals := lv :: !seals) lv)
      script;
    if round = 1 then begin
      after := Some (read_counters inst);
      disk_after := files_size inst;
      rss_mb := peak_rss_mb ()
    end;
    rounds := round
  done;
  {
    rounds = !rounds;
    wall = !wall;
    elapsed = now () -. start;
    latencies = !latencies;
    parse_s = !parse_s;
    path_s = Hashtbl.fold (fun k v acc -> (k, v) :: acc) paths [];
    svc_wait_s = !svc_wait;
    svc_call_s = !svc_call;
    seal_s = !seal_s;
    ingest_s = !ingest_s;
    ingested = !ingested;
    queries = !queries;
    failed = !failed;
    first = List.rev !first;
    seals = List.rev !seals;
    before = Option.get !before;
    after = Option.get !after;
    disk_before = !disk_before;
    disk_after = !disk_after;
    rss_mb = !rss_mb;
  }

(* ------------------------------------------------------------------ *)
(* Correctness oracle *)

(* The in-memory database holding the first [size] transactions. *)
let twins inst =
  let cache = Hashtbl.create 8 in
  fun size ->
    match Hashtbl.find_opt cache size with
    | Some db -> db
    | None ->
        let db = Tx_db.create (Array.sub inst.sets 0 size) in
        Hashtbl.add cache size db;
        db

type checked = { rec_ : qrec; reference : Exec.result }

(* Recompute every kept answer with the 1-var CAP strategy on an
   in-memory twin at the same epoch; compare pair sets with supports.  A
   query asked again at the same epoch is recomputed once; [checked]
   holds one entry per recomputation. *)
let oracle inst twin (first : qrec list) =
  let checked = ref [] and mismatches = ref 0 in
  let references = Hashtbl.create 64 in
  List.iter
    (fun r ->
      match r.digest with
      | Some (n, digest) ->
          let key = (Query.to_string r.query, r.size) in
          let reference =
            match Hashtbl.find_opt references key with
            | Some reference -> reference
            | None ->
                let reference =
                  Exec.run ~strategy:Plan.Cap_one_var ~collect_pairs:true ~par:(Counting.par 2)
                    (Exec.context (twin r.size) inst.info)
                    r.query
                in
                Hashtbl.add references key reference;
                checked := { rec_ = r; reference } :: !checked;
                reference
          in
          let expected_n, expected = answer_digest reference.Exec.pairs in
          if n <> expected_n || digest <> expected then begin
            incr mismatches;
            Printf.eprintf "oracle: query %d (%s) differs: %d pairs, reference %d\n%!" r.qid
              (Query.to_string r.query) n expected_n
          end
      | None -> ())
    first;
  (List.rev !checked, !mismatches)
