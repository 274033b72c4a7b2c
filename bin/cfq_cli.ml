(* cfq — run constrained frequent set queries against synthetic market-basket
   data from the command line.

     cfq explain 'sum(S.Price) <= sum(T.Price)'
     cfq run --tx 20000 --items 500 '{(S,T) | freq(S) >= 0.01 & S.Type = T.Type}'
     cfq run --strategy apriori+ --pairs 10 'max(S.Price) <= min(T.Price)'
     cfq gen --tx 1000 --items 100 *)

open Cmdliner
open Cfq_quest
open Cfq_core
module Service = Cfq_service.Service
module Source = Cfq_live.Source

(* ------------------------------------------------------------------ *)
(* shared options *)

let verbose_arg =
  Arg.(
    value & flag
    & info [ "v"; "verbose" ] ~doc:"Enable debug logging of the engines.")

let setup_logs verbose =
  if verbose then begin
    Logs.set_reporter (Logs.format_reporter ());
    Logs.set_level (Some Logs.Debug)
  end

let tx_arg =
  Arg.(value & opt int 10_000 & info [ "tx" ] ~docv:"N" ~doc:"Number of transactions.")

let items_arg =
  Arg.(value & opt int 500 & info [ "items" ] ~docv:"N" ~doc:"Item universe size.")

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Generator seed.")

let types_arg =
  Arg.(
    value & opt int 20
    & info [ "types" ] ~docv:"N" ~doc:"Number of distinct item types (Type attribute).")

let strategy_arg =
  Arg.(
    value
    & opt (enum Plan.all_strategies) Plan.Optimized
    & info [ "strategy" ] ~docv:"STRATEGY"
        ~doc:"Execution strategy: $(b,apriori+), $(b,cap) (1-var pushing only), \
              $(b,optimized), $(b,sequential) (T lattice first, exact bounds) or \
              $(b,fm) (full materialization; tiny universes only).")

let query_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"QUERY" ~doc:"CFQ in the textual syntax.")

let pairs_arg =
  Arg.(
    value & opt int 0
    & info [ "pairs" ] ~docv:"N" ~doc:"Print the first N answer pairs.")

(* one flag per service knob, generated from [Service.knobs]; [only]
   narrows the set.  The term folds every given value into the default
   config, and a malformed value is a usage error naming the knob. *)
let knobs_term ?only () =
  let wanted (k : Service.knob) =
    match only with None -> true | Some names -> List.mem k.name names
  in
  List.fold_left
    (fun acc (k : Service.knob) ->
      let flag =
        Arg.(
          value
          & opt (some string) None
          & info [ k.name ] ~docv:(String.uppercase_ascii k.name)
              ~doc:
                (Printf.sprintf "%s Default: $(b,%s)." k.doc
                   (k.print Service.default_config)))
      in
      let set acc v =
        Result.bind acc (fun c -> Option.fold ~none:(Ok c) ~some:(fun v -> k.parse v c) v)
      in
      Term.(const set $ acc $ flag))
    (Term.const (Ok Service.default_config))
    (List.filter wanted Service.knobs)
  |> Term.term_result' ~usage:true

let data_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "data" ] ~docv:"FILE" ~doc:"Load transactions from a FIMI file instead of generating.")

let iteminfo_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "iteminfo" ] ~docv:"FILE"
        ~doc:"Load the itemInfo table from a CSV file (header: item,Attr[,Attr:cat...]). \
              Requires $(b,--data).")

let out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "out" ] ~docv:"FILE" ~doc:"Also write the transactions to a FIMI file.")

let info_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "info-out" ] ~docv:"FILE" ~doc:"Also write the itemInfo table to a CSV file.")

(* ------------------------------------------------------------------ *)

let msg r = Result.map_error (fun m -> `Msg m) r

let parse_query text =
  match Parser.parse_result text with
  | Ok q -> Ok q
  | Error msg -> Error (`Msg ("query: " ^ msg))

(* without an attribute table, constraints over Item still work *)
let load_or_generate ~tx ~items ~types ~seed ~data ~iteminfo =
  match data with
  | None -> Ok (Quest_gen.market ~seed ~n_tx:tx ~n_items:items ~n_types:types)
  | Some path -> msg (Source.load path iteminfo)

let run_cmd verbose tx items types seed strategy (config : Service.config) n_pairs
    data iteminfo pairs_out text =
  setup_logs verbose;
  match parse_query text with
  | Error e -> Error e
  | Ok q -> (
      match load_or_generate ~tx ~items ~types ~seed ~data ~iteminfo with
      | Error e -> Error e
      | Ok (db, info) ->
      (match Validate.check ~s_info:info ~t_info:info q with
      | Ok () -> ()
      | Error errors ->
          List.iter
            (fun e -> Format.eprintf "error: %a@." Validate.pp_error e)
            errors;
          exit 1);
      Printf.printf "database: %d transactions (%d pages)\n"
        (Cfq_txdb.Tx_db.size db) (Cfq_txdb.Tx_db.pages db);
      Printf.printf "query: %s\n\n" (Query.to_string q);
      let collect_pairs = n_pairs > 0 || pairs_out <> None in
      match Service.run_once config ~strategy ~collect_pairs (Exec.context db info) q with
      | Error e -> Error (`Msg (Cfq_txdb.Cfq_error.to_string e))
      | Ok r ->
          print_endline (Explain.result_to_string r);
          if n_pairs > 0 then Printf.printf "\n%s\n" (Explain.pairs_to_string n_pairs r);
          (match pairs_out with
          | Some path ->
              Cfq_data.Result_csv.write_pairs path r.Exec.pairs;
              Printf.printf "wrote %d pairs to %s\n" (List.length r.Exec.pairs) path
          | None -> ());
          Ok ())

let advise_cmd tx items types seed data iteminfo text =
  match parse_query text with
  | Error e -> Error e
  | Ok q -> (
      match load_or_generate ~tx ~items ~types ~seed ~data ~iteminfo with
      | Error e -> Error e
      | Ok (db, info) ->
          let estimate = Advisor.advise (Exec.context db info) q in
          Format.printf "%a@." Advisor.pp estimate;
          Ok ())

let pairs_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "pairs-out" ] ~docv:"FILE" ~doc:"Write the answer pairs to a CSV file.")

let rules_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "out" ] ~docv:"FILE" ~doc:"Write the rules to a CSV file.")

let rules_cmd tx items types seed data iteminfo min_conf min_lift top rules_out text =
  match parse_query text with
  | Error e -> Error e
  | Ok q -> (
      match load_or_generate ~tx ~items ~types ~seed ~data ~iteminfo with
      | Error e -> Error e
      | Ok (db, info) ->
          let rules, r =
            Cfq_rules.Rule.mine ~min_confidence:min_conf ~min_lift (Exec.context db info) q
          in
          Printf.printf "%d pairs -> %d rules (conf >= %.2f, lift >= %.2f)\n"
            r.Exec.pair_stats.Pairs.n_pairs (List.length rules) min_conf min_lift;
          List.iteri
            (fun i rule ->
              if i < top then Format.printf "%a@." Cfq_rules.Rule.pp rule)
            rules;
          (match rules_out with
          | Some path ->
              Cfq_data.Result_csv.write_rules path rules;
              Printf.printf "wrote %d rules to %s\n" (List.length rules) path
          | None -> ());
          Ok ())

let explain_cmd text =
  match parse_query text with
  | Error e -> Error e
  | Ok q ->
      let plan = Optimizer.plan ~nonneg:true q in
      print_endline (Explain.plan_to_string q plan);
      Ok ()

let repeat_arg =
  Arg.(
    value & opt int 1
    & info [ "repeat" ] ~docv:"N"
        ~doc:"Replay the batch N times (passes after the first serve from the warm cache).")

let fault_transient_arg =
  Arg.(
    value & opt float 0.
    & info [ "fault-transient" ] ~docv:"P"
        ~doc:"Inject transient page-read errors with probability P per page.")

let fault_corrupt_arg =
  Arg.(
    value & opt float 0.
    & info [ "fault-corrupt" ] ~docv:"P"
        ~doc:"Tamper pages with probability P per read (bounded; detected by \
              checksums).")

let fault_spike_arg =
  Arg.(
    value & opt float 0.
    & info [ "fault-spike" ] ~docv:"P" ~doc:"Inject a latency spike per scan with probability P.")

let fault_seed_arg =
  Arg.(
    value & opt int64 0x5EEDL
    & info [ "fault-seed" ] ~docv:"SEED" ~doc:"Seed of the deterministic fault stream.")

let fault_term =
  let config transient_p corrupt_p spike_p seed =
    {
      Cfq_txdb.Fault.default_config with
      Cfq_txdb.Fault.transient_p;
      corrupt_p;
      spike_p;
      seed;
    }
  in
  Term.(const config $ fault_transient_arg $ fault_corrupt_arg $ fault_spike_arg
        $ fault_seed_arg)

let batch_file_arg =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"FILE" ~doc:"Batch file: one CFQ per line; '#' comments.")

let ingest_arg =
  Arg.(
    value & opt_all file []
    & info [ "ingest" ] ~docv:"FILE"
        ~doc:
          "FIMI file of transactions appended and sealed between replay \
           passes — one seal per file, in the order given (repeatable).  \
           The cache stays live across each seal: sealed appends are folded \
           into cached answers by incremental maintenance instead of a cold \
           start (see doc/LIVE.md).  The pass count grows past \
           $(b,--repeat) if needed so the batch replays once per epoch.")

(* replay the batch [repeat] times; between passes, consume the next
   [--ingest] file (append every transaction, then seal + maintain) so the
   following pass exercises the promoted cache at the new epoch. *)
let run_live_passes service ~repeat ~ingest file =
  let total = max repeat (List.length ingest + 1) in
  let live = Service.live_source service <> None in
  let pending = ref ingest in
  let seal_next () =
    match !pending with
    | [] -> Ok ()
    | path :: rest -> (
        pending := rest;
        match Service.ingest_file service path with
        | Error m -> Error (`Msg ("ingest failed: " ^ m))
        | Ok (n, lv) ->
            Printf.printf "=== ingest %s: %d transactions ===\n" path n;
            (match lv with
            | None -> print_endline "nothing to seal: the file holds no transactions\n"
            | Some lv -> Printf.printf "%s\n\n" (Service.live_to_string lv));
            Ok ())
  in
  let rec passes n =
    if n > total then Ok ()
    else begin
      if total > 1 then
        if live then
          Printf.printf "=== pass %d/%d (epoch %d) ===\n" n total
            (Cfq_service.Service.epoch service)
        else Printf.printf "=== pass %d/%d ===\n" n total;
      match Cfq_service.Batch.run_file service file with
      | Error msg -> Error (`Msg msg)
      | Ok report -> (
          print_endline report;
          if n = total then Ok ()
          else
            match seal_next () with
            | Error e -> Error e
            | Ok () -> passes (n + 1))
    end
  in
  passes 1

(* the shutdown line: how many raw-equivalent bytes the cache stream
   condensed down to, and what lookups paid back *)
let print_condensation service =
  let m = Cfq_service.Service.metrics service in
  let raw = m.Cfq_service.Metrics.cond_raw_bytes in
  let stored = m.Cfq_service.Metrics.cond_bytes in
  if raw > 0 then
    Printf.printf
      "condensation: %d raw -> %d stored bytes (ratio %.2f), %d \
       reconstructions\n"
      raw stored
      (float_of_int raw /. float_of_int (max 1 stored))
      m.Cfq_service.Metrics.reconstructions

(* ------------------------------------------------------------------ *)
(* persistent store *)

let store_flag =
  Arg.info [ "store" ] ~docv:"PATH"
    ~doc:"Store file (the sealed segment or a sharded store's manifest; the \
          ingestion log lives at $(i,PATH).wal and the itemInfo table at \
          $(i,PATH).info.csv).  On $(b,serve), serve from this store instead \
          of generated or $(b,--data) transactions."

let store_path_arg = Arg.(required & opt (some string) None & store_flag)
let serve_store_arg = Arg.(value & opt (some string) None & store_flag)

let cache_pages_arg =
  Arg.(
    value & opt int 1024
    & info [ "cache-pages" ] ~docv:"N"
        ~doc:"Buffer-pool capacity in pages; below the database size the pool \
              evicts under pressure.  For a sharded store this bounds $(i,each) \
              shard's pool.")

let shards_arg =
  Arg.(
    value & opt int 1
    & info [ "shards" ] ~docv:"N"
        ~doc:"Partition the store into N shards under one manifest; mining \
              distributes each counting pass over the shards and merges the \
              partial supports (answers are identical to a single store).  On \
              $(b,serve), N > 1 (or R > 1) against a plain segment splits it \
              into a sharded twin at $(i,PATH).sharded first, reused later.")

let replicas_arg =
  Arg.(
    value & opt int 1
    & info [ "replicas" ] ~docv:"R"
        ~doc:"Keep R physical replicas of every shard under the manifest \
              (replica 0 at $(i,PATH.shardK), siblings at \
              $(i,PATH.shardK.rJ)).  Reads are served by one replica and fail \
              over to a healthy sibling on I/O faults; ingestion mirrors to \
              all of them with a write quorum.  R > 1 implies a sharded \
              store.")

let fault_shard_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "fault-shard" ] ~docv:"K"
        ~doc:"Pin the fault injector to shard K of a sharded store: only that \
              shard's slice of each scan is faulted, and only its breaker \
              should trip.")

let fault_replica_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "fault-replica" ] ~docv:"K:J"
        ~doc:"Pin the fault injector to replica J of shard K: its sibling \
              replicas stay clean, so reads fail over around the faulted one \
              and answers are unchanged.")

let verify_arg =
  Arg.(
    value & flag
    & info [ "verify" ]
        ~doc:"Before serving, run every query of the batch on both the opened \
              backend and an in-memory copy and require identical answers and \
              counters.")

let store_build_cmd verbose tx items types seed data iteminfo store_path shards
    replicas =
  setup_logs verbose;
  match load_or_generate ~tx ~items ~types ~seed ~data ~iteminfo with
  | Error e -> Error e
  | Ok (db, info) ->
      Source.save ~shards ~replicas store_path db info;
      let spec =
        Source.Disk { path = store_path; cache_pages = None; shards = 1; replicas = 1 }
      in
      msg
        (Result.map
           (fun src ->
             Printf.printf "store: %s\nitemInfo: %s\n" (Source.summary src)
               (Source.info_path store_path);
             Source.close src)
           (Source.open_ spec))

(* replay the batch on the (possibly sharded) store and on a plain
   in-memory copy of the same transactions: answers and ccc counters
   must be identical *)
let verify_backends db info file =
  match Cfq_service.Batch.load file with
  | Error msg -> Error (`Msg msg)
  | Ok lines -> (
      let disk_ctx = Exec.context db info in
      (* the in-memory copy: one pass over the store's pages, not a point
         read per transaction *)
      let n = Cfq_txdb.Tx_db.size db in
      let sets = Array.make n Cfq_itembase.Itemset.empty in
      Cfq_txdb.Tx_db.iter_range db ~lo:0 ~hi:(n - 1) (fun tx ->
          sets.(tx.Cfq_txdb.Transaction.tid) <- tx.Cfq_txdb.Transaction.items);
      let mem_ctx = Exec.context (Cfq_txdb.Tx_db.create sets) info in
      let norm r =
        List.sort compare
          (List.map
             (fun (s, t) ->
               ( Cfq_itembase.Itemset.to_list s.Cfq_mining.Frequent.set,
                 Cfq_itembase.Itemset.to_list t.Cfq_mining.Frequent.set ))
             r.Exec.pairs)
      in
      let total = List.length lines in
      let rec go = function
        | [] ->
            Printf.printf "verify: %d/%d queries identical on both backends\n\n"
              total total;
            Ok ()
        | (ln, text) :: rest -> (
            match Parser.parse_result text with
            | Error msg -> Error (`Msg (Printf.sprintf "verify: line %d: %s" ln msg))
            | Ok q -> (
                let run ctx = Exec.run_result ~collect_pairs:true ctx q in
                match (run disk_ctx, run mem_ctx) with
                | Ok rd, Ok rm
                  when norm rd = norm rm
                       && Exec.total_counted rd = Exec.total_counted rm
                       && Exec.total_checks rd = Exec.total_checks rm ->
                    go rest
                | Ok _, Ok _ ->
                    Error
                      (`Msg
                         (Printf.sprintf
                            "verify: line %d: backends disagree on %S" ln text))
                | Error e, _ | _, Error e ->
                    Error (`Msg (Cfq_txdb.Cfq_error.to_string e))))
      in
      go lines)

(* the --fault-shard / --fault-replica target: a shard, optionally
   narrowed to one replica *)
let fault_target fault_shard fault_replica =
  match (fault_shard, fault_replica) with
  | Some _, Some _ -> Error "--fault-shard and --fault-replica: choose one"
  | shard, None -> Ok (shard, None)
  | None, Some s -> (
      match String.split_on_char ':' s |> List.map int_of_string_opt with
      | [ Some k; Some j ] -> Ok (Some k, Some j)
      | _ -> Error "--fault-replica wants K:J (two integers)")

let inject_faults src fault ~shard ~replica =
  let open Cfq_txdb in
  if not (Fault.is_active fault) then
    if shard = None then Ok ()
    else Error "--fault-shard/--fault-replica need an active fault probability"
  else
    let f = Some (Fault.create fault) in
    match Source.set_fault src ?shard ?replica f with
    | Error msg -> Error ("fault injection: " ^ msg)
    | Ok () ->
        Printf.printf "%s\n\n" (Source.fault_report ?shard ?replica f);
        Ok ()

(* the backend to serve: the store at --store, else generated or --data
   transactions in memory *)
let open_source ~store ~cache_pages ~shards ~replicas ~load =
  let ( let* ) = Result.bind in
  match store with
  | None ->
      let* db, info = load () in
      let sets =
        Array.init (Cfq_txdb.Tx_db.size db) (fun i ->
            (Cfq_txdb.Tx_db.get db i).Cfq_txdb.Transaction.items)
      in
      let* src = msg (Source.open_ (Source.Mem sets)) in
      Ok (src, info)
  | Some path -> (
      let spec = Source.Disk { path; cache_pages = Some cache_pages; shards; replicas } in
      let* src = msg (Source.open_ spec) in
      match Source.item_info src with
      | Ok info -> Ok (src, info)
      | Error m ->
          Source.close src;
          Error (`Msg m))

let serve_cmd verbose tx items types seed data iteminfo store cache_pages shards
    replicas verify config repeat fault fault_shard fault_replica ingest file =
  setup_logs verbose;
  let ( let* ) = Result.bind in
  let load () = load_or_generate ~tx ~items ~types ~seed ~data ~iteminfo in
  let* src, info = open_source ~store ~cache_pages ~shards ~replicas ~load in
  Printf.printf "database: %s\n\n" (Source.summary src);
  let served =
    let db = Source.db src in
    let* () = if verify then verify_backends db info file else Ok () in
    let* shard, replica = msg (fault_target fault_shard fault_replica) in
    let* () = msg (inject_faults src fault ~shard ~replica) in
    let service = Service.create ~config (Exec.context db info) in
    if ingest <> [] then Service.attach_source service src;
    let result = run_live_passes service ~repeat ~ingest file in
    print_condensation service;
    Service.shutdown service;
    result
  in
  (* the backend's physical I/O, after the service is down *)
  List.iter print_endline (Source.io_lines src);
  Source.close src;
  served

(* re-read every page of every replica fresh from disk and report health;
   with --repair, quarantined/stale replicas are rebuilt from healthy
   siblings (sharded stores only) *)
let store_verify_cmd verbose store_path cache_pages repair =
  setup_logs verbose;
  let spec =
    Source.Disk
      { path = store_path; cache_pages = Some cache_pages; shards = 1; replicas = 1 }
  in
  let verify src =
    match Source.sharded src with
    | Some sh when repair ->
        let report = Cfq_shard.Scrub.run sh in
        print_endline (Cfq_shard.Scrub.report_to_string report);
        if report.Cfq_shard.Scrub.repair_failures = 0 then Ok ()
        else Error "scrub left unrepaired replicas"
    | sharded ->
        let healthy, report = Source.verify src in
        print_endline report;
        if healthy then Ok ()
        else if sharded = None then Error "verification failed"
        else
          Error "verification failed; run 'store verify --repair' to quarantine and rebuild"
  in
  msg
    (Result.bind (Source.open_ spec) (fun src ->
         Fun.protect ~finally:(fun () -> Source.close src) (fun () -> verify src)))

let repl_cmd () =
  let session = Cfq_shell.Shell.create () in
  print_endline "cfq interactive shell; 'help' lists commands, 'quit' leaves.";
  let rec loop () =
    print_string "cfq> ";
    match read_line () with
    | exception End_of_file -> ()
    | line ->
        let r = Cfq_shell.Shell.eval session line in
        if r.Cfq_shell.Shell.output <> "" then print_endline r.Cfq_shell.Shell.output;
        if not r.Cfq_shell.Shell.quit then loop ()
  in
  loop ();
  Ok ()

let gen_cmd tx items types seed out info_out =
  let db, info = Quest_gen.market ~seed ~n_tx:tx ~n_items:items ~n_types:types in
  Printf.printf "transactions: %d\nitems: %d\navg length: %.2f\npages (4K): %d\n"
    (Cfq_txdb.Tx_db.size db) items (Cfq_txdb.Tx_db.avg_tx_len db)
    (Cfq_txdb.Tx_db.pages db);
  (match out with
  | Some path ->
      Cfq_data.Fimi.write path db;
      Printf.printf "wrote transactions to %s\n" path
  | None -> ());
  (match info_out with
  | Some path ->
      Cfq_data.Item_csv.write path info;
      Printf.printf "wrote itemInfo to %s\n" path
  | None -> ());
  Ok ()

(* ------------------------------------------------------------------ *)

let run_t =
  Term.(
    term_result
      (const run_cmd $ verbose_arg $ tx_arg $ items_arg $ types_arg $ seed_arg
     $ strategy_arg
     $ knobs_term ~only:[ "mine-domains"; "kernel" ] ()
     $ pairs_arg $ data_arg $ iteminfo_arg $ pairs_out_arg $ query_arg))

let explain_t = Term.(term_result (const explain_cmd $ query_arg))

let advise_t =
  Term.(
    term_result
      (const advise_cmd $ tx_arg $ items_arg $ types_arg $ seed_arg $ data_arg
     $ iteminfo_arg $ query_arg))

let min_conf_arg =
  Arg.(value & opt float 0.5 & info [ "min-conf" ] ~docv:"C" ~doc:"Minimum confidence.")

let min_lift_arg =
  Arg.(value & opt float 0. & info [ "min-lift" ] ~docv:"L" ~doc:"Minimum lift.")

let top_arg =
  Arg.(value & opt int 20 & info [ "top" ] ~docv:"N" ~doc:"Print at most N rules.")

let rules_t =
  Term.(
    term_result
      (const rules_cmd $ tx_arg $ items_arg $ types_arg $ seed_arg $ data_arg
     $ iteminfo_arg $ min_conf_arg $ min_lift_arg $ top_arg $ rules_out_arg
     $ query_arg))
let gen_t =
  Term.(
    term_result
      (const gen_cmd $ tx_arg $ items_arg $ types_arg $ seed_arg $ out_arg
     $ info_out_arg))

let run_cmd_info =
  Cmd.info "run" ~doc:"Execute a CFQ against generated market-basket data."

let explain_cmd_info =
  Cmd.info "explain" ~doc:"Show the query optimizer's plan for a CFQ."

let gen_cmd_info = Cmd.info "gen" ~doc:"Generate a database and print its statistics."

let advise_cmd_info =
  Cmd.info "advise" ~doc:"Probe the data and recommend an execution strategy."

let rules_cmd_info =
  Cmd.info "rules" ~doc:"Run the full two-phase pipeline and print rules S => T."

let repl_t = Term.(term_result (const repl_cmd $ const ()))

let repl_cmd_info =
  Cmd.info "repl" ~doc:"Interactive exploratory-mining session."

let serve_t =
  Term.(
    term_result
      (const serve_cmd $ verbose_arg $ tx_arg $ items_arg $ types_arg $ seed_arg
     $ data_arg $ iteminfo_arg $ serve_store_arg $ cache_pages_arg $ shards_arg
     $ replicas_arg $ verify_arg $ knobs_term () $ repeat_arg $ fault_term
     $ fault_shard_arg $ fault_replica_arg $ ingest_arg $ batch_file_arg))

let serve_cmd_info =
  Cmd.info "serve"
    ~doc:
      "Execute a batch file of CFQs through the concurrent caching query service \
       and print per-query outcomes plus cache metrics.  With $(b,--store) the \
       service runs over an on-disk store (plain, sharded or replicated), \
       decoding pages through bounded buffer pools."

let store_build_t =
  Term.(
    term_result
      (const store_build_cmd $ verbose_arg $ tx_arg $ items_arg $ types_arg
     $ seed_arg $ data_arg $ iteminfo_arg $ store_path_arg $ shards_arg
     $ replicas_arg))

let repair_arg =
  Arg.(
    value & flag
    & info [ "repair" ]
        ~doc:"After verification, rebuild every stale or quarantined replica \
              from a healthy sibling and re-admit it (sharded stores only).")

let store_verify_t =
  Term.(
    term_result
      (const store_verify_cmd $ verbose_arg $ store_path_arg $ cache_pages_arg
     $ repair_arg))

let store_cmd =
  Cmd.group
    (Cmd.info "store"
       ~doc:"Build and verify persistent on-disk transaction stores.")
    [
      Cmd.v
        (Cmd.info "build"
           ~doc:
             "Write a database (generated, or loaded with $(b,--data)) to a \
              sealed on-disk store plus its itemInfo CSV.")
        store_build_t;
      Cmd.v
        (Cmd.info "verify"
           ~doc:
             "Re-read every page of a store fresh from disk, check CRCs and \
              logical checksums, and print a per-replica health report; \
              $(b,--repair) rebuilds bad replicas from healthy siblings.")
        store_verify_t;
    ]

let main =
  Cmd.group
    (Cmd.info "cfq" ~version:"1.0.0"
       ~doc:"Constrained frequent set queries with 2-variable constraints.")
    [
      Cmd.v run_cmd_info run_t;
      Cmd.v explain_cmd_info explain_t;
      Cmd.v gen_cmd_info gen_t;
      Cmd.v advise_cmd_info advise_t;
      Cmd.v rules_cmd_info rules_t;
      Cmd.v repl_cmd_info repl_t;
      Cmd.v serve_cmd_info serve_t;
      store_cmd;
    ]

let () = exit (Cmd.eval main)
