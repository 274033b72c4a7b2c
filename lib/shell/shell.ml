open Cfq_itembase
open Cfq_txdb
open Cfq_quest
open Cfq_core
module Service = Cfq_service.Service
module Source = Cfq_live.Source

type t = {
  mutable ctx : Exec.ctx option;
  mutable strategy : Plan.strategy;
  mutable min_conf : float;
  mutable config : Service.config;
      (* the service knobs; [run] reads mine-domains and kernel *)
  mutable last : Exec.result option;
  mutable last_rules : Cfq_rules.Rule.t list;
  mutable service : Service.t option;
  mutable source : Source.t option;  (* the attached on-disk backend *)
  mutable replicas : int;
  mutable last_live : Service.live option;
}

type response = {
  output : string;
  quit : bool;
}

let create ?ctx () =
  {
    ctx;
    strategy = Plan.Optimized;
    min_conf = 0.5;
    config = Service.default_config;
    last = None;
    last_rules = [];
    service = None;
    source = None;
    replicas = 1;
    last_live = None;
  }

(* the serving layer is bound to one database: (re)create it lazily and
   retire it when the session attaches a different context *)
let drop_service t =
  match t.service with
  | None -> ()
  | Some s ->
      Service.shutdown s;
      t.service <- None

(* a persistent store backs the current ctx's database: close it only
   after the session has moved to a different context *)
let drop_source t =
  Option.iter (fun s -> try Source.close s with _ -> ()) t.source;
  t.source <- None

let service_for t ctx =
  match t.service with
  | Some s when Service.ctx s == ctx -> s
  | _ ->
      drop_service t;
      let s = Service.create ~config:t.config ctx in
      t.service <- Some s;
      s

(* the running service, if it serves the attached context *)
let live_service t =
  match (t.service, t.ctx) with
  | Some s, Some c when Service.ctx s == c -> Some s
  | _ -> None

let say fmt = Format.kasprintf (fun output -> { output; quit = false }) fmt

let help_text =
  String.concat "\n"
    [
      "commands:";
      "  load <tx.fimi> [<items.csv>]   attach a database (and itemInfo table)";
      "  gen <n_tx> <n_items> [seed]    generate a synthetic Quest database";
      "  open <store> [<cache_pages>] [shards=N]";
      "                                 attach a persistent store (buffer-pooled);";
      "                                 a manifest opens sharded; shards=N (or set";
      "                                 replicas above 1) splits a plain segment";
      "                                 into a sharded twin first";
      "  save <store>                   write the attached database to a store";
      "  ingest <store> <tx.fimi>       append transactions to a store and seal;";
      "                                 a running service over that store is kept";
      "                                 live (caches promoted, not cold-started)";
      "  live                           live-ingestion status: epoch, pending";
      "                                 appends, last seal's maintenance summary";
      "  verify                         re-read the attached store from disk and";
      "                                 report per-replica page health";
      "  scrub                          verify + quarantine bad replicas, rebuild";
      "                                 them from healthy siblings, re-admit";
      "  set                            list every setting's current value";
      "  set strategy <name>            "
      ^ String.concat " | " (List.map fst Plan.all_strategies);
      "  set minconf <float>            rule confidence threshold";
      "  set <knob> <value>             service knob; a change restarts the service:";
      "                                 "
      ^ String.concat " | " (List.map (fun k -> k.Service.name) Service.knobs);
      "  set replicas <r>               replicas per shard for the next sharded split";
      "  set fault <p> [<cp> [<seed>]] [shard=K [replica=J]]";
      "                                 inject faults: transient-p, corrupt-p, seed;";
      "                                 shard=K pins the injector to one shard,";
      "                                 replica=J to one physical replica of it";
      "  set fault off [shard=K [replica=J]]";
      "                                 remove fault injection";
      "  explain <query>                show the optimizer's plan, run nothing";
      "  advise <query>                 probe the data, recommend a strategy";
      "  run <query>                    execute and summarise";
      "  pairs <n>                      show n answer pairs of the last run";
      "  rules <query>                  two-phase run: rules with metrics";
      "  export pairs <file.csv>        write the last run's pairs to CSV";
      "  export rules <file.csv>        write the last rules to CSV";
      "  profile                        lattice profile of the last run";
      "  serve <queries.txt>            run a batch file through the caching service";
      "  cachestats                     service cache / queue / ccc metrics";
      "  stats                          database statistics";
      "  help | quit";
    ]

let with_ctx t f =
  match t.ctx with
  | Some ctx -> f ctx
  | None -> say "no database attached; use 'load' or 'gen' first"

let parse_query t ctx text f =
  match Parser.parse_result text with
  | Error msg -> say "parse error: %s" msg
  | Ok q -> (
      match Validate.check ~s_info:ctx.Exec.s_info ~t_info:ctx.Exec.t_info q with
      | Error errors ->
          say "%s"
            (String.concat "\n"
               (List.map (Format.asprintf "error: %a" Validate.pp_error) errors))
      | Ok () -> f (t, q))

(* a newly attached database retires the last result, the service and the
   previous backend *)
let attach t ?source db info =
  t.ctx <- Some (Exec.context db info);
  t.last <- None;
  drop_service t;
  drop_source t;
  t.source <- source

let do_load t path info_path =
  match Source.load path info_path with
  | Error msg -> say "load failed: %s" msg
  | Ok (db, info) ->
      attach t db info;
      say "loaded %d transactions over %d items" (Tx_db.size db)
        (Item_info.universe_size info)

let do_gen t n_tx n_items seed =
  let db, info = Quest_gen.market ~seed ~n_tx ~n_items ~n_types:20 in
  attach t db info;
  say "generated %d transactions over %d items (avg length %.1f; Price, Type attributes)"
    (Tx_db.size db) n_items (Tx_db.avg_tx_len db)

(* 'open' front door: [Source.open_] decides plain, sharded, or a split
   into a sharded twin (shards=N, or 'set replicas' above 1) *)
let do_open t path cache_pages shards =
  let spec = Source.Disk { path; cache_pages; shards; replicas = t.replicas } in
  match Source.open_ spec with
  | Error msg -> say "open failed: %s" msg
  | Ok src -> (
      match Source.item_info src with
      | Error msg ->
          Source.close src;
          say "open failed: %s" msg
      | Ok info ->
          attach t ~source:src (Source.db src) info;
          say "opened %s" (Source.summary src))

let do_save ctx path =
  match Source.save path ctx.Exec.db ctx.Exec.s_info with
  | () ->
      say "wrote %d transactions to %s (+ %s)" (Tx_db.size ctx.Exec.db) path
        (Source.info_path path)
  | exception Unix.Unix_error (e, _, _) ->
      say "save failed: %s: %s" path (Unix.error_message e)
  | exception Sys_error msg -> say "save failed: %s" msg

(* [store_path] may name the attached source (its segment, its manifest,
   or the plain segment its sharded twin was split from); any other store
   is opened for the ingest and closed again.  Appends are group-commit
   buffered: a crash mid-loop may lose the last partial group, but nothing
   is acknowledged until the seal, which flushes and folds everything
   durably. *)
let do_ingest t store_path fimi_path =
  let failed msg = say "ingest failed: %s" msg in
  let ingested n source =
    Printf.sprintf "ingested %d transactions into %s (now %d total)" n store_path
      (Source.size source)
  in
  let seal source =
    match Source.append_file source fimi_path with
    | Error msg -> failed msg
    | Ok n ->
        ignore (Source.seal source (Io_stats.create ()));
        say "%s" (ingested n source)
  in
  match (t.source, live_service t) with
  | Some source, Some service when Source.located_at source store_path -> (
      (* the service stays up across the seal: appends go through its
         live source, and the seal's maintenance pass promotes the warm
         caches to the new epoch instead of dropping them (in-flight
         queries finish on the still-readable pre-seal snapshot) *)
      if Option.is_none (Service.live_source service) then
        Service.attach_source service source;
      match Service.ingest_file service fimi_path with
      | Error msg -> failed msg
      | Ok (_, None) -> say "nothing to ingest: %s holds no transactions" fimi_path
      | Ok (n, Some lv) ->
          t.last_live <- Some lv;
          t.ctx <- Some (Service.ctx service);
          t.last <- None;
          say "%s@\n%s" (ingested n source) (Service.live_to_string lv))
  | Some source, None when Source.located_at source store_path ->
      (* no service over this source: retire any stale one, seal, and
         rebuild the context around the replaced db handle *)
      drop_service t;
      let r = seal source in
      Option.iter
        (fun ctx -> t.ctx <- Some (Exec.context (Source.db source) ctx.Exec.s_info))
        t.ctx;
      t.last <- None;
      r
  | _ -> (
      let spec =
        Source.Disk { path = store_path; cache_pages = None; shards = 1; replicas = 1 }
      in
      match Source.open_ spec with
      | Error msg -> failed msg
      | Ok source ->
          Fun.protect ~finally:(fun () -> Source.close source) (fun () -> seal source))

let do_live t =
  match t.service with
  | None ->
      say
        "no service running; 'serve <queries.txt>' starts one, and 'ingest' \
         into the attached store keeps it live across seals"
  | Some s ->
      let source_line =
        match Service.live_source s with
        | None -> "no ingestion source attached (the first 'ingest' attaches one)"
        | Some src ->
            Printf.sprintf "source: %s, %d transactions sealed, %d pending"
              (Source.backend_name src)
              (Source.size src)
              (Source.pending src)
      in
      let seal_line =
        match t.last_live with
        | None -> "no seal maintained yet"
        | Some lv -> "last seal: " ^ Service.live_to_string lv
      in
      say "epoch %d@\n%s@\n%s" (Service.epoch s) source_line seal_line

let do_run t ctx q =
  match
    Service.run_once t.config ~strategy:t.strategy ~collect_pairs:true ctx q
  with
  | Ok r ->
      t.last <- Some r;
      say "%s" (Explain.result_to_string r)
  | Error e -> say "run failed: %s" (Cfq_error.to_string e)

let fault_usage =
  "usage: set fault <transient-p> [<corrupt-p> [<seed>]] [shard=K [replica=J]] | \
   set fault off [shard=K [replica=J]]"

(* the probability and seed words of 'set fault', shared by every target:
   Ok None = off.  The seed is an integer, read as --fault-seed reads it *)
let parse_fault_spec args =
  let d = Fault.default_config in
  let prob w =
    Option.bind (float_of_string_opt w) (fun p -> if p >= 0. && p <= 1. then Some p else None)
  in
  let on ?(cp = "0") ?(seed = Int64.to_string d.Fault.seed) p =
    match (prob p, prob cp, Int64.of_string_opt seed) with
    | Some transient_p, Some corrupt_p, Some seed ->
        Ok (Some { d with Fault.transient_p; corrupt_p; seed })
    | _ -> Error fault_usage
  in
  match args with
  | [ "off" ] -> Ok None
  | [ p ] -> on p
  | [ p; cp ] -> on ~cp p
  | [ p; cp; seed ] -> on ~cp ~seed p
  | _ -> Error fault_usage

let injector_report db =
  match Tx_db.faults db with
  | None -> "fault injection was not enabled"
  | Some fl ->
      let s = Fault.stats fl in
      Format.asprintf
        "fault injection off (injected: %d transient, %d spikes, %d crashes, %d \
         tampered, %d checksum failures)"
        s.Fault.transient s.Fault.spikes s.Fault.crashes s.Fault.tampered
        s.Fault.checksum_failures

(* shard=K pins the injector to one shard of a sharded store; replica=J
   narrows it further to one physical replica of that shard (the sibling
   replicas stay clean, so reads fail over around it) *)
let do_set_fault t ctx args =
  let tagged prefix words = List.partition (String.starts_with ~prefix) words in
  let shard_args, args = tagged "shard=" args in
  let replica_args, args = tagged "replica=" args in
  let int_of prefix s =
    let n = String.length prefix in
    int_of_string_opt (String.sub s n (String.length s - n))
  in
  let scope_of prefix = function
    | [] -> Ok None
    | [ w ] -> (
        match int_of prefix w with
        | Some k -> Ok (Some k)
        | None -> Error "shard= and replica= want integers")
    | _ -> Error "at most one shard=K and one replica=J"
  in
  match
    (parse_fault_spec args, scope_of "shard=" shard_args, scope_of "replica=" replica_args)
  with
  | Error msg, _, _ -> say "%s" msg
  | _, Error msg, _ | _, _, Error msg -> say "set fault: %s" msg
  | Ok spec, Ok shard, Ok replica -> (
      let f = Option.map Fault.create spec in
      (* an unscoped 'off' reports what the injector did before clearing *)
      let report =
        if spec = None && shard = None then injector_report ctx.Exec.db
        else Source.fault_report ?shard ?replica f
      in
      let applied =
        match (t.source, shard, replica) with
        | Some src, _, _ -> Source.set_fault src ?shard ?replica f
        | None, None, None ->
            Tx_db.set_faults ctx.Exec.db f;
            Ok ()
        | None, _, _ -> Error "the attached database is not sharded"
      in
      match applied with
      | Error msg -> say "set fault: %s" msg
      | Ok () -> say "%s" report)

let do_pairs t n =
  match t.last with
  | None -> say "no previous run; use 'run <query>' first"
  | Some r -> say "%s" (Explain.pairs_to_string n r)

let do_rules t ctx q =
  let rules, r = Cfq_rules.Rule.mine ~strategy:t.strategy ~min_confidence:t.min_conf ctx q in
  t.last <- Some r;
  t.last_rules <- rules;
  let shown =
    List.filteri (fun i _ -> i < 15) rules
    |> List.map (Format.asprintf "  %a" Cfq_rules.Rule.pp)
  in
  say "%d pairs -> %d rules at confidence >= %.2f%s%s" r.Exec.pair_stats.Pairs.n_pairs
    (List.length rules) t.min_conf
    (if shown = [] then "" else "\n")
    (String.concat "\n" shown)

let do_verify t =
  match t.source with
  | None -> say "no persistent store attached; use 'open' first"
  | Some src ->
      let healthy, report = Source.verify src in
      if healthy || Source.sharded src = None then say "%s" report
      else say "%s\nrun 'scrub' to quarantine and repair" report

let do_scrub t =
  match Option.bind t.source Source.sharded with
  | None -> say "scrub wants an attached sharded store; use 'open' first"
  | Some sh ->
      (* the scrubber may seal and repair, replacing db handles: quiesce
         the service and rebuild the execution context afterwards *)
      drop_service t;
      let report = Cfq_shard.Scrub.run sh in
      (match t.ctx with
      | Some ctx ->
          t.ctx <- Some (Exec.context (Cfq_shard.Sharded.db sh) ctx.Exec.s_info)
      | None -> ());
      t.last <- None;
      say "%s" (Cfq_shard.Scrub.report_to_string report)

let do_stats t ctx =
  let db = ctx.Exec.db in
  let attrs =
    Item_info.attrs ctx.Exec.s_info
    |> List.map (fun a -> a.Attr.name)
    |> String.concat ", "
  in
  let backend =
    match t.source with
    | None -> []
    | Some src -> ("store: " ^ Source.summary src) :: Source.io_lines src
  in
  say "transactions: %d\navg length: %.2f\npages (4K): %d\nchunk runs: %d\nattributes: %s%s"
    (Tx_db.size db) (Tx_db.avg_tx_len db) (Tx_db.pages db) (Tx_db.chunk_runs db)
    (if attrs = "" then "(none)" else attrs)
    (String.concat "" (List.map (( ^ ) "\n") backend))

let settings t =
  String.concat "\n"
    ([
       Printf.sprintf "  %-18s %s" "strategy" (Plan.strategy_name t.strategy);
       Printf.sprintf "  %-18s %.2f" "minconf" t.min_conf;
       Printf.sprintf "  %-18s %d" "replicas" t.replicas;
     ]
    @ List.map
        (fun k -> Printf.sprintf "  %-18s %s" k.Service.name (k.Service.print t.config))
        Service.knobs)

let split_words line =
  String.split_on_char ' ' line |> List.filter (fun w -> w <> "")

(* first word = command, rest = argument text *)
let split_command line =
  let line = String.trim line in
  match String.index_opt line ' ' with
  | None -> (String.lowercase_ascii line, "")
  | Some i ->
      ( String.lowercase_ascii (String.sub line 0 i),
        String.trim (String.sub line (i + 1) (String.length line - i - 1)) )

let eval t line =
  let cmd, rest = split_command line in
  match cmd with
  | "" -> { output = ""; quit = false }
  | "quit" | "exit" ->
      (* leaving joins the service's domains and closes the store *)
      drop_service t;
      drop_source t;
      { output = "bye"; quit = true }
  | "help" -> { output = help_text; quit = false }
  | "load" -> (
      match split_words rest with
      | [ path ] -> do_load t path None
      | [ path; info ] -> do_load t path (Some info)
      | _ -> say "usage: load <tx.fimi> [<items.csv>]")
  | "gen" -> (
      match List.map int_of_string_opt (split_words rest) with
      | [ Some n_tx; Some n_items ] -> do_gen t n_tx n_items 42
      | [ Some n_tx; Some n_items; Some seed ] -> do_gen t n_tx n_items seed
      | _ -> say "usage: gen <n_tx> <n_items> [seed]")
  | "set" -> (
      match split_words rest with
      | [ "strategy"; name ] -> (
          match List.assoc_opt name Plan.all_strategies with
          | Some s ->
              t.strategy <- s;
              say "strategy set to %s" (Plan.strategy_name s)
          | None ->
              say "unknown strategy %S; one of: %s" name
                (String.concat ", " (List.map fst Plan.all_strategies)))
      | [ "minconf"; v ] -> (
          match float_of_string_opt v with
          | Some f when f >= 0. && f <= 1. ->
              t.min_conf <- f;
              say "minimum confidence set to %.2f" f
          | Some _ | None -> say "minconf must be a float in [0, 1]")
      | "fault" :: args -> with_ctx t (fun ctx -> do_set_fault t ctx args)
      | [ "replicas"; r ] -> (
          match int_of_string_opt r with
          | Some n when n >= 1 ->
              t.replicas <- n;
              if n = 1 then say "replication off (1 replica per shard)"
              else
                say
                  "next sharded split keeps %d replicas per shard (mirrored \
                   ingestion, read failover)"
                  n
          | Some _ | None -> say "replicas must be an integer >= 1")
      | [ name; v ] when List.exists (fun k -> k.Service.name = name) Service.knobs -> (
          let k = List.find (fun k -> k.Service.name = name) Service.knobs in
          match k.Service.parse v t.config with
          | Error msg -> say "%s" msg
          | Ok config ->
              (* the service bakes its config in: retire it so the next
                 'serve' picks the new value up *)
              if config <> t.config then begin
                t.config <- config;
                drop_service t
              end;
              say "%s set to %s" name (k.Service.print config))
      | [] -> say "%s" (settings t)
      | _ ->
          say
            "usage: set | set strategy <name> | set minconf <float> | set <knob> \
             <value> | set replicas <r> | set fault ...")
  | "explain" ->
      with_ctx t (fun ctx ->
          parse_query t ctx rest (fun (t, q) ->
              let plan = Optimizer.plan ~strategy:t.strategy ~nonneg:ctx.Exec.nonneg q in
              say "%s" (Explain.plan_to_string q plan)))
  | "advise" ->
      with_ctx t (fun ctx ->
          parse_query t ctx rest (fun (_, q) ->
              say "%s" (Format.asprintf "%a" Advisor.pp (Advisor.advise ctx q))))
  | "run" -> with_ctx t (fun ctx -> parse_query t ctx rest (fun (t, q) -> do_run t ctx q))
  | "rules" ->
      with_ctx t (fun ctx -> parse_query t ctx rest (fun (t, q) -> do_rules t ctx q))
  | "pairs" -> (
      match int_of_string_opt (String.trim rest) with
      | Some n when n > 0 -> do_pairs t n
      | Some _ | None -> say "usage: pairs <n>")
  | "export" -> (
      match split_words rest with
      | [ "pairs"; path ] -> (
          match t.last with
          | None -> say "no previous run; use 'run <query>' first"
          | Some r -> (
              match Cfq_data.Result_csv.write_pairs path r.Exec.pairs with
              | () -> say "wrote %d pairs to %s" (List.length r.Exec.pairs) path
              | exception Sys_error msg -> say "export failed: %s" msg))
      | [ "rules"; path ] -> (
          if t.last_rules = [] then say "no rules yet; use 'rules <query>' first"
          else
            match Cfq_data.Result_csv.write_rules path t.last_rules with
            | () -> say "wrote %d rules to %s" (List.length t.last_rules) path
            | exception Sys_error msg -> say "export failed: %s" msg)
      | _ -> say "usage: export pairs <file.csv> | export rules <file.csv>")
  | "profile" -> (
      match t.last with
      | None -> say "no previous run; use 'run <query>' first"
      | Some r ->
          say "S: %a@\nT: %a" Cfq_report.Profile.pp
            (Cfq_report.Profile.of_frequent r.Exec.s.Exec.frequent)
            Cfq_report.Profile.pp
            (Cfq_report.Profile.of_frequent r.Exec.t.Exec.frequent))
  | "serve" ->
      if rest = "" then say "usage: serve <queries.txt>"
      else
        with_ctx t (fun ctx ->
            match Cfq_service.Batch.run_file (service_for t ctx) rest with
            | Ok report -> say "%s" report
            | Error msg -> say "serve failed: %s" msg)
  | "cachestats" ->
      with_ctx t (fun ctx ->
          say "%s"
            (Cfq_report.Table.render
               (Service.metrics_table (service_for t ctx))))
  | "open" -> (
      let usage () = say "usage: open <store.cfqdb> [<cache_pages>] [shards=N]" in
      match split_words rest with
      | path :: opts -> (
          let parse (acc, err) w =
            match acc with
            | cache, _ when String.starts_with ~prefix:"shards=" w -> (
                let v = String.sub w 7 (String.length w - 7) in
                match int_of_string_opt v with
                | Some n when n >= 1 -> ((cache, n), err)
                | Some _ | None -> (acc, Some "shards must be an integer >= 1"))
            | None, shards -> (
                match int_of_string_opt w with
                | Some c when c >= 1 -> ((Some c, shards), err)
                | Some _ | None -> (acc, Some "cache_pages must be an integer >= 1"))
            | Some _, _ -> (acc, Some "too many arguments")
          in
          match List.fold_left parse ((None, 1), None) opts with
          | _, Some msg ->
              let u = usage () in
              say "%s\n%s" msg u.output
          | (cache_pages, shards), None -> do_open t path cache_pages shards)
      | [] -> usage ())
  | "save" -> (
      match split_words rest with
      | [ path ] -> with_ctx t (fun ctx -> do_save ctx path)
      | _ -> say "usage: save <store.cfqdb>")
  | "ingest" -> (
      match split_words rest with
      | [ store_path; fimi_path ] -> do_ingest t store_path fimi_path
      | _ -> say "usage: ingest <store.cfqdb> <tx.fimi>")
  | "verify" -> do_verify t
  | "scrub" -> do_scrub t
  | "live" -> do_live t
  | "stats" -> with_ctx t (do_stats t)
  | other -> say "unknown command %S; try 'help'" other
