(* Ingest-query interleave replay: the analyst keeps querying while the
   backend seals freshly ingested batches.

   The base database is the first ~2/3 of a Quest workload; the remainder
   arrives in three sealed batches.  A warm service answers a refinement
   script once before the first seal (cold mining — the only mining it
   ever pays), then again after every seal: maintenance promotes the
   cached collections by delta-counting only the appended transactions, so
   the post-seal re-runs are answer-cache hits with zero scan charges.
   The cold baseline re-mines the whole script at every epoch, which is
   what a service without live maintenance would do after each seal.

   Asserted, and summarised in BENCH_live.json:
   - answers byte-identical to the cold remine at every epoch;
   - post-seal serving pays zero scans (answers come from the promoted
     cache, not a remine);
   - maintenance I/O is delta-sized: one shared pass per seal pays at
     most one old-database candidate count, and every other maintenance
     scan is bounded by the sealed batch's pages;
   - re-deriving the cached answers reuses the collections the seal's
     pass just promoted: a seal reconstructs at most its stale sides (the
     pass's inputs), never once per answer;
   - warm support counting across all epochs ≪ the cold baseline's. *)

open Cfq_itembase
open Cfq_quest
open Cfq_core
open Cfq_service

let sorted_pairs l =
  List.sort
    (fun (a1, b1) (a2, b2) ->
      match Itemset.compare a1 a2 with 0 -> Itemset.compare b1 b2 | c -> c)
    (List.map
       (fun (s, t) -> (s.Cfq_mining.Frequent.set, t.Cfq_mining.Frequent.set))
       l)

(* three rounds of narrowing an S-side price band, each closed by
   re-issuing the round's first query — enough shape to exercise the
   answer cache, subsumption, and several distinct side collections *)
let session_queries () =
  let queries = ref [] in
  let push fmt = Printf.ksprintf (fun s -> queries := s :: !queries) fmt in
  for round = 0 to 2 do
    let minsup = 0.015 +. (0.003 *. float_of_int round) in
    let lo0 = 300. +. (60. *. float_of_int round) in
    for step = 0 to 3 do
      let lo = lo0 +. (30. *. float_of_int step) in
      let t_hi = 700. -. (40. *. float_of_int step) in
      push
        "{(S,T) | freq(S) >= %g & freq(T) >= %g & S.Price >= %g & T.Price <= %g \
         & S.Type = T.Type}"
        minsup minsup lo t_hi
    done;
    push
      "{(S,T) | freq(S) >= %g & freq(T) >= %g & S.Price >= %g & T.Price <= 700 \
       & S.Type = T.Type}"
      minsup minsup lo0
  done;
  List.rev !queries

let run (scale : Workloads.scale) =
  let scale =
    { scale with Workloads.n_tx = max 1200 (scale.Workloads.n_tx / 8) }
  in
  let full_db = Workloads.quest_db scale in
  let sets =
    Array.init (Cfq_txdb.Tx_db.size full_db) (fun i ->
        (Cfq_txdb.Tx_db.get full_db i).Cfq_txdb.Transaction.items)
  in
  let n_total = Array.length sets in
  let base_n = n_total * 2 / 3 in
  let seals = 3 in
  let rest = n_total - base_n in
  let cut e = base_n + (rest * e / seals) in
  let chunk i = Array.sub sets (cut i) (cut (i + 1) - cut i) in
  let rng = Splitmix.create ~seed:(Int64.add scale.Workloads.seed 7L) in
  let n = scale.Workloads.n_items in
  let prices = Item_gen.uniform_prices rng ~n ~lo:0. ~hi:1000. in
  let types = Array.init n (fun _ -> float_of_int (Splitmix.int rng 20)) in
  let info = Item_gen.item_info ~prices ~types () in
  let texts = session_queries () in
  let queries = List.map Parser.parse texts in
  Printf.printf
    "live session: %d queries, %d base transactions + %d sealed in %d batches\n%!"
    (List.length queries) base_n rest seals;

  (* cold baseline: a service without maintenance re-mines the whole
     script at every epoch *)
  let t0 = Unix.gettimeofday () in
  let cold_at_epoch =
    Array.init (seals + 1) (fun e ->
        let db = Cfq_txdb.Tx_db.create (Array.sub sets 0 (cut e)) in
        let ctx = Exec.context db info in
        List.map
          (fun q -> Exec.run ~strategy:Plan.Cap_one_var ~collect_pairs:true ctx q)
          queries)
  in
  let cold_seconds = Unix.gettimeofday () -. t0 in
  let fold f =
    Array.fold_left
      (fun acc rs -> List.fold_left (fun acc r -> acc + f r) acc rs)
      0 cold_at_epoch
  in
  let cold_counted = fold Exec.total_counted in
  let cold_scans = fold (fun r -> Cfq_txdb.Io_stats.scans r.Exec.io) in

  (* warm: one live service across every seal *)
  let base = Array.sub sets 0 base_n in
  let service =
    Service.create
      ~config:{ Service.default_config with domains = 2 }
      (Exec.context (Cfq_txdb.Tx_db.create base) info)
  in
  Service.attach_source service (Cfq_live.Source.of_mem base);
  let mismatches = ref 0 in
  let post_seal_scans = ref 0 in
  let io_violations = ref 0 in
  let reuse_violations = ref 0 in
  let seal_rows = ref [] in
  let check_epoch e served =
    List.iteri
      (fun i (cold_r, served_r) ->
        match served_r with
        | Error err ->
            incr mismatches;
            Printf.printf "epoch %d query %d failed: %s\n" e i
              (Service.error_to_string err)
        | Ok a ->
            if sorted_pairs cold_r.Exec.pairs <> sorted_pairs a.Service.pairs
            then begin
              incr mismatches;
              Printf.printf "epoch %d query %d: answer mismatch (%d vs %d pairs)\n"
                e i
                (List.length cold_r.Exec.pairs)
                (List.length a.Service.pairs)
            end;
            if e > 0 && a.Service.scans > 0 then begin
              incr post_seal_scans;
              Printf.printf "epoch %d query %d: paid %d scans post-seal (%s)\n" e
                i a.Service.scans
                (Service.served_from_name a.Service.served_from)
            end)
      (List.combine cold_at_epoch.(e) served)
  in
  let t1 = Unix.gettimeofday () in
  check_epoch 0 (Service.run_many service queries);
  for s = 1 to seals do
    let src =
      match Service.live_source service with
      | Some src -> src
      | None -> assert false
    in
    let old_pages = Cfq_txdb.Tx_db.pages (Cfq_live.Source.db src) in
    let delta = chunk (s - 1) in
    Array.iter (Service.ingest service) delta;
    let reconstructions () = (Service.metrics service).Metrics.reconstructions in
    let rebuilt_before = reconstructions () in
    (match Service.seal_live service with
    | None ->
        incr mismatches;
        Printf.printf "seal %d sealed nothing\n" s
    | Some lv ->
        (* delta-only I/O: apart from the shared pass's at-most-one
           candidate count against the old database, every maintenance
           scan touches at most the sealed batch (twin pages <= one page
           per appended transaction, plus the extraction scan's partial
           page) *)
        let delta_pages_bound = Array.length delta + 1 in
        let bound =
          (lv.Service.lv_old_scans * old_pages)
          + (lv.Service.lv_scans - lv.Service.lv_old_scans) * delta_pages_bound
        in
        if lv.Service.lv_pages_read > bound then begin
          incr io_violations;
          Printf.printf
            "seal %d: maintenance charged %d pages, above the delta-sized \
             bound %d\n"
            s lv.Service.lv_pages_read bound
        end;
        if lv.Service.lv_old_scans > 1 then begin
          incr io_violations;
          Printf.printf "seal %d: %d old-db scans, more than one per seal\n" s
            lv.Service.lv_old_scans
        end;
        let rebuilt = reconstructions () - rebuilt_before in
        let stale_sides = lv.Service.lv_sides_promoted + lv.Service.lv_sides_evicted in
        if rebuilt > stale_sides then begin
          incr reuse_violations;
          Printf.printf
            "seal %d: %d reconstructions for %d stale sides — answers were \
             re-derived without the promoted collections\n"
            s rebuilt stale_sides
        end;
        seal_rows := (lv, rebuilt) :: !seal_rows;
        Printf.printf
          "seal %d -> epoch %d: +%d tx; %d sides + %d answers promoted, %d + \
           %d evicted; %d recounted (%d old-db scans, %d pages)\n%!"
          s lv.Service.lv_epoch lv.Service.lv_sealed
          lv.Service.lv_sides_promoted lv.Service.lv_answers_promoted
          lv.Service.lv_sides_evicted lv.Service.lv_answers_evicted
          lv.Service.lv_recounted lv.Service.lv_old_scans
          lv.Service.lv_pages_read);
    check_epoch s (Service.run_many service queries)
  done;
  let warm_seconds = Unix.gettimeofday () -. t1 in
  let m = Service.metrics service in
  Service.shutdown service;
  let seal_rows = List.rev !seal_rows in
  let warm_counted = m.Metrics.support_counted + m.Metrics.maint_recounted in
  let warm_scans = m.Metrics.scans + m.Metrics.maint_scans in

  let tbl = Cfq_report.Table.create [ "metric"; "cold remine"; "live service" ] in
  let row name a b = Cfq_report.Table.add_row tbl [ name; a; b ] in
  row "support counted (ccc)" (string_of_int cold_counted)
    (string_of_int warm_counted);
  row "db scans" (string_of_int cold_scans) (string_of_int warm_scans);
  row "pages read (maintenance)" "-" (string_of_int m.Metrics.maint_pages_read);
  row "total seconds" (Cfq_report.Table.fcell cold_seconds)
    (Cfq_report.Table.fcell warm_seconds);
  row "answer-cache hits" "-" (string_of_int m.Metrics.answer_hits);
  row "sides promoted" "-" (string_of_int m.Metrics.sides_promoted);
  row "answers promoted" "-" (string_of_int m.Metrics.answers_promoted);
  row "final epoch" "-" (string_of_int m.Metrics.live_epoch);
  Cfq_report.Table.print tbl;

  if !mismatches > 0 then begin
    Printf.printf "\nFAIL: %d answers disagreed with the cold remine\n" !mismatches;
    exit 1
  end;
  if !post_seal_scans > 0 then begin
    Printf.printf "\nFAIL: %d post-seal answers paid scan charges\n"
      !post_seal_scans;
    exit 1
  end;
  if !io_violations > 0 then begin
    Printf.printf "\nFAIL: %d maintenance passes exceeded delta-sized I/O\n"
      !io_violations;
    exit 1
  end;
  if !reuse_violations > 0 then begin
    Printf.printf "\nFAIL: %d seals reconstructed once per answer\n"
      !reuse_violations;
    exit 1
  end;
  if warm_counted >= cold_counted then begin
    Printf.printf
      "\nFAIL: live service counted %d sets, not fewer than the %d a cold \
       remine at every epoch pays\n"
      warm_counted cold_counted;
    exit 1
  end;
  Printf.printf
    "\nOK: identical answers at every epoch; live maintenance counted %.1fx \
     fewer sets (%d vs %d) with delta-only I/O\n"
    (float_of_int cold_counted /. float_of_int (max 1 warm_counted))
    warm_counted cold_counted;

  let seal_json (lv, rebuilt) =
    String.concat ""
      [
        "    { \"epoch\": ";
        string_of_int lv.Service.lv_epoch;
        ", \"sealed\": ";
        string_of_int lv.Service.lv_sealed;
        ", \"sides_promoted\": ";
        string_of_int lv.Service.lv_sides_promoted;
        ", \"sides_evicted\": ";
        string_of_int lv.Service.lv_sides_evicted;
        ", \"answers_promoted\": ";
        string_of_int lv.Service.lv_answers_promoted;
        ", \"answers_evicted\": ";
        string_of_int lv.Service.lv_answers_evicted;
        ", \"recounted\": ";
        string_of_int lv.Service.lv_recounted;
        ", \"old_scans\": ";
        string_of_int lv.Service.lv_old_scans;
        ", \"scans\": ";
        string_of_int lv.Service.lv_scans;
        ", \"pages_read\": ";
        string_of_int lv.Service.lv_pages_read;
        ", \"reconstructions\": ";
        string_of_int rebuilt;
        " }";
      ]
  in
  let json =
    String.concat "\n"
      [
        "{";
        "  \"bench\": \"live\",";
        Printf.sprintf "  \"queries\": %d," (List.length queries);
        Printf.sprintf "  \"base_transactions\": %d," base_n;
        Printf.sprintf "  \"sealed_transactions\": %d," rest;
        Printf.sprintf "  \"seals\": %d," seals;
        "  \"cold\": {";
        Printf.sprintf "    \"seconds\": %.6f," cold_seconds;
        Printf.sprintf "    \"support_counted\": %d," cold_counted;
        Printf.sprintf "    \"scans\": %d" cold_scans;
        "  },";
        "  \"live\": {";
        Printf.sprintf "    \"seconds\": %.6f," warm_seconds;
        Printf.sprintf "    \"support_counted\": %d," warm_counted;
        Printf.sprintf "    \"scans\": %d," warm_scans;
        Printf.sprintf "    \"maintenance_pages\": %d," m.Metrics.maint_pages_read;
        Printf.sprintf "    \"answer_hits\": %d," m.Metrics.answer_hits;
        Printf.sprintf "    \"final_epoch\": %d," m.Metrics.live_epoch;
        "    \"seals\": [";
        String.concat ",\n" (List.map seal_json seal_rows);
        "    ]";
        "  },";
        Printf.sprintf "  \"counted_ratio\": %.3f,"
          (float_of_int cold_counted /. float_of_int (max 1 warm_counted));
        Printf.sprintf "  \"mismatches\": %d" !mismatches;
        "}";
      ]
  in
  let oc = open_out "BENCH_live.json" in
  output_string oc json;
  output_char oc '\n';
  close_out oc;
  print_endline "wrote BENCH_live.json"
