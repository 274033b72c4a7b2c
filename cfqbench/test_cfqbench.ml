(* Unit tests of the benchmark's statistics, its verdict rule, and the
   agreement between BENCHMARK.json, the metric catalogue and the metrics
   a run computes. *)

open Cfqbench

let feq = Alcotest.float 1e-9

let tail_rule () =
  (* the highest ladder percentile with at least ten samples beyond it *)
  List.iter
    (fun (n, p) -> Alcotest.(check (option int)) (Printf.sprintf "n=%d" n) p (Stats.tail_percentile n))
    [ (400, Some 95); (1000, Some 99); (150, Some 90); (160, Some 90); (80, Some 85); (60, Some 80);
      (20, Some 50); (19, None) ]

let quartiles_match_python () =
  (* statistics.quantiles(values, n=4), method "exclusive" *)
  let check name values (a, b, c) =
    let q1, q2, q3 = Stats.quartiles values in
    Alcotest.check feq (name ^ " q1") a q1;
    Alcotest.check feq (name ^ " q2") b q2;
    Alcotest.check feq (name ^ " q3") c q3
  in
  check "1..5" [ 5.; 1.; 3.; 2.; 4. ] (1.5, 3., 4.5);
  check "1..10" (List.init 10 (fun i -> float_of_int (i + 1))) (2.75, 5.5, 8.25);
  check "two (extrapolates like python)" [ 1.; 2. ] (0.75, 1.5, 2.25);
  Alcotest.check feq "median even" 2.5 (Stats.median [ 4.; 1.; 2.; 3. ]);
  Alcotest.check feq "spread" (5.5 /. 5.5) (Stats.spread (List.init 10 (fun i -> float_of_int (i + 1))))

let percentile_interpolates () =
  let a = [| 4.; 1.; 3.; 2. |] in
  Alcotest.check feq "p50" 2.5 (Stats.percentile a 50.);
  Alcotest.check feq "p0" 1. (Stats.percentile a 0.);
  Alcotest.check feq "p100" 4. (Stats.percentile a 100.);
  Alcotest.check feq "failed sorts last" 3. (Stats.percentile [| 1.; Float.infinity; 3.; 2. |] 66.66666666666667)

let verdicts () =
  let v ?(better = Stats.Lower) ?(bound = 0.1) parent change =
    Stats.verdict_name (Stats.verdict ~better ~bound ~parent ~change)
  in
  let parent = [ 100.; 101.; 99.; 100.; 100.5 ] in
  Alcotest.(check string) "slower beyond bound" "worse" (v parent [ 120.; 121.; 119.; 120.; 122. ]);
  Alcotest.(check string) "faster in every pair" "better" (v parent [ 80.; 81.; 79.; 80.; 80. ]);
  Alcotest.(check string) "same" "within" (v parent [ 101.; 100.; 102.; 99.; 100. ]);
  Alcotest.(check string) "slower within bound" "within" (v parent [ 105.; 104.; 106.; 105.; 105. ]);
  Alcotest.(check string) "higher is better" "worse"
    (v ~better:Stats.Higher parent [ 80.; 81.; 79.; 80.; 80. ]);
  Alcotest.(check string) "noisy parent" "unresolved"
    (v [ 50.; 150.; 100.; 80.; 120. ] [ 100.; 101.; 99.; 100.; 100. ]);
  Alcotest.(check string) "noisy parent, change better than every parent run" "better"
    (v [ 50.; 150.; 100.; 80.; 120. ] [ 10.; 11.; 9.; 10.; 10. ]);
  (* one lost pair in ten blocks a claimed gain *)
  Alcotest.(check string) "8 of 10 pairs won" "within"
    (v
       [ 100.; 100.; 100.; 100.; 100.; 100.; 100.; 100.; 100.; 100. ]
       [ 99.; 99.; 99.; 99.; 99.; 99.; 99.; 99.; 101.; 101. ]);
  (* the failed share: bound 0 over a parent that never fails *)
  Alcotest.(check string) "no failures either side" "within" (v ~bound:0. [ 0.; 0.; 0. ] [ 0.; 0.; 0. ]);
  Alcotest.(check string) "a failure in the change" "worse" (v ~bound:0. [ 0.; 0.; 0. ] [ 0.; 0.1; 0.1 ])

let json_round_trip () =
  let v =
    Json.Obj
      [
        ("a", Json.Num 1.25);
        ("b", Json.List [ Json.Bool true; Json.Null; Json.Str "x\"y\n" ]);
        ("c", Json.Num 3.);
      ]
  in
  Alcotest.(check bool) "round trip" true (Json.of_string (Json.to_string v) = v);
  Alcotest.(check string) "integers print bare" "3" (Json.to_string (Json.Num 3.))

(* BENCHMARK.json lists exactly the catalogue's end-to-end and per-layer
   metrics, with the same units and directions. *)
let benchmark_matches_catalog () =
  let spec = Json.of_file "../BENCHMARK.json" in
  let entries key =
    List.map
      (fun m ->
        let s k = Option.get (Option.bind (Json.member k m) Json.to_str) in
        (s "name", s "unit", s "better"))
      (Json.to_list (Option.get (Json.member key spec)))
  in
  let of_defs defs =
    List.map
      (fun d ->
        (d.Catalog.name, d.Catalog.unit, match d.Catalog.better with Stats.Lower -> "lower" | Stats.Higher -> "higher"))
      defs
  in
  let triple = Alcotest.(list (triple string string string)) in
  Alcotest.check triple "end_to_end" (of_defs Catalog.end_to_end) (entries "end_to_end");
  Alcotest.check triple "per_layer" (of_defs Catalog.layers) (entries "per_layer");
  List.iter2
    (fun m (d : Catalog.def) ->
      let bound = Option.get (Option.bind (Json.member "bound" m) Json.to_num) in
      Alcotest.(check (option (float 0.))) (d.name ^ " bound as catalogued") d.bound (Some bound);
      Alcotest.(check bool) "bound in (0, 0.25]" true (bound > 0. && bound <= 0.25))
    (Json.to_list (Option.get (Json.member "end_to_end" spec)))
    Catalog.end_to_end;
  Alcotest.(check (list string)) "workloads" Workload.names
    (List.map
       (fun w -> Option.get (Option.bind (Json.member "name" w) Json.to_str))
       (Json.to_list (Option.get (Json.member "workloads" spec))))

(* A phase in which every counted thing happened once, enough for every
   metric to be defined. *)
let phase () =
  let counters =
    {
      Workload.pool_hits = 0;
      pool_misses = 0;
      pool_evictions = 0;
      wal_appends = 0;
      wal_fsyncs = 0;
      shard_pages = [| 0 |];
      shard_misses = [| 0 |];
      failovers = 0;
      svc = None;
      minor_words = 0.;
      major_collections = 0;
    }
  in
  {
    Workload.rounds = 1;
    wall = 1.;
    elapsed = 1.;
    latencies = [ 0.01 ];
    parse_s = [ 1e-5 ];
    path_s = [];
    svc_wait_s = 0.;
    svc_call_s = 0.;
    seal_s = [ 0.1 ];
    ingest_s = 0.01;
    ingested = 1;
    queries = 1;
    failed = 0;
    first = [];
    seals = [];
    before = counters;
    after = counters;
    disk_before = 1;
    disk_after = 2;
    rss_mb = 100.;
  }

let names metrics = List.sort compare (List.map fst metrics)
let def_names defs = List.sort compare (List.map (fun d -> d.Catalog.name) defs)

(* Every catalogued metric is one a run computes, and the reverse: the
   result line of a run can never lack one. *)
let runs_compute_catalogue () =
  let p = phase () in
  let e2e = Measure.end_to_end ~setup_s:[ 0.1 ] ~tail_p:90 p ~items:10 in
  Alcotest.(check (list string)) "end-to-end and extras"
    (def_names (Catalog.end_to_end @ Catalog.extras))
    (names e2e);
  let probes =
    {
      Measure.scan_ms = 1.;
      scan_mem_ms = 1.;
      pairs_form_ms = 1.;
      condense_ms = 1.;
      reconstruct_ms = 1.;
      fingerprint_us = 1.;
      entail_us = 1.;
      store_seal_ms = [ 1. ];
      exec = [];
    }
  in
  let layers =
    Measure.layers ~sharded:false ~setup_wall:0.1 ~setup_spans:[] p ~traced:p ~spans:[] probes
  in
  Alcotest.(check (list string)) "layers" (def_names Catalog.layers) (names layers);
  Alcotest.check_raises "a missing metric fails the run" (Failure "metric not computed: setup_s")
    (fun () -> ignore (Measure.require Catalog.end_to_end [] : (string * float) list))

let () =
  Alcotest.run "cfqbench"
    [
      ( "stats",
        [
          Alcotest.test_case "tail percentile keeps ten samples beyond" `Quick tail_rule;
          Alcotest.test_case "quartiles match python statistics" `Quick quartiles_match_python;
          Alcotest.test_case "percentile interpolates" `Quick percentile_interpolates;
          Alcotest.test_case "bound check verdicts" `Quick verdicts;
          Alcotest.test_case "json round trip" `Quick json_round_trip;
        ] );
      ( "benchmark",
        [
          Alcotest.test_case "BENCHMARK.json matches the catalogue" `Quick benchmark_matches_catalog;
          Alcotest.test_case "runs compute every catalogued metric" `Quick runs_compute_catalogue;
        ] );
    ]
