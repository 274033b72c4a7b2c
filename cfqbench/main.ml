(* The repository's benchmark.

   main.exe run --workload W [--seed N] [--seconds S] [--trace 0|1] [--json FILE]
     One workload in this process.  Prints every metric with its unit,
     then, as the last line, the result object with the end-to-end
     metrics (or, with --trace 1, the per-layer metrics) of
     BENCHMARK.json.

   main.exe suite [--seed N] [--workload W] [--seconds S] [--trace 0|1] [--json FILE]
     Every workload (or W), each in a fresh process, one at a time.

   main.exe compare --parent FILE... --change FILE...
     Applies the bounds of the end-to-end metrics (those of
     BENCHMARK.json, and those of the workload-specific extras) to result
     files of two commits and prints one verdict per metric and
     workload.

   Result files are written only where --json says; store files live
   under .cfqbench/ in the working directory while a run lasts. *)

open Cfqbench

let default_seed = 20260706L
let default_seconds = 12.

let usage () =
  prerr_endline
    "usage: main.exe run --workload (session|adhoc|store|live) [--seed N] [--seconds S] \
     [--trace 0|1] [--json FILE]\n\
    \       main.exe suite [--seed N] [--workload W] [--seconds S] [--trace 0|1] [--json FILE]\n\
    \       main.exe compare --parent FILE... --change FILE...";
  exit 2

(* "--key value" pairs in any order, each key one of [allowed]. *)
let parse_flags ~allowed args =
  let rec go acc = function
    | [] -> acc
    | k :: v :: rest when List.mem k allowed -> go ((k, v) :: acc) rest
    | _ -> usage ()
  in
  go [] args

let get opts k conv default =
  match List.assoc_opt k opts with
  | None -> default
  | Some v -> ( match conv v with Some x -> x | None -> usage ())

let seed_of opts = get opts "--seed" Int64.of_string_opt default_seed
let seconds_of opts = get opts "--seconds" float_of_string_opt default_seconds
let trace_of opts = get opts "--trace" (function "0" -> Some false | "1" -> Some true | _ -> None) false
let run_flags = [ "--workload"; "--seed"; "--seconds"; "--trace"; "--json" ]

(* ------------------------------------------------------------------ *)

let run_cmd args =
  let opts = parse_flags ~allowed:run_flags args in
  let workload = get opts "--workload" Option.some "" in
  if not (List.mem workload Workload.names) then usage ();
  let trace = trace_of opts in
  let cfg =
    {
      Measure.workload;
      seed = seed_of opts;
      seconds = seconds_of opts;
      trace;
      json = List.assoc_opt "--json" opts;
    }
  in
  match Measure.run cfg with
  | exception e ->
      Printf.eprintf "%s: run failed: %s\n%!" workload (Printexc.to_string e);
      exit 2
  | r ->
      List.iter
        (fun (name, v) ->
          let unit = match Catalog.find name with Some d -> d.Catalog.unit | None -> "" in
          Printf.printf "%-32s %16.6f %s\n" name v unit)
        r.Measure.metrics;
      Option.iter (fun f -> Json.to_file f r.Measure.record) cfg.Measure.json;
      print_endline
        (Json.to_string
           (Json.Obj
              [
                ("correct", Json.Bool r.Measure.correct);
                ("attempted", Json.Num (float_of_int r.Measure.attempted));
                ("failed", Json.Num (float_of_int r.Measure.failed));
                ("metrics", Measure.metric_json r.Measure.line);
              ]));
      exit (if r.Measure.correct then 0 else 1)

(* ------------------------------------------------------------------ *)

let suite_cmd args =
  let opts = parse_flags ~allowed:run_flags args in
  let workloads =
    match List.assoc_opt "--workload" opts with
    | None -> Workload.names
    | Some w when List.mem w Workload.names -> [ w ]
    | Some _ -> usage ()
  in
  let seed = seed_of opts and seconds = seconds_of opts in
  let trace = trace_of opts in
  (* the runs' result files wait in a directory of their own, which also
     keeps each run from removing .cfqbench when it ends *)
  let dir = Printf.sprintf ".cfqbench/suite-%d" (Unix.getpid ()) in
  if not (Sys.file_exists ".cfqbench") then Sys.mkdir ".cfqbench" 0o755;
  Sys.mkdir dir 0o755;
  let results =
    List.map
      (fun w ->
        Printf.printf "== %s (seed %Ld)\n%!" w seed;
        let tmp = Filename.concat dir (w ^ ".json") in
        let argv =
          [|
            Sys.executable_name; "run"; "--workload"; w; "--seed"; Int64.to_string seed;
            "--seconds"; Printf.sprintf "%g" seconds; "--trace"; (if trace then "1" else "0");
            "--json"; tmp;
          |]
        in
        let pid = Unix.create_process Sys.executable_name argv Unix.stdin Unix.stdout Unix.stderr in
        let _, status = Unix.waitpid [] pid in
        let record = if Sys.file_exists tmp then Some (Json.of_file tmp) else None in
        if Sys.file_exists tmp then Sys.remove tmp;
        (w, status = Unix.WEXITED 0, record))
      workloads
  in
  Sys.rmdir dir;
  (try Sys.rmdir ".cfqbench" with Sys_error _ -> ());
  Option.iter
    (fun f ->
      Json.to_file f
        (Json.Obj
           [
             ("seed", Json.Str (Int64.to_string seed));
             ("runs", Json.List (List.filter_map (fun (_, _, r) -> r) results));
           ]))
    (List.assoc_opt "--json" opts);
  let failed = List.filter (fun (_, ok, _) -> not ok) results in
  List.iter (fun (w, _, _) -> Printf.printf "FAILED: %s\n" w) failed;
  exit (if failed = [] then 0 else 1)

(* ------------------------------------------------------------------ *)

(* (workload, metric) -> value, from a run record or a suite file. *)
let values_of_file path =
  let j = Json.of_file path in
  let records = match Json.member "runs" j with Some l -> Json.to_list l | None -> [ j ] in
  List.concat_map
    (fun r ->
      let w = Option.value ~default:"?" (Option.bind (Json.member "workload" r) Json.to_str) in
      match Json.member "metrics" r with
      | Some (Json.Obj ms) ->
          List.filter_map
            (fun (name, m) -> Option.map (fun v -> ((w, name), v)) (Option.bind (Json.member "value" m) Json.to_num))
            ms
      | _ -> [])
    records

let compare_cmd args =
  (* --parent and --change each take every file up to the next option *)
  let rec split ~parent ~change cur = function
    | [] -> (List.rev parent, List.rev change)
    | "--parent" :: rest -> split ~parent ~change `Parent rest
    | "--change" :: rest -> split ~parent ~change `Change rest
    | f :: rest -> (
        match cur with
        | `Parent -> split ~parent:(f :: parent) ~change cur rest
        | `Change -> split ~parent ~change:(f :: change) cur rest
        | `None -> usage ())
  in
  let parent, change = split ~parent:[] ~change:[] `None args in
  if parent = [] || change = [] then usage ();
  let p_values = List.map values_of_file parent and c_values = List.map values_of_file change in
  let series files key = List.filter_map (List.assoc_opt key) files in
  let worse = ref 0 in
  Printf.printf "%-8s %-20s %14s %14s %8s  %s\n" "workload" "metric" "parent p50" "change p50" "delta" "verdict";
  List.iter
    (fun w ->
      List.iter
        (fun (d : Catalog.def) ->
          let ps = series p_values (w, d.name) and cs = series c_values (w, d.name) in
          match d.bound with
          | Some bound when ps <> [] && cs <> [] ->
              let v = Stats.verdict ~better:d.better ~bound ~parent:ps ~change:cs in
              if v = Stats.Worse then incr worse;
              let mp = Stats.median ps and mc = Stats.median cs in
              Printf.printf "%-8s %-20s %14.6g %14.6g %+7.2f%%  %s\n" w d.name mp mc
                (if mc = mp then 0. else 100. *. (mc -. mp) /. Float.abs mp)
                (Stats.verdict_name v)
          | _ -> ())
        (Catalog.end_to_end @ Catalog.extras))
    Workload.names;
  (* counts must repeat exactly between runs of one commit at one seed *)
  List.iter
    (fun (label, files) ->
      List.iter
        (fun (d : Catalog.def) ->
          if d.unit = "count" then
            List.iter
              (fun w ->
                match series files (w, d.name) with
                | v :: rest when List.exists (fun x -> x <> v) rest ->
                    Printf.printf "%s: count %s on %s differs between runs\n" label d.name w
                | _ -> ())
              Workload.names)
        Catalog.layers)
    [ ("parent", p_values); ("change", c_values) ];
  exit (if !worse > 0 then 1 else 0)

let () =
  match Array.to_list Sys.argv |> List.tl with
  | "run" :: args -> run_cmd args
  | "suite" :: args -> suite_cmd args
  | "compare" :: args -> compare_cmd args
  | _ -> usage ()
