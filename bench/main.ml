(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Section 7) and runs the Bechamel microbenchmarks.

   Usage:  dune exec bench/main.exe            (scaled-down workloads)
           FULL=1 dune exec bench/main.exe     (paper scale: 100k transactions)
           dune exec bench/main.exe -- micro   (microbenchmarks only)
           dune exec bench/main.exe -- fig8a   (one experiment)
           dune exec bench/main.exe -- counting (counting kernels and domains)

   The serving workloads (session, store, live) are measured end to end by
   cfqbench; their correctness gates live in `dune runtest`. *)

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let scale () = Workloads.default_scale () in
  match args with
  | [] ->
      Micro.run ();
      Experiments.run_all ()
  | [ "micro" ] -> Micro.run ()
  | [ "fig8a" ] -> ignore (Experiments.fig8a (scale ()))
  | [ "tab71_levels" ] -> Experiments.tab71_levels (scale ())
  | [ "tab71_ranges" ] -> Experiments.tab71_ranges (scale ())
  | [ "fig8b" ] -> ignore (Experiments.fig8b (scale ()))
  | [ "tab72_ranges" ] -> Experiments.tab72_ranges (scale ())
  | [ "tab73_jmax" ] -> ignore (Experiments.tab73_jmax (scale ()))
  | [ "ablation" ] -> Experiments.ablation_dovetail (scale ())
  | [ "miners" ] -> Experiments.miners (scale ())
  | [ "cap_1var" ] -> Experiments.cap_1var (scale ())
  | [ "maintenance" ] -> Experiments.maintenance (scale ())
  | [ "parallel" ] -> Experiments.parallel (scale ())
  | [ "counting" ] -> Counting_bench.run (scale ())
  | _ ->
      prerr_endline
        "usage: main.exe \
         [micro|fig8a|tab71_levels|tab71_ranges|fig8b|tab72_ranges|tab73_jmax|ablation|miners|cap_1var|maintenance|parallel|counting]";
      exit 2
