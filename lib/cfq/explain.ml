open Cfq_txdb
open Cfq_mining

let plan ppf q p =
  Format.fprintf ppf "@[<v>query: %a@,%a@]" Query.pp q Plan.pp p

let side ppf name (r : Exec.side_report) =
  Format.fprintf ppf "%s lattice:@," name;
  List.iter
    (fun row ->
      Format.fprintf ppf "  L%d: %d candidates, %d frequent@," row.Level_stats.level
        row.Level_stats.candidates row.Level_stats.frequent)
    r.Exec.levels;
  Format.fprintf ppf "  frequent sets: %d; valid: %d@," (Frequent.n_sets r.Exec.frequent)
    (Array.length r.Exec.valid);
  Format.fprintf ppf "  ccc: %a@," Counters.pp r.Exec.counters

let result ppf (r : Exec.result) =
  Format.fprintf ppf "@[<v>%a@," Plan.pp r.Exec.plan;
  side ppf "S" r.Exec.s;
  side ppf "T" r.Exec.t;
  Format.fprintf ppf "io: %a@," Io_stats.pp r.Exec.io;
  Format.fprintf ppf "pairs: %d (from %d S-sets x %d T-sets; %s, %d residual checks)@,"
    r.Exec.pair_stats.Pairs.n_pairs r.Exec.pair_stats.Pairs.n_paired_s
    r.Exec.pair_stats.Pairs.n_paired_t
    (Pairs.join_method_name r.Exec.pair_stats.Pairs.join)
    r.Exec.pair_stats.Pairs.checks;
  List.iter (fun n -> Format.fprintf ppf "note: %s@," n) r.Exec.notes;
  Format.fprintf ppf "time: mining %.3fs, pairs %.3fs@]" r.Exec.mining_seconds
    r.Exec.pair_seconds

let plan_to_string q p = Format.asprintf "%a" (fun ppf () -> plan ppf q p) ()
let result_to_string r = Format.asprintf "%a" result r

let pairs_to_string n (r : Exec.result) =
  match List.filteri (fun i _ -> i < n) r.Exec.pairs with
  | [] -> "no pairs (none answered the query, or none were collected)"
  | shown ->
      String.concat "\n  "
        (Printf.sprintf "%d of %d pairs:" (List.length shown)
           r.Exec.pair_stats.Pairs.n_pairs
        :: List.map
             (fun (s, t) ->
               Cfq_itembase.Itemset.to_string s.Frequent.set
               ^ " => "
               ^ Cfq_itembase.Itemset.to_string t.Frequent.set)
             shown)
