(* Order statistics for one run's latency samples and for a metric's
   values across runs, and the parent-versus-change verdict that
   [main.exe compare] prints. *)

let sorted a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  a

(* statistics.median: the middle value, or the mean of the two middle
   values for an even count. *)
let median values =
  let a = sorted (Array.of_list values) in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.median: no values"
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* statistics.quantiles(values, n=4), whose default method is
   "exclusive": the three cut points, with Python's integer arithmetic
   for the interpolation weights. *)
let quartiles values =
  let a = sorted (Array.of_list values) in
  let ld = Array.length a in
  if ld < 2 then invalid_arg "Stats.quartiles: need at least two values";
  let m = ld + 1 in
  let cut i =
    let j = max 1 (min (ld - 1) (i * m / 4)) in
    let delta = (i * m) - (j * 4) in
    ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.
  in
  (cut 1, cut 2, cut 3)

(* The distance between the first and third quartile as a share of the
   median: the run-to-run spread the bounds are checked against. *)
let spread values =
  let q1, _, q3 = quartiles values in
  (q3 -. q1) /. Float.abs (median values)

(* [percentile samples p] interpolates linearly between the closest ranks
   of the sorted samples.  +infinity (a failed query) sorts last. *)
let percentile samples p =
  let a = sorted samples in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.percentile: no samples";
  let h = p /. 100. *. float_of_int (n - 1) in
  let lo = truncate h in
  let hi = min (n - 1) (lo + 1) in
  let w = h -. float_of_int lo in
  if w = 0. || a.(lo) = a.(hi) then a.(lo) else a.(lo) +. (w *. (a.(hi) -. a.(lo)))

(* The highest percentile of the ladder with at least ten of [n] samples
   beyond it; [None] below twenty samples, where not even the median has
   ten beyond. *)
let tail_percentile n =
  List.find_opt
    (fun p -> n * (100 - p) >= 1000)
    [ 99; 95; 90; 85; 80; 75; 70; 65; 60; 55; 50 ]

type better = Lower | Higher

type verdict = Better | Within | Worse | Unresolved

let verdict_name = function
  | Better -> "better"
  | Within -> "within"
  | Worse -> "worse"
  | Unresolved -> "unresolved"

(* The rules of the metrics guide, for one metric on one workload:

   - better: the change wins at least nine tenths of the run pairs (ties
     count for neither) and the medians differ by more than the parent's
     own quartile distance;
   - unresolved: the parent's spread exceeds the bound, so a regression
     of the bound's size cannot be told from noise, unless every change
     run reads better than every parent run;
   - worse: the change's median is worse than the parent's by more than
     the bound, as a share of the parent's median;
   - within: none of the above. *)
let verdict ~better ~bound ~parent ~change =
  let improves c p = match better with Lower -> c < p | Higher -> c > p in
  let rec pairs ps cs =
    match (ps, cs) with p :: ps, c :: cs -> (p, c) :: pairs ps cs | _ -> []
  in
  let pairs = pairs parent change in
  let wins = List.length (List.filter (fun (p, c) -> improves c p) pairs) in
  let med_p = median parent and med_c = median change in
  let q1, _, q3 = if List.length parent >= 2 then quartiles parent else (med_p, med_p, med_p) in
  let all_better = List.for_all (fun c -> List.for_all (fun p -> improves c p) parent) change in
  let noisy = List.length parent >= 2 && spread parent > bound in
  let worse_by =
    match better with
    | Lower -> (med_c -. med_p) /. Float.abs med_p
    | Higher -> (med_p -. med_c) /. Float.abs med_p
  in
  if pairs <> [] && wins * 10 >= 9 * List.length pairs && Float.abs (med_c -. med_p) > q3 -. q1
  then Better
  else if noisy && not all_better then Unresolved
  else if worse_by > bound then Worse
  else Within
