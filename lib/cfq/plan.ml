open Cfq_constr

type strategy =
  | Apriori_plus
  | Cap_one_var
  | Optimized
  | Sequential_t_first
  | Full_materialize

type two_var_handling = {
  constr : Two_var.t;
  quasi_succinct : bool;
  induced : Two_var.t option;
  jmax_on_s : bool;
  jmax_on_t : bool;
}

type t = {
  strategy : strategy;
  handlings : two_var_handling list;
  ccc_optimal : bool;
  notes : string list;
}

let strategy_name = function
  | Apriori_plus -> "apriori+"
  | Cap_one_var -> "cap-1var"
  | Optimized -> "optimized"
  | Sequential_t_first -> "sequential-t-first"
  | Full_materialize -> "full-materialize"

let all_strategies =
  [
    ("apriori+", Apriori_plus);
    ("cap", Cap_one_var);
    ("optimized", Optimized);
    ("sequential", Sequential_t_first);
    ("fm", Full_materialize);
  ]

let pp ppf t =
  Format.fprintf ppf "@[<v>strategy: %s" (strategy_name t.strategy);
  List.iter
    (fun h ->
      Format.fprintf ppf "@,2-var %a: %s" Two_var.pp h.constr
        (if h.quasi_succinct then "quasi-succinct reduction"
         else "sound bound reduction");
      (match h.induced with
      | Some c -> Format.fprintf ppf "; induces %a" Two_var.pp c
      | None -> ());
      if h.jmax_on_s then Format.fprintf ppf "; Jmax/V^k filter on S";
      if h.jmax_on_t then Format.fprintf ppf "; Jmax/V^k filter on T")
    t.handlings;
  if t.ccc_optimal then Format.fprintf ppf "@,ccc-optimal: yes"
  else Format.fprintf ppf "@,ccc-optimal: not guaranteed";
  List.iter (fun n -> Format.fprintf ppf "@,note: %s" n) t.notes;
  Format.fprintf ppf "@]"
