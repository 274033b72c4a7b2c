open Cfq_constr

type t = {
  s_minsup : float;
  t_minsup : float;
  s_constraints : One_var.t list;
  t_constraints : One_var.t list;
  two_var : Two_var.t list;
  max_level : int option;
}

let make ?(s_minsup = 0.01) ?(t_minsup = 0.01) ?(s_constraints = [])
    ?(t_constraints = []) ?(two_var = []) ?max_level () =
  if s_minsup < 0. || s_minsup > 1. || t_minsup < 0. || t_minsup > 1. then
    invalid_arg "Query.make: support thresholds must be in [0, 1]";
  { s_minsup; t_minsup; s_constraints; t_constraints; two_var; max_level }

let pp ppf t =
  Format.fprintf ppf "{(S,T) | freq(S) >= %g & freq(T) >= %g" t.s_minsup t.t_minsup;
  List.iter (fun c -> Format.fprintf ppf " & %a" (One_var.pp_with_var "S") c) t.s_constraints;
  List.iter (fun c -> Format.fprintf ppf " & %a" (One_var.pp_with_var "T") c) t.t_constraints;
  List.iter (fun c -> Format.fprintf ppf " & %a" Two_var.pp c) t.two_var;
  Format.fprintf ppf "}"

let to_string t = Format.asprintf "%a" pp t
