open Cfq_itembase

type t = {
  info : Item_info.t;
  originals : One_var.t list;
  mgf : Mgf.t;
  am_checks : One_var.t list;
  post_checks : One_var.t list;
}

let classify_one ~nonneg t c =
  match Mgf.of_one_var c with
  | Some m -> { t with mgf = Mgf.combine t.mgf m }
  | None ->
      let t =
        (* fold in whatever weaker succinct/anti-monotone forms are implied *)
        List.fold_left
          (fun t w ->
            match Mgf.of_one_var w with
            | Some m -> { t with mgf = Mgf.combine t.mgf m }
            | None ->
                if One_var.is_anti_monotone ~nonneg w then
                  { t with am_checks = w :: t.am_checks }
                else t)
          t
          (One_var.induce_weaker ~nonneg c)
      in
      if One_var.is_anti_monotone ~nonneg c then { t with am_checks = c :: t.am_checks }
      else { t with post_checks = c :: t.post_checks }

let unconstrained info =
  { info; originals = []; mgf = Mgf.trivial; am_checks = []; post_checks = [] }

let add ~nonneg t cs =
  let t = List.fold_left (classify_one ~nonneg) t cs in
  { t with originals = t.originals @ cs }

let compile ~nonneg info cs = add ~nonneg (unconstrained info) cs

let permits_item t e = Sel.eval t.info t.mgf.Mgf.universe e
let am_ok t s = List.for_all (fun c -> One_var.eval t.info c s) t.am_checks
let requires t = t.mgf.Mgf.requires
let eval_originals t s = List.for_all (fun c -> One_var.eval t.info c s) t.originals
