open Cfq_itembase
open Cfq_txdb
open Cfq_mining

type t = {
  antecedent : Itemset.t;
  consequent : Itemset.t;
  metric : Metric.t;
}

let pp ppf t =
  Format.fprintf ppf "%a => %a [%a]" Itemset.pp t.antecedent Itemset.pp t.consequent
    Metric.pp t.metric

let of_pairs db io ?(min_confidence = 0.) ?(min_lift = 0.) pairs =
  let n = Tx_db.size db in
  (* count all distinct unions in one scan *)
  let union_index = Itemset.Hashtbl.create (2 * List.length pairs) in
  let unions = ref [] in
  List.iter
    (fun (s, t) ->
      let u = Itemset.union s.Frequent.set t.Frequent.set in
      if not (Itemset.Hashtbl.mem union_index u) then begin
        Itemset.Hashtbl.replace union_index u (List.length !unions);
        unions := u :: !unions
      end)
    pairs;
  let unions = Array.of_list (List.rev !unions) in
  let counts =
    Counting.counts
      (List.hd (Counting.count_pass db io [ (Counters.create (), Candidate.Sets unions) ]))
  in
  let rules =
    List.filter_map
      (fun (s, t) ->
        let u = Itemset.union s.Frequent.set t.Frequent.set in
        let n_st = counts.(Itemset.Hashtbl.find union_index u) in
        let metric =
          Metric.compute ~n ~n_s:s.Frequent.support ~n_t:t.Frequent.support ~n_st
        in
        if metric.Metric.confidence >= min_confidence && metric.Metric.lift >= min_lift
        then Some { antecedent = s.Frequent.set; consequent = t.Frequent.set; metric }
        else None)
      pairs
  in
  List.sort
    (fun a b ->
      match Float.compare b.metric.Metric.confidence a.metric.Metric.confidence with
      | 0 -> Float.compare b.metric.Metric.lift a.metric.Metric.lift
      | c -> c)
    rules

let of_frequent frequent ~n ~min_confidence =
  let rules = ref [] in
  let try_rule z n_z consequent =
    (* consequent ⊂ z; antecedent = z \ consequent *)
    let antecedent = Itemset.diff z consequent in
    if Itemset.is_empty antecedent then None
    else
      match (Frequent.support frequent antecedent, Frequent.support frequent consequent) with
      | Some n_s, Some n_t ->
          let metric = Metric.compute ~n ~n_s ~n_t ~n_st:n_z in
          if metric.Metric.confidence >= min_confidence then begin
            rules := { antecedent; consequent; metric } :: !rules;
            Some consequent
          end
          else None
      | None, _ | _, None -> None
  in
  Frequent.iter
    (fun e ->
      let z = e.Frequent.set in
      if Itemset.cardinal z >= 2 then begin
        (* level-wise over consequent size; only extend consequents that
           passed (conf is antitone in the consequent: moving items out of
           the antecedent can only shrink its support... i.e. larger
           consequent => smaller antecedent => conf can only drop) *)
        let ok1 = ref [] in
        Itemset.iter
          (fun i ->
            match try_rule z e.Frequent.support (Itemset.singleton i) with
            | Some c -> ok1 := c :: !ok1
            | None -> ())
          z;
        let rec levels prev =
          match prev with
          | [] | [ _ ] -> ()
          | _ ->
              let tbl = Itemset.Hashtbl.create 16 in
              List.iter (fun c -> Itemset.Hashtbl.replace tbl c ()) prev;
              let next =
                Candidate.apriori_gen ~prev:(Array.of_list prev)
                  ~prev_mem:(Itemset.Hashtbl.mem tbl)
                |> Array.to_list
                |> List.filter (fun c -> Itemset.cardinal c < Itemset.cardinal z)
                |> List.filter_map (fun c -> try_rule z e.Frequent.support c)
              in
              levels next
        in
        levels !ok1
      end)
    frequent;
  List.sort
    (fun a b ->
      match Float.compare b.metric.Metric.confidence a.metric.Metric.confidence with
      | 0 -> Float.compare b.metric.Metric.lift a.metric.Metric.lift
      | c -> c)
    !rules

let mine ?strategy ?min_confidence ?min_lift ctx query =
  let r = Cfq_core.Exec.run ?strategy ~collect_pairs:true ctx query in
  let rules =
    of_pairs ctx.Cfq_core.Exec.db r.Cfq_core.Exec.io ?min_confidence ?min_lift
      r.Cfq_core.Exec.pairs
  in
  (rules, r)
