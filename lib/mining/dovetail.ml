open Cfq_itembase

let items_of_level entries =
  Itemset.of_array
    (Array.map
       (fun e ->
         match Itemset.min_item e.Frequent.set with
         | Some i -> i
         | None -> invalid_arg "Dovetail: empty set at level 1")
       entries)

let run ?par ?session io ~s ~t ?(after_l1 = fun ~l1_s:_ ~l1_t:_ -> ())
    ?(on_s_level = fun _ _ -> ()) ?(on_t_level = fun _ _ -> ()) () =
  if Cap.db s != Cap.db t then
    invalid_arg "Dovetail.run: the two lattices must share one database";
  let db = Cap.db s in
  let fired_l1 = ref false in
  let s_done = ref false and t_done = ref false in
  (* a side that exhausts before completing level 1 has an empty L1; the
     reduction must still fire so the other side learns it *)
  let maybe_fire_l1 () =
    if
      (not !fired_l1)
      && (Cap.level s >= 1 || !s_done)
      && (Cap.level t >= 1 || !t_done)
    then begin
      fired_l1 := true;
      let l1 state =
        if Cap.level state >= 1 then items_of_level (Frequent.level (Cap.result state) 1)
        else Itemset.empty
      in
      after_l1 ~l1_s:(l1 s) ~l1_t:(l1 t)
    end
  in
  let rec step () =
    let cs = Cap.next_candidates s in
    let ct = Cap.next_candidates t in
    if cs = None then s_done := true;
    if ct = None then t_done := true;
    match (cs, ct) with
    | None, None -> ()
    | _ ->
        let families =
          List.filter_map
            (fun x -> x)
            [
              Option.map (fun c -> (`S, Cap.counters s, c)) cs;
              Option.map (fun c -> (`T, Cap.counters t, c)) ct;
            ]
        in
        let counts =
          Counting.count_pass ?par ?session db io
            (List.map (fun (_, counters, c) -> (counters, c)) families)
        in
        List.iter2
          (fun (side, _, _) counts ->
            match side with
            | `S ->
                let entries = Cap.absorb s counts in
                on_s_level (Cap.level s) entries
            | `T ->
                let entries = Cap.absorb t counts in
                on_t_level (Cap.level t) entries)
          families counts;
        maybe_fire_l1 ();
        step ()
  in
  step ();
  (Cap.result s, Cap.result t)
