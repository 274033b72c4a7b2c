open Cfq_itembase
open Cfq_txdb
open Cfq_constr
open Cfq_mining

let log_src = Logs.Src.create "cfq.exec" ~doc:"CFQ execution"

module Log = (val Logs.src_log log_src)

type ctx = {
  db : Tx_db.t;
  s_info : Item_info.t;
  t_info : Item_info.t;
  nonneg : bool;
}

let context db info = { db; s_info = info; t_info = info; nonneg = true }

type side_report = {
  frequent : Frequent.t;
  valid : Frequent.entry array;
  counters : Counters.t;
  levels : Level_stats.row list;
}

type result = {
  plan : Plan.t;
  s : side_report;
  t : side_report;
  io : Io_stats.t;
  pair_stats : Pairs.stats;
  pairs : (Frequent.entry * Frequent.entry) list;
  mining_seconds : float;
  pair_seconds : float;
  notes : string list;
}

let total_checks r =
  Counters.constraint_checks r.s.counters
  + Counters.constraint_checks r.t.counters
  + r.pair_stats.Pairs.checks

let total_counted r =
  Counters.support_counted r.s.counters + Counters.support_counted r.t.counters

(* frequent sets of a side satisfying its user 1-var constraints; every
   evaluation is a constraint-check invocation *)
let validate_side info counters constraints frequent =
  let out = ref [] in
  Frequent.iter
    (fun e ->
      let ok =
        List.for_all
          (fun c ->
            Counters.add_constraint_checks counters 1;
            One_var.eval info c e.Frequent.set)
          constraints
      in
      if ok then out := e :: !out)
    frequent;
  Array.of_list (List.rev !out)

(* ------------------------------------------------------------------ *)
(* Apriori+ *)

let run_apriori_plus ?par ~session ctx (q : Query.t) io =
  let minsup_s = Tx_db.absolute_support ctx.db q.Query.s_minsup in
  let minsup_t = Tx_db.absolute_support ctx.db q.Query.t_minsup in
  if ctx.s_info == ctx.t_info then begin
    (* one domain: mine once at the laxer threshold, split by side *)
    let outcome =
      Apriori.mine ctx.db ctx.s_info io ?max_level:q.Query.max_level ?par ~session
        ~minsup:(min minsup_s minsup_t) ()
    in
    let side minsup =
      Frequent.filter_entries (fun e -> e.Frequent.support >= minsup) outcome.Apriori.frequent
    in
    let s_counters = outcome.Apriori.counters in
    let t_counters = Counters.create () in
    ( (side minsup_s, s_counters, Level_stats.rows outcome.Apriori.stats),
      (side minsup_t, t_counters, []) )
  end
  else begin
    let run info minsup =
      let outcome =
        Apriori.mine ctx.db info io ?max_level:q.Query.max_level ?par ~session ~minsup ()
      in
      (outcome.Apriori.frequent, outcome.Apriori.counters, Level_stats.rows outcome.Apriori.stats)
    in
    (run ctx.s_info minsup_s, run ctx.t_info minsup_t)
  end

(* ------------------------------------------------------------------ *)
(* CAP (1-var only) and the full optimized strategy *)

(* one V^k tracker: observes the lattice providing the bound and filters
   candidates on the other side *)
type sum_filter = {
  tracker : Jmax.Sum_bound.t;
  filter_agg : Agg.t;
  filter_attr : Attr.t;
  filter_op : Cmp.t;
  filter_info : Item_info.t;
  enabled : bool ref;
}

let make_sum_filter ~bound_info ~bound_attr ~filter_info ~filter_agg ~filter_attr
    ~filter_op =
  {
    tracker = Jmax.Sum_bound.create bound_info bound_attr;
    filter_agg;
    filter_attr;
    filter_op;
    filter_info;
    enabled = ref true;
  }

let sum_filter_admits f set =
  (not !(f.enabled))
  ||
  let bound = Jmax.Sum_bound.bound f.tracker in
  (not (Float.is_finite bound))
  ||
  match Agg.apply f.filter_agg f.filter_info f.filter_attr set with
  | Some v -> Cmp.eval f.filter_op v bound
  | None -> true

(* sum filters the plan installs for one 2-var constraint; the [`S] tag
   means "filter the S lattice, observe the T lattice" *)
let filters_of_handling ctx h =
  match h.Plan.constr with
  | Two_var.Set2 _ -> []
  | Two_var.Agg2 (agg1, a, op, agg2, b) ->
      (* the tracker always provides an upper bound on the opposite side's
         achievable sum, and the plan only installs a filter on the side
         whose aggregate must stay small, so the filter is always ≤ *)
      ignore op;
      let on_s () =
        ( `S,
          make_sum_filter ~bound_info:ctx.t_info ~bound_attr:b ~filter_info:ctx.s_info
            ~filter_agg:agg1 ~filter_attr:a ~filter_op:Cmp.Le )
      in
      let on_t () =
        ( `T,
          make_sum_filter ~bound_info:ctx.s_info ~bound_attr:a ~filter_info:ctx.t_info
            ~filter_agg:agg2 ~filter_attr:b ~filter_op:Cmp.Le )
      in
      (if h.Plan.jmax_on_s then [ on_s () ] else [])
      @ (if h.Plan.jmax_on_t then [ on_t () ] else [])

let run_lattices ?(notes = ref []) ?par ~session ctx (q : Query.t) (plan : Plan.t) io =
  let minsup_s = Tx_db.absolute_support ctx.db q.Query.s_minsup in
  let minsup_t = Tx_db.absolute_support ctx.db q.Query.t_minsup in
  (* when the two variables point at one and the same lattice computation
     (the Section 6.2 observation), mine it once and reuse it per side;
     this applies whenever no per-side 2-var conditions will be injected *)
  if
    plan.Plan.handlings = []
    && ctx.s_info == ctx.t_info
    && minsup_s = minsup_t
    && q.Query.s_constraints = q.Query.t_constraints
  then begin
    notes := "S and T share one lattice: mined once" :: !notes;
    let bundle = Bundle.compile ~nonneg:ctx.nonneg ctx.s_info q.Query.s_constraints in
    let state =
      Cap.create ctx.db ctx.s_info ?max_level:q.Query.max_level ~minsup:minsup_s bundle
    in
    let freq = Cap.run ?par ~session state io in
    let rows = Level_stats.rows (Cap.stats state) in
    ( (freq, Cap.counters state, rows),
      (freq, Counters.create (), rows) )
  end
  else begin
  let s_bundle = Bundle.compile ~nonneg:ctx.nonneg ctx.s_info q.Query.s_constraints in
  let t_bundle = Bundle.compile ~nonneg:ctx.nonneg ctx.t_info q.Query.t_constraints in
  let s_state =
    Cap.create ctx.db ctx.s_info ?max_level:q.Query.max_level ~minsup:minsup_s s_bundle
  in
  let t_state =
    Cap.create ctx.db ctx.t_info ?max_level:q.Query.max_level ~minsup:minsup_t t_bundle
  in
  let filters = List.concat_map (filters_of_handling ctx) plan.Plan.handlings in
  let s_filters = List.filter_map (function `S, f -> Some f | `T, _ -> None) filters in
  let t_filters = List.filter_map (function `T, f -> Some f | `S, _ -> None) filters in
  if s_filters <> [] then
    Cap.set_extra_filter s_state (fun set ->
        List.for_all (fun f -> sum_filter_admits f set) s_filters);
  if t_filters <> [] then
    Cap.set_extra_filter t_state (fun set ->
        List.for_all (fun f -> sum_filter_admits f set) t_filters);
  let after_l1 ~l1_s ~l1_t =
    (* quasi-succinct reduction of every 2-var constraint (Section 4);
       non-quasi-succinct ones get their sound bound conditions here too *)
    List.iter
      (fun h ->
        let red =
          Reduce.reduce ~s_info:ctx.s_info ~t_info:ctx.t_info ~l1_s ~l1_t h.Plan.constr
        in
        Cap.add_constraints ~nonneg:ctx.nonneg s_state red.Reduce.s_conds;
        Cap.add_constraints ~nonneg:ctx.nonneg t_state red.Reduce.t_conds)
      plan.Plan.handlings;
    (* the V^k machinery requires the observed lattice to be subset-complete:
       disable the filters whose source lattice now requires witnesses *)
    if Bundle.requires (Cap.bundle t_state) <> [] then
      List.iter (fun f -> f.enabled := false) s_filters;
    if Bundle.requires (Cap.bundle s_state) <> [] then
      List.iter (fun f -> f.enabled := false) t_filters
  in
  let note_bound side k f =
    let b = Jmax.Sum_bound.bound f.tracker in
    if Float.is_finite b then
      notes :=
        Printf.sprintf "V^k on %s(%a) after %s level %d: %g"
          (Agg.to_string f.filter_agg)
          (fun () a -> a.Cfq_itembase.Attr.name)
          f.filter_attr
          (match side with `S -> "T" | `T -> "S")
          k b
        :: !notes
  in
  let on_s_level k entries =
    List.iter
      (fun f ->
        Jmax.Sum_bound.observe_level f.tracker ~k entries;
        note_bound `T k f)
      t_filters
  in
  let on_t_level k entries =
    List.iter
      (fun f ->
        Jmax.Sum_bound.observe_level f.tracker ~k entries;
        note_bound `S k f)
      s_filters
  in
  let s_freq, t_freq =
    Dovetail.run ?par ~session io ~s:s_state ~t:t_state ~after_l1 ~on_s_level
      ~on_t_level ()
  in
  ( (s_freq, Cap.counters s_state, Level_stats.rows (Cap.stats s_state)),
    (t_freq, Cap.counters t_state, Level_stats.rows (Cap.stats t_state)) )
  end

(* ------------------------------------------------------------------ *)
(* Sequential T-first: the Section 5.2 alternative to dovetailing — compute
   the whole T lattice, then prune S against exact bounds (the "global
   maximum M" strategy).  More scans, tighter pruning. *)

let run_sequential ?par ~session ctx (q : Query.t) (plan : Plan.t) io =
  let minsup_s = Tx_db.absolute_support ctx.db q.Query.s_minsup in
  let minsup_t = Tx_db.absolute_support ctx.db q.Query.t_minsup in
  let s_bundle = Bundle.compile ~nonneg:ctx.nonneg ctx.s_info q.Query.s_constraints in
  let t_bundle = Bundle.compile ~nonneg:ctx.nonneg ctx.t_info q.Query.t_constraints in
  let s_state =
    Cap.create ctx.db ctx.s_info ?max_level:q.Query.max_level ~minsup:minsup_s s_bundle
  in
  let t_state =
    Cap.create ctx.db ctx.t_info ?max_level:q.Query.max_level ~minsup:minsup_t t_bundle
  in
  let level1 state = ignore (Cap.step ?par ~session state io : bool) in
  (* both level-1 sets first, so the full reduction is available to the T
     lattice before it runs to completion *)
  level1 s_state;
  level1 t_state;
  (* a side that never completed level 1 has an empty L1; the reduction's
     unsatisfiable conditions then correctly kill the other side too *)
  let l1_s = Itemset.of_array (Cap.frequent_items s_state) in
  let l1_t = Itemset.of_array (Cap.frequent_items t_state) in
  let reductions =
    List.map
      (fun h ->
        Reduce.reduce ~s_info:ctx.s_info ~t_info:ctx.t_info ~l1_s ~l1_t h.Plan.constr)
      plan.Plan.handlings
  in
  List.iter
    (fun red -> Cap.add_constraints ~nonneg:ctx.nonneg t_state red.Reduce.t_conds)
    reductions;
  let t_freq = Cap.run ?par ~session t_state io in
  begin
    List.iter
      (fun red -> Cap.add_constraints ~nonneg:ctx.nonneg s_state red.Reduce.s_conds)
      reductions;
    (* exact aggregate bounds from the completed T lattice in place of the
       V^k series: sum(CS.A) <= max over frequent T of sum(T.B) *)
    let exact_filters =
      List.filter_map
        (fun h ->
          if not h.Plan.jmax_on_s then None
          else
            match h.Plan.constr with
            | Two_var.Agg2 (agg1, a, _, agg2, b) ->
                let bound =
                  Frequent.fold
                    (fun acc e ->
                      match Agg.apply agg2 ctx.t_info b e.Frequent.set with
                      | Some v -> Float.max acc v
                      | None -> acc)
                    neg_infinity t_freq
                in
                Some
                  (fun set ->
                    match Agg.apply agg1 ctx.s_info a set with
                    | Some v -> v <= bound
                    | None -> true)
            | Two_var.Set2 _ -> None)
        plan.Plan.handlings
    in
    if exact_filters <> [] then
      Cap.set_extra_filter s_state (fun set -> List.for_all (fun f -> f set) exact_filters)
  end;
  let s_freq = Cap.run ?par ~session s_state io in
  ( (s_freq, Cap.counters s_state, Level_stats.rows (Cap.stats s_state)),
    (t_freq, Cap.counters t_state, Level_stats.rows (Cap.stats t_state)) )

(* FM (Section 6.2): constraint-check the powerset, count only valid sets. *)
let run_full_mat ctx (q : Query.t) io =
  let minsup_s = Tx_db.absolute_support ctx.db q.Query.s_minsup in
  let minsup_t = Tx_db.absolute_support ctx.db q.Query.t_minsup in
  let side info cs minsup =
    let bundle = Bundle.compile ~nonneg:ctx.nonneg info cs in
    let counters = Counters.create () in
    let freq = Full_mat.run ctx.db io counters ~bundle ~minsup in
    (freq, counters, [])
  in
  ( side ctx.s_info q.Query.s_constraints minsup_s,
    side ctx.t_info q.Query.t_constraints minsup_t )

(* ------------------------------------------------------------------ *)

let empty_result plan notes =
  let empty_side () =
    { frequent = Frequent.empty; valid = [||]; counters = Counters.create (); levels = [] }
  in
  {
    plan;
    s = empty_side ();
    t = empty_side ();
    io = Io_stats.create ();
    pair_stats =
      { Pairs.n_pairs = 0; n_paired_s = 0; n_paired_t = 0; checks = 0; join = Pairs.Nested_loop };
    pairs = [];
    mining_seconds = 0.;
    pair_seconds = 0.;
    notes;
  }

(* resolve the user's [par] into one that can be threaded through a whole
   run.  Without one, a database with rows enough for a second participant
   counts on every recommended domain; a smaller one stays sequential and
   spawns nothing.  A multi-domain request without a pool to borrow from
   gets a private pool for the run's lifetime (instead of spawning fresh
   domains on every level), torn down by [cleanup] *)
let resolve_par db par =
  let p =
    match par with
    | Some p -> p
    | None when Tx_db.size db >= 2 * Counting.default_min_rows_per_domain ->
        Counting.par (Domain.recommended_domain_count ())
    | None -> Counting.sequential
  in
  let domains = p.Counting.domains in
  if domains <= 1 || Option.is_some p.Counting.pool then (p, ignore)
  else
    let pool =
      Cfq_exec_pool.Pool.create ~domains:(domains - 1) ~queue_capacity:(4 * domains) ()
    in
    ({ p with Counting.pool = Some pool }, fun () -> Cfq_exec_pool.Pool.shutdown pool)

let run ?(strategy = Plan.Optimized) ?(collect_pairs = false) ?par
    ?(kernel = Counting.Direct2) ctx (q : Query.t) =
  (* normalise the constraint conjunction first; provably empty queries never
     touch the database *)
  let rw = Rewrite.simplify q in
  let q = rw.Rewrite.query in
  let plan = Optimizer.plan ~strategy ~nonneg:ctx.nonneg q in
  if rw.Rewrite.s_unsat || rw.Rewrite.t_unsat then
    empty_result plan
      (rw.Rewrite.notes @ [ "query is unsatisfiable; nothing was mined" ])
  else begin
  Log.debug (fun m -> m "executing with strategy %s: %s" (Plan.strategy_name strategy)
      (Query.to_string q));
  let io = Io_stats.create () in
  let notes = ref (List.rev rw.Rewrite.notes) in
  let t0 = Unix.gettimeofday () in
  let par, cleanup_pool = resolve_par ctx.db par in
  (* one counting session per run: the kernel and its pass counts *)
  let session = Counting.create_session kernel in
  let (s_freq, s_counters, s_levels), (t_freq, t_counters, t_levels) =
    Fun.protect ~finally:cleanup_pool (fun () ->
        match strategy with
        | Plan.Apriori_plus -> run_apriori_plus ~par ~session ctx q io
        | Plan.Cap_one_var | Plan.Optimized ->
            run_lattices ~notes ~par ~session ctx q plan io
        | Plan.Sequential_t_first -> run_sequential ~par ~session ctx q plan io
        | Plan.Full_materialize ->
            (* FM counts exactly one explicit candidate batch; the trie pass
               is already the direct representation there *)
            run_full_mat ctx q io)
  in
  if strategy <> Plan.Full_materialize then
    notes :=
      Printf.sprintf "counting kernels (%s) on %d domain%s: %s"
        (Counting.kernel_name kernel) par.Counting.domains
        (if par.Counting.domains = 1 then "" else "s")
        (Counting.describe session)
      :: !notes;
  let t1 = Unix.gettimeofday () in
  let valid_s = validate_side ctx.s_info s_counters q.Query.s_constraints s_freq in
  let valid_t = validate_side ctx.t_info t_counters q.Query.t_constraints t_freq in
  let collected = ref [] in
  let on_run =
    if collect_pairs then
      Pairs.pairwise (fun i j -> collected := (valid_s.(i), valid_t.(j)) :: !collected)
    else fun _ _ _ _ -> ()
  in
  let pair_stats =
    Pairs.form ~s_info:ctx.s_info ~t_info:ctx.t_info ~valid_s ~valid_t
      ~two_var:q.Query.two_var ~on_run ()
  in
  let t2 = Unix.gettimeofday () in
  Log.debug (fun m ->
      m "mining %.3fs (%d + %d sets counted), pairs %.3fs (%d pairs)" (t1 -. t0)
        (Counters.support_counted s_counters)
        (Counters.support_counted t_counters)
        (t2 -. t1) pair_stats.Pairs.n_pairs);
  {
    plan;
    s = { frequent = s_freq; valid = valid_s; counters = s_counters; levels = s_levels };
    t = { frequent = t_freq; valid = valid_t; counters = t_counters; levels = t_levels };
    io;
    pair_stats;
    pairs = List.rev !collected;
    mining_seconds = t1 -. t0;
    pair_seconds = t2 -. t1;
    notes = List.rev !notes;
  }
  end

let run_result ?strategy ?collect_pairs ?par ?kernel ctx q =
  match run ?strategy ?collect_pairs ?par ?kernel ctx q with
  | r -> Ok r
  | exception Cfq_error.Error e -> Error e
  | exception Stack_overflow -> Error (Cfq_error.Query_crash "stack overflow")
  | exception Out_of_memory -> Error (Cfq_error.Query_crash "out of memory")
