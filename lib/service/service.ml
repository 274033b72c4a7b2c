open Cfq_itembase
open Cfq_txdb
open Cfq_constr
open Cfq_mining
open Cfq_core
open Cfq_exec_pool

let log_src = Logs.Src.create "cfq.service" ~doc:"CFQ query service"

module Log = (val Logs.src_log log_src)

type config = {
  domains : int;
  mine_domains : int;
  queue_capacity : int;
  cache_budget : int;
  default_deadline : float option;
  retries : int;
  backoff_base : float;
  breaker_threshold : int;
  breaker_cooldown : int;
  degrade : bool;
  jitter_seed : int64;
  kernel : Counting.kernel;
}

let default_config =
  {
    domains = 2;
    mine_domains = 0;
    queue_capacity = 1024;
    cache_budget = 64 * 1024 * 1024;
    default_deadline = None;
    retries = 2;
    backoff_base = 0.002;
    breaker_threshold = 5;
    breaker_cooldown = 8;
    degrade = true;
    jitter_seed = 0x0DDB1A5EL;
    kernel = Counting.Direct2;
  }

type knob = {
  name : string;
  doc : string;
  print : config -> string;
  parse : string -> config -> (config, string) result;
}

let knob_error name expected v = Error (Printf.sprintf "%s: expected %s, got %S" name expected v)

let int_knob name ~min ~doc get set =
  {
    name;
    doc;
    print = (fun c -> string_of_int (get c));
    parse =
      (fun v c ->
        match int_of_string_opt v with
        | Some n when n >= min -> Ok (set c n)
        | Some _ | None -> knob_error name (Printf.sprintf "an integer >= %d" min) v);
  }

(* shortest decimal that reads back as the same float *)
let print_float x =
  let s = Printf.sprintf "%g" x in
  if float_of_string s = x then s else Printf.sprintf "%.17g" x

let mib = 1024 * 1024

let knobs =
  [
    int_knob "domains" ~min:1 ~doc:"Worker domains of the query service."
      (fun c -> c.domains)
      (fun c domains -> { c with domains });
    int_knob "mine-domains" ~min:0
      ~doc:
        "Domains each counting scan fans out over, borrowed from idle \
         workers; 0 inherits domains (for a single run: every recommended \
         domain of the machine, from 4,096 rows), 1 counts sequentially."
      (fun c -> c.mine_domains)
      (fun c mine_domains -> { c with mine_domains });
    int_knob "cache-mb" ~min:0 ~doc:"Cache memory budget in MiB."
      (fun c -> c.cache_budget / mib)
      (fun c mb -> { c with cache_budget = mb * mib });
    {
      name = "deadline";
      doc = "Per-query wall-clock deadline in seconds; none = unbounded.";
      print =
        (fun c -> match c.default_deadline with None -> "none" | Some s -> print_float s);
      parse =
        (fun v c ->
          match (v, float_of_string_opt v) with
          | ("none" | "off"), _ -> Ok { c with default_deadline = None }
          | _, Some s when s > 0. -> Ok { c with default_deadline = Some s }
          | _ -> knob_error "deadline" "a positive number of seconds or none" v);
    };
    int_knob "retries" ~min:0 ~doc:"Max retries of a transiently failed query."
      (fun c -> c.retries)
      (fun c retries -> { c with retries });
    int_knob "breaker-threshold" ~min:0
      ~doc:"Consecutive failures that trip the circuit breaker (0 disables)."
      (fun c -> c.breaker_threshold)
      (fun c breaker_threshold -> { c with breaker_threshold });
    {
      name = "kernel";
      doc =
        "Support-counting kernel: trie (the reference scan-per-level path) or \
         direct2 (the default: direct level-1 and level-2 count arrays, the trie's \
         page charges).  Answers are identical for every kernel.";
      print = (fun c -> Counting.kernel_name c.kernel);
      parse =
        (fun v c ->
          match Counting.kernel_of_string v with
          | Some kernel -> Ok { c with kernel }
          | None ->
              knob_error "kernel"
                ("one of " ^ String.concat ", " (List.map fst Counting.all_kernels))
                v);
    };
  ]

type served_from =
  | Cold
  | Answer_cache
  | Subsumed
  | Degraded

let served_from_name = function
  | Cold -> "cold"
  | Answer_cache -> "answer-cache"
  | Subsumed -> "subsumed"
  | Degraded -> "degraded"

type answer = {
  pairs : (Frequent.entry * Frequent.entry) list;
  n_pairs : int;
  served_from : served_from;
  support_counted : int;
  constraint_checks : int;
  scans : int;
  pages_read : int;
  latency_seconds : float;
  notes : string list;
}

type error =
  | Rejected
  | Overloaded
  | Deadline_exceeded
  | Fault of Cfq_error.t
  | Failed of string

let error_to_string = function
  | Rejected -> "rejected: admission queue full"
  | Overloaded -> "overloaded: circuit breaker open"
  | Deadline_exceeded -> "deadline exceeded"
  | Fault e -> "fault: " ^ Cfq_error.to_string e
  | Failed msg -> "failed: " ^ msg

(* one side's cached frequent collection, as mined.  The collection is
   stored condensed (closed sets only, [Condensed.t]) when the round-trip
   is provably lossless; lookups rebuild the raw collection on demand.  The cache charges the memoized [se_weight],
   so a condensed entry makes room for more distinct fingerprints under
   the same budget. *)
type side_entry = {
  se_epoch : int;  (* database generation the supports are exact for *)
  se_info : Item_info.t;  (* shared, immutable; needed to re-key on promotion *)
  se_info_id : int;
  se_minsup : int;  (* absolute support it was mined at *)
  se_max_level : int option;
  se_constraints : One_var.t list;  (* normalised 1-var conjunction it was mined under *)
  se_cond : Condensed.t;
  se_weight : int;  (* memoized cache charge: [Condensed.bytes se_cond] *)
}

(* a cached answer; its pair list is stored packed ([Packed.t]) and
   rebuilt on lookup *)
type cached_answer = {
  ca_epoch : int;
      (* the epoch the supports are exact for; checked on every lookup *)
  ca_query : Query.t;  (* simplified query, for degraded covering tests *)
  ca_answer : answer;  (* template with [pairs = []]; pairs live in ca_pairs *)
  ca_pairs : Packed.t;
  ca_weight : int;  (* memoized cache charge *)
}

(* circuit breaker: [Open n] sheds the next [n] admissions, then half-opens;
   the cooldown is admission-counted, not wall-clock, so breaker behaviour
   is deterministic under a deterministic submission order *)
type breaker_state =
  | Closed
  | Open of int
  | Half_open

(* one breaker, the service's or a shard's: its state and its run of
   consecutive failures, guarded by the service lock *)
type breaker = { mutable state : breaker_state; mutable consec : int }

let closed_breaker () = { state = Closed; consec = 0 }

(* per-shard health of a sharded backend: failures whose error pages fall
   in a shard's range charge that shard's breaker, so one faulty shard
   degrades its own admissions to cache-only serving while the others keep
   mining.  All fields are guarded by the service lock. *)
type shard_health = {
  sh_breaker : breaker;
  mutable sh_admissions : int;
  mutable sh_failures : int;
  mutable sh_trips : int;
  mutable sh_shed : int;
}

type t = {
  mutable service_ctx : Exec.ctx;
      (* swapped (under [lock]) by [seal_live]: queries capture it together
         with [epoch] at admission and run against that snapshot — a store
         handle obtained before a seal stays readable *)
  mutable epoch : int;
      (* monotone database generation, minted by [seal_live]; every cache
         entry is stamped with the epoch its supports are exact for, and
         every lookup path checks the stamp, so a seal can never serve
         stale supports *)
  mutable live_source : Cfq_live.Source.t option;
  service_config : config;
  pool : Pool.t;
  mine_par : Counting.par;
      (* intra-query counting parallelism: helpers are borrowed from [pool],
         never spawned, so the service as a whole never oversubscribes *)
  lock : Mutex.t;
  answers : cached_answer Lru.t;
      (* the epoch and (simplified) query are kept alongside each answer so
         degraded serving can test whether a cached answer covers a new
         query — and reject it when it predates the current epoch *)
  sides : side_entry Lru.t;
  service_metrics : Metrics.t;
  breaker : breaker;
  mutable consec_rejections : int;
  shard_health : shard_health array;  (* one per shard; [||] unsharded *)
}

type ticket =
  | Pooled of (answer, error) result Pool.promise
  | Immediate of (answer, error) result

let create ?(config = default_config) ctx =
  (* answers are small relative to collections: 1/4 vs 3/4 of the budget *)
  let budget = max 0 config.cache_budget in
  let pool = Pool.create ~domains:config.domains ~queue_capacity:config.queue_capacity () in
  let mine_domains =
    if config.mine_domains = 0 then config.domains else max 1 config.mine_domains
  in
  {
    service_ctx = ctx;
    epoch = 0;
    live_source = None;
    service_config = config;
    pool;
    mine_par = Counting.par ~pool mine_domains;
    lock = Mutex.create ();
    answers = Lru.create ~budget:(budget / 4);
    sides = Lru.create ~budget:(budget - (budget / 4));
    service_metrics = Metrics.create ();
    breaker = closed_breaker ();
    consec_rejections = 0;
    shard_health =
      (match Tx_db.shards ctx.Exec.db with
      | Some subs ->
          Array.init (Array.length subs) (fun _ ->
              {
                sh_breaker = closed_breaker ();
                sh_admissions = 0;
                sh_failures = 0;
                sh_trips = 0;
                sh_shed = 0;
              })
      | None -> [||]);
  }

let ctx t = t.service_ctx
let config t = t.service_config
let epoch t = t.epoch

let locked t f =
  Mutex.lock t.lock;
  match f () with
  | v ->
      Mutex.unlock t.lock;
      v
  | exception e ->
      Mutex.unlock t.lock;
      raise e

(* ------------------------------------------------------------------ *)
(* condensation: the cache's storage format.  Weights are approximate
   bytes for the cache budget, on one scale for collections ([Condensed])
   and answers ([Packed]), computed once per insert and memoized on the
   entry. *)

(* condense a freshly mined or promoted collection for caching; every side
   insert is priced through here so the ratio metrics see the full
   stream *)
let condense_frequent t freq =
  let cond = Condensed.of_frequent freq in
  locked t (fun () ->
      Metrics.record_condensed t.service_metrics
        ~raw:(Condensed.raw_bytes cond) ~stored:(Condensed.bytes cond)
        ~condensed:(Condensed.is_condensed cond));
  cond

(* rebuild a side's raw collection — one reconstruction paid when the
   closed form is stored.  Never call with [t.lock] held. *)
let side_frequent t entry =
  if Condensed.is_condensed entry.se_cond then
    locked t (fun () -> Metrics.record_reconstruction t.service_metrics);
  Condensed.to_frequent entry.se_cond

(* ------------------------------------------------------------------ *)
(* answers: joined and packed as the join emits its runs *)

(* join two filtered sides and pack the pairs as the join emits them *)
let join_packed (ctx : Exec.ctx) (q : Query.t) ~valid_s ~valid_t =
  Packed.join ~s_info:ctx.Exec.s_info ~t_info:ctx.Exec.t_info ~valid_s ~valid_t
    ~two_var:q.Query.two_var

(* [template] carries everything but the pairs *)
let make_cached_answer ~epoch q (template : answer) packed =
  {
    ca_epoch = epoch;
    ca_query = q;
    ca_answer = { template with pairs = [] };
    ca_pairs = packed.Packed.pk;
    ca_weight = packed.Packed.packed_weight;
  }

(* with [t.lock] held: insert [ca] under [key] unless a seal has moved
   past [epoch], pricing the insert for the ratio metrics *)
let insert_answer_locked t ~epoch ~key packed ca =
  if t.epoch = epoch then begin
    Metrics.record_condensed t.service_metrics ~raw:packed.Packed.raw_weight
      ~stored:ca.ca_weight ~condensed:true;
    ignore (Lru.insert t.answers key ~weight:ca.ca_weight ca : bool)
  end

(* with [t.lock] held: serve [ca] from the cache, its [pairs] rebuilt
   [latency] seconds after admission, at no database cost *)
let serve_hit_locked t ca pairs ~latency =
  Metrics.record_reconstruction t.service_metrics;
  Metrics.record_query t.service_metrics ~latency ~support_counted:0
    ~constraint_checks:0 ~scans:0 ~pages_read:0;
  {
    ca.ca_answer with
    pairs;
    served_from = Answer_cache;
    support_counted = 0;
    constraint_checks = 0;
    scans = 0;
    pages_read = 0;
    latency_seconds = latency;
  }

(* ------------------------------------------------------------------ *)
(* deadline handling *)

exception Expired

let check_deadline = function
  | Some d when Unix.gettimeofday () > d -> raise Expired
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* side resolution: cached collection via subsumption, or cold CAP mining *)

type side_spec = {
  sp_info : Item_info.t;
  sp_minsup : int;
  sp_max_level : int option;
  sp_constraints : One_var.t list;
}

let side_spec_of (ctx : Exec.ctx) (q : Query.t) = function
  | `S ->
      {
        sp_info = ctx.Exec.s_info;
        sp_minsup = Tx_db.absolute_support ctx.Exec.db q.Query.s_minsup;
        sp_max_level = q.Query.max_level;
        sp_constraints = q.Query.s_constraints;
      }
  | `T ->
      {
        sp_info = ctx.Exec.t_info;
        sp_minsup = Tx_db.absolute_support ctx.Exec.db q.Query.t_minsup;
        sp_max_level = q.Query.max_level;
        sp_constraints = q.Query.t_constraints;
      }

(* cached [entry] can stand for [spec] at [epoch]: current epoch (its
   supports are exact for the live database), same attribute table
   ([info_id], looked up once per lookup), mined at least as deep and at
   most as high a threshold.  Side keys carry no database identity —
   without the epoch check a post-seal lookup would happily serve pre-seal
   supports. *)
let entry_fits ~epoch ~info_id entry spec =
  entry.se_epoch = epoch
  && entry.se_info_id = info_id
  && entry.se_minsup <= spec.sp_minsup
  && (match entry.se_max_level with
     | None -> true
     | Some cached_cap -> (
         match spec.sp_max_level with
         | Some requested_cap -> cached_cap >= requested_cap
         | None -> false))

(* What the side cache holds for [spec]: the covering entry with the
   fewest sets (it fits and [spec] entails its whole constraint set), or
   failing one every neighbour (it fits and [spec] entails all but one
   atom, a bound [spec] widens: {!Entail.widening}), with that atom. *)
type side_lookup =
  | Covering of string * side_entry
  | Neighbours of (string * side_entry * One_var.t) list

(* call with [t.lock] held: one fold over the side cache *)
let lookup_side_locked t ~epoch spec =
  let info_id = Fingerprint.info_id spec.sp_info in
  let best, neighbours =
    Lru.fold
      (fun ((best, neighbours) as acc) ~key ~value ->
        if not (entry_fits ~epoch ~info_id value spec) then acc
        else if Entail.subsumes ~cached:value.se_constraints ~requested:spec.sp_constraints then
          match best with
          | Some (_, b) when Condensed.n_sets b.se_cond <= Condensed.n_sets value.se_cond -> acc
          | _ -> (Some (key, value), neighbours)
        else if best <> None then acc
        else
          match Entail.widening ~cached:value.se_constraints ~requested:spec.sp_constraints with
          | Some atom -> (best, (key, value, atom) :: neighbours)
          | None -> acc)
      (None, []) t.sides
  in
  match best with
  | Some (key, entry) -> Covering (key, entry)
  | None -> Neighbours (List.rev neighbours)

(* with [t.lock] held: the covering side entry at [epoch], bumped *)
let covering_side_locked t ~epoch spec =
  match lookup_side_locked t ~epoch spec with
  | Covering (key, entry) ->
      ignore (Lru.find t.sides key : side_entry option);
      Some entry
  | Neighbours _ -> None

(* the mined collection may exceed the request (lower threshold, weaker
   constraints, deferred atoms): filter down to exactly the valid sets,
   counting every 1-var evaluation as a constraint check *)
let filter_valid spec freq checks =
  let out = ref [] in
  Frequent.iter
    (fun e ->
      let ok =
        e.Frequent.support >= spec.sp_minsup
        && (match spec.sp_max_level with
           | Some cap -> Itemset.cardinal e.Frequent.set <= cap
           | None -> true)
        && List.for_all
             (fun c ->
               incr checks;
               One_var.eval spec.sp_info c e.Frequent.set)
             spec.sp_constraints
      in
      if ok then out := e :: !out)
    freq;
  Array.of_list (List.rev !out)

(* drive the CAP state machine one level at a time so the deadline is
   honoured between scans *)
let mine_side ~deadline ~par ~kernel (ctx : Exec.ctx) spec io =
  let bundle = Bundle.compile ~nonneg:ctx.Exec.nonneg spec.sp_info spec.sp_constraints in
  let state =
    Cap.create ctx.Exec.db spec.sp_info ?max_level:spec.sp_max_level
      ~minsup:spec.sp_minsup bundle
  in
  (* one session per cold mine: its pass counts feed the metrics *)
  let session = Counting.create_session kernel in
  let rec loop () =
    check_deadline deadline;
    if Cap.step ~par ~session state io then loop ()
  in
  loop ();
  (Cap.result state, Cap.counters state, session)

(* The neighbour of narrowest witness band: the fewest items that [spec]
   permits and that hold a witness of its atom's negation; ties go to the
   fewest sets. *)
let narrowest ~nonneg spec = function
  | ([] | [ _ ]) as ns -> List.nth_opt ns 0
  | ns ->
      let info = spec.sp_info in
      let permits = Bundle.permits_item (Bundle.compile ~nonneg info spec.sp_constraints) in
      let band atom =
        (* the negation compiles to its one witness group *)
        match Bundle.requires (Bundle.compile ~nonneg info [ Entail.negation atom ]) with
        | [ witness ] ->
            let n = ref 0 in
            for i = 0 to Item_info.universe_size info - 1 do
              if Sel.eval info witness i && permits i then incr n
            done;
            !n
        | _ -> max_int
      in
      let weigh ((_, e, atom) as n) = ((band atom, Condensed.n_sets e.se_cond), n) in
      let best =
        List.fold_left
          (fun (bw, bn) n ->
            let w, n = weigh n in
            if compare w bw < 0 then (w, n) else (bw, bn))
          (weigh (List.hd ns)) (List.tl ns)
      in
      Some (snd best)

let merge_relaxation ~kept ~fresh =
  Frequent.of_entries (Array.to_list kept @ Array.to_list fresh)

(* insert a side's collection under its key at [epoch] unless a seal has
   raced the mine: supports counted against the pre-seal snapshot must
   not enter the cache at the new epoch *)
let insert_side t ~epoch spec freq =
  let cond = condense_frequent t freq in
  let entry =
    {
      se_epoch = epoch;
      se_info = spec.sp_info;
      se_info_id = Fingerprint.info_id spec.sp_info;
      se_minsup = spec.sp_minsup;
      se_max_level = spec.sp_max_level;
      se_constraints = spec.sp_constraints;
      se_cond = cond;
      se_weight = Condensed.bytes cond;
    }
  in
  let key =
    Fingerprint.side_key ~info:spec.sp_info ~minsup_abs:spec.sp_minsup
      ~max_level:spec.sp_max_level spec.sp_constraints
  in
  locked t (fun () ->
      if t.epoch = epoch then ignore (Lru.insert t.sides key ~weight:entry.se_weight entry : bool))

(* mine [spec] cold, charging [counters] and the kernel passes *)
let mine_cold t ~deadline ~ctx spec io counters =
  let freq, side_counters, session =
    mine_side ~deadline ~par:t.mine_par ~kernel:t.service_config.kernel ctx spec io
  in
  Counters.merge counters side_counters;
  let pc = Counting.pass_counts session in
  locked t (fun () ->
      Metrics.record_side_mined t.service_metrics;
      Metrics.record_kernel_passes t.service_metrics ~trie:pc.Counting.trie_passes
        ~direct2:pc.Counting.direct2_passes);
  freq

(* A side is resolved from the cache (a covering entry, filtered), by a
   relaxation (a neighbour, plus a mine of only what it misses), or cold.
   Returns the valid sets, whether no mining ran, and a note.

   Relaxation: the neighbour was mined under [spec]'s constraints but for
   one bound [atom] that [spec] widens.  Every valid set satisfies [atom],
   and is then in the neighbour with its support at this epoch, or holds
   a witness of its negation, and is then found by CAP under [spec] and
   the negation, whose witness group restricts every counting pass above
   level 1 to the rows holding a witness.  The two parts are disjoint:
   the neighbour's sets are kept only where they satisfy [atom], and the
   mine's only where they are valid under the negation too, so hold a
   witness (its level 1 is every frequent permitted item, and its
   singletons without a witness are the neighbour's too). *)
let resolve_side t ~deadline ~ctx ~epoch ~side spec io counters checks =
  check_deadline deadline;
  let found =
    locked t (fun () ->
        match lookup_side_locked t ~epoch spec with
        | Covering (key, entry) ->
            ignore (Lru.find t.sides key : side_entry option);
            Metrics.record_subsumption_hit t.service_metrics;
            `Covered entry
        | Neighbours ns -> `Neighbours ns)
  in
  match found with
  | `Covered entry -> (filter_valid spec (side_frequent t entry) checks, true, None)
  | `Neighbours ns -> (
      match narrowest ~nonneg:ctx.Exec.nonneg spec ns with
      | Some (key, entry, atom) ->
          locked t (fun () -> ignore (Lru.find t.sides key : side_entry option));
          let neg = Entail.negation atom in
          let relax = { spec with sp_constraints = neg :: spec.sp_constraints } in
          let mined = mine_cold t ~deadline ~ctx relax io counters in
          let kept =
            filter_valid { spec with sp_constraints = atom :: spec.sp_constraints }
              (side_frequent t entry) checks
          in
          let merged = merge_relaxation ~kept ~fresh:(filter_valid relax mined checks) in
          locked t (fun () -> Metrics.record_side_relaxed t.service_metrics);
          insert_side t ~epoch spec merged;
          let note =
            Printf.sprintf "%s side relaxed: cached under %s, mined only %s" side
              (One_var.to_string atom) (One_var.to_string neg)
          in
          (Array.of_list (Frequent.to_list merged), false, Some note)
      | None ->
          let freq = mine_cold t ~deadline ~ctx spec io counters in
          insert_side t ~epoch spec freq;
          (* filter the collection as mined: the cold path never pays a
             reconstruction *)
          (filter_valid spec freq checks, false, None))

(* ------------------------------------------------------------------ *)
(* promoting a cached answer across seals: the delta join *)

(* for every old set, its index in [valid], or -1.  Filtered collections
   list their sets in [Itemset.compare] order, so one merge pass suffices.
   A side that [Condensed] kept raw lists each level in the order it was
   mined, which need not be [Itemset.compare] order; such sides are matched
   by hashing. *)
let positions valid (old : Frequent.entry array) =
  let ascending (a : Frequent.entry array) =
    let ok = ref true in
    for i = 1 to Array.length a - 1 do
      if Itemset.compare a.(i - 1).Frequent.set a.(i).Frequent.set >= 0 then ok := false
    done;
    !ok
  in
  if ascending valid && ascending old then begin
    let n = Array.length valid and i = ref 0 in
    Array.map
      (fun (e : Frequent.entry) ->
        while !i < n && Itemset.compare valid.(!i).Frequent.set e.Frequent.set < 0 do
          incr i
        done;
        if !i < n && Itemset.equal valid.(!i).Frequent.set e.Frequent.set then !i else -1)
      old
  end
  else begin
    let at = Itemset.Hashtbl.create (Array.length valid) in
    Array.iteri (fun i (e : Frequent.entry) -> Itemset.Hashtbl.replace at e.Frequent.set i) valid;
    Array.map
      (fun (e : Frequent.entry) ->
        Option.value ~default:(-1) (Itemset.Hashtbl.find_opt at e.Frequent.set))
      old
  end

(* the indices of [valid] whose set the old answer held ([kept]) and the
   rest ([newcomers]) *)
let split_sides valid pos =
  let old = Array.make (Array.length valid) false in
  Array.iter (fun i -> if i >= 0 then old.(i) <- true) pos;
  let pick keep =
    Array.of_list
      (List.filter (fun i -> old.(i) = keep) (List.init (Array.length valid) Fun.id))
  in
  (pick true, pick false)

(* FUP's argument (Cheung et al., reference [6] of the paper) applied to an
   answer instead of support counts.  Figure 1's 2-var constraints read item
   attributes and never supports, so a pair stays a pair exactly while both
   of its sides stay valid.  The answer at the new epoch is the old pairs
   whose two sets are still in [valid_s] and [valid_t], re-supported, plus a
   join of the newcomers only: (S_new x valid_t) u (S_kept x T_new), where
   S_kept are the sets of [valid_s] among the old answer's S-sets and S_new
   the rest, and T likewise.  The two joins are disjoint, and neither meets
   an old pair. *)
let delta_join (ctx : Exec.ctx) (q : Query.t) (old : Packed.t) ~valid_s ~valid_t =
  let pos_s = positions valid_s old.Packed.pk_s and pos_t = positions valid_t old.Packed.pk_t in
  let p = Packed.packer valid_s valid_t in
  for k = 0 to Packed.n_pairs old - 1 do
    let i = pos_s.(old.Packed.pk_idx.(2 * k)) and j = pos_t.(old.Packed.pk_idx.((2 * k) + 1)) in
    if i >= 0 && j >= 0 then Packed.add_pair p i j
  done;
  let s_kept, s_new = split_sides valid_s pos_s in
  let _, t_new = split_sides valid_t pos_t in
  let join s_idx t_idx =
    if Array.length s_idx > 0 && Array.length t_idx > 0 then
      ignore
        (Pairs.form ~s_info:ctx.Exec.s_info ~t_info:ctx.Exec.t_info
           ~valid_s:(Array.map (Array.get valid_s) s_idx)
           ~valid_t:(Array.map (Array.get valid_t) t_idx)
           ~two_var:q.Query.two_var
           ~on_run:(Pairs.pairwise (fun a b -> Packed.add_pair p s_idx.(a) t_idx.(b)))
           ()
          : Pairs.stats)
  in
  join s_new (Array.init (Array.length valid_t) Fun.id);
  join s_kept t_new;
  Packed.finish p

(* bring [ca], cached at an older epoch under [key], up to [epoch] by a
   delta join over the covering side collections at [epoch].  [None]
   drops the answer: a side has no covering collection, so the caller
   serves [q] through the subsumption or cold path instead. *)
let promote_answer t ~ctx ~epoch ~key (q : Query.t) ca =
  let spec_s = side_spec_of ctx q `S and spec_t = side_spec_of ctx q `T in
  let covering =
    locked t (fun () ->
        match
          (covering_side_locked t ~epoch spec_s, covering_side_locked t ~epoch spec_t)
        with
        | Some cs, Some ct -> Some (cs, ct)
        | _ ->
            (match Lru.find t.answers key with
            | Some cur when cur == ca -> Lru.remove t.answers key
            | Some _ | None -> ());
            Metrics.record_answer_miss t.service_metrics;
            Metrics.record_answer_evicted t.service_metrics;
            None)
  in
  Option.map
    (fun (cs, ct) ->
      let checks = ref 0 in
      let valid_s = filter_valid spec_s (side_frequent t cs) checks in
      let valid_t = filter_valid spec_t (side_frequent t ct) checks in
      let packed = delta_join ctx q ca.ca_pairs ~valid_s ~valid_t in
      let ca' =
        make_cached_answer ~epoch q
          { ca.ca_answer with n_pairs = Packed.n_pairs packed.Packed.pk }
          packed
      in
      locked t (fun () ->
          insert_answer_locked t ~epoch ~key packed ca';
          Metrics.record_answer_hit t.service_metrics;
          Metrics.record_answer_promoted t.service_metrics);
      ca')
    covering

(* ------------------------------------------------------------------ *)
(* one query, in a worker domain *)

let execute t ~deadline (q : Query.t) =
  let t0 = Unix.gettimeofday () in
  (* one consistent snapshot: the ctx and the epoch its supports belong to *)
  let ctx, epoch = locked t (fun () -> (t.service_ctx, t.epoch)) in
  let rw = Rewrite.simplify q in
  let q = rw.Rewrite.query in
  let key = Fingerprint.query_key ctx q in
  let cached =
    match
      locked t (fun () ->
          match Lru.find t.answers key with
          | Some ca when ca.ca_epoch = epoch ->
              Metrics.record_answer_hit t.service_metrics;
              `Hit ca
          | Some ca when ca.ca_epoch < epoch && not (rw.Rewrite.s_unsat || rw.Rewrite.t_unsat)
            ->
              `Stale ca
          | Some _ | None ->
              Metrics.record_answer_miss t.service_metrics;
              `Miss)
    with
    | `Hit ca -> Some ca
    | `Stale ca -> promote_answer t ~ctx ~epoch ~key q ca
    | `Miss -> None
  in
  match cached with
  | Some ca ->
      (* rebuilt outside the lock: a large answer must not stall the other
         domains' lookups and inserts *)
      let pairs = Packed.pairs ca.ca_pairs in
      let latency = Unix.gettimeofday () -. t0 in
      locked t (fun () -> serve_hit_locked t ca pairs ~latency)
  | None ->
      let io = Io_stats.create () in
      let counters = Counters.create () in
      let checks = ref 0 in
      let answer, packed =
        if rw.Rewrite.s_unsat || rw.Rewrite.t_unsat then
          ( {
            pairs = [];
            n_pairs = 0;
            served_from = Cold;
            support_counted = 0;
            constraint_checks = 0;
            scans = 0;
            pages_read = 0;
            latency_seconds = 0.;
            notes = rw.Rewrite.notes @ [ "query is unsatisfiable; nothing was mined" ];
          },
            Packed.finish (Packed.packer [||] [||]) )
        else begin
          let valid_s, s_cached, s_note =
            resolve_side t ~deadline ~ctx ~epoch ~side:"S" (side_spec_of ctx q `S) io
              counters checks
          in
          let valid_t, t_cached, t_note =
            resolve_side t ~deadline ~ctx ~epoch ~side:"T" (side_spec_of ctx q `T) io
              counters checks
          in
          check_deadline deadline;
          let pair_stats, packed = join_packed ctx q ~valid_s ~valid_t in
          let served_from = if s_cached && t_cached then Subsumed else Cold in
          ( {
            pairs = [];
            n_pairs = pair_stats.Pairs.n_pairs;
            served_from;
            support_counted = Counters.support_counted counters;
            constraint_checks = !checks + pair_stats.Pairs.checks;
            scans = Io_stats.scans io;
            pages_read = Io_stats.pages_read io;
            latency_seconds = 0.;
            notes = rw.Rewrite.notes @ List.filter_map Fun.id [ s_note; t_note ];
          },
            packed )
        end
      in
      let ca = make_cached_answer ~epoch q answer packed in
      let answer = { answer with pairs = Packed.pairs packed.Packed.pk } in
      let latency = Unix.gettimeofday () -. t0 in
      let answer = { answer with latency_seconds = latency } in
      locked t (fun () ->
          insert_answer_locked t ~epoch ~key packed ca;
          Metrics.record_query t.service_metrics ~latency
            ~support_counted:answer.support_counted
            ~constraint_checks:answer.constraint_checks ~scans:answer.scans
            ~pages_read:answer.pages_read);
      Log.debug (fun m ->
          m "served %s: %d pairs, %d counted (%s)" key answer.n_pairs
            answer.support_counted
            (served_from_name answer.served_from));
      answer

(* ------------------------------------------------------------------ *)
(* graceful degradation: serve a failed query by filtering a cached
   superset answer.  The database is immutable and cached pairs carry
   absolute supports, so filtering an entailed superset answer down to the
   requested thresholds and constraints yields exactly the requested
   pairs; what degrades is only the per-query cost accounting and notes. *)

let abs_minsup (ctx : Exec.ctx) frac = Tx_db.absolute_support ctx.Exec.db frac

let level_covers ~cached ~requested =
  match (cached, requested) with
  | None, _ -> true
  | Some _, None -> false
  | Some c, Some r -> c >= r

(* every 2-var atom the cached run enforced is requested too, so no pair
   the requested query wants was pruned from the cached answer *)
let two_var_covers ~cached ~requested =
  List.for_all (fun c -> List.mem c requested) cached

let answer_covers ctx ~(cached_q : Query.t) ~(requested : Query.t) =
  abs_minsup ctx cached_q.Query.s_minsup <= abs_minsup ctx requested.Query.s_minsup
  && abs_minsup ctx cached_q.Query.t_minsup <= abs_minsup ctx requested.Query.t_minsup
  && level_covers ~cached:cached_q.Query.max_level ~requested:requested.Query.max_level
  && Entail.subsumes ~cached:cached_q.Query.s_constraints
       ~requested:requested.Query.s_constraints
  && Entail.subsumes ~cached:cached_q.Query.t_constraints
       ~requested:requested.Query.t_constraints
  && two_var_covers ~cached:cached_q.Query.two_var ~requested:requested.Query.two_var

let filter_answer (ctx : Exec.ctx) (requested : Query.t) (a : answer) =
  let s_min = abs_minsup ctx requested.Query.s_minsup in
  let t_min = abs_minsup ctx requested.Query.t_minsup in
  let checks = ref 0 in
  let keep_level set =
    match requested.Query.max_level with
    | Some cap -> Itemset.cardinal set <= cap
    | None -> true
  in
  let one_var info cs set =
    List.for_all
      (fun c ->
        incr checks;
        One_var.eval info c set)
      cs
  in
  let keep ((es : Frequent.entry), (et : Frequent.entry)) =
    es.Frequent.support >= s_min
    && et.Frequent.support >= t_min
    && keep_level es.Frequent.set && keep_level et.Frequent.set
    && one_var ctx.Exec.s_info requested.Query.s_constraints es.Frequent.set
    && one_var ctx.Exec.t_info requested.Query.t_constraints et.Frequent.set
    && List.for_all
         (fun c ->
           incr checks;
           Two_var.eval ~s_info:ctx.Exec.s_info ~t_info:ctx.Exec.t_info c
             es.Frequent.set et.Frequent.set)
         requested.Query.two_var
  in
  let pairs = List.filter keep a.pairs in
  {
    pairs;
    n_pairs = List.length pairs;
    served_from = Degraded;
    support_counted = 0;
    constraint_checks = !checks;
    scans = 0;
    pages_read = 0;
    latency_seconds = 0.;
    notes = [ "degraded: filtered from a cached superset answer" ];
  }

(* call with [t.lock] held *)
let degraded_lookup_locked t (q : Query.t) =
  if not t.service_config.degrade then None
  else begin
    let rw = Rewrite.simplify q in
    let q = rw.Rewrite.query in
    if rw.Rewrite.s_unsat || rw.Rewrite.t_unsat then None
    else begin
      (* MRU-first: the first covering answer is the most recent one.
         Degraded serving folds over answer *values*, not keys, so the
         epoch stamp is the only thing keeping pre-seal supports out *)
      let hit =
        Lru.fold
          (fun best ~key ~value:ca ->
            match best with
            | Some _ -> best
            | None ->
                if
                  ca.ca_epoch = t.epoch
                  && answer_covers t.service_ctx ~cached_q:ca.ca_query
                       ~requested:q
                then Some (key, ca)
                else None)
          None t.answers
      in
      match hit with
      | None -> None
      | Some (key, ca) ->
          ignore (Lru.find t.answers key : cached_answer option)
          (* bump recency *);
          Metrics.record_degraded t.service_metrics;
          Metrics.record_reconstruction t.service_metrics;
          Some
            (filter_answer t.service_ctx q
               { ca.ca_answer with pairs = Packed.pairs ca.ca_pairs })
    end
  end

(* ------------------------------------------------------------------ *)
(* circuit breaker *)

(* The global breaker and each shard's run one state machine; the
   functions below take [t.lock] as held.  [trip] opens a breaker for the
   cooldown. *)
let trip t b = b.state <- Open (max 1 t.service_config.breaker_cooldown)

(* a success closes the breaker, in particular a half-open probe *)
let close b =
  b.consec <- 0;
  b.state <- Closed

(* charge one failure: a failure while half-open reopens the breaker, and
   [breaker_threshold] consecutive failures trip it; true when it trips *)
let note_failure t b =
  b.consec <- b.consec + 1;
  let threshold = t.service_config.breaker_threshold in
  let trips =
    threshold > 0 && (b.state = Half_open || (b.state = Closed && b.consec >= threshold))
  in
  if trips then trip t b;
  trips

(* an admission while the breaker is open counts down its cooldown, so it
   half-opens after [breaker_cooldown] admissions; true when it was
   open *)
let count_down b =
  match b.state with
  | Open n ->
      b.state <- (if n <= 1 then Half_open else Open (n - 1));
      true
  | Closed | Half_open -> false

(* attribute a failure to the shard owning its error page.  Only faults
   installed on individual shards are attributable: with an injector on
   the whole composite the failure is store-wide, so shard breakers stay
   out of it and only the global breaker reacts. *)
let shard_of_error t (e : Cfq_error.t) =
  let db = t.service_ctx.Exec.db in
  if Array.length t.shard_health = 0 || Tx_db.faults db <> None then None
  else
    match e with
    | Cfq_error.Transient_io { page } | Cfq_error.Corrupt_page { page } -> (
        match Tx_db.shard_of_page db page with
        | k -> Some k
        | exception Invalid_argument _ -> None)
    | Cfq_error.Deadline | Cfq_error.Overload | Cfq_error.Query_crash _
    | Cfq_error.No_live_source ->
        None

(* call with [t.lock] held *)
let shard_note_failure_locked t e =
  match shard_of_error t e with
  | None -> ()
  | Some k ->
      let sh = t.shard_health.(k) in
      sh.sh_failures <- sh.sh_failures + 1;
      if note_failure t sh.sh_breaker then sh.sh_trips <- sh.sh_trips + 1

(* a cold success proves every shard served its slice: close all shard
   breakers.  Cache-served answers prove nothing about the shards and
   leave them untouched. *)
let shard_note_cold_success t =
  if Array.length t.shard_health > 0 then
    locked t (fun () -> Array.iter (fun sh -> close sh.sh_breaker) t.shard_health)

(* settle the global breaker on the raw (pre-degradation) outcome of an
   executed query *)
let breaker_note_outcome t ~ok =
  if t.service_config.breaker_threshold > 0 then
    locked t (fun () ->
        if ok then close t.breaker
        else if note_failure t t.breaker then Metrics.record_breaker_trip t.service_metrics)

(* ------------------------------------------------------------------ *)
(* retries and the guarded query wrapper *)

(* The jitter is a pure function of (jitter_seed, query, attempt): a fresh
   SplitMix stream keyed by their mix, rather than draws from one shared
   stream whose order would depend on domain scheduling — so a fault-twin
   run sees identical backoff delays at any worker count. *)
let retry_delay t q attempt =
  let key =
    Int64.logxor t.service_config.jitter_seed
      (Int64.add
         (Int64.mul (Int64.of_int (Hashtbl.hash q)) 0x9E3779B97F4A7C15L)
         (Int64.of_int attempt))
  in
  let jitter = Cfq_quest.Splitmix.float (Cfq_quest.Splitmix.create ~seed:key) in
  t.service_config.backoff_base *. (2. ** float_of_int attempt) *. (0.5 +. jitter)

let guarded t ~deadline q () =
  let fail e =
    locked t (fun () ->
        Metrics.record_fault t.service_metrics e;
        Metrics.record_failure t.service_metrics;
        shard_note_failure_locked t e);
    Error (Fault e)
  in
  let rec attempt n =
    match execute t ~deadline q with
    | a -> Ok a
    | exception Expired ->
        locked t (fun () ->
            Metrics.record_deadline_expired t.service_metrics;
            Metrics.record_query t.service_metrics
              ~latency:(0. (* not meaningfully attributable *))
              ~support_counted:0 ~constraint_checks:0 ~scans:0 ~pages_read:0);
        Error Deadline_exceeded
    | exception Cfq_error.Error e ->
        if Cfq_error.is_transient e && n < t.service_config.retries then begin
          let delay = retry_delay t q n in
          let in_budget =
            match deadline with
            | Some d -> Unix.gettimeofday () +. delay < d
            | None -> true
          in
          if in_budget then begin
            locked t (fun () -> Metrics.record_retry t.service_metrics);
            if delay > 0. then Unix.sleepf delay;
            attempt (n + 1)
          end
          else fail e
        end
        else fail e
    | exception e -> fail (Cfq_error.Query_crash (Printexc.to_string e))
  in
  let raw = attempt 0 in
  breaker_note_outcome t ~ok:(match raw with Ok _ -> true | Error _ -> false);
  (match raw with
  | Ok a when a.served_from = Cold -> shard_note_cold_success t
  | _ -> ());
  match raw with
  | Ok _ -> raw
  | Error (Fault _ | Deadline_exceeded) -> (
      match locked t (fun () -> degraded_lookup_locked t q) with
      | Some a -> Ok a
      | None -> raw)
  | Error _ -> raw

(* ------------------------------------------------------------------ *)
(* admission *)

let absolute_deadline t deadline =
  match (deadline, t.service_config.default_deadline) with
  | Some d, _ | None, Some d -> Some (Unix.gettimeofday () +. d)
  | None, None -> None

(* admission decision under the breaker.  While open, queries that the
   caches can answer without touching the database are still served;
   everything else is shed, counting down to a half-open probe. *)
(* with [t.lock] held: serve an admission arriving while some breaker is
   open from the caches alone, or shed it *)
let open_serve_locked t (q : Query.t) =
  let rw = Rewrite.simplify q in
  let q' = rw.Rewrite.query in
  let key = Fingerprint.query_key t.service_ctx q' in
  match Lru.find t.answers key with
  | Some ca when ca.ca_epoch = t.epoch ->
      Metrics.record_answer_hit t.service_metrics;
      `Serve (serve_hit_locked t ca (Packed.pairs ca.ca_pairs) ~latency:0.)
  | Some _ | None -> (
      match degraded_lookup_locked t q' with
      | Some a -> `Serve a
      | None ->
          Metrics.record_shed t.service_metrics;
          `Shed)

let breaker_admit t (q : Query.t) =
  if t.service_config.breaker_threshold <= 0 then `Admit
  else
    locked t (fun () ->
        (* every admission while open counts toward the cooldown, served
           from cache or shed alike *)
        if count_down t.breaker then open_serve_locked t q else `Admit)

(* per-shard admission gate: an admitted query fans over every shard, so
   one open shard breaker degrades it to cache-only serving while that
   shard cools down; a half-open shard admits the probe.  Runs after the
   global gate, with the same admission-counted cooldown discipline. *)
let shard_breaker_admit t (q : Query.t) =
  if Array.length t.shard_health = 0 || t.service_config.breaker_threshold <= 0
  then `Admit
  else
    locked t (fun () ->
        let opened = ref None in
        Array.iteri
          (fun k sh -> if !opened = None && count_down sh.sh_breaker then opened := Some k)
          t.shard_health;
        match !opened with
        | None -> `Admit
        | Some k -> (
            match open_serve_locked t q with
            | `Serve a -> `Serve a
            | `Shed ->
                t.shard_health.(k).sh_shed <- t.shard_health.(k).sh_shed + 1;
                `Shed))

let submit_abs t ~deadline q =
  match
    match breaker_admit t q with
    | `Admit -> shard_breaker_admit t q
    | (`Serve _ | `Shed) as r -> r
  with
  | `Serve a -> Ok (Immediate (Ok a))
  | `Shed -> Error Overloaded
  | `Admit -> (
      locked t (fun () ->
          Metrics.observe_queue_depth t.service_metrics (Pool.queue_depth t.pool);
          Array.iter
            (fun sh -> sh.sh_admissions <- sh.sh_admissions + 1)
            t.shard_health);
      match Pool.submit t.pool (guarded t ~deadline q) with
      | Some p ->
          locked t (fun () -> t.consec_rejections <- 0);
          Ok (Pooled p)
      | None ->
          locked t (fun () ->
              Metrics.record_rejected t.service_metrics;
              t.consec_rejections <- t.consec_rejections + 1;
              if
                t.service_config.breaker_threshold > 0
                && t.breaker.state = Closed
                && t.consec_rejections >= t.service_config.breaker_threshold
              then begin
                Metrics.record_breaker_trip t.service_metrics;
                trip t t.breaker;
                t.consec_rejections <- 0
              end);
          Error Rejected
      | exception Cfq_error.Error Cfq_error.Overload ->
          (* pool already shut down: report Rejected so [run] still serves
             the caller inline *)
          locked t (fun () -> Metrics.record_rejected t.service_metrics);
          Error Rejected)

let submit t ?deadline q = submit_abs t ~deadline:(absolute_deadline t deadline) q

let await = function Pooled p -> Pool.await p | Immediate r -> r

let run t ?deadline q =
  (* the deadline is fixed once at admission, so the queue-full fallback
     below runs under the same budget the pooled path would have had *)
  let deadline = absolute_deadline t deadline in
  match submit_abs t ~deadline q with
  | Ok ticket -> await ticket
  | Error Rejected ->
      (* sync caller: execute inline rather than bouncing *)
      locked t (fun () -> Metrics.record_inline_run t.service_metrics);
      guarded t ~deadline q ()
  | Error e -> Error e

let run_many t ?deadline qs =
  (* submit everything, draining the oldest ticket whenever admission is
     refused, so arbitrarily long batches respect the bounded queue *)
  let results = ref [] (* (index, result) *) in
  let pending = Queue.create () (* (index, ticket) in submission order *) in
  let drain_one () =
    match Queue.take_opt pending with
    | None -> ()
    | Some (i, ticket) -> results := (i, await ticket) :: !results
  in
  List.iteri
    (fun i q ->
      let rec try_submit () =
        match submit t ?deadline q with
        | Ok ticket -> Queue.add (i, ticket) pending
        | Error Rejected when Queue.length pending > 0 ->
            drain_one ();
            try_submit ()
        | Error e -> results := (i, Error e) :: !results
      in
      try_submit ())
    qs;
  while Queue.length pending > 0 do
    drain_one ()
  done;
  List.map snd (List.sort (fun (i, _) (j, _) -> compare i j) !results)

let breaker_name = function
  | Closed -> "closed"
  | Open _ -> "open"
  | Half_open -> "half-open"

let metrics t =
  locked t (fun () ->
      let shard_ios = Tx_db.shard_io t.service_ctx.Exec.db in
      let shards =
        Array.to_list
          (Array.mapi
             (fun k sh ->
               let io =
                 if k < Array.length shard_ios then Some shard_ios.(k) else None
               in
               {
                 Metrics.shard = k;
                 shard_admissions = sh.sh_admissions;
                 shard_failures = sh.sh_failures;
                 shard_trips = sh.sh_trips;
                 shard_shed = sh.sh_shed;
                 shard_breaker = breaker_name sh.sh_breaker.state;
                 shard_scans =
                   (match io with Some io -> Io_stats.scans io | None -> 0);
                 shard_pages_read =
                   (match io with Some io -> Io_stats.pages_read io | None -> 0);
                 shard_failovers =
                   (match io with Some io -> Io_stats.failovers io | None -> 0);
               })
             t.shard_health)
      in
      let failovers =
        Array.fold_left (fun a io -> a + Io_stats.failovers io) 0 shard_ios
      in
      Metrics.snapshot t.service_metrics ~shards ~failovers
        ~answer_entries:(Lru.length t.answers)
        ~answer_bytes:(Lru.weight t.answers)
        ~side_entries:(Lru.length t.sides)
        ~side_bytes:(Lru.weight t.sides)
        ~evictions:(Lru.evictions t.answers + Lru.evictions t.sides)
        ())

let metrics_table t = Metrics.table (metrics t)

let cache_clear t =
  locked t (fun () ->
      Lru.clear t.answers;
      Lru.clear t.sides)

let cache_drop_sides t = locked t (fun () -> Lru.clear t.sides)

let shutdown t = Pool.shutdown t.pool

(* ------------------------------------------------------------------ *)
(* live ingestion: epoch-tagged incremental maintenance across seals *)

type live = {
  lv_epoch : int;
  lv_sealed : int;
  lv_sides_promoted : int;
  lv_sides_evicted : int;
  lv_answers_promoted : int;
  lv_answers_evicted : int;
  lv_recounted : int;
  lv_old_scans : int;
  lv_scans : int;
  lv_pages_read : int;
  lv_pass_counts : Counting.pass_counts;
}

let attach_source t src =
  locked t (fun () ->
      t.live_source <- Some src;
      t.epoch <- Cfq_live.Source.epoch src)

let live_source t = t.live_source

let no_source () = Cfq_error.raise_error Cfq_error.No_live_source

let ingest t items =
  match t.live_source with
  | Some src -> Cfq_live.Source.append_tx src items
  | None -> no_source ()

(* the maintenance pass for one seal.  One shared FUP pass promotes every
   stale side: it scans the resident delta twin once, plus at most one
   old-database scan for the seeded candidates of all sides.  Cached
   answers are not touched here: the seal re-keyed them, and each is
   brought up to date by a delta join on its next lookup
   ([promote_answer]).  Inserts are guarded by the epoch: if another seal
   raced us, our results are stale and the final purge removes them. *)
let maintain t ~old_ctx ~new_epoch ~(delta : Cfq_live.Delta.t) ~maint_io ~stale_sides
    ~answers_carried ~answers_dropped () =
  let sides_promoted = ref 0 and sides_evicted = ref 0 in
  (* one Level_stats per seal: the shared FUP pass's rows land here, so its
     per-level cost is observable alongside the Metrics counters *)
  let lstats = Level_stats.create () in
  let universe =
    max
      (Item_info.universe_size old_ctx.Exec.s_info)
      (Item_info.universe_size old_ctx.Exec.t_info)
  in
  let stale = List.filter (fun (_, e) -> e.se_epoch < new_epoch) stale_sides in
  (* the threshold a promoted side must be exact at to answer every
     fraction it answered before *)
  let union_minsup e =
    Incremental.promoted_minsup ~old_minsup:e.se_minsup ~base_txs:delta.Cfq_live.Delta.base_txs
      ~union_txs:(Cfq_live.Delta.union_txs delta)
  in
  let session = Counting.create_session t.service_config.kernel in
  let results, recounted, old_scans =
    (* a condensed entry is rebuilt first: FUP delta-counts the full
       collection (reconstructed from its closed sets), and each promoted
       result is re-closed below before re-insertion.  The old-database
       recount runs on the service's kernel and mining domains. *)
    match
      Incremental.update_abs ~par:t.mine_par ~session
        ~stats:lstats ~old_db:old_ctx.Exec.db ~delta:delta.Cfq_live.Delta.twin maint_io
        ~universe_size:universe
        (List.map
           (fun (_, e) ->
             {
               Incremental.old_frequent = side_frequent t e;
               old_minsup = e.se_minsup;
               union_minsup = union_minsup e;
               max_level = e.se_max_level;
             })
           stale)
    with
    | { Incremental.frequent; old_scans; counted_against_old } ->
        (frequent, counted_against_old, old_scans)
    | exception e -> (List.map (fun _ -> Error e) stale, 0, 0)
  in
  List.iter2
    (fun (key, e) result ->
      match result with
      | Error _ ->
          (* a faulted promotion leaves the entry stale; the purge below
             removes it, so the cache still lands on a consistent epoch *)
          incr sides_evicted
      | Ok freq' ->
          let m' = union_minsup e in
          let cond' = condense_frequent t freq' in
          let e' =
            {
              e with
              se_epoch = new_epoch;
              se_minsup = m';
              se_cond = cond';
              se_weight = Condensed.bytes cond';
            }
          in
          let key' =
            Fingerprint.side_key ~info:e.se_info ~minsup_abs:m'
              ~max_level:e.se_max_level e.se_constraints
          in
          locked t (fun () ->
              if t.epoch = new_epoch then begin
                (* the old binding may have been re-keyed over by another
                   promotion landing on this key (its threshold moved onto
                   ours): remove only while it is still stale *)
                (match Lru.find t.sides key with
                | Some cur when cur.se_epoch < new_epoch -> Lru.remove t.sides key
                | Some _ | None -> ());
                if Lru.insert t.sides key' ~weight:e'.se_weight e' then
                  incr sides_promoted
                else incr sides_evicted
              end))
    stale results;
  (* whatever side is still stale — faulted promotions, budget-refused
     inserts, raced seals — goes now: every surviving side is at the live
     epoch.  Stale answers stay: a lookup promotes them or drops them. *)
  locked t (fun () ->
      let side_keys =
        Lru.fold
          (fun acc ~key ~value ->
            if value.se_epoch < t.epoch then key :: acc else acc)
          [] t.sides
      in
      List.iter (Lru.remove t.sides) side_keys;
      Metrics.record_maintenance t.service_metrics ~sides_promoted:!sides_promoted
        ~sides_evicted:!sides_evicted ~recounted ~old_scans
        ~scans:(Io_stats.scans maint_io)
        ~pages_read:(Io_stats.pages_read maint_io));
  Log.debug (fun m ->
      m "epoch %d: %d+%d sides promoted+evicted, %d+%d answers carried+dropped (%d pages)@ %a"
        new_epoch !sides_promoted !sides_evicted answers_carried answers_dropped
        (Io_stats.pages_read maint_io)
        Level_stats.pp lstats);
  {
    lv_epoch = new_epoch;
    lv_sealed = delta.Cfq_live.Delta.delta_txs;
    lv_sides_promoted = !sides_promoted;
    lv_sides_evicted = !sides_evicted;
    lv_answers_promoted = answers_carried;
    lv_answers_evicted = answers_dropped;
    lv_recounted = recounted;
    lv_old_scans = old_scans;
    lv_scans = Io_stats.scans maint_io;
    lv_pages_read = Io_stats.pages_read maint_io;
    lv_pass_counts = Counting.pass_counts session;
  }

(* with [t.lock] held: move every cached answer to its key under [ctx].
   Query keys carry the database id and absolute supports, so a re-ask
   after a seal would miss the old key.  An answer keeps its epoch and its
   recency and is neither filtered nor joined here.  Two answers landing
   on one key stand for the same thresholds; the more recent is kept.
   Returns the answers carried and dropped. *)
let rekey_answers_locked t ctx =
  (* fold is MRU-first; consing flips to LRU-first, so re-insertions
     preserve the recency order *)
  let all = Lru.fold (fun acc ~key ~value -> (key, value) :: acc) [] t.answers in
  List.iter (fun (key, _) -> Lru.remove t.answers key) all;
  List.fold_left
    (fun (carried, dropped) (_, ca) ->
      let key = Fingerprint.query_key ctx ca.ca_query in
      let taken = Lru.mem t.answers key in
      if Lru.insert t.answers key ~weight:ca.ca_weight ca && not taken then
        (carried + 1, dropped)
      else (carried, dropped + 1))
    (0, 0) all

let seal_live t =
  match t.live_source with
  | None -> no_source ()
  | Some src -> (
      let maint_io = Io_stats.create () in
      let old_ctx = locked t (fun () -> t.service_ctx) in
      match Cfq_live.Source.seal src maint_io with
      | None -> None
      | Some delta ->
          let new_epoch = Cfq_live.Source.epoch src in
          let new_ctx = { old_ctx with Exec.db = Cfq_live.Source.db src } in
          let stale_sides, (answers_carried, answers_dropped) =
            locked t (fun () ->
                (* swap first: queries admitted from here on run against the
                   new database (cold until promotion catches up — correct,
                   just unwarmed), while in-flight queries finish against
                   the still-readable pre-seal snapshot they captured *)
                t.service_ctx <- new_ctx;
                t.epoch <- new_epoch;
                Metrics.record_seal t.service_metrics ~epoch:new_epoch;
                ( Lru.fold (fun acc ~key ~value -> (key, value) :: acc) [] t.sides,
                  rekey_answers_locked t new_ctx ))
          in
          (* the pass runs on a worker domain (bounded admission: the pool's
             queue), inline in the caller when the queue is full *)
          Some
            (Pool.run t.pool
               (maintain t ~old_ctx ~new_epoch ~delta ~maint_io ~stale_sides
                  ~answers_carried ~answers_dropped)))
