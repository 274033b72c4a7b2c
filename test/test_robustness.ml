(* Serving under faults: retries, the circuit breaker lifecycle, graceful
   degradation from cached superset answers, the pool's queue-full and
   shutdown fallbacks, and a crash-consistency property for the caches. *)

open Cfq_txdb
open Cfq_constr
open Cfq_mining
open Cfq_core
open Cfq_service
open Cfq_exec_pool

let price = Helpers.price

(* a fixed small database; every query below is brute-force checkable *)
let fixed_txs =
  [
    [ 0; 1 ]; [ 0; 1; 2 ]; [ 1; 2 ]; [ 0; 2; 3 ]; [ 1; 3 ]; [ 0; 1; 3 ];
    [ 2; 3 ]; [ 0; 1; 2; 3 ]; [ 1; 2; 3 ]; [ 0; 3 ]; [ 0; 1; 2 ]; [ 1; 2 ];
    [ 0; 1 ]; [ 2; 3; 4 ]; [ 0; 4 ]; [ 1; 2; 4 ]; [ 0; 1; 4 ]; [ 3; 4 ];
    [ 0; 2; 4 ]; [ 1; 3; 4 ];
  ]

let n_items = 5

let mk_ctx () =
  let db = Helpers.db_of_lists fixed_txs in
  let info = Helpers.small_info n_items in
  (db, info, Cfq_core.Exec.context db info)

let q_broad = Query.make ~s_minsup:0.1 ~t_minsup:0.1 ()
let q_narrow = Query.make ~s_minsup:0.2 ~t_minsup:0.2 ()

let base_config =
  { Service.default_config with Service.domains = 1; queue_capacity = 4 }

let install db config = Tx_db.set_faults db (Some (Fault.create config))

let set_pairs (a : Service.answer) =
  Helpers.sorted_pairs
    (List.map
       (fun (s, t) -> (s.Frequent.set, t.Frequent.set))
       a.Service.pairs)

(* the reference scans the database directly, so lift any installed
   injector for its duration *)
let brute db info q =
  let injector = Tx_db.faults db in
  Tx_db.set_faults db None;
  Fun.protect ~finally:(fun () -> Tx_db.set_faults db injector) @@ fun () ->
  Helpers.sorted_pairs
    (Helpers.brute_answer db ~n:n_items ~s_info:info ~t_info:info q)

let check_answer label db info q = function
  | Error e -> Alcotest.failf "%s: %s" label (Service.error_to_string e)
  | Ok a ->
      Alcotest.(check bool)
        (label ^ ": equals brute force")
        true
        (set_pairs a = brute db info q);
      a

let with_service ?(config = base_config) ctx f =
  let service = Service.create ~config ctx in
  Fun.protect ~finally:(fun () -> Service.shutdown service) (fun () -> f service)

(* ------------------------------------------------------------------ *)
(* retries *)

let transient_fault_is_retried () =
  let db, info, ctx = mk_ctx () in
  with_service ~config:{ base_config with Service.retries = 2; degrade = false } ctx
  @@ fun service ->
  install db { Fault.default_config with Fault.fail_first = 1 };
  let a =
    check_answer "retried query" db info q_broad (Service.run service q_broad)
  in
  Alcotest.(check bool) "served cold" true (a.Service.served_from = Service.Cold);
  let m = Service.metrics service in
  Alcotest.(check int) "one retry" 1 m.Metrics.retries;
  Alcotest.(check int) "no failure surfaced" 0 m.Metrics.failures;
  Tx_db.set_faults db None

let exhausted_retries_surface_the_fault () =
  let db, _, ctx = mk_ctx () in
  with_service ~config:{ base_config with Service.retries = 1; degrade = false } ctx
  @@ fun service ->
  install db { Fault.default_config with Fault.transient_p = 1.0 };
  (match Service.run service q_broad with
  | Error (Service.Fault (Cfq_error.Transient_io _)) -> ()
  | Error e -> Alcotest.failf "unexpected error: %s" (Service.error_to_string e)
  | Ok _ -> Alcotest.fail "expected a fault");
  let m = Service.metrics service in
  Alcotest.(check int) "retry budget spent" 1 m.Metrics.retries;
  Alcotest.(check int) "failure counted" 1 m.Metrics.failures;
  Alcotest.(check int) "fault classified" 1 m.Metrics.fault_transient;
  Tx_db.set_faults db None

(* ------------------------------------------------------------------ *)
(* circuit breaker *)

let breaker_config =
  {
    base_config with
    Service.retries = 0;
    breaker_threshold = 2;
    breaker_cooldown = 2;
    degrade = false;
  }

let breaker_lifecycle () =
  let db, info, ctx = mk_ctx () in
  with_service ~config:breaker_config ctx @@ fun service ->
  install db { Fault.default_config with Fault.transient_p = 1.0 };
  let expect label r = function
    | `Fault -> (
        match r with
        | Error (Service.Fault _) -> ()
        | _ -> Alcotest.failf "%s: expected a fault" label)
    | `Shed -> (
        match r with
        | Error Service.Overloaded -> ()
        | _ -> Alcotest.failf "%s: expected Overloaded" label)
  in
  (* two consecutive failures trip the breaker *)
  expect "q1" (Service.run service q_broad) `Fault;
  expect "q2" (Service.run service q_broad) `Fault;
  (* open: two admissions shed (the cooldown), then a half-open probe *)
  expect "q3" (Service.run service q_broad) `Shed;
  expect "q4" (Service.run service q_broad) `Shed;
  (* the probe still fails, so the breaker re-trips for another cooldown *)
  expect "q5 (probe)" (Service.run service q_broad) `Fault;
  expect "q6" (Service.run service q_broad) `Shed;
  (* the store recovers while the breaker is still open *)
  Tx_db.set_faults db None;
  expect "q7" (Service.run service q_broad) `Shed;
  (* this probe succeeds and closes the breaker *)
  let a =
    check_answer "q8 (probe)" db info q_broad (Service.run service q_broad)
  in
  Alcotest.(check bool) "probe mined cold" true
    (a.Service.served_from = Service.Cold);
  let a2 =
    check_answer "q9 after close" db info q_broad (Service.run service q_broad)
  in
  Alcotest.(check bool) "closed breaker serves the cache" true
    (a2.Service.served_from = Service.Answer_cache);
  let m = Service.metrics service in
  Alcotest.(check int) "two trips" 2 m.Metrics.breaker_trips;
  Alcotest.(check int) "four shed" 4 m.Metrics.shed;
  Alcotest.(check int) "three raw failures" 3 m.Metrics.failures

let open_breaker_serves_the_answer_cache () =
  let db, info, ctx = mk_ctx () in
  with_service ~config:{ breaker_config with Service.degrade = true } ctx
  @@ fun service ->
  (* prime the cache while healthy *)
  let (_ : Service.answer) =
    check_answer "prime" db info q_narrow (Service.run service q_narrow)
  in
  install db { Fault.default_config with Fault.transient_p = 1.0 };
  (* q_broad asks for MORE than the cached q_narrow answer covers, so it
     cannot be served degraded: it fails twice and trips the breaker *)
  let fail label =
    match Service.run service q_broad with
    | Error (Service.Fault _) -> ()
    | _ -> Alcotest.failf "%s: expected a fault" label
  in
  fail "f1";
  fail "f2";
  (* breaker open: the cached query is still answered, without a scan *)
  let a =
    check_answer "cache hit while open" db info q_narrow
      (Service.run service q_narrow)
  in
  Alcotest.(check bool) "served from the answer cache" true
    (a.Service.served_from = Service.Answer_cache);
  Alcotest.(check int) "no counting" 0 a.Service.support_counted;
  (* the uncacheable query is shed *)
  (match Service.run service q_broad with
  | Error Service.Overloaded -> ()
  | _ -> Alcotest.fail "expected Overloaded");
  Alcotest.(check int) "one shed" 1 (Service.metrics service).Metrics.shed;
  Tx_db.set_faults db None

(* ------------------------------------------------------------------ *)
(* graceful degradation *)

let degraded_answer_is_exact () =
  let db, info, ctx = mk_ctx () in
  with_service
    ~config:
      {
        base_config with
        Service.retries = 0;
        breaker_threshold = 0;
        degrade = true;
      }
    ctx
  @@ fun service ->
  let (_ : Service.answer) =
    check_answer "prime" db info q_broad (Service.run service q_broad)
  in
  (* drop the mined collections so any refinement must rescan — then the
     store starts failing hard *)
  Service.cache_drop_sides service;
  install db { Fault.default_config with Fault.transient_p = 1.0 };
  let q2 =
    Query.make ~s_minsup:0.2 ~t_minsup:0.2
      ~s_constraints:[ One_var.Agg_cmp (Agg.Max, price, Cmp.Ge, 10.) ]
      ()
  in
  let a = check_answer "degraded refinement" db info q2 (Service.run service q2) in
  Alcotest.(check bool) "flagged degraded" true
    (a.Service.served_from = Service.Degraded);
  Alcotest.(check int) "no counting" 0 a.Service.support_counted;
  (* the primed query itself is still an exact answer-cache hit *)
  let a2 =
    check_answer "exact hit under faults" db info q_broad
      (Service.run service q_broad)
  in
  Alcotest.(check bool) "answer cache" true
    (a2.Service.served_from = Service.Answer_cache);
  let m = Service.metrics service in
  Alcotest.(check int) "one degraded answer" 1 m.Metrics.degraded;
  Tx_db.set_faults db None

(* a degraded answer joins the cached sides under the request, so a 2-var
   atom the cached query lacks is enforced on the pairs *)
let degraded_answer_adds_a_two_var_atom () =
  let db, info, ctx = mk_ctx () in
  with_service ~config:{ base_config with Service.retries = 0; breaker_threshold = 0 } ctx
  @@ fun service ->
  let cached = Parser.parse "{(S,T) | freq(S) >= 0.1 & freq(T) >= 0.1 & max(S.Price) <= min(T.Price)}" in
  let asked =
    Parser.parse
      "{(S,T) | freq(S) >= 0.15 & freq(T) >= 0.15 & max(S.Price) <= min(T.Price) & S.Type = T.Type}"
  in
  let primed = check_answer "prime" db info cached (Service.run service cached) in
  Service.cache_drop_sides service;
  install db { Fault.default_config with Fault.transient_p = 1.0 };
  let a = check_answer "degraded with S.Type = T.Type" db info asked (Service.run service asked) in
  Alcotest.(check bool) "flagged degraded" true (a.Service.served_from = Service.Degraded);
  Alcotest.(check bool) "some pairs" true (a.Service.n_pairs > 0);
  Alcotest.(check bool) "the atom drops cached pairs" true (a.Service.n_pairs < primed.Service.n_pairs);
  Alcotest.(check int) "n_pairs counts the pairs" (List.length a.Service.pairs) a.Service.n_pairs;
  Tx_db.set_faults db None

(* while the breaker is open, admissions are served from the answer cache
   alone: a hit on the cached query and a degraded answer to a covered
   refinement, neither executed (no failure charged), and the rest shed *)
let open_breaker_hits_and_degrades () =
  let db, info, ctx = mk_ctx () in
  with_service
    ~config:{ breaker_config with Service.degrade = true; breaker_cooldown = 8 }
    ctx
  @@ fun service ->
  let (_ : Service.answer) = check_answer "prime" db info q_narrow (Service.run service q_narrow) in
  install db { Fault.default_config with Fault.transient_p = 1.0 };
  let fail label =
    match Service.run service q_broad with
    | Error (Service.Fault _) -> ()
    | _ -> Alcotest.failf "%s: expected a fault" label
  in
  fail "f1";
  fail "f2";
  let hit = check_answer "hit while open" db info q_narrow (Service.run service q_narrow) in
  Alcotest.(check bool) "served from the answer cache" true
    (hit.Service.served_from = Service.Answer_cache);
  let refined =
    Query.make ~s_minsup:0.25 ~t_minsup:0.2
      ~s_constraints:[ One_var.Agg_cmp (Agg.Max, price, Cmp.Ge, 30.) ]
      ()
  in
  let d = check_answer "degraded while open" db info refined (Service.run service refined) in
  Alcotest.(check bool) "served degraded" true (d.Service.served_from = Service.Degraded);
  (match Service.run service q_broad with
  | Error Service.Overloaded -> ()
  | _ -> Alcotest.fail "expected Overloaded");
  let m = Service.metrics service in
  Alcotest.(check int) "one trip" 1 m.Metrics.breaker_trips;
  Alcotest.(check int) "one degraded answer" 1 m.Metrics.degraded;
  Alcotest.(check int) "only the tripping failures" 2 m.Metrics.failures;
  Alcotest.(check int) "one shed" 1 m.Metrics.shed;
  Tx_db.set_faults db None

(* ------------------------------------------------------------------ *)
(* pool fallbacks *)

let pool_queue_full_falls_back_inline () =
  let pool = Pool.create ~domains:1 ~queue_capacity:1 () in
  let release = Atomic.make false in
  let blocker =
    match Pool.submit pool (fun () ->
        while not (Atomic.get release) do Domain.cpu_relax () done;
        0)
    with
    | Some p -> p
    | None -> Alcotest.fail "blocker refused"
  in
  (* wait until the worker has picked the blocker up, then fill the queue *)
  while Pool.queue_depth pool > 0 do Domain.cpu_relax () done;
  let filler =
    match Pool.submit pool (fun () -> 1) with
    | Some p -> p
    | None -> Alcotest.fail "filler refused"
  in
  Alcotest.(check (option int)) "queue full" None
    (Option.map (fun _ -> 0) (Pool.submit pool (fun () -> 2)));
  let fell_back = ref false in
  let r = Pool.run ~on_fallback:(fun () -> fell_back := true) pool (fun () -> 2) in
  Alcotest.(check int) "inline result" 2 r;
  Alcotest.(check bool) "fallback signalled" true !fell_back;
  Atomic.set release true;
  Alcotest.(check int) "blocker result" 0 (Pool.await blocker);
  Alcotest.(check int) "filler result" 1 (Pool.await filler);
  Pool.shutdown pool

let pool_shutdown_semantics () =
  let pool = Pool.create ~domains:1 ~queue_capacity:4 () in
  Pool.shutdown pool;
  Pool.shutdown pool (* documented no-op *);
  Alcotest.(check bool) "stopped" true (Pool.is_stopped pool);
  (match Pool.submit pool (fun () -> 0) with
  | _ -> Alcotest.fail "expected a typed Overload"
  | exception Cfq_error.Error Cfq_error.Overload -> ());
  let fell_back = ref false in
  let r = Pool.run ~on_fallback:(fun () -> fell_back := true) pool (fun () -> 7) in
  Alcotest.(check int) "run still yields inline" 7 r;
  Alcotest.(check bool) "fallback signalled" true !fell_back

(* ------------------------------------------------------------------ *)
(* fan_out: the work-sharing primitive under the parallel counting engine *)

let fan_out_degrades_to_sequential () =
  (* domains=1 never spawns or borrows: one accumulator, indices in order *)
  let seen = ref [] in
  let accs =
    Pool.fan_out ~domains:1 ~n_tasks:5
      ~init:(fun () -> ref 0)
      ~work:(fun acc i ->
        seen := i :: !seen;
        acc := !acc + i)
      ()
  in
  Alcotest.(check (list int)) "indices in order" [ 0; 1; 2; 3; 4 ] (List.rev !seen);
  (match accs with
  | [ acc ] -> Alcotest.(check int) "single accumulator" 10 !acc
  | _ -> Alcotest.failf "expected 1 accumulator, got %d" (List.length accs))

let fan_out_covers_every_task_once () =
  let n_tasks = 1000 in
  let accs =
    Pool.fan_out ~domains:3 ~n_tasks
      ~init:(fun () -> Array.make n_tasks 0)
      ~work:(fun acc i -> acc.(i) <- acc.(i) + 1)
      ()
  in
  Alcotest.(check bool) "at most 3 participants" true (List.length accs <= 3);
  let total = Array.make n_tasks 0 in
  List.iter (Array.iteri (fun i c -> total.(i) <- total.(i) + c)) accs;
  Array.iteri
    (fun i c -> if c <> 1 then Alcotest.failf "task %d ran %d times" i c)
    total

let fan_out_borrows_without_blocking_on_a_busy_pool () =
  (* one worker, kept busy: helpers either never start or are withdrawn;
     the caller still finishes all tasks and the pool stays usable *)
  let pool = Pool.create ~domains:1 ~queue_capacity:2 () in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
  let release = Atomic.make false in
  let blocker =
    match Pool.submit pool (fun () ->
        while not (Atomic.get release) do Domain.cpu_relax () done;
        42)
    with
    | Some p -> p
    | None -> Alcotest.fail "blocker refused"
  in
  while Pool.queue_depth pool > 0 do Domain.cpu_relax () done;
  let accs =
    Pool.fan_out ~pool ~domains:4 ~n_tasks:100
      ~init:(fun () -> ref 0)
      ~work:(fun acc i -> acc := !acc + i)
      ()
  in
  let total = List.fold_left (fun s acc -> s + !acc) 0 accs in
  Alcotest.(check int) "all tasks counted" (100 * 99 / 2) total;
  Atomic.set release true;
  Alcotest.(check int) "blocker unaffected" 42 (Pool.await blocker);
  (* withdrawn helpers are skipped (not run) once the worker drains them;
     the pool then serves new work as usual *)
  while Pool.queue_depth pool > 0 do Domain.cpu_relax () done;
  match Pool.submit pool (fun () -> 7) with
  | Some p -> Alcotest.(check int) "pool usable after fan_out" 7 (Pool.await p)
  | None -> Alcotest.fail "pool refused after fan_out"

exception Boom

let fan_out_propagates_failure () =
  (match
     Pool.fan_out ~domains:3 ~n_tasks:50
       ~init:(fun () -> ())
       ~work:(fun () i -> if i = 17 then raise Boom)
       ()
   with
  | _ -> Alcotest.fail "expected Boom"
  | exception Boom -> ());
  (* spawned helpers must all be joined even on failure: a fresh fan_out
     right after still works *)
  let accs =
    Pool.fan_out ~domains:3 ~n_tasks:10 ~init:(fun () -> ref 0)
      ~work:(fun acc _ -> incr acc) ()
  in
  Alcotest.(check int) "clean after failure" 10
    (List.fold_left (fun s acc -> s + !acc) 0 accs)

let service_outlives_its_pool () =
  let db, info, ctx = mk_ctx () in
  let config =
    { base_config with Service.retries = 0; breaker_threshold = 0; degrade = false }
  in
  let service = Service.create ~config ctx in
  Service.shutdown service;
  (* a shut-down service still answers, inline in the caller *)
  let (_ : Service.answer) =
    check_answer "inline after shutdown" db info q_broad
      (Service.run service q_broad)
  in
  let m = Service.metrics service in
  Alcotest.(check int) "inline run counted" 1 m.Metrics.inline_runs;
  Alcotest.(check int) "rejection counted" 1 m.Metrics.rejected;
  (* the inline fallback still honours the admission-time deadline *)
  (match Service.run service ~deadline:(-1.) q_narrow with
  | Error Service.Deadline_exceeded -> ()
  | Error e -> Alcotest.failf "unexpected: %s" (Service.error_to_string e)
  | Ok _ -> Alcotest.fail "expected Deadline_exceeded");
  let m = Service.metrics service in
  Alcotest.(check int) "second inline run" 2 m.Metrics.inline_runs;
  Alcotest.(check int) "deadline expiry counted" 1 m.Metrics.deadline_expired

(* ------------------------------------------------------------------ *)
(* qcheck: a crashing query never leaves a partially-inserted cache entry —
   after the faults clear, every answer equals brute force *)

let gen_crash =
  QCheck2.Gen.(
    let* n_db = Helpers.gen_db in
    let* q1 = Helpers.gen_query in
    let* extra = Helpers.gen_one_var in
    let* bump = int_range 0 10 in
    let* seed = int_range 0 10_000 in
    return (n_db, q1, extra, bump, seed))

let print_crash ((n, db), q1, extra, bump, seed) =
  Printf.sprintf "%s q1=%s extra=%s bump=%d seed=%d" (Helpers.print_db (n, db))
    (Query.to_string q1) (One_var.to_string extra) bump seed

let prop_crash_consistency ((n, db), q1, extra, bump, seed) =
  let info = Helpers.small_info n in
  let ctx = Cfq_core.Exec.context db info in
  let q2 =
    {
      q1 with
      Query.s_minsup = min 1. (q1.Query.s_minsup +. (float_of_int bump /. 100.));
      s_constraints = extra :: q1.Query.s_constraints;
    }
  in
  let config =
    { base_config with Service.retries = 0; breaker_threshold = 0; degrade = false }
  in
  let service = Service.create ~config ctx in
  Fun.protect ~finally:(fun () -> Service.shutdown service) @@ fun () ->
  let check_one label q =
    let expected =
      Helpers.sorted_pairs
        (Helpers.brute_answer db ~n ~s_info:info ~t_info:info q)
    in
    match Service.run service q with
    | Error e -> QCheck2.Test.fail_reportf "%s: %s" label (Service.error_to_string e)
    | Ok a ->
        if set_pairs a <> expected then
          QCheck2.Test.fail_reportf "%s served %s: wrong pairs" label
            (Service.served_from_name a.Service.served_from);
        true
  in
  (* healthy run; the reference for q2 is also computed now, since the
     brute-force scan cannot run against a faulted store *)
  let expected2 =
    Helpers.sorted_pairs (Helpers.brute_answer db ~n ~s_info:info ~t_info:info q2)
  in
  let ok1 = check_one "q1 healthy" q1 in
  (* drop the sides so the refinement must rescan while the store crashes
     and drops reads *)
  Service.cache_drop_sides service;
  Tx_db.set_faults db
    (Some
       (Fault.create
          {
            Fault.default_config with
            Fault.seed = Int64.of_int seed;
            crash_p = 0.5;
            transient_p = 0.2;
            fail_first = 1;
          }));
  (* under faults the query may fail — but if it answers, it answers right *)
  let under_faults =
    Fun.protect ~finally:(fun () -> Tx_db.set_faults db None) @@ fun () ->
    match Service.run service q2 with
    | Error _ -> true
    | Ok a -> set_pairs a = expected2
  in
  (* whatever the crashed attempts left in the caches must not poison
     post-recovery answers *)
  ok1 && under_faults && check_one "q2 recovered" q2 && check_one "q1 recovered" q1

(* ------------------------------------------------------------------ *)
(* retry backoff jitter is a pure function of (seed, query, attempt) *)

let backoff_jitter_is_deterministic () =
  let _, _, ctx = mk_ctx () in
  let config = { base_config with Service.backoff_base = 0.01 } in
  with_service ~config ctx @@ fun s1 ->
  with_service ~config ctx @@ fun s2 ->
  let delays svc q = List.init 4 (Service.retry_delay svc q) in
  (* two services with the same config agree on every delay *)
  Alcotest.(check (list (float 0.)))
    "same config, same schedule" (delays s1 q_broad) (delays s2 q_broad);
  (* draw order is irrelevant: interleaving other queries' draws does not
     shift the schedule (a shared random stream would fail this) *)
  let before = Service.retry_delay s1 q_broad 2 in
  List.iter (fun a -> ignore (Service.retry_delay s1 q_narrow a)) [ 0; 1; 2; 3 ];
  Alcotest.(check (float 0.))
    "order-independent" before
    (Service.retry_delay s1 q_broad 2);
  (* delays stay inside the documented envelope base·2ᵃ·[0.5, 1.5) *)
  List.iteri
    (fun a d ->
      let lo = 0.01 *. (2. ** float_of_int a) *. 0.5 in
      Alcotest.(check bool)
        (Printf.sprintf "attempt %d in envelope" a)
        true
        (d >= lo && d < 3. *. lo))
    (delays s1 q_broad);
  (* distinct queries and a distinct seed give distinct jitter *)
  Alcotest.(check bool)
    "query-dependent" true
    (Service.retry_delay s1 q_broad 0 <> Service.retry_delay s1 q_narrow 0);
  let reseeded = { config with Service.jitter_seed = 0x5151_5151L } in
  with_service ~config:reseeded ctx @@ fun s3 ->
  Alcotest.(check bool)
    "seed-dependent" true
    (Service.retry_delay s1 q_broad 0 <> Service.retry_delay s3 q_broad 0)

(* ------------------------------------------------------------------ *)
(* chaos replay: a refinement session under seeded faults, in two phases.
   Calm: the first two page reads fail, so the first cold query retries
   twice, and some scans stall.  Storm: the mined sides are dropped and
   fresh refinements of the broadest query mine cold into transient
   errors, scan crashes and (bounded) tampered pages; each is retried or
   degraded from the cached superset answer while the breaker trips.  One
   domain and fixed seeds make the whole replay repeatable. *)

let chaos_query minsup s_lo t_hi =
  Parser.parse
    (Printf.sprintf
       "{(S,T) | freq(S) >= %g & freq(T) >= %g & S.Price >= %g & T.Price <= %g & S.Type = T.Type}"
       minsup minsup s_lo t_hi)

(* two rounds that narrow the S price band, each closed by re-issuing
   its first query *)
let calm_queries =
  List.concat_map
    (fun round ->
      let minsup = 0.02 +. (0.005 *. float_of_int round) and lo = 300. +. (40. *. float_of_int round) in
      List.init 4 (fun step -> chaos_query minsup (lo +. (15. *. float_of_int step)) (700. -. (25. *. float_of_int step)))
      @ [ chaos_query minsup lo 700. ])
    [ 0; 1 ]

(* never asked while calm, all covered by the broadest calm query *)
let storm_queries =
  List.init 6 (fun k -> chaos_query 0.022 (305. +. (10. *. float_of_int k)) (690. -. (20. *. float_of_int k)))

let chaos_config =
  {
    Service.default_config with
    Service.domains = 1;
    mine_domains = 1;
    retries = 3;
    backoff_base = 0.0005;
    breaker_threshold = 3;
    breaker_cooldown = 2;
    degrade = true;
  }

let calm_faults = { Fault.default_config with Fault.seed = 0xC4A05L; fail_first = 2; spike_p = 0.05; spike_seconds = 0.0005 }

let storm_faults =
  { Fault.default_config with Fault.seed = 0x57042L; transient_p = 0.01; corrupt_p = 0.3; max_corrupt = 2; crash_p = 0.1 }

let chaos_ctx () =
  let rng = Cfq_quest.Splitmix.create ~seed:20260706L in
  let db = Cfq_quest.Quest_gen.generate rng { (Cfq_quest.Quest_gen.scaled 500) with Cfq_quest.Quest_gen.n_items = 100 } in
  let prices = Cfq_quest.Item_gen.uniform_prices rng ~n:100 ~lo:0. ~hi:1000. in
  let types = Array.init 100 (fun _ -> float_of_int (Cfq_quest.Splitmix.int rng 20)) in
  (db, Exec.context db (Cfq_quest.Item_gen.item_info ~prices ~types ()))

(* each query's outcome — its path and pairs, or the error — with the
   backoff it sleeps before each retry; then the service's counters,
   wall-clock latency aside *)
let chaos_replay db ctx =
  let service = Service.create ~config:chaos_config ctx in
  Fun.protect ~finally:(fun () -> Service.shutdown service) @@ fun () ->
  let serve q =
    let delays = List.init chaos_config.Service.retries (Service.retry_delay service q) in
    match Service.run service q with
    | Ok a -> (Service.served_from_name a.Service.served_from, set_pairs a, delays)
    | Error e -> ("error: " ^ Service.error_to_string e, [], delays)
  in
  install db calm_faults;
  let calm = List.map serve calm_queries in
  Service.cache_drop_sides service;
  install db storm_faults;
  let storm = List.map serve storm_queries in
  Tx_db.set_faults db None;
  let m = Service.metrics service in
  (calm, storm, { m with Metrics.total_latency = 0.; max_latency = 0. })

let chaos_replay_is_repeatable () =
  let db, ctx = chaos_ctx () in
  let reference qs =
    List.map
      (fun q ->
        Helpers.sorted_pairs
          (List.map
             (fun (s, t) -> (s.Frequent.set, t.Frequent.set))
             (Exec.run ~strategy:Plan.Cap_one_var ~collect_pairs:true ctx q).Exec.pairs))
      qs
  in
  let calm_ref = reference calm_queries and storm_ref = reference storm_queries in
  Alcotest.(check bool) "the storm asks for pairs" true (List.for_all (( <> ) []) storm_ref);
  let ((calm, storm, m) as first) = chaos_replay db ctx in
  let check phase refs outcomes =
    List.iteri
      (fun i (want, (from, got, _)) ->
        let label = Printf.sprintf "%s query %d (%s)" phase i from in
        Alcotest.(check bool) (label ^ " answered") false (String.starts_with ~prefix:"error" from);
        Alcotest.(check bool) (label ^ " equals the fault-free answer") true (got = want))
      (List.combine refs outcomes)
  in
  check "calm" calm_ref calm;
  check "storm" storm_ref storm;
  Alcotest.(check bool) (Printf.sprintf "retries (%d)" m.Metrics.retries) true (m.Metrics.retries > 0);
  Alcotest.(check bool) (Printf.sprintf "degraded (%d)" m.Metrics.degraded) true (m.Metrics.degraded > 0);
  Alcotest.(check bool)
    (Printf.sprintf "breaker trips (%d)" m.Metrics.breaker_trips)
    true (m.Metrics.breaker_trips > 0);
  Alcotest.(check bool) "a second run replays the first exactly" true (chaos_replay db ctx = first)

let suite =
  [
    Alcotest.test_case "transient fault is retried" `Quick transient_fault_is_retried;
    Alcotest.test_case "exhausted retries surface the fault" `Quick
      exhausted_retries_surface_the_fault;
    Alcotest.test_case "breaker lifecycle" `Quick breaker_lifecycle;
    Alcotest.test_case "open breaker serves the answer cache" `Quick
      open_breaker_serves_the_answer_cache;
    Alcotest.test_case "degraded answer is exact" `Quick degraded_answer_is_exact;
    Alcotest.test_case "degraded answer adds a 2-var atom" `Quick
      degraded_answer_adds_a_two_var_atom;
    Alcotest.test_case "open breaker: a hit and a degraded answer" `Quick
      open_breaker_hits_and_degrades;
    Alcotest.test_case "pool: queue-full falls back inline" `Quick
      pool_queue_full_falls_back_inline;
    Alcotest.test_case "pool: shutdown semantics" `Quick pool_shutdown_semantics;
    Alcotest.test_case "fan_out: domains=1 degrades to sequential" `Quick
      fan_out_degrades_to_sequential;
    Alcotest.test_case "fan_out: every task runs exactly once" `Quick
      fan_out_covers_every_task_once;
    Alcotest.test_case "fan_out: borrows without blocking on a busy pool" `Quick
      fan_out_borrows_without_blocking_on_a_busy_pool;
    Alcotest.test_case "fan_out: propagates the first failure" `Quick
      fan_out_propagates_failure;
    Alcotest.test_case "service outlives its pool" `Quick service_outlives_its_pool;
    Alcotest.test_case "backoff jitter is deterministic" `Quick
      backoff_jitter_is_deterministic;
    Alcotest.test_case "chaos replay: every answer exact, run twice alike" `Quick
      chaos_replay_is_repeatable;
    Helpers.qtest ~count:40 "crash-consistency: caches never poisoned" gen_crash
      print_crash prop_crash_consistency;
  ]
