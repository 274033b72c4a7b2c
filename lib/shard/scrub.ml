module Store = Cfq_store.Store

(* The background scrubber: walk every replica of every shard under an
   I/O throttle, verify per-page CRCs and logical checksums fresh from
   disk, quarantine replicas with bad pages, and run anti-entropy repair
   — rebuild quarantined or stale replicas from a healthy sibling and
   re-admit them at the current generation.  Health transitions are
   persisted through [Sharded.sync_manifest]. *)

type outcome =
  | Clean  (** verified, no faults *)
  | Faulty of Store.page_fault list  (** verification failed; quarantined *)
  | Repaired  (** was stale/quarantined; rebuilt and verified clean *)
  | Repair_failed of string  (** rebuild failed; stays quarantined *)
  | Skipped  (** repair disabled; left in its unhealthy state *)

type replica_report = {
  rr_shard : int;
  rr_replica : int;
  rr_health : Manifest.health;  (** after the scrub *)
  rr_outcome : outcome;
}

type report = {
  scrubbed_pages : int;
  faults_found : int;
  repairs : int;
  repair_failures : int;
  rows : replica_report list;  (** shard-major, replica-minor order *)
}

let outcome_name = function
  | Clean -> "clean"
  | Faulty fs ->
      Printf.sprintf "faulty(%s)"
        (String.concat ","
           (List.map
              (fun f ->
                Printf.sprintf "%d:%s" f.Store.pf_page
                  (Store.page_fault_kind_name f.Store.pf_kind))
              fs))
  | Repaired -> "repaired"
  | Repair_failed r -> Printf.sprintf "repair-failed(%s)" r
  | Skipped -> "skipped"

(* sleep [throttle_sleep] every [throttle_pages] page reads: a crude I/O
   throttle so a scrub never saturates the store's disk *)
let make_throttle ~throttle_pages ~throttle_sleep =
  let read = ref 0 in
  fun ~page:_ ->
    incr read;
    if throttle_pages > 0 && !read mod throttle_pages = 0 && throttle_sleep > 0.
    then Unix.sleepf throttle_sleep

let run ?(repair = true) ?(throttle_pages = 0) ?(throttle_sleep = 0.) t =
  let throttle = make_throttle ~throttle_pages ~throttle_sleep in
  let scrubbed = ref 0 in
  let throttle ~page =
    incr scrubbed;
    throttle ~page
  in
  let groups = Sharded.groups t in
  let faults_found = ref 0 in
  let rows = ref [] in
  (* phase 1: verify every non-quarantined replica fresh from disk *)
  Array.iteri
    (fun k g ->
      for j = 0 to Replica.replica_count g - 1 do
        match Replica.health g ~replica:j with
        | Manifest.Quarantined -> () (* already condemned; repair below *)
        | Manifest.Stale -> () (* lagging, not rotten; repair below *)
        | Manifest.Healthy ->
            let faults = Replica.verify_replica ~throttle g ~replica:j in
            if faults <> [] then begin
              faults_found := !faults_found + List.length faults;
              Replica.set_health g ~replica:j Manifest.Quarantined;
              rows :=
                {
                  rr_shard = k;
                  rr_replica = j;
                  rr_health = Manifest.Quarantined;
                  rr_outcome = Faulty faults;
                }
                :: !rows
            end
            else
              rows :=
                {
                  rr_shard = k;
                  rr_replica = j;
                  rr_health = Manifest.Healthy;
                  rr_outcome = Clean;
                }
                :: !rows
      done)
    groups;
  (* phase 2: anti-entropy.  Seal first so repair copies from a sealed
     boundary (replica segments rewritten mid-WAL would diverge), then
     rebuild every stale or quarantined replica from a healthy sibling
     and re-verify it before re-admission. *)
  let repairs = ref 0 and repair_failures = ref 0 in
  if repair then begin
    ignore (Sharded.seal t : int);
    Array.iteri
      (fun k g ->
        for j = 0 to Replica.replica_count g - 1 do
          match Replica.health g ~replica:j with
          | Manifest.Healthy -> ()
          | Manifest.Stale | Manifest.Quarantined -> (
              match Replica.repair g ~replica:j with
              | Ok () ->
                  let faults = Replica.verify_replica ~throttle g ~replica:j in
                  if faults = [] then begin
                    incr repairs;
                    rows :=
                      {
                        rr_shard = k;
                        rr_replica = j;
                        rr_health = Manifest.Healthy;
                        rr_outcome = Repaired;
                      }
                      :: !rows
                  end
                  else begin
                    (* rebuilt bytes still bad: the medium itself is
                       suspect — condemn the replica *)
                    incr repair_failures;
                    Replica.set_health g ~replica:j Manifest.Quarantined;
                    rows :=
                      {
                        rr_shard = k;
                        rr_replica = j;
                        rr_health = Manifest.Quarantined;
                        rr_outcome = Repair_failed "re-verify failed";
                      }
                      :: !rows
                  end
              | Error reason ->
                  incr repair_failures;
                  rows :=
                    {
                      rr_shard = k;
                      rr_replica = j;
                      rr_health = Manifest.Quarantined;
                      rr_outcome = Repair_failed reason;
                    }
                    :: !rows)
        done)
      groups
  end
  else
    Array.iteri
      (fun k g ->
        for j = 0 to Replica.replica_count g - 1 do
          match Replica.health g ~replica:j with
          | Manifest.Healthy -> ()
          | h ->
              rows :=
                { rr_shard = k; rr_replica = j; rr_health = h; rr_outcome = Skipped }
                :: !rows
        done)
      groups;
  (* persist health transitions (and pick up the sealed generation) *)
  Sharded.sync_manifest t;
  {
    scrubbed_pages = !scrubbed;
    faults_found = !faults_found;
    repairs = !repairs;
    repair_failures = !repair_failures;
    rows = List.rev !rows;
  }

(* ------------------------------------------------------------------ *)
(* Health report (shell/CLI `verify`)                                  *)
(* ------------------------------------------------------------------ *)

type health_row = {
  hr_shard : int;
  hr_replica : int;
  hr_health : Manifest.health;
  hr_generation : int;
  hr_faults : Store.page_fault list;
}

(* read-only: verify every replica in place (no quarantine, no repair,
   no manifest rewrite) and report per-replica health *)
let health_report ?throttle t =
  let rows = ref [] in
  Array.iteri
    (fun k g ->
      for j = 0 to Replica.replica_count g - 1 do
        let faults =
          match Replica.health g ~replica:j with
          | Manifest.Quarantined when Replica.store g ~replica:j = None ->
              [ { Store.pf_page = 0; pf_kind = Store.Bad_crc } ]
          | _ -> Replica.verify_replica ?throttle g ~replica:j
        in
        let gen =
          match Replica.store g ~replica:j with
          | Some st -> Store.generation st
          | None -> 0
        in
        rows :=
          {
            hr_shard = k;
            hr_replica = j;
            hr_health = Replica.health g ~replica:j;
            hr_generation = gen;
            hr_faults = faults;
          }
          :: !rows
      done)
    (Sharded.groups t);
  List.rev !rows

let healthy_report rows =
  List.for_all
    (fun r -> r.hr_health = Manifest.Healthy && r.hr_faults = [])
    rows

let health_row_to_string r =
  Printf.sprintf "shard %d replica %d: %s (generation %d)%s" r.hr_shard r.hr_replica
    (Manifest.health_name r.hr_health) r.hr_generation
    (match r.hr_faults with
    | [] -> ""
    | faults ->
        Printf.sprintf " -- %d bad pages: %s" (List.length faults)
          (Store.page_faults_to_string faults))

let report_to_string report =
  String.concat "\n  "
    (Printf.sprintf "scrubbed %d pages: %d faults, %d replicas repaired, %d repair failures"
       report.scrubbed_pages report.faults_found report.repairs report.repair_failures
    :: List.filter_map
         (fun r ->
           if r.rr_outcome = Clean then None
           else
             Some
               (Printf.sprintf "shard %d replica %d: %s -> %s" r.rr_shard r.rr_replica
                  (outcome_name r.rr_outcome) (Manifest.health_name r.rr_health)))
         report.rows)
