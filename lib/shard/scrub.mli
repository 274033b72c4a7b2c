(** The background scrubber and anti-entropy repair for replicated
    sharded stores.

    {!run} walks every replica of every shard under an I/O throttle,
    re-reading pages fresh from disk (bypassing buffer pools) and
    verifying raw CRC-32s plus logical page checksums
    ({!Cfq_store.Store.verify_pages}).  Replicas with bad pages are
    quarantined; then every stale or quarantined replica is rebuilt
    page-for-page from a healthy sibling at the current generation,
    re-verified, and re-admitted healthy.  Health transitions persist via
    {!Sharded.sync_manifest}.

    Not safe concurrently with {!Sharded.seal} on the same handle (both
    reposition segment descriptors); run scrubs between seals — the
    serving stack's queries, which read through the buffer pools, are
    unaffected. *)

module Store = Cfq_store.Store

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
  scrubbed_pages : int;  (** pages read by verification passes *)
  faults_found : int;  (** bad pages across all replicas *)
  repairs : int;  (** replicas rebuilt and re-admitted *)
  repair_failures : int;
  rows : replica_report list;  (** shard-major, replica-minor order *)
}


(** ["scrubbed N pages: F faults, R replicas repaired, X repair
    failures"], then one indented ["shard K replica J: OUTCOME -> HEALTH"]
    line per replica the scrub did not find clean. *)
val report_to_string : report -> string

(** [run t] scrubs and (by default) repairs.  [~repair:false] verifies
    and quarantines only.  [throttle_pages]/[throttle_sleep] sleep that
    long after every that-many page reads — the I/O throttle. *)
val run :
  ?repair:bool ->
  ?throttle_pages:int ->
  ?throttle_sleep:float ->
  Sharded.t ->
  report

(** {2 Read-only health report (the [verify] command)} *)

type health_row = {
  hr_shard : int;
  hr_replica : int;
  hr_health : Manifest.health;
  hr_generation : int;
  hr_faults : Store.page_fault list;
}

(** Verify every replica in place — no quarantine, no repair, no manifest
    rewrite — and report per-replica health. *)
val health_report :
  ?throttle:(page:int -> unit) -> Sharded.t -> health_row list

(** Every replica healthy with zero faults. *)
val healthy_report : health_row list -> bool

(** ["shard K replica J: HEALTH (generation G)"], plus
    [" -- N bad pages: P/KIND, ..."] when verification found faults. *)
val health_row_to_string : health_row -> string
