(** Human-readable EXPLAIN output for plans and execution results. *)

val plan_to_string : Query.t -> Plan.t -> string
val result_to_string : Exec.result -> string
