(** Human-readable EXPLAIN output for plans and execution results. *)

val plan_to_string : Query.t -> Plan.t -> string
val result_to_string : Exec.result -> string

(** [pairs_to_string n r] is ["K of M pairs:"] and one indented
    ["S => T"] line for each of the first [K <= n] collected pairs. *)
val pairs_to_string : int -> Exec.result -> string
