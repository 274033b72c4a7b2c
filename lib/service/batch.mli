(** Batch execution of query files through the service.

    A batch file holds one CFQ per line in the {!Cfq_core.Parser} syntax;
    blank lines and [#] comments are skipped.  All queries are submitted to
    the service (concurrently, up to the pool width) and reported in file
    order. *)

type item = {
  line : int;  (** 1-based line number in the file *)
  text : string;  (** query text as written *)
  outcome : (Service.answer, Service.error) result;
}

(** [load path] reads the query texts (with line numbers); [Error] on I/O
    problems. *)
val load : string -> ((int * string) list, string) result

(** [run_file service ?deadline path] is [load] + [run] + rendering,
    returning the report plus the service metrics table, or an error
    message. *)
val run_file : Service.t -> ?deadline:float -> string -> (string, string) result
