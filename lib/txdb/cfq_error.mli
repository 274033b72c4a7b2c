(** The typed error taxonomy of the serving stack.

    Every fault the system can surface — from the transaction store up
    through query execution to admission control — is one of these
    constructors, so layers above can react per class (retry a
    [Transient_io], never retry a [Corrupt_page], shed on [Overload])
    instead of pattern-matching on [Failure] strings.

    The store and the execution engine signal faults by raising {!Error};
    the service layer catches it and converts to result types at the API
    boundary. *)

type t =
  | Transient_io of { page : int }
      (** A page read failed but retrying may succeed (injected or real
          I/O hiccup).  The only retryable class. *)
  | Corrupt_page of { page : int }
      (** A page's checksum did not match its contents.  Permanent for
          the life of the corruption; retrying cannot help. *)
  | Deadline  (** The query missed its wall-clock deadline. *)
  | Overload
      (** Admission refused: the pool is shut down or the circuit
          breaker is shedding load. *)
  | Query_crash of string
      (** The query raised an unexpected exception; the payload is the
          printed exception. *)
  | No_live_source
      (** An ingest or a seal reached a service with no live ingestion
          source attached.  A usage error: retrying cannot help. *)

exception Error of t

(** [raise_error e] raises [Error e]. *)
val raise_error : t -> 'a

(** [true] only for {!Transient_io}: the caller may retry. *)
val is_transient : t -> bool

val to_string : t -> string
