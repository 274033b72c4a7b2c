(** A fixed pool of OCaml 5 domains draining a bounded work queue, plus a
    work-sharing primitive ({!fan_out}) for intra-query parallel regions.

    Jobs are closures; submitting returns a promise that [await] blocks on.
    The queue is bounded: when [queue_capacity] jobs are already waiting,
    {!submit} refuses instead of queueing unboundedly (admission control for
    the serving layer).

    Exceptions raised by a job are captured and re-raised by [await] in the
    caller, so a crashing query never takes a worker domain down. *)

type t

type 'a promise

(** [create ~domains ~queue_capacity ()] spawns [domains] worker domains
    (at least 1; default [Domain.recommended_domain_count () - 1], at least
    1) with a queue of at most [queue_capacity] waiting jobs (default
    1024). *)
val create : ?domains:int -> ?queue_capacity:int -> unit -> t

(** Jobs currently waiting (excludes running ones). *)
val queue_depth : t -> int

(** The pool has been shut down. *)
val is_stopped : t -> bool

(** [submit t job] enqueues [job]; [None] when the queue is full.
    Submitting to a shut-down pool raises
    [Cfq_error.Error Cfq_error.Overload] — callers that outlive the pool
    get a typed error, not a silent drop. *)
val submit : t -> (unit -> 'a) -> 'a promise option

(** [run t job] is [submit] that falls back to running [job] in the calling
    domain when the queue is full or the pool is shut down, so it always
    yields a result.  [on_fallback] is invoked (before [job]) exactly when
    the fallback path is taken, letting callers count in-caller
    executions. *)
val run : ?on_fallback:(unit -> unit) -> t -> (unit -> 'a) -> 'a

(** [await p] blocks until the job finishes, returning its result or
    re-raising its exception. *)
val await : 'a promise -> 'a

(** Drain nothing further: running jobs finish, queued jobs are still
    executed, then the workers exit and are joined.  Calling [shutdown] a
    second time is a no-op. *)
val shutdown : t -> unit

(** [fan_out ?pool ~domains ~n_tasks ~init ~work ()] runs tasks
    [0 .. n_tasks-1] across up to [domains] participants sharing an atomic
    task counter: each participant builds a private accumulator with [init]
    and repeatedly grabs the next unclaimed index, calling [work acc i].
    Returns the accumulators of every participant that ran (caller's first).

    The calling domain always participates.  The [domains - 1] helpers are
    either fresh domains ([pool] absent) or jobs {e borrowed} from [pool] —
    the nested case where the caller itself already runs on a pool worker
    and must not oversubscribe the machine.  A borrowed helper that no idle
    worker picks up before the region ends is withdrawn unrun, so a busy
    pool degrades smoothly towards the caller doing all the work; a full or
    shut-down pool likewise just means fewer participants, never an error.

    Participants are capped at [n_tasks]: a region never stands up a
    helper that could only find the counter drained.  With [domains <= 1],
    [n_tasks <= 1] or [n_tasks = 0] nothing is spawned or borrowed and the
    caller runs every task in index order — bit-for-bit the sequential
    path.

    If any participant raises, the region is poisoned (others stop grabbing
    tasks after their current one), all helpers are joined, and the first
    recorded exception is re-raised in the caller.  Task execution order and
    the task→participant assignment are nondeterministic, so [work] must
    only touch its own accumulator and immutable shared state; determinism
    of the combined result is the merger's job. *)
val fan_out :
  ?pool:t ->
  domains:int ->
  n_tasks:int ->
  init:(unit -> 'acc) ->
  work:('acc -> int -> unit) ->
  unit ->
  'acc list
