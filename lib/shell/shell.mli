(** An interactive session for exploratory mining.

    The paper's opening argument is that mining must stop being a black box
    and become an ad-hoc, human-centered dialogue (Section 1): the user
    states constraints, inspects what the optimizer would do, refines, and
    only then pays for computation.  This module is that dialogue loop,
    decoupled from the terminal so it can be tested: each input line
    produces a textual response and an updated session state.

    Commands ([help] prints the same list):

    {v
    load <tx.fimi> [<items.csv>]   attach a database (and itemInfo table)
    gen <n_tx> <n_items> [seed]    generate a synthetic Quest database
    set strategy <name>            a strategy of Cfq_core.Plan.all_strategies
    set minconf <float>            rule confidence threshold
    set <knob> <value>             a knob of Cfq_service.Service.knobs
    set                            list every setting's current value
    explain <query>                show the optimizer's plan, run nothing
    advise <query>                 probe the data, recommend a strategy
    run <query>                    execute and summarise
    pairs <n>                      show n answer pairs of the last run
    rules <query>                  two-phase run: rules with metrics
    serve <queries.txt>            run a batch file through the caching service
    cachestats                     service cache / queue / ccc metrics
    stats                          database statistics
    help | quit
    v} *)

type t

(** [create ()] starts a session with no database attached. *)
val create : ?ctx:Cfq_core.Exec.ctx -> unit -> t

type response = {
  output : string;
  quit : bool;
}

(** [eval t line] interprets one input line.  Never raises: errors become
    [output] text. *)
val eval : t -> string -> response
