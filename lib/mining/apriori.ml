open Cfq_constr

type outcome = {
  frequent : Frequent.t;
  counters : Counters.t;
  stats : Level_stats.t;
}

let mine db info io ?max_level ?par ?session ~minsup () =
  let state = Cap.create db info ?max_level ~minsup (Bundle.unconstrained info) in
  let frequent = Cap.run ?par ?session state io in
  { frequent; counters = Cap.counters state; stats = Cap.stats state }
