(** The one batch executor under {!Sweep.run} and {!Chaos.run}.

    A batch is a list of items (sweep cells, chaos trials), each run by
    one protocol driver into its own {!Obs.Report}. Drivers are resolved
    before dispatch, so workers never touch the registry; item reports
    merge in item order, so the batch report serialized with
    [~wallclock:false] is byte-identical for every jobs count. *)

type 'r t = {
  results : 'r list;  (** In item order. *)
  report : Obs.Report.t;
      (** Meta [kind], [drivers], [topologies] and the caller's [meta];
          the item reports merged in item order; the counter
          [<kind>/<item>s] and the wallclock gauges [<kind>/jobs] and
          [<kind>/wall_s]. The caller adds its own metrics. *)
  drivers : (string * Protocols.Driver.t) list;  (** As resolved. *)
  wall_s : float;
  jobs_used : int;
}

val run :
  ?jobs:int ->
  kind:string ->
  item:string ->
  name:('a -> string) ->
  driver:('a -> string) ->
  drivers:string list ->
  topologies:string list ->
  meta:(string * Obs.Json.t) list ->
  report:('r -> Obs.Report.t) ->
  ('a -> Protocols.Driver.t -> ('r, string) result) ->
  'a list ->
  ('r t, string) result
(** [run ... f items] runs [f x d] for every item [x], [d] being the
    driver named [driver x], on a fresh {!Pool} of [jobs] workers
    (default {!Pool.default_jobs}). Errors: [jobs < 1]
    (["<Kind>.run: jobs must be >= 1"]), an unknown driver, else the
    lowest-indexed item whose [f] raised [e], else the lowest-indexed
    one that returned [Error msg], as ["<item> <name x>: <e or msg>"]. *)
