(** Declarative scenario sweeps with parallel execution and a
    deterministic merge.

    A sweep is a grid — drivers x topologies x group sizes x seeds —
    whose cells each run one {!Protocols.Runner} scenario. Cells
    execute on a {!Pool} in any interleaving, but the merged report is
    byte-identical (serialized with [~wallclock:false]) for every jobs
    count, because:

    - each cell is isolated: it builds its own scenario and
      {!Obs.Report}, and samples members from a private PRNG stream
      derived by [Prng.split] from the master seed in {e cell-index}
      order — never scheduling order. Cells that share a (topology,
      seed) pair on one worker may share its spec, simulated graph,
      APSP tables and rule-1 centre ({!generate_topo}); all of these are
      pure functions of the pair, so sharing changes no result;
    - drivers are resolved before dispatch, so workers never touch the
      registry;
    - per-cell reports are folded into the sweep report in cell-index
      order with {!Obs.Report.merge} (commutative metric combine).

    Wall-clock facts of one particular execution — jobs, wall seconds,
    cells/s, speedup estimate, per-cell wall-time histogram — are
    published as wallclock-flagged [sweep/] metrics, present in the
    full report but excluded from the deterministic serialization.

    Every cell additionally publishes its headline results under its
    own unique [cell/<name>/...] keys (deliveries, overheads, max
    delay, delivery ratio, drops), so the merged report carries
    per-cell rows that downstream diff tooling (the [scmp_sim ab] gate)
    can compare metric-by-metric. *)

type topo =
  | Waxman of int  (** [waxman:N] — Waxman graph, N nodes. *)
  | Random3 of int  (** [random3:N] — flat random, average degree 3. *)
  | Random5 of int  (** [random5:N] — flat random, average degree 5. *)
  | Arpanet  (** The 48-node ARPANET map. *)

val topo_to_string : topo -> string
val topo_of_string : string -> (topo, string) result
(** Inverse of {!topo_to_string}: ["waxman:100"], ["random3:50"],
    ["random5:50"], ["arpanet"]. *)

val generate_topo : topo -> int -> Topology.Spec.t
(** Instantiate a topology cell from a seed — shared with the chaos
    campaign engine ({!Chaos}), which replays trials from (topo, seed)
    pairs. Memoized per domain on (topo, seed) in a few weak slots:
    while a caller still holds the spec of a pair, asking for the pair
    again returns physically that spec (with the simulated graph,
    APSP tables and rule-1 centre already derived from it); once no
    caller holds it, it is regenerated, equal field for field. *)

type random_failures = {
  rf_seed : int;
      (** Combined with each cell's topology seed, so every driver
          sharing a (topo, seed) cell faces the identical fault draw. *)
  rf_count : int;
  rf_restore_after : float option;
}

type churn_spec = {
  cs_interarrival : float;  (** Mean seconds between churn arrivals. *)
  cs_holding : float;  (** Mean membership holding time, seconds. *)
  cs_seed : int option;  (** Default: per-cell, [cell.seed + 31]. *)
}

val perturb :
  ?loss:float * int ->
  ?loss_class:Eventsim.Netsim.pkt_class ->
  ?faults:Eventsim.Faults.spec list ->
  ?random_link_failures:random_failures ->
  ?churn:churn_spec ->
  seed:int ->
  Protocols.Runner.scenario ->
  Protocols.Runner.scenario
(** Install a perturbation program on a built scenario — the one path
    from sweep cells and [scmp_sim run] alike. [loss], [loss_class] and
    [faults] are set as given; random link failures are drawn from
    [rf_seed] as given (a sweep cell first adds its topology seed) over
    the data window [data_start, {!Protocols.Runner.data_end}] and
    appended to [faults]; churn runs until the window's end, seeded by
    [cs_seed] or else [seed + 31], [seed] being the topology seed. *)

type spec = {
  drivers : string list;  (** Driver names, e.g. ["scmp"]. *)
  topos : topo list;
  group_sizes : int list;
  seeds : int list;  (** Topology seeds — one cell per seed. *)
  packets : int;  (** Data packets per cell. *)
  master_seed : int;  (** Root of the per-cell member-sampling streams. *)
  loss : (float * int) option;  (** Seeded Bernoulli loss, every cell. *)
  loss_class : Eventsim.Netsim.pkt_class option;
  faults : Eventsim.Faults.spec list;
      (** Scripted fault program, installed identically in every cell. *)
  random_link_failures : random_failures option;
      (** Per-cell randomized failures drawn over each cell's data
          window. *)
  churn : churn_spec option;
      (** Background membership churn over each cell's data window. *)
}

val make :
  ?packets:int ->
  ?master_seed:int ->
  ?loss:float * int ->
  ?loss_class:Eventsim.Netsim.pkt_class ->
  ?faults:Eventsim.Faults.spec list ->
  ?random_link_failures:random_failures ->
  ?churn:churn_spec ->
  drivers:string list ->
  topos:topo list ->
  group_sizes:int list ->
  seeds:int list ->
  unit ->
  spec
(** Defaults: 30 packets (the paper's 30 s at 1/s), master seed 1, no
    perturbations. *)

type cell = {
  index : int;  (** Position in row-major grid order. *)
  driver : string;
  topo : topo;
  group_size : int;
  seed : int;
}

val cell_name : cell -> string
(** E.g. ["scmp/waxman:100/k16/s3"] — also the cell report's name. *)

val cells : spec -> cell list
(** The grid in row-major order (drivers outermost, seeds innermost) —
    a pure function of the spec. *)

type cell_result = {
  cell : cell;
  result : Protocols.Runner.result;
  report : Obs.Report.t;  (** The cell's own full report. *)
  wall_s : float;  (** Wall-clock seconds this cell took. *)
}

val run_cell :
  ?check:bool ->
  spec ->
  Protocols.Driver.t ->
  cell ->
  Scmp_util.Prng.t ->
  cell_result
(** One cell as {!run} executes it on a worker: the cell's topology
    ({!generate_topo}), a scenario drawn from the given stream,
    the sweep's perturbations, one run into a fresh report that also
    carries the cell's [cell/<name>/...] rows. *)

type outcome = {
  report : Obs.Report.t;  (** Merged sweep report. *)
  cell_results : cell_result list;  (** In cell-index order. *)
  wall_s : float;
  seq_estimate_s : float;
      (** Sum of per-cell wall times — what one worker would have paid;
          [seq_estimate_s /. wall_s] is the observed speedup. *)
  jobs_used : int;
}

val run : ?check:bool -> ?jobs:int -> spec -> (outcome, string) result
(** Execute every cell on a fresh pool of [jobs] workers (default
    {!Pool.default_jobs}) and merge. [~check] runs the protocol
    invariant verifier inside each cell. Errors: unknown driver, bad
    grid, or the lowest-indexed failing cell (by name) with its
    exception. *)
