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

type loss = {
  rate : float;  (** Bernoulli drop probability per link crossing, in [\[0, 1)]. *)
  seed : int;
  only : Eventsim.Netsim.pkt_class option;
      (** Restrict loss to one class; [None] drops both. *)
}

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

type perturbation = {
  loss : loss option;
  link_failures : string list;
      (** Fault lines as written, in the CLI syntax
          [A-B\@T\[:restore\@T'\]]. *)
  node_failures : string list;  (** [N\@T\[:restore\@T'\]]. *)
  partitions : string list;  (** [a,b,c\@T\[:heal\@T'\]]. *)
  random_link_failures : random_failures option;
  churn : churn_spec option;
}
(** One perturbation program — what [scmp_sim run]'s flags, a
    manifest's perturbation fields and a sweep spec all carry. Error
    messages name a part by its manifest field ([loss.rate],
    [link_failures], ...). *)

val no_perturbation : perturbation

val validate_perturbation : perturbation -> (unit, string) result
(** The checks that need no topology: [loss.rate] in [\[0, 1)] and not
    NaN, [random_link_failures.count >= 1], a positive finite
    [restore_after], positive finite churn means, and every fault line
    parsed with finite, non-negative event times. The error names the
    field and the offending value. *)

val perturb :
  perturbation ->
  seed:int ->
  Protocols.Runner.scenario ->
  (Protocols.Runner.scenario, string) result
(** Install a perturbation program on a built scenario — the one path
    from sweep cells and [scmp_sim run] alike, and the one place fault
    lines are lowered to {!Eventsim.Faults.spec}s. It runs
    {!validate_perturbation}, then checks the fault lines against the
    scenario's graph: node ids in range, link endpoints adjacent, and a
    partition side that leaves at least one node out. Scripted faults
    come in program order (links, nodes, partitions); random link
    failures are drawn from [rf_seed] as given (a sweep cell first adds
    its topology seed) over the data window
    [\[data_start, {!Protocols.Runner.data_end}\]] and appended; churn
    runs until the window's end, seeded by [cs_seed] or else
    [seed + 31], [seed] being the topology seed. *)

type spec = {
  drivers : string list;  (** Driver names, e.g. ["scmp"]. *)
  topos : topo list;
  group_sizes : int list;
  seeds : int list;  (** Topology seeds — one cell per seed. *)
  packets : int;  (** Data packets per cell. *)
  master_seed : int;  (** Root of the per-cell member-sampling streams. *)
  perturbation : perturbation;
      (** Installed in every cell; random link failures are drawn over
          each cell's own data window. *)
}

val make :
  ?packets:int ->
  ?master_seed:int ->
  ?perturbation:perturbation ->
  drivers:string list ->
  topos:topo list ->
  group_sizes:int list ->
  seeds:int list ->
  unit ->
  spec
(** Defaults: 30 packets (the paper's 30 s at 1/s), master seed 1,
    {!no_perturbation}. *)

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
  (cell_result, string) result
(** One cell as {!run} executes it on a worker: the cell's topology
    ({!generate_topo}), a scenario drawn from the given stream,
    the sweep's perturbation, one run into a fresh report that also
    carries the cell's [cell/<name>/...] rows. A draw with no member
    left or a perturbation the cell's graph rejects is an [Error]. *)

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
    grid, a perturbation {!validate_perturbation} rejects, or the
    lowest-indexed failing cell (by name) with its error. *)
