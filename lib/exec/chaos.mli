(** Seeded chaos campaigns: randomized fault programs — link flaps,
    node crashes, partitions, m-router kills, background loss — run
    through {!Protocols.Runner} with the invariant verifier on.

    A campaign is drivers x topologies x [trials] independent trials.
    Every stochastic choice a trial makes (topology seed, member
    sample, fault program) is drawn at planning time from a per-trial
    PRNG stream split off the master seed in trial-index order, so a
    trial is plain replayable data: same spec => same plan => same
    results, for any jobs count. Per-trial reports merge in
    trial-index order; serialized with [~wallclock:false] the campaign
    report is byte-identical across parallelism levels.

    An invariant trip does not abort the campaign — it is the point of
    the exercise. Each tripped trial's fault program is shrunk by
    greedy delta-debugging (sequentially, after the pool has drained)
    to a 1-minimal failing schedule: removing any single remaining
    fault unit makes the violation disappear. *)

type spec = {
  drivers : string list;  (** Driver names, e.g. ["scmp"]. *)
  topos : Sweep.topo list;
  trials : int;  (** Trials per driver x topology. *)
  packets : int;  (** Data packets per trial. *)
  group_size : int;  (** Members sampled per trial. *)
  seed : int;  (** Master seed of the campaign. *)
}

val make :
  ?packets:int ->
  ?group_size:int ->
  ?seed:int ->
  drivers:string list ->
  topos:Sweep.topo list ->
  trials:int ->
  unit ->
  spec
(** Defaults: 12 packets, 8 members, seed 1. *)

type fault_unit = { label : string; events : Eventsim.Faults.spec list }
(** One logical fault with its recovery (e.g. a crash paired with its
    revive) — the granularity at which shrinking drops faults. *)

type trial = {
  index : int;  (** Position in plan order. *)
  driver : string;
  topo : Sweep.topo;
  tseed : int;  (** The trial's topology seed. *)
  center : int;
  source : int;
  members : int list;
  program : fault_unit list;
  loss : Eventsim.Netsim.loss option;  (** Background loss, both classes. *)
}

val trial_name : trial -> string
(** E.g. ["chaos/scmp/waxman:40/t3"] — also the trial report's name. *)

val plan : spec -> trial list
(** The full campaign in trial-index order — a pure function of the
    spec. @raise Invalid_argument when a trial cannot sample members. *)

val program_to_string : fault_unit list -> string
(** Human-readable schedule, e.g.
    ["partition [partition {3,7}@5.10, heal {3,7}@6.82]; crash-4 [...]"]. *)

type status = Passed of Protocols.Runner.result | Tripped of string

type trial_result = {
  trial : trial;
  status : status;
  report : Obs.Report.t;
  wall_s : float;
}

val run_trial : packets:int -> Protocols.Driver.t -> trial -> trial_result
(** Replay one descriptor in isolation (its own scenario and report;
    the topology from {!Sweep.generate_topo}, shared with other replays
    of the same (topo, seed) on this domain) with [~check:true];
    {!Tripped} carries the violation. *)

type violation = {
  v_trial : trial;
  message : string;  (** The original violation. *)
  minimal : fault_unit list;  (** 1-minimal failing sub-program. *)
  minimal_message : string;  (** The violation the minimum trips. *)
}

type outcome = {
  report : Obs.Report.t;
      (** Merged campaign report: per-trial metrics plus
          [chaos/trials], [chaos/violations], [chaos/fault_events],
          blackout percentiles ([chaos/blackout_p50_s] etc., when any
          trial recorded blackouts) and delivery-ratio aggregates. *)
  results : trial_result list;  (** In trial-index order. *)
  violations : violation list;  (** Tripped trials, shrunk. *)
  blackouts : float list;  (** All blackout samples of passing trials. *)
  wall_s : float;
  jobs_used : int;
}

val run : ?jobs:int -> spec -> (outcome, string) result
(** Execute the campaign with {!Batch.run} on [jobs] workers, then
    shrink the tripped trials. Errors: bad spec, or {!Batch.run}'s — an
    unexpected (non-invariant) exception is [trial <name>: ...]. *)
