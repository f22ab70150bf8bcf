(** Network-wide experiment runner (the §IV.B methodology).

    One run = one topology, one group, one source "sending one
    multicast packet per second", 30 seconds of traffic, metrics:

    - {e data overhead}: link-cost units consumed by data packets;
    - {e protocol overhead}: link-cost units consumed by protocol
      packets;
    - {e maximum end-to-end delay}: worst source-to-member delivery
      delay (seconds).

    Members join before traffic starts (staggered so control flows do
    not collide), exactly as tree-building precedes measurement in the
    paper. Correctness counters (duplicates, spurious and missed
    deliveries) come along for the tests.

    Protocols are selected through {!Driver}: any of its six built-in
    drivers runs here. *)

type churn = {
  mean_interarrival : float;  (** mean seconds between churn arrivals *)
  mean_holding : float;  (** mean membership holding time, seconds *)
  horizon : float;  (** last sim instant a churn arrival may occur *)
  churn_seed : int;  (** seed of the churn process's private stream *)
}
(** Seeded Poisson join/leave churn ({!Churn}) riding alongside the
    scripted membership: arrivals draw from the routers that are not
    the center, the source or a scripted member. *)

type scenario = {
  spec : Topology.Spec.t;
  center : Message.node;  (** m-router (SCMP) / core (CBT) / RP (PIM-SM); unused by the SPT protocols. *)
  source : Message.node;
  members : Message.node list;
  data_start : float;
      (** First data packet: 3 s after the last staggered join. *)
  data_interval : float;
  data_count : int;
  leavers : (float * Message.node) list;
      (** Optional mid-run departures (time, member); departed members
          are dropped from subsequent packets' expected sets. *)
  trace_path : string option;
      (** When set, every link crossing of the run is written to this
          file as an NS-2-style trace (see {!Eventsim.Trace}). *)
  trace_limit : int option;
      (** Ring-buffer bound for the trace (newest lines kept); the
          report records how many lines were evicted. *)
  loss : Eventsim.Netsim.loss option;
      (** Seeded random packet loss installed on the network before the
          run ({!Eventsim.Netsim.set_loss}); its [only] class
          ([`Control] exercises the reliable control plane while data
          delivery stays exact). *)
  faults : Eventsim.Faults.spec list;
      (** Scheduled link/node failures and restores, installed before
          the run ({!Eventsim.Faults.install}). *)
  churn : churn option;
      (** Seeded background churn; a churn run counts as perturbed
          (packet conservation is not enforced). *)
}

val make :
  ?data_interval:float ->
  ?data_count:int ->
  spec:Topology.Spec.t ->
  center:Message.node ->
  source:Message.node ->
  members:Message.node list ->
  unit ->
  scenario
(** The paper's set-up, fixed: members join from t=0.1 spaced 0.5 s;
    [data_count] packets (default 30) every [data_interval] (default
    1 s) from 3 s after the last join; delays from
    {!Topology.Spec.sim_graph}, which is built once per spec, so every
    scenario and run on one spec simulates one graph and shares its
    m-router APSP table. Leavers, trace, loss, faults and churn start
    unset, and callers set them with a record update. Protocol variants are driver values ({!Driver}),
    not scenario fields. *)

val data_end : scenario -> float
(** [data_start +. data_interval *. data_count]: the end of the data
    window, which anchors randomized faults and the churn horizon. *)

type result = {
  data_overhead : float;
  protocol_overhead : float;
  max_delay : float;
  mean_delay : float;
  data_transmissions : int;
  control_transmissions : int;
  deliveries : int;
  duplicates : int;
  spurious : int;
  missed : int;
  packets_sent : int;
  dropped : int;
      (** Packets the network killed, all reasons (loss, dead links,
          dead nodes, unroutable unicasts). *)
  delivery_ratio : float;
      (** deliveries / expected (1.0 when nothing was expected). Equals
          1.0 on an unperturbed run; the fault-tolerance acceptance bar
          is >= 0.95 under control-plane loss and tree repair. *)
  routes_epochs : int;
      (** Route reconvergences (effective fault events) during the run. *)
  spt_computed : int;
      (** Fills of the demand-driven unicast routing cache — one SPT
          each, built by the cache or (SCMP, clean overlay) borrowed
          from the m-router's APSP table; compare against
          nodes × (routes_epochs + 1), the eager recompute-everything
          cost it replaces. *)
  spt_invalidated : int;
      (** Cached SPTs dropped by incremental fault invalidation. *)
  blackouts : float list;
      (** Completed per-group blackout samples (sim seconds from a
          fault to the first post-repair delivery), oldest first;
          empty for drivers that do not measure availability. *)
}

val run : ?check:bool -> ?report:Obs.Report.t -> Driver.t -> scenario -> result
(** Deterministic: same driver + scenario => same result.

    With [~check:true] the run is instrumented with the protocol
    invariant verifier ({!Check.Invariant}): once after membership has
    converged (at [data_start], before the first packet) and once on
    the quiesced network after the run, every group's distributed state
    is verified — tree well-formedness, delay-bound compliance and
    entry/tree coherence for SCMP — and packet conservation is checked
    over the whole run for every protocol; the driver's own [verify]
    hook runs as well. Any failure raises {!Check.Invariant.Violation},
    after the trace is saved and the report finished, so a tripped run
    leaves the same evidence as a passing one.
    On a perturbed run ([loss] set or [faults] nonempty) the pre-data
    checkpoint and the packet-conservation check are skipped — loss and
    faults legitimately destroy packets and may fire before
    [data_start] — but the quiescent structural invariants (including
    the tree-live-links rule) and the driver verify still run.

    With [~report] the run publishes into the given {!Obs.Report}:
    run metadata, per-phase sim/wall timings ([phase/...]), engine and
    network counters ([engine/...], [net/...]), protocol metrics (e.g.
    [scmp/...]), delivery counters and a delay histogram
    ([delivery/...]), plus two sim-time series sampled at the data
    cadence ([delivery/cumulative], [net/transmissions]). Wall-clock
    metrics are flagged, so the report serialized with
    [~wallclock:false] is byte-identical across same-scenario runs. *)
