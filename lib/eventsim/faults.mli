(** Scheduled fault injection over a {!Netsim} simulation.

    A fault schedule is a list of (time, event) pairs — scripted by the
    caller, parsed from CLI syntax, or drawn from a seeded PRNG — that
    {!install} turns into engine events. Each event applies the
    corresponding {!Netsim} topology mutation when its instant arrives:
    routes reconverge, in-flight packets over the failing element die,
    and protocol agents observe the change through
    {!Netsim.on_topology_change}.

    Events are scheduled in the foreground: a pending failure keeps
    {!Engine.run} alive, so a schedule reaching past the last protocol
    event still executes fully. *)

type event =
  | Link_down of Netgraph.Graph.node * Netgraph.Graph.node
  | Link_up of Netgraph.Graph.node * Netgraph.Graph.node
  | Node_down of Netgraph.Graph.node
  | Node_up of Netgraph.Graph.node
  | Partition of Netgraph.Graph.node list
      (** Atomically fail the cut-set of the bipartition ([side] vs the
          rest): every base-graph link with exactly one endpoint in the
          list dies in a single {!Netsim.fail_links} batch — in-flight
          packets across the cut are killed and
          {!Netsim.on_topology_change} fires once for the whole cut. *)
  | Heal of Netgraph.Graph.node list
      (** Atomically restore the same cut-set (one
          {!Netsim.restore_links} batch, one reconvergence). Links of
          the cut that failed independently are revived too. *)

type spec = { at : float; event : event }

type t
(** Counters of events applied so far (a fault targeting an
    already-dead element still counts as applied; the netsim layer
    makes it a no-op). *)

val install : 'm Netsim.t -> spec list -> t
(** Schedule every event on the simulation's engine. Call before
    {!Engine.run} (scheduling in the past raises in the engine).
    @raise Invalid_argument on a negative event time. *)

val applied : (* lint: allow unused-export: introspection counter, fault events applied *)
  t -> int
(** Total events applied so far. *)

val random_link_failures :
  seed:int ->
  count:int ->
  t0:float ->
  t1:float ->
  ?restore_after:float ->
  Netgraph.Graph.t ->
  spec list
(** [count] distinct links drawn uniformly from the graph, each failing
    at a uniform instant in [\[t0, t1)]; with [~restore_after:d] each
    failure is paired with a restore [d] later. Deterministic in
    [seed]. [count] is clamped to the number of links.
    @raise Invalid_argument if [t1 < t0] or [count < 0]. *)

val random_partitions :
  seed:int ->
  count:int ->
  t0:float ->
  t1:float ->
  ?heal_after:float ->
  Netgraph.Graph.t ->
  spec list
(** [count] random bipartitions, each isolating a uniformly drawn side
    of 1..n/2 nodes at a uniform instant in [\[t0, t1)]; with
    [~heal_after:d] every partition is paired with the matching heal
    [d] later. Deterministic in [seed].
    @raise Invalid_argument if [t1 < t0], [count < 0] or the graph has
    fewer than two nodes. *)

val parse_link_failure : string -> (spec list, string) result
(** Parse the CLI syntax [A-B\@TIME] or [A-B\@TIME:restore\@TIME'] into
    one or two events. *)

val parse_node_failure : string -> (spec list, string) result
(** Parse [NODE\@TIME] or [NODE\@TIME:restore\@TIME']. *)

val parse_partition : string -> (spec list, string) result
(** Parse [A,B,C\@TIME] or [A,B,C\@TIME:heal\@TIME'] into a partition
    event (side = the listed nodes) and optionally its heal. *)

val event_to_string : event -> string

val observe : t -> Obs.Metrics.t -> unit
(** Publish [faults/link_down], [faults/link_up], [faults/node_down],
    [faults/node_up], [faults/partition], [faults/heal]. Idempotent. *)
