(** All-pairs shortest paths under both metrics.

    The m-router "possesses all the information on the network" (§I) and
    the DCDM join step consults, for every on-tree router, both the
    least-cost path [P_lc] and the shortest-delay path [P_sl] to the
    joining node, "computed in advance" (§III.D). This module is that
    precomputation, realized lazily: one Dijkstra per (source, metric)
    on first query, memoized — consumers that touch few sources (DCDM
    asks only about on-tree routers) never pay for the rest.

    For a path chosen under one metric, the {e other} metric along the
    same concrete node sequence is exposed too (e.g. the delay of the
    least-cost path), which is what the DCDM feasibility test needs.

    {b Ownership.} A memoized SPT is owned by its table for the table's
    lifetime: the table never recycles or rewrites it. Other caches may
    hold on to it — [Eventsim.Routes.share] lends an unfiltered
    table's delay SPTs to the unicast routes cache — but must not pass
    it to {!Dijkstra.recycle}, because a recycled result's arrays are
    overwritten by the next run in that workspace. *)

type t

val compute :
  ?node_ok:(Graph.node -> bool) ->
  ?edge_ok:(Graph.edge -> bool) ->
  Graph.t ->
  t
(** O(1): no Dijkstra runs until the first query; each queried source
    costs O(m + n log n) per metric, once. The optional filters (see
    {!Dijkstra.run}) make the table answer over a fault overlay
    without copying the surviving subgraph; they are consulted at
    SPT-build time, so create a fresh table whenever the overlay
    changes — memoized entries are never re-checked. A filter that
    accepts every edge and node gives answers byte-identical to no
    filter, so a caller whose overlay is clean may keep using its
    unfiltered table instead. *)

val graph : t -> Graph.t

val delay : t -> Graph.node -> Graph.node -> float
(** Shortest-path delay (the paper's {e unicast delay} between the two
    nodes); [infinity] if disconnected; [0.] on the diagonal. *)

val cost : t -> Graph.node -> Graph.node -> float
(** Least-cost-path cost. *)

val sl_path : t -> Graph.node -> Graph.node -> Path.t option
(** Shortest-delay path [P_sl] from the first to the second node. *)

val lc_path : t -> Graph.node -> Graph.node -> Path.t option
(** Least-cost path [P_lc]. *)

val delay_of_lc : t -> Graph.node -> Graph.node -> float
(** Delay accumulated along [P_lc]; [infinity] if disconnected. O(1)
    after the source's least-cost SPT is memoized — Dijkstra tracks the
    companion metric in lockstep with the predecessor chain. *)

val cost_of_sl : t -> Graph.node -> Graph.node -> float
(** Cost accumulated along [P_sl]. O(1), same mechanism. *)

val sl_tree : t -> Graph.node -> Dijkstra.result
(** The memoized shortest-delay SPT of one source — scalar access to
    every [P_sl(source, -)] at once ({!Dijkstra.dist},
    {!Dijkstra.other_dist}, the raw {!Dijkstra.dists} views), for consumers
    like the DCDM join loop that prefilter many destinations before
    materializing any path. *)

val lc_tree : t -> Graph.node -> Dijkstra.result
(** The memoized least-cost SPT of one source. *)

val diameter : t -> float
(** Largest finite inter-node delay (the graph "diameter" used by
    m-router placement rule 3). *)

val mean_delay_from : t -> Graph.node -> float
(** Mean unicast delay from one node to all others (placement rule 1);
    [0.] on a one-node graph. Unreachable pairs are excluded. Reads a
    memoized SPT when there is one, but does not memoize the SPT it
    runs: a scan over every source leaves the table as it found it. *)
