(** All-pairs shortest paths under both metrics.

    The m-router "possesses all the information on the network" (§I) and
    the DCDM join step consults, for every on-tree router, both the
    least-cost path [P_lc] and the shortest-delay path [P_sl] to the
    joining node, "computed in advance" (§III.D). This module is that
    precomputation, realized lazily: one Dijkstra per (source, metric)
    on first query, memoized — consumers that touch few sources (DCDM
    asks only about on-tree routers) never pay for the rest.

    An unfiltered table runs every delay search (memoized, scratch or
    cut) over its own live delay CSR ({!Dijkstra.live}) rather than
    the whole graph: each search retires the links at its source that
    it proves lie on no shortest-delay path, so later delay searches
    relax fewer slots. The trees are byte-identical to full-graph runs.
    Cost searches and filtered tables always read the full graph.

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
    costs at most O(m + n log n) per metric, once (an unfiltered
    table's first delay search also copies the delay slots, O(m)). The optional filters (see
    {!Dijkstra.run}) make the table answer over a fault overlay
    without copying the surviving subgraph; they are consulted at
    SPT-build time, so create a fresh table whenever the overlay
    changes — memoized entries are never re-checked. A filter that
    accepts every edge and node gives answers byte-identical to no
    filter, so a caller whose overlay is clean may keep using its
    unfiltered table instead. *)

val graph : t -> Graph.t

val live : t -> Dijkstra.live option
(** The table's live delay CSR: [None] until an unfiltered table's
    first delay search, and always on a filtered table. For inspection
    ({!Dijkstra.live_edges}); searching with it is the table's job. *)

val delay : t -> Graph.node -> Graph.node -> float
(** Shortest-path delay (the paper's {e unicast delay} between the two
    nodes); [infinity] if disconnected; [0.] on the diagonal. *)

val cost : t -> Graph.node -> Graph.node -> float
(** Least-cost-path cost. *)

val sl_path : t -> Graph.node -> Graph.node -> Path.t option
(** Shortest-delay path [P_sl] from the first to the second node. *)

val lc_path : t -> Graph.node -> Graph.node -> Path.t option
(** Least-cost path [P_lc]. *)

val delay_of_lc : (* lint: allow unused-export: reference oracle, companion metric along P_lc *)
  t -> Graph.node -> Graph.node -> float
(** Delay accumulated along [P_lc]; [infinity] if disconnected. O(1)
    after the source's least-cost SPT is memoized — Dijkstra tracks the
    companion metric in lockstep with the predecessor chain. *)

val cost_of_sl : (* lint: allow unused-export: reference oracle, companion metric along P_sl *)
  t -> Graph.node -> Graph.node -> float
(** Cost accumulated along [P_sl]. O(1), same mechanism. *)

val sl_tree : t -> Graph.node -> Dijkstra.result
(** The memoized shortest-delay SPT of one source — scalar access to
    every [P_sl(source, -)] at once ({!Dijkstra.dist},
    {!Dijkstra.other_dist}, the raw {!Dijkstra.dists} views), for consumers
    like the DCDM join loop that prefilter many destinations before
    materializing any path. *)

val lc_tree : t -> Graph.node -> Dijkstra.result
(** The memoized least-cost SPT of one source. *)

val with_delay_spt : t -> Graph.node -> (Dijkstra.result -> 'a) -> 'a
(** [with_delay_spt t x f] applies [f] to [x]'s shortest-delay SPT: the
    memoized one when there is one, else a scratch SPT run in the
    table's workspace and recycled as soon as [f] returns. [f] must not
    keep the SPT or its raw arrays. A scan over every source through it
    leaves the table as it found it instead of holding n SPTs. *)

val diameter : t -> float
(** Largest finite inter-node delay (the graph "diameter" used by
    m-router placement rule 3). Scans every source through
    {!with_delay_spt}, so it memoizes nothing. *)

val mean_delay_from : t -> Graph.node -> float
(** Mean unicast delay from one node to all others (placement rule 1);
    [0.] on a one-node graph and on an isolated node. Unreachable pairs
    are excluded. Reads a memoized SPT when there is one, but does not
    memoize the SPT it runs ({!with_delay_spt}). *)

val min_mean_delay_node : t -> Graph.node
(** Placement rule 1: the node of least {!mean_delay_from}, the lowest
    index among equal means — exactly the node an index-order scan
    with a strict [<] over every {!mean_delay_from} picks, ties
    included, without running every search to the end.

    Candidates are visited in index order. Candidate [x], with [m] the
    size of its component minus one, can only win if its delay sum is
    below [best * m], [best] being the least mean so far. Its search
    settles nodes in nondecreasing distance; after [k] of them, summing
    to [S] with the last at distance [d], the sum is at least
    [S + (m - k) * d], and the search stops once that bound exceeds
    [best * m * (1 + 1e-9)] (see {!Dijkstra.run_bounded}). The slack
    covers the rounding between summing in settle order and in index
    order (about n * 2^-53), so a candidate that ties the best is never
    cut. A search that completes is scored exactly as
    {!mean_delay_from} scores it. A memoized SPT is read as it is, and
    a table with liveness filters scans every source in full: exact,
    only slower. Memoizes no SPT, but keeps the picked node in the
    table: every later call on the same table returns it at once.
    @raise Invalid_argument on a graph with no nodes. *)
