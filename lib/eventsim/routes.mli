(** Unicast next-hop forwarding tables (demand-driven).

    Each domain in the paper runs a link-state unicast routing protocol
    alongside the multicast protocol (§II.D); this module is its
    steady-state result — the converged next-hop tables — computed from
    shortest-delay paths. All hop-by-hop and tunnelled unicast traffic
    in the simulator forwards through these tables.

    The tables are lazy: a source's shortest-path tree is computed on
    the first [path]/[next_hop]/[distance] query against it and
    memoized. Faults invalidate incrementally via {!note_edge_down} /
    {!note_edge_up} — keyed by dense edge id, only entries whose
    answers the fault can change are dropped — so every query observes
    exactly the answers an eager full recompute over the surviving
    subgraph would give (tested differentially in
    test_routing_cache.ml). Dropped SPTs are recycled into an internal
    {!Netgraph.Dijkstra.workspace}, so recomputation under churn
    reuses scratch arrays instead of reallocating.

    The notices also keep the cache's own fault view, a masked CSR
    view ({!Netgraph.Dijkstra.masked}) made at the first
    {!note_edge_down}: every fill the cache builds runs over it, so a
    search never calls a liveness predicate.

    {b Ownership.} After {!share}, a fill made while no link is down
    borrows the shared {!Netgraph.Apsp} table's delay SPT instead of
    building its own, so a clean overlay costs one delay SPT per source
    for the unicast routes and the m-router together. Borrowed SPTs
    are owned by the table and are never recycled by this cache: a
    fault drops them from the cache and leaves them intact in the
    table. Only SPTs the cache built itself (fills under a live fault,
    or every fill without {!share}) are recycled. *)

type t

val compute : Netgraph.Graph.t -> t
(** An empty cache over [g]; no Dijkstra runs until the first query.
    Fills run over [g] minus the links noticed down
    ({!note_edge_down}) and not since noticed up ({!note_edge_up}).
    Ties resolve deterministically (Dijkstra's fixed relaxation
    order), exactly as over a fresh copy of the surviving subgraph. *)

val share : t -> Netgraph.Apsp.t -> unit
(** [share t table] makes every later fill made while no link is down
    take {!Netgraph.Apsp.sl_tree}[ table s]
    instead of running Dijkstra. [table] must be an unfiltered table
    over the same graph, whose delay SPTs are then byte-identical to
    the ones this cache would build. Fills under a live fault still
    build and own their SPTs. Edge registration and invalidation are
    unchanged, so answers are too. A later call replaces the table for
    later fills.
    @raise Invalid_argument if [table] is over another graph. *)

val next_hop : t -> src:Netgraph.Graph.node -> dst:Netgraph.Graph.node -> Netgraph.Graph.node option
(** The neighbour to forward to; [None] if [dst] is unreachable.
    [next_hop ~src ~dst:src] is [None]. Walks the predecessor chain from
    [dst] instead of building the path: the only allocation is the
    option. *)

val next_hop_ix : t -> src:Netgraph.Graph.node -> dst:Netgraph.Graph.node -> int
(** {!next_hop} without the option: the neighbour, or -1 where
    {!next_hop} gives [None]. Allocates nothing. *)

val distance : t -> src:Netgraph.Graph.node -> dst:Netgraph.Graph.node -> float
(** Converged shortest-delay distance ([infinity] if unreachable). *)

val path : t -> src:Netgraph.Graph.node -> dst:Netgraph.Graph.node -> Netgraph.Path.t option
(** The concrete forwarding path [src; ...; dst]. *)

val spt : t -> src:Netgraph.Graph.node -> Netgraph.Dijkstra.result
(** The shortest-delay tree rooted at [src] (the structure MOSPF
    routers derive their per-source forwarding from); forces the
    source if uncached. The result is only valid until the next
    invalidation notice — dropped SPTs are recycled, so do not retain
    it across faults. (A borrowed SPT is never recycled, but callers
    cannot tell which kind they hold; the rule is the same.) *)

val note_edge_down : t -> Netgraph.Graph.edge -> unit
(** The edge just died (its link or an end): later fills route
    around it, and exactly the cached SPTs whose tree uses it are
    dropped (tracked per edge id, so untouched sources pay nothing; the
    first notice builds that map from the SPTs cached then, and later
    fills register as they are made). Entries kept are provably
    identical to a recompute.
    Noticing an edge already down again is harmless. *)

val note_edge_up : t -> Netgraph.Graph.edge -> unit
(** The edge just revived — its link and both ends are up: later
    fills may use it again, and the cached SPTs the edge could now
    shorten (or tie — ties can flip predecessor choices), judged from
    the cached distances of its endpoints, are dropped. *)

val cached : (* lint: allow unused-export: introspection counter, sources memoized now *)
  t -> int
(** Number of sources currently memoized. *)

val computed : t -> int
(** Lifetime count of cache fills, built or borrowed
    ([routes/spt_computed]). *)

val shared : t -> int
(** Lifetime count of the fills served from the {!share}d table
    ([routes/spt_shared]); at most {!computed}. *)

val invalidated : t -> int
(** Lifetime count of cached SPTs dropped ([routes/invalidated]). *)
