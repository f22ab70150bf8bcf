(** Single-source shortest paths (Dijkstra).

    The paper distinguishes for every node pair the shortest-{e delay}
    path [P_sl] and the least-{e cost} path [P_lc] (§III.A); both are
    instances of Dijkstra under a different link weight, selected by
    {!metric}.

    The search runs over the frozen CSR form of {!Graph.t}: the inner
    relaxation loop reads neighbor ids, edge ids and weights from
    contiguous arrays, and the frontier is the monotone radix heap
    ({!Scmp_util.Radix_heap}, the event engine's queue too) over int
    node ids; it pops equal keys in insertion order — the same tie
    rule as the general binary heap, so shortest-path trees (preds
    included) are byte-identical to the pre-CSR engine. An unfiltered
    delay search may read a {!live} delay CSR instead of the whole
    graph: fewer slots, the same tree. *)

type metric = Delay | Cost

val weight : Graph.t -> metric -> Graph.node -> Graph.node -> float
(** The selected link weight between two adjacent nodes.
    @raise Not_found if the nodes are not adjacent. *)

type result
(** Shortest-path tree from one source under one metric. *)

type workspace
(** Scratch arena recycled across SPT builds: the radix-heap frontier
    (its bucket storage kept from one search to the next),
    an epoch-stamped settled array, and a free pool of dead results
    whose arrays are reused instead of reallocated. One workspace
    serves one thread of computation (it is not domain-safe). *)

val create_workspace : unit -> workspace

val recycle : workspace -> result -> unit
(** Returns a dead result's arrays to the workspace pool. The result
    must not be used afterwards — the next {!run} with this workspace
    overwrites its arrays in place. Routes invalidation recycles each
    dropped SPT so steady-state recomputation allocates nothing. *)

type live
(** A {e live delay CSR}: a private, prunable copy of one graph's delay
    slots. Each node's slot range keeps its live slots first, in their
    original order, up to a per-node live end; a link behind the ends
    lies on no shortest-delay path. A delay search run over it reads
    only live slots, then retires every live link at its source whose
    delay exceeds the far end's label by more than {!live_slack}, at
    both ends, keeping the survivors' order. Its results are
    byte-identical to full-graph runs (dist, pred, pred_edge and
    other, ties included); only the work shrinks. Each {!Apsp} table
    over an unfiltered graph owns one. Not domain-safe. *)

val live : Graph.t -> live
(** A fresh live delay CSR with every link live. O(m). *)

val live_slack : (* lint: allow unused-export: introspection, the live CSR's retire slack *)
  live -> float
(** The absolute slack of the retire test: a few times the worst
    rounding of any path sum, about [n * 2^-53] times the sum of all
    link delays (at least [1e-9] times that sum). *)

val live_edges : (* lint: allow unused-export: introspection, a node's live links *)
  live -> Graph.node -> Graph.edge list
(** A node's live links, in slot order: a subsequence of its incident
    links in insertion order. A link is live at both ends or at
    neither.
    @raise Invalid_argument if the node is out of range. *)

val run :
  ?ws:workspace ->
  ?live:live ->
  ?node_ok:(Graph.node -> bool) ->
  ?edge_ok:(Graph.edge -> bool) ->
  Graph.t ->
  metric:metric ->
  source:Graph.node ->
  result
(** [node_ok] / [edge_ok] filter the graph during the search: a node
    (or a dense edge id) for which the filter returns [false] is
    treated as absent, so the search runs over the base graph plus a
    fault overlay without copying the surviving subgraph. Edge ids are
    orientation-free, so edge liveness is symmetric by construction.
    The source keeps distance 0 even when itself filtered out (it is
    then isolated). Surviving edges are relaxed in insertion order, so
    the result — including ties — is identical to an unfiltered run
    over a materialized copy of the surviving subgraph; in particular,
    filters that accept everything give a result byte-identical to a
    run without them.

    When [ws] is supplied, scratch state and (when the pool is
    non-empty) the result arrays come from the workspace instead of
    fresh allocations.

    When [live] is supplied the search reads its live slots instead of
    the graph's and prunes it afterwards (see {!live}); the result is
    the same.
    @raise Invalid_argument if the source is out of range, or [live] is
    given with the [Cost] metric, with a filter, or for another
    graph. *)

val run_bounded :
  ws:workspace ->
  ?live:live ->
  Graph.t ->
  metric:metric ->
  source:Graph.node ->
  reach:int ->
  cutoff:float ->
  result option
(** An unfiltered {!run} that gives up once the sum of the distances
    from the source to the [reach] nodes it can reach (the size of its
    component minus one) provably exceeds [cutoff]: nodes settle in
    nondecreasing distance, so after [k] settles summing to [S], the
    last at distance [d], that sum is at least [S + (reach - k) * d].
    [None] when the search was cut; its arrays then go back to [ws]'s
    pool and the workspace's frontier is empty with its storage kept.
    [Some r] otherwise, with [r] byte-identical to {!run}'s. With
    [cutoff = infinity] it is never cut. A cut search prunes [live]
    too: its labels are sums along real paths, which is all the retire
    test needs. Raises like {!run}. *)

val frontier_usage : (* lint: allow unused-export: introspection counter, frontier entries and slots *)
  workspace -> int * int
(** [(queued, slots)]: the entries left in the workspace's frontier
    (0 between searches, cut or not) and the bucket storage it holds
    for the next search ({!Scmp_util.Radix_heap.capacity}). *)

val source : result -> Graph.node
val dist : result -> Graph.node -> float
(** Shortest distance from the source; [infinity] if unreachable. *)

val other_dist : result -> Graph.node -> float
(** The {e non-selected} metric accumulated along the chosen path (the
    cost of the shortest-delay path for a [Delay] run, the delay of the
    least-cost path for a [Cost] run); [infinity] if unreachable. The
    sum is formed head-to-tail in lockstep with the predecessor chain,
    so it is bit-identical to {!Path.delay}/{!Path.cost} over the
    materialized {!path} — scalar consumers (the DCDM join prefilter)
    can rely on exact float equality. *)

val reachable : result -> Graph.node -> bool

val parent : result -> Graph.node -> Graph.node option
(** Predecessor on the shortest path; [None] for the source and
    unreachable nodes. *)

val parent_edge : (* lint: allow unused-export: introspection, the SPT predecessor edge *)
  result -> Graph.node -> Graph.edge option
(** Edge id of the predecessor link; [None] for the source and
    unreachable nodes. O(1) — this is how Routes registers SPT edges
    in its usage map without pair lookups. *)

val parent_ix : result -> Graph.node -> int
(** {!parent} as a raw index — [-1] for the source and unreachable
    nodes. Allocation-free, for pred-chain walks on hot paths. *)

val parent_edge_ix : result -> Graph.node -> int
(** {!parent_edge} as a raw index — [-1] for the source and unreachable
    nodes. Allocation-free. *)

val path : result -> Graph.node -> Path.t option
(** Path from source to the node inclusive; [None] if unreachable;
    [Some [source]] for the source itself. *)

val eccentricity : result -> float
(** Largest finite distance from the source. *)

(** {1 Raw views}

    The result's own per-node arrays, for allocation-free scans in other
    modules (the DCDM candidate scan): reading [(dists r).(x)] costs an
    array load, where a call to {!dist} returns a boxed float. Callers
    must not mutate them. Slots of {!others}, {!preds} and {!pred_edges}
    are meaningful only for nodes with a finite distance other than the
    source: a pooled run leaves stale values elsewhere. *)

val dists : result -> float array
(** Index = node; what {!dist} returns. *)

val others : result -> float array
(** What {!other_dist} returns, where the node is reachable. *)

val preds : result -> int array
(** What {!parent_ix} returns, where the node is reachable and not the
    source. *)

val pred_edges : result -> int array
(** What {!parent_edge_ix} returns, under the same condition. *)
