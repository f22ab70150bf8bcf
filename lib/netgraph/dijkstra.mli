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
    included) are byte-identical to the pre-CSR engine. A search may
    read a {!live} CSR view instead of the whole graph: a fault overlay
    (a {!masked} view) or a delay view that its own searches prune
    ({!val-live}). Every search, over the graph or a view, is one
    {!Scmp_util.Radix_heap.drain_csr}. *)

type metric = Delay | Cost

val weight : Graph.t -> metric -> Graph.node -> Graph.node -> float
(** The selected link weight between two adjacent nodes.
    @raise Not_found if the nodes are not adjacent. *)

type result
(** Shortest-path tree from one source under one metric. *)

type workspace
(** Scratch arena recycled across SPT builds: the radix-heap frontier
    (its bucket storage kept from one search to the next) and a free
    pool of dead results whose arrays are reused instead of
    reallocated. One workspace serves one thread of computation (it is
    not domain-safe). *)

val create_workspace : unit -> workspace

val recycle : workspace -> result -> unit
(** Returns a dead result's arrays to the workspace pool. The result
    must not be used afterwards — the next {!run} with this workspace
    overwrites its arrays in place. Routes invalidation recycles each
    dropped SPT so steady-state recomputation allocates nothing. *)

type live
(** A {e CSR view} of one graph: a private copy of its slots in which
    each node's live slots come first, in their original order, up to
    a per-node live end. A link is live at both ends or at neither. A
    search over a view is byte-identical to a run over a copy of the
    graph with only the live links, ties included. Not domain-safe.
    A {e masked} view ({!masked}) is a fault overlay and serves both
    metrics; a {e pruned} view ({!val-live}) serves the delay searches
    of an unchanging graph, each of which retires the live links at
    its source that it proves lie on no shortest-delay path (delay
    above the far end's label plus {!live_slack}). Each unfiltered
    {!Apsp} table owns a pruned view. *)

val live : Graph.t -> live
(** A fresh pruned view with every link live. O(m). *)

val masked : Graph.t -> (Graph.edge -> bool) -> live
(** [masked g edge_ok] is a masked view whose live links are those
    [edge_ok] accepts, read once, here. O(m), plus the degrees of each
    rejected link's ends. *)

val kill : live -> Graph.edge -> unit
(** The link leaves a masked view at both ends; a no-op on a dead
    link. O(degree of its ends).
    @raise Invalid_argument on a pruned view. *)

val revive : live -> Graph.edge -> unit
(** The link rejoins a masked view at both ends, in its original slot
    position; a no-op on a live link. O(degree of its ends).
    @raise Invalid_argument on a pruned view. *)

val dead_count : live -> int
(** Links killed and not revived; always 0 on a pruned view. *)

val live_slack : (* lint: allow unused-export: introspection, the live CSR's retire slack *)
  live -> float
(** The absolute slack of a pruned view's retire test: a few times the
    worst rounding of any path sum, about [n * 2^-53] times the sum of
    all link delays (at least [1e-9] times that sum). *)

val live_edges : (* lint: allow unused-export: introspection, a node's live links *)
  live -> Graph.node -> Graph.edge list
(** A node's live links, in slot order: a subsequence of its incident
    links in insertion order. A link is live at both ends or at
    neither.
    @raise Invalid_argument if the node is out of range. *)

val run :
  ?ws:workspace ->
  ?live:live ->
  Graph.t ->
  metric:metric ->
  source:Graph.node ->
  result
(** When [ws] is supplied, scratch state and (when the pool is
    non-empty) the result arrays come from the workspace instead of
    fresh allocations.

    When [live] is supplied the search reads the view's live slots
    instead of the graph's (see {!live}), and prunes a pruned view
    afterwards; the result is that of a run over the view's live
    links. Over a masked view with every link live, or a pruned view,
    that is the graph's own result.
    @raise Invalid_argument if the source is out of range, or [live]
    is a pruned view and the metric [Cost], or a view of another
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
(** A {!run} that gives up once the sum of the distances
    from the source to the [reach] nodes it can reach (the size of its
    component minus one) provably exceeds [cutoff]: nodes settle in
    nondecreasing distance, so after [k] settles summing to [S], the
    last at distance [d], that sum is at least [S + (reach - k) * d].
    [None] when the search was cut; its arrays then go back to [ws]'s
    pool and the workspace's frontier is empty with its storage kept.
    [Some r] otherwise, with [r] byte-identical to {!run}'s. With
    [cutoff = infinity] it is never cut. A cut search over a pruned
    view prunes it too: its labels are sums along real paths, which is
    all the retire test needs. Raises like {!run}. *)

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
