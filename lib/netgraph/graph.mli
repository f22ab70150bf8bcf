(** Undirected network graphs with per-link delay and cost.

    This is the network model of the paper (§I, Fig 1a): nodes are
    routers, links carry two symmetric parameters — {e link delay} (sum of
    queueing, transmission and propagation delay) and {e link cost}
    (utilization-derived price of using the link). Both are the same in
    either direction.

    Nodes are dense integers [0 .. node_count - 1]. Parallel links and
    self-loops are rejected: neither occurs in the paper's topologies and
    excluding them keeps path algebra unambiguous.

    {1 Two-phase lifecycle}

    The graph API is split in two: a mutable {!Builder} used only while a
    topology is being constructed, and the frozen, immutable {!t} that
    everything else consumes. [Builder.freeze] compiles the accumulated
    links into a compressed-sparse-row (CSR) snapshot backed by contiguous
    [int]/[float] arrays; after that the graph never changes — fault
    overlays are expressed as edge-id filters on top of it, and derived
    graphs ({!map_links}, {!filter_links}) are fresh snapshots.

    Each link also receives a stable dense {e edge id} in [0 .. m-1]
    (insertion order). Edge ids are the keys of every per-edge side table
    in the simulator: Routes' usage map, Netsim's fault overlay and
    traffic counters are plain arrays/bitsets indexed by edge id. *)

type node = int

type edge = int
(** Dense edge id in [0 .. link_count - 1], assigned in insertion order. *)

type link = {
  u : node;
  v : node;  (** Endpoints with [u < v]. *)
  delay : float;  (** Symmetric link delay, > 0. *)
  cost : float;  (** Symmetric link cost, > 0. *)
}

type t
(** A frozen, immutable graph snapshot (CSR form). *)

(** Mutable construction phase. A builder accumulates links and is
    consumed by {!Builder.freeze}; any mutation after freezing raises.
    Builders must not escape topology-construction code — the
    [graph-freeze] lint enforces this. *)
module Builder : sig
  type graph := t

  type t

  val create : int -> t
  (** [create n] starts a builder on nodes [0..n-1] with no links.
      @raise Invalid_argument if [n < 0]. *)

  val add_link : t -> node -> node -> delay:float -> cost:float -> unit
  (** Adds an undirected link. Links receive edge ids in call order.
      @raise Invalid_argument on self-loops, duplicate links,
      out-of-range nodes, non-positive delay/cost, or if the builder is
      already frozen. *)

  val has_link : t -> node -> node -> bool
  val node_count : t -> int
  val link_count : t -> int

  val components : t -> node list list
  (** Connected components of the partially built graph (generators use
      this to stitch components together mid-construction). Same order
      contract as the frozen {!components}. *)

  val freeze : t -> graph
  (** Compiles the builder into an immutable CSR snapshot. The builder
      is dead afterwards: any further [add_link]/[freeze] raises
      [Invalid_argument]. *)
end

val of_links : n:int -> (node * node * float * float) list -> t
(** [of_links ~n [(u, v, delay, cost); ...]] builds and freezes in one
    step — convenience for tests and small fixtures. *)

val node_count : t -> int
val link_count : t -> int

val edge_count : t -> int
(** Synonym of {!link_count}; edge ids range over [0 .. edge_count - 1]. *)

(** {1 Edge-id views} *)

val edge_u : t -> edge -> node
(** Smaller endpoint of an edge. O(1). *)

val edge_v : t -> edge -> node
(** Larger endpoint of an edge. O(1). *)

val edge_delay : t -> edge -> float
(** Per-edge delay by edge id. O(1). *)

val edge_cost : t -> edge -> float
(** Per-edge cost by edge id. O(1). *)

val edge_id_opt : t -> node -> node -> edge option
(** Edge id of the link joining two nodes, if adjacent. O(1) on small
    graphs (a dense matrix built at freeze time), O(degree) otherwise. *)

val edge_id_ix : t -> node -> node -> int
(** {!edge_id_opt} as a raw index — [-1] when not adjacent.
    Allocation-free, for per-transmit lookups on hot paths. *)

val iter_incident : t -> node -> (edge -> node -> unit) -> unit
(** [iter_incident g x f] calls [f eid neighbor] for each incident link,
    in insertion order. *)

(** {1 Pair-keyed lookups} *)

val has_link : t -> node -> node -> bool

val link_delay_opt : t -> node -> node -> float option
(** Delay of the link joining two nodes, or [None] if not adjacent. *)

val link_cost_opt : t -> node -> node -> float option
(** Cost of the link joining two nodes, or [None] if not adjacent. *)

(** {1 Neighborhood} *)

val neighbors : t -> node -> node list
(** Adjacent nodes, in insertion order. *)

val degree : t -> node -> int

(** {1 Whole-graph views} *)

val links : t -> link list
(** Every link once, with [u < v], in insertion (= edge id) order. *)

val iter_links : t -> (link -> unit) -> unit

val mean_degree : t -> float

val is_connected : t -> bool
(** True for the empty and one-node graphs. *)

val components : t -> node list list
(** Connected components; nodes ascending inside each component,
    components ordered by smallest node. *)

(** {1 Derived graphs} *)

val map_links : t -> f:(link -> float * float) -> t
(** [map_links g ~f] is a fresh frozen graph with identical structure
    (and identical edge ids) whose (delay, cost) pairs are rewritten by
    [f]. *)

val filter_links : t -> f:(link -> bool) -> t
(** [filter_links g ~f] is a fresh frozen graph on the same node set
    keeping only links satisfying [f]. Edge ids are renumbered densely
    in the surviving links' original order. *)

(** {1 CSR internals}

    Read-only views of the frozen representation for in-library hot
    loops (Dijkstra, APSP). Slots [off.(x) .. off.(x+1) - 1] are node
    [x]'s incident links in insertion order; parallel arrays give the
    neighbor, the edge id, and the per-slot copies of the edge weights.
    Callers must not mutate the returned arrays. *)

val csr_offsets : t -> int array

val csr_ends : t -> int array
(** Per-node slot ends: [(csr_ends g).(x) = (csr_offsets g).(x + 1)].
    The full-graph end array that {!Scmp_util.Radix_heap.drain_csr}
    takes; a live delay CSR ({!Dijkstra.live}) keeps its own. *)

val csr_neighbors : t -> int array
val csr_edge_ids : t -> int array
val csr_delays : t -> float array
val csr_costs : t -> float array

val edge_delays : t -> float array
(** Per-edge delays indexed by edge id ({!edge_delay} without the range
    check and, across module boundaries, without boxing the float). *)

val edge_costs : t -> float array
(** Per-edge costs indexed by edge id, like {!edge_delays}. *)
