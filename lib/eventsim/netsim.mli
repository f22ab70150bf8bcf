(** Packet-level network simulation over the event engine.

    Nodes exchange messages of an arbitrary type ['m]. Two primitives
    are offered:

    - {!transmit}: one hop across an existing link, arriving after the
      link delay and charging the link cost to the message's class —
      this is how multicast protocols move packets (they own their
      forwarding logic);
    - {!unicast}: plain IP forwarding below the multicast layer; the
      message travels hop-by-hop along converged unicast routes,
      charging every traversed link, and only the destination's handler
      sees it (intermediate routers forward transparently). Used for
      JOIN/LEAVE requests to the m-router and for encapsulated data
      from off-tree sources.

    Overheads follow the paper's metric (§IV.B): a packet crossing a
    link contributes that link's cost, accumulated separately for
    [`Data] and [`Control] packets. *)

type node = Netgraph.Graph.node

type pkt_class = [ `Data | `Control ]

type drop_reason = Loss | No_route | Link_down | Node_down
(** Why a packet died: Bernoulli loss injection, no unicast route to
    the destination, a dead link on its path, a dead endpoint. *)

val drop_reason_label : drop_reason -> string
(** Stable lower-case label ([loss], [no_route], [link_down],
    [node_down]) used in traces and metric names. *)

type 'm t

val create :
  ?sizeof:('m -> int) -> Engine.t -> Netgraph.Graph.t -> classify:('m -> pkt_class) -> 'm t
(** Builds a demand-driven unicast routing cache internally (one
    Dijkstra per *queried* source, memoized; see {!Routes}). [sizeof]
    gives a message's wire size in bytes; with it, the simulation also
    keeps per-class byte counters ({!data_bytes}, {!control_bytes}) —
    without it they stay at 0. *)

val engine : 'm t -> Engine.t

val graph : 'm t -> Netgraph.Graph.t
(** The immortal base topology; failures never mutate it (see
    {!live_graph}). *)

val routes : 'm t -> Routes.t
(** The converged unicast routes, always answering over the current
    live subgraph. The handle itself is stable for the simulation's
    lifetime; topology changes invalidate affected cached entries in
    place, so answers obtained *before* a change may be stale — re-query
    after a change (or watch {!routes_epoch}). *)

val routes_epoch : 'm t -> int
(** Incremented on every route reconvergence (once per effective
    [fail_*]/[restore_*] call); 0 on a fresh simulation. Agents can
    compare epochs to detect reconvergence. *)

val classify_of : 'm t -> 'm -> pkt_class
(** Apply the simulation's classifier to a message (used by tracing). *)

val set_handler : 'm t -> node -> ('m t -> from:node -> 'm -> unit) -> unit
(** Install the protocol agent of one node. [from] is the neighbour the
    packet arrived from for {!transmit}, or the original source for
    {!unicast}. Without a handler, arriving packets are dropped. *)

val transmit : 'm t -> ?background:bool -> src:node -> dst:node -> 'm -> unit
(** One-hop send across the link [src]-[dst]. A [background] packet is
    charged and delivered like any other but its delivery event does
    not keep {!Engine.run} alive (periodic keep-alive traffic).
    @raise Invalid_argument if the nodes are not adjacent. *)

val unicast : 'm t -> ?background:bool -> src:node -> dst:node -> 'm -> unit
(** Routed multi-hop send; delivery after the total path delay, cost
    charged per traversed link. [src = dst] delivers locally after zero
    delay. A packet with no route (partitioned network) is dropped and
    counted ({!dropped}, reason {!No_route}). *)

(** {2 Accounting} *)

val data_overhead : 'm t -> float
(** Sum of link costs crossed by [`Data] packets so far. *)

val control_overhead : 'm t -> float
(** Same for [`Control] packets (the paper's "protocol overhead"). *)

val data_transmissions : 'm t -> int
(** Number of link crossings by data packets. *)

val control_transmissions : 'm t -> int

val link_crossings : (* lint: allow unused-export: introspection counter, crossings of one link *)
  'm t -> (node * node) -> int
(** Crossings of one undirected link (both directions pooled). *)

val observe : 'm t -> Obs.Metrics.t -> unit
(** Publish the accounting into a registry: [net/data/transmissions],
    [net/control/transmissions], [net/data/bytes], [net/control/bytes],
    [net/data/cost], [net/control/cost], [net/dropped] plus its
    per-reason breakdown ([net/dropped/loss], [net/dropped/no_route],
    [net/dropped/link_down], [net/dropped/node_down]),
    [net/routes_epoch], the routing-cache economics
    ([routes/spt_computed] — lifetime cache fills,
    [routes/spt_shared] — the fills served from a shared APSP table
    (see {!Routes.share}), [routes/invalidated] — cached SPTs dropped
    by faults), [net/links_used],
    [net/max_link_crossings]. Idempotent. *)

val on_transmit : 'm t -> (src:node -> dst:node -> 'm -> unit) -> unit
(** Register a trace hook called on every link crossing (after
    accounting, before delivery is scheduled). Hooks stack. *)

(** {2 Node processing capacity} *)

val set_node_processing : 'm t -> node -> Server.t -> service_time:float -> unit
(** Route every packet delivered to this node through a processing
    station first: the protocol handler runs only after the packet has
    queued for and held a processor for [service_time]. Models a
    router's forwarding engine — in this reproduction, the §I traffic
    concentration at shared-tree cores versus the m-router's parallel
    fabric. @raise Invalid_argument on negative service time. *)

(** {2 Failure injection} *)

val set_loss : ?only:pkt_class -> 'm t -> rate:float -> seed:int -> unit
(** Bernoulli packet loss per link crossing: each crossing is charged
    (the bits were sent) and then killed with probability [rate]. A
    multi-hop unicast dies at the first lost hop, charging only the
    hops it travelled. With [~only] the coin is tossed only for packets
    of that class (e.g. [`Control] for a lossy control plane over a
    reliable data plane); other packets are never lost and never
    consume randomness. [rate = 0.] disables loss.
    @raise Invalid_argument unless [0 <= rate < 1]. *)

val dropped : 'm t -> int
(** Packets killed so far, for any reason. *)

val dropped_by : (* lint: allow unused-export: introspection counter, drops for one reason *)
  'm t -> drop_reason -> int
(** Packets killed for one specific reason. *)

val on_drop :
  'm t -> (reason:drop_reason -> src:node -> dst:node -> 'm -> unit) -> unit
(** Register a hook called on every packet kill. For {!Loss} and
    {!Link_down} the [src]/[dst] pair is the link crossing where the
    packet died; for {!No_route} and {!Node_down} it is the end-to-end
    pair. Hooks stack. *)

(** {2 Link and node failures}

    The base {!graph} is immutable; failures form an overlay. Each
    effective state change incrementally invalidates the affected
    entries of the {!routes} cache (only SPTs whose answers the fault
    can change; see {!Routes}), bumps {!routes_epoch} and fires
    {!on_topology_change} hooks. Transmits over a dead link (or to/from a dead node) are
    dropped and counted — not charged, the bits were never sent — and a
    packet in flight across an element that fails before its arrival
    instant is killed even if the element was restored meanwhile.
    Repeated failures of an already-dead element are no-ops. *)

val fail_link : 'm t -> node -> node -> unit
(** @raise Invalid_argument if the base graph has no such link. *)

val restore_link : 'm t -> node -> node -> unit
(** @raise Invalid_argument if the base graph has no such link. *)

val fail_links : 'm t -> (node * node) list -> unit
(** Fail a whole set of links {e atomically}: every effective change
    invalidates its routing entries, but {!routes_epoch} bumps and
    {!on_topology_change} hooks fire at most {e once} for the batch —
    this is how a partition severs its cut-set without triggering one
    repair per link. Links already dead are skipped; a batch with no
    effective change fires nothing.
    @raise Invalid_argument if any pair is not a base-graph link (no
    partial application: the whole batch is validated first). *)

val restore_links : 'm t -> (node * node) list -> unit
(** Atomic counterpart of {!fail_links} for healing: one reconvergence
    for the whole batch of revived links.
    @raise Invalid_argument if any pair is not a base-graph link. *)

val fail_node : 'm t -> node -> unit
(** A dead node drops everything addressed to, from, or through it; all
    incident links are effectively dead.
    @raise Invalid_argument on an out-of-range node. *)

val restore_node : 'm t -> node -> unit
(** @raise Invalid_argument on an out-of-range node. *)

val link_alive : 'm t -> node -> node -> bool
(** False when the link itself or either endpoint is down; false for a
    non-link pair. *)

val edge_alive : 'm t -> Netgraph.Graph.edge -> bool
(** Liveness by dense edge id — O(1) against the overlay bitset; what
    protocol layers snapshot to build {!Netgraph.Apsp} liveness
    filters. *)

val node_alive : 'm t -> node -> bool

val live_graph : 'm t -> Netgraph.Graph.t
(** A fresh graph of the surviving topology: base nodes, minus links
    that are dead or have a dead endpoint. *)

val dead_link_list : 'm t -> (node * node) list
(** Base-graph links currently unusable (dead, or a dead endpoint),
    normalized [u < v] and sorted — the shape the invariant verifier
    consumes. *)

val on_topology_change : 'm t -> (unit -> unit) -> unit
(** Register a hook fired after every route reconvergence (stale route
    entries are already invalidated when it runs, so any query made
    from the hook sees post-change answers). Hooks stack. *)
