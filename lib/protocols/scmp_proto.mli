(** The SCMP protocol agents — m-router and i-routers (§II.D, §III).

    One [t] drives the whole domain: it installs a handler on every
    node of the network simulation and keeps two kinds of state,

    - at the {b m-router}: per-group DCDM tree state built from the
      global topology (the m-router "has all the group membership and
      global network topology information"), and
    - at every {b i-router}: plain multicast routing entries
      (group id, upstream, downstream, member-interface flag) —
      "other routers only need to perform minimum functions".

    Protocol flows implemented exactly as in the paper:

    - JOIN/LEAVE requests unicast from the designated router to the
      m-router (§III.B/C);
    - tree updates distributed with self-routing BRANCH packets for
      pure-growth changes and recursive TREE packets when loop
      elimination restructured the tree (§III.E); routers that
      restructuring removed receive a unicast invalidation (a small
      departure from the paper, which leaves them stale — see
      DESIGN.md);
    - hop-by-hop PRUNE cascades on leave (§III.C);
    - bidirectional data forwarding with the F-set rule, and unicast
      encapsulation to the m-router for off-tree sources (§III.F).

    {b Reliable control plane.} The paper assumes control packets
    arrive; this reproduction does not. Two {!Reliable} windows carry
    SCMP's control flows, with the shared retry rule documented there
    (base timeout doubling per attempt, at most 6 sends, then a counted
    give-up). Every JOIN/LEAVE/GRAFT is sequence-numbered and
    retransmitted, with a base timeout of 0.25 s plus the DR's round trip to the m-router, until its explicit
    {!Message.Scmp_req_ack} arrives — a GRAFT also completes when its
    repaired upstream does — or a newer request from the same DR for
    the same group supersedes it. The m-router suppresses duplicates by
    highest sequence number per (group, DR) and re-acks them. Tree
    distribution (TREE/BRANCH/PRUNE) travels in one-hop reliable frames
    ({!Message.Scmp_reliable}) acked per link; invalidations and
    resyncs are acked end-to-end, and an invalidation abandoned while
    its target was unreachable is retried once connectivity returns.

    {b Tree repair.} The agent registers a
    {!Eventsim.Netsim.on_topology_change} hook. When a link or node
    failure touches a group's tree, the m-router recomputes the DCDM
    tree over the surviving topology from its membership roster and
    redistributes it (TREE packets; invalidations to abandoned
    routers); i-routers sever dead adjacencies, and a member DR whose
    upstream died sends a reliable GRAFT asking to be re-attached.
    Each repair's convergence latency (fault instant to the first
    instant {!network_tree_consistent} holds again) is recorded.

    {b Split-brain fencing.} M-router authority carries an {e epoch}
    number, bumped when the standby takes over and stamped into every
    TREE/BRANCH/PRUNE/INVALIDATE frame, request ack, replication
    message and heartbeat (in reserved common-header bits — no extra
    wire cost). Routers track the highest epoch they have adopted and
    fence anything older, so a deposed primary that is merely
    partitioned away — not dead — cannot install stale tree state
    after the heal. When the partition heals, the new authority's
    announce reaches the old primary; it observes the higher epoch,
    steps down, and hands its accumulated state to the new authority
    in per-group RESYNC messages (roster, departures, request-sequence
    watermarks, old-tree relays) merged by sequence number. Group
    availability across all this is tracked as {e blackout}: the sim
    time from a fault to the first delivery that reaches a member
    again. *)

type node = Message.node

type distribution =
  | Incremental
      (** The paper's scheme: BRANCH packets for pure-growth updates,
          full TREE packets only when loop elimination restructured the
          tree (§III.E: "if the change is small, using a TREE packet
          containing the whole tree structure is too expensive"). *)
  | Always_full_tree
      (** Ablation: distribute the whole tree on every change
          ({!Driver.scmp_always_full_tree}); the bench quantifies what
          BRANCH packets save. *)

type t

val create :
  delivery:Delivery.t ->
  ?distribution:distribution ->
  ?standby:node ->
  ?heartbeat_interval:float ->
  ?takeover_after:float ->
  ?install_handlers:bool ->
  ?cpu:Eventsim.Server.t * float ->
  Message.t Eventsim.Netsim.t ->
  mrouter:node ->
  unit ->
  t
(** Installs handlers on every node. DCDM enforces the tightest QoS
    delay constraint ({!Mtree.Bound.Tightest}). The all-pairs
    shortest-path tables the m-router needs are computed here, once.

    [standby] enables the hot-standby of the paper's concluding
    remarks: the named node mirrors the primary's membership state
    (replication messages on every JOIN/LEAVE) and probes it with
    heartbeats every [heartbeat_interval] (default 1.); after
    [takeover_after] (default 3.) of silence it rebuilds every group's
    tree rooted at itself and takes over. All of that traffic is
    simulated and charged as protocol overhead.

    [cpu] models the m-router's control-plane computing capacity
    (§II.B): a processing station and a per-request service time.
    JOIN/LEAVE requests then queue for a processor before the tree is
    recomputed and distributed — the capacity bench saturates this.

    The reliable control transport retransmits after a base timeout of
    0.25 s and abandons a request or frame after 6 sends, counting a
    give-up. *)

val mrouter : t -> node
(** The m-router currently in charge (the standby after takeover). *)

val standby_took_over : t -> bool

val fail_primary : t -> unit
(** Silence the primary m-router: it stops processing and answering
    everything (JOINs, encapsulated data, heartbeats). With a standby
    configured, recovery follows automatically within the detection
    window; without one, the domain simply loses its m-router. *)

val handle : t -> node -> from:node -> Message.t -> unit
(** Process one message as router [node] would. Exposed so a
    higher-level dispatcher (e.g. {!Multi}, one agent set per m-router)
    can own the network handlers; pass [~install_handlers:false] to
    {!create} in that case. *)

val host_join : t -> group:Message.group -> node -> unit
(** A host in the router's subnet reported membership (IGMP): mark the
    interface and send JOIN to the m-router. Scheduled work — effects
    unfold as simulation events. *)

val host_leave : t -> group:Message.group -> node -> unit

val send_data : t -> group:Message.group -> src:node -> seq:int -> unit
(** The router's subnet originates one data packet now. *)

(** {2 Observability} *)

type stats = {
  tree_packets : int;
      (** TREE packets the m-router emitted (one per root child of each
          full-tree distribution, §III.E). *)
  branch_packets : int;
      (** Self-routing BRANCH packets emitted for pure-growth joins. *)
  invalidations : int;
      (** Unicast invalidations to routers removed by restructuring. *)
  tree_computes : int;
      (** DCDM operations at the m-router (create/join/leave, including
          takeover rebuilds). *)
  tree_compute_wall_s : float;
      (** Their accumulated {e wall-clock} cost — a real-time
          measurement, excluded from deterministic report diffs. *)
  retransmissions : int;
      (** Control retransmissions: request re-sends plus reliable-frame
          re-sends. *)
  giveups : int;
      (** Requests and frames abandoned after 6 sends (or
          when their link died with no repair path). *)
  repairs : int;
      (** Post-failure tree rebuilds at the m-router (one per affected
          group per topology change). *)
  epoch : int;
      (** The active authority's epoch: 1 until a takeover bumps it. *)
  fenced : int;
      (** Stale-epoch frames dropped by fencing routers. *)
  stepdowns : int;
      (** Authorities deposed after observing a higher epoch. *)
  resyncs : int;
      (** Per-group RESYNC messages sent by stepping-down
          authorities. *)
}

val stats : (* lint: allow unused-export: introspection counters, the protocol's own tallies *)
  t -> stats
val epoch : t -> int
(** The active authority's epoch ({!stats}.epoch). *)

val blackouts : t -> float list
(** Completed per-group blackout samples, oldest first: sim seconds
    from a fault (or from the last primary contact before a takeover)
    to the first delivery that reached a member of the group again. *)

val active_authorities : (* lint: allow unused-export: introspection, every authority claiming the m-router role *)
  t -> (node * int) list
(** Every authority currently claiming the m-router role, with its
    epoch — primary first. Two entries only during a split-brain
    window (a deposed-but-unaware primary plus the new authority);
    after the heal's step-down exactly one remains. *)

val observe : t -> Obs.Metrics.t -> unit
(** Publish {!stats} into a registry under [scmp/...] —
    [scmp/retransmissions], [scmp/giveups], [scmp/repair/count], a
    [scmp/repair/latency_s] histogram of sim-time repair convergence
    latencies and [scmp/repair/unconverged] for repairs whose poll
    never saw consistency return; [scmp/tree_compute_wall_s] is
    registered as a wallclock metric. The fencing metrics
    ([scmp/epoch], [scmp/fenced], [scmp/stepdowns], [scmp/resyncs])
    and the [scmp/blackout_s] histogram are published only when a
    takeover, fence or blackout actually happened, keeping fault-free
    reports byte-identical to the pre-epoch format. *)

(** {2 Introspection (tests, examples)} *)

val mrouter_tree : t -> group:Message.group -> Mtree.Tree.t option
(** The m-router's current tree for the group (its own view). *)

val router_state : (* lint: allow unused-export: introspection, one router's entry *)
  t -> node -> group:Message.group -> (node option * node list * bool) option
(** [(upstream, downstream, member)] of the router's routing entry, if
    it has one. The m-router's entry has [upstream = None]. *)

val network_tree_consistent : t -> group:Message.group -> (unit, string) result
(** Quiesced-state check: entry/tree coherence
    ({!Check.Invariant.check_coherence}) over the group's snapshot — every edge
    of the m-router's tree is mirrored by matching upstream/downstream
    entries, and no router outside the tree holds an entry. Only
    entries the live network can observe count: one at a dead node, at
    a failed primary or at a router partitioned away from the active
    m-router is neither stale nor a match. The error is the verifier's
    report. Run only after the event queue has drained (or poll it, as
    tree repair does). *)

(** {2 Invariant snapshots (the [lib/check] bridge)} *)

val groups : t -> Message.group list
(** Groups the (active) m-router holds tree state for, ascending. *)

val snapshots : t -> Check.Invariant.snapshot list
(** One snapshot per known group: its central tree, current absolute
    delay bound, every observable i-router entry and the dead links. *)

val verify : t -> (unit, string) result
(** [Check.Invariant.verify_all] over {!snapshots}: tree
    well-formedness, delay-bound compliance and entry/tree coherence
    for every group. Meaningful only on a quiesced event queue. *)
