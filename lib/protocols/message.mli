(** Wire messages of every simulated protocol.

    One shared sum type lets all four protocols run over the same
    [Netsim] instantiation and share the overhead accounting: the
    classifier maps multicast payload traffic to [`Data] and everything
    else (joins, prunes, tree distribution, LSAs, acks) to [`Control],
    matching the paper's data-overhead / protocol-overhead split. *)

type node = Netgraph.Graph.node
type group = int

type req_kind = Join | Leave | Graft
    (** The three m-router requests carried by the reliable control
        transport; echoed in the acknowledgement so a DR can match an
        ack to the request it retransmits. *)

type t =
  (* ---- data plane (all protocols) ---- *)
  | Data of { group : group; src : node; seq : int }
      (** Native multicast payload travelling on a tree. *)
  | Encap of { group : group; src : node; seq : int }
      (** Payload encapsulated in unicast toward the m-router/core
          (§III.F: off-tree sources). *)
  (* ---- SCMP (§III) ---- *)
  | Scmp_join of { group : group; dr : node; seq : int }
      (** [seq] orders retransmissions of one DR's requests; the
          m-router suppresses duplicates by the highest seq seen. *)
  | Scmp_leave of { group : group; dr : node; seq : int }
  | Scmp_graft of { group : group; dr : node; seq : int }
      (** DR -> m-router after a tree-link failure severed its
          upstream: please re-attach me to the tree. *)
  | Scmp_req_ack of
      { group : group; dr : node; kind : req_kind; seq : int; epoch : int }
      (** M-router -> DR: your request [seq] was processed. For a JOIN
        the BRANCH/TREE distribution usually completes the request
        first; the explicit ack covers DRs that were already on the
        tree (no new branch to distribute). [epoch] tells the DR which
        authority answered (split-brain fencing). *)
  | Scmp_tree of { group : group; epoch : int; packet : Tree_packet.t }
      (** [epoch] is the emitting authority's epoch: receivers fence
          frames older than the highest epoch they have accepted. *)
  | Scmp_branch of { group : group; epoch : int; path : node list }
      (** Remaining path, current hop first (§III.E). *)
  | Scmp_prune of { group : group; from : node; epoch : int }
  | Scmp_invalidate of { group : group; token : int; epoch : int }
      (** Unicast from the m-router to a router that loop-elimination
          re-parenting removed from the tree: drop your routing entry.
          Acknowledged end-to-end with {!Scmp_ack} carrying [token].
          (The paper leaves such routers with stale state; see
          DESIGN.md "Known deviations".) *)
  | Scmp_reliable of { token : int; inner : t }
      (** One-hop reliable framing for tree distribution: the receiver
          acks [token] back over the same link and processes [inner];
          the sender retransmits with exponential backoff until acked
          or out of attempts. Duplicates are detected by token. *)
  | Scmp_ack of { token : int }
  | Scmp_replicate of { group : group; dr : node; joined : bool; epoch : int }
      (** Primary -> standby m-router: membership replication for the
          hot-standby of the paper's concluding remarks. A standby that
          took over fences replicates from a stale-epoch primary. *)
  | Scmp_heartbeat of { from : node; seq : int; epoch : int }
      (** Standby -> primary liveness probe (carrying the probing
          standby's highest known epoch). *)
  | Scmp_heartbeat_ack of { seq : int; epoch : int }
  | Scmp_announce of { auth : node; epoch : int }
      (** New-authority announcement after a takeover: [auth] claims the
          m-router role at [epoch]. A stale active m-router receiving a
          higher epoch steps down and resyncs; every other router
          re-targets its requests. *)
  | Scmp_resync of
      { group : group;
        token : int;
        members : node list;
        left : node list;
        seen : (node * int) list;
        relays : node list;
        epoch : int }
      (** Stepped-down primary -> new authority: the group roster it
          accumulated ([members], join order), the DRs it saw leave
          ([left]), its per-DR duplicate-suppression watermarks
          ([seen], so the merge is ordered by request sequence numbers
          rather than by arrival), and the nodes of its now-defunct
          tree ([relays]) so the new authority can invalidate the
          stale relays the merged tree does not use. Acknowledged
          end-to-end with {!Scmp_ack} carrying [token]. [epoch] is the
          regime the old primary just adopted. *)
  (* ---- PIM-SM (extension baseline) ---- *)
  | Pim_join of { group : group; src : node option; from : node }
      (** Hop-by-hop join: [src = None] toward the RP (star-G),
          [Some s] toward the source ((S,G), the SPT switchover). *)
  | Pim_prune of { group : group; src : node option; rpt : bool; from : node }
      (** [src = None]: leave the star-G tree. [Some s, rpt = true]:
          stop source [s]'s packets on the RP tree ((S,G,rpt)).
          [Some s, rpt = false]: leave the source's SPT. *)
  (* ---- CBT ---- *)
  | Cbt_join of { group : group; joiner : node; path : node list }
      (** Hop-by-hop toward the core; [path] accumulates the route for
          the returning ack. *)
  | Cbt_join_ack of { group : group; path : node list }
      (** Travels the reverse path from the graft node to the joiner,
          installing tree state. *)
  | Cbt_quit of { group : group; from : node }
  (* ---- DVMRP ---- *)
  | Dvmrp_prune of { group : group; src : node; from : node }
  | Dvmrp_graft of { group : group; src : node; from : node }
  (* ---- MOSPF ---- *)
  | Mospf_lsa of { group : group; router : node; joined : bool; seq : int }
      (** Group-membership LSA, flooded domain-wide. *)
  (* ---- HPIM-DM (hard-state dense mode, Oliveira et al.) ---- *)
  | Hpim_sync of
      { group : group; src : node; from : node; seq : int; interested : bool }
      (** Reliable interest synchronisation from a downstream router to
          its RPF upstream for source [src]: [interested = false]
          replaces DVMRP's soft-state PRUNE (it never expires, so there
          is no periodic re-flood), [true] replaces GRAFT. [seq] orders
          one neighbour's updates; the receiver applies only fresher
          sequence numbers and always acknowledges. *)
  | Hpim_ack of { group : group; src : node; from : node; seq : int }
      (** Upstream's acknowledgement of the {!Hpim_sync} carrying
          [seq]; the sender retransmits with backoff until acked. *)

val req_kind_label : req_kind -> string
(** ["join"], ["leave"] or ["graft"]. *)

val classify : t -> [ `Data | `Control ]

val group_of : t -> group
(** The group a message concerns; [-1] for group-less traffic
    (heartbeats, reliable-transport acks). A {!Scmp_reliable} frame has
    its inner message's group. *)

val describe : t -> string
(** Short human-readable tag for traces, e.g. ["DATA g5 s3#12"]. *)

val wire_words : t -> int
(** Modelled wire size in 32-bit words: 2-word common header plus the
    variable part (data payloads count 128 words; TREE/BRANCH packets
    grow with the encoded tree — the paper's variable-length packets,
    §III.E). Feeds the per-class byte accounting of
    {!Eventsim.Netsim}. *)

val wire_bytes : t -> int
(** [4 * wire_words]. *)

val network : Eventsim.Engine.t -> Netgraph.Graph.t -> t Eventsim.Netsim.t
(** The protocol network every experiment runs on: a packet simulator
    over the graph (normally {!Topology.Spec.sim_graph}) that classifies
    with {!classify} and sizes with {!wire_bytes}. *)
