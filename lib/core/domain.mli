(** End-to-end facade: one SCMP domain, ready to use.

    Wires together everything a deployment of the paper's architecture
    needs: the topology, the event engine and packet network, IGMP
    subnets on every router, the SCMP agents (m-router + i-routers),
    the service-layer group/session database, and the m-router's
    switching fabric (each group gets an output port — the root of its
    tree; each distinct traffic source gets an input port, merged
    through the CCN).

    This is the module the examples build on:

    {[
      let d = Domain.create ~spec () in
      let g = Domain.create_group d |> Result.get_ok in
      Domain.join d ~group:g ~host:1 router;
      Domain.send d ~group:g ~src:router;
      Domain.run d;
    ]} *)

type node = Netgraph.Graph.node

type t

val create :
  ?fabric_ports:int ->
  ?mrouter:node ->
  ?standby:node ->
  spec:Topology.Spec.t ->
  unit ->
  t
(** [mrouter] overrides automatic placement (rule 1 — min average
    delay, {!Placement.Min_avg_delay}). [standby] enables a hot-standby
    secondary m-router at the named node (see {!fail_mrouter}).
    [fabric_ports] (default 64, power of two) sizes the sandwich
    fabric. The network runs on {!Topology.Spec.sim_graph}; DCDM
    enforces the tightest delay bound. *)

val mrouter : t -> node
val spec : t -> Topology.Spec.t
val engine : t -> Eventsim.Engine.t
val now : t -> float
val service : t -> Service.t
val fabric : t -> Fabric.Sandwich.t

val create_group : t -> (Service.addr, string) result
(** Allocate a multicast address, open the group in the fabric with a
    fresh output port, and start a session. *)

val close_group : t -> Service.addr -> unit
(** Tear down sessions, release the fabric resources and revoke the
    address. *)

val join : t -> group:Service.addr -> ?host:int -> node -> unit
(** A host on the router's subnet joins (through IGMP; the first host
    triggers the SCMP JOIN). Effects unfold as simulation events — call
    {!run} (or {!run_until}) to let them settle. *)

val leave : t -> group:Service.addr -> ?host:int -> node -> unit

val send : t -> group:Service.addr -> src:node -> unit
(** Originate one data packet from the router's subnet now. The source
    is registered as a fabric input on first use. *)

val run : t -> unit
(** Drain all pending simulation events. *)

val run_until : t -> float -> unit

val tree : t -> group:Service.addr -> Mtree.Tree.t option
(** The m-router's current multicast tree for the group. *)

val members : t -> group:Service.addr -> node list

(** {2 Measurements} *)

val data_overhead : t -> float
val protocol_overhead : t -> float
val deliveries : t -> int
val duplicates : t -> int
val max_delay : t -> float

val fabric_check : t -> (unit, string) result
(** Run {!Fabric.Sandwich.self_check} on the live fabric state. *)

val verify : t -> (unit, string) result
(** The full invariant suite ({!Check.Invariant.verify_all}) over the
    live domain: every group's tree well-formedness, delay-bound
    compliance and entry/tree coherence, plus switching-fabric routing
    validity. Call on a quiesced engine (after {!run}). *)

val fail_mrouter : t -> unit
(** Kill the primary m-router. With a [standby] configured at
    {!create}, the secondary detects the silence (heartbeats), rebuilds
    every group's tree rooted at itself and takes over — run the engine
    to let that unfold. *)

val standby_took_over : t -> bool

val igmp : t -> node -> Protocols.Igmp.t
(** The router's subnet model (for inspecting host membership). *)
