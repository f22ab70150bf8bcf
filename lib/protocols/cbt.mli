(** Core-Based Tree protocol agents (Ballardie et al., ref [5]) — the
    shared-tree baseline of Figs 8/9.

    Joining router sends a JOIN that travels {e hop-by-hop along the
    unicast route toward the core}; the first on-tree router it reaches
    (the graft node — possibly the core itself) answers with a
    JOIN-ACK that retraces the accumulated path, installing forwarding
    state at every hop ("CBT only needs to send an acknowledgement
    packet from the graft node to the newly joining node", §IV.B.1).
    Leaving leaf routers send QUIT upstream, cascading like SCMP's
    PRUNE. The resulting shared tree is bidirectional; off-tree sources
    unicast-encapsulate to the core.

    Core selection is out of scope, as in the paper's simulation. *)

type node = Message.node

type t

val create :
  delivery:Delivery.t -> Message.t Eventsim.Netsim.t -> core:node -> unit -> t

val host_join : t -> group:Message.group -> node -> unit
val host_leave : t -> group:Message.group -> node -> unit
val send_data : t -> group:Message.group -> src:node -> seq:int -> unit

val router_state : (* lint: allow unused-export: introspection, one router's entry *)
  t -> node -> group:Message.group -> (node option * node list * bool) option
(** [(upstream, downstream, member)]; the core's entry has
    [upstream = None]. *)

val on_tree : t -> group:Message.group -> node list
(** Routers currently holding an entry for the group (quiesced-state
    introspection). *)
