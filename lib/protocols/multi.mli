(** Multiple m-routers per domain (§II.A: "An ISP may own more than one
    m-routers in the Internet for serving its customers in different
    geographic regions … our approach can be easily extended to
    multiple m-routers per domain").

    Each group is anchored to exactly one {e home} m-router — the one
    that issued its address — and every router learns the home together
    with the published group address, so JOIN/LEAVE requests and
    encapsulated data flow to the right m-router. Internally this is a
    dispatcher: one full {!Scmp_proto} agent set per m-router shares
    the network, with every message routed to the agent set owning its
    group. Trees of different groups are therefore rooted at different
    m-routers, spreading both the control load and the traffic
    concentration the paper worries about for single-core shared
    trees. *)

type node = Message.node

type t

val create :
  delivery:Delivery.t ->
  ?assign:(Message.group -> node) ->
  Message.t Eventsim.Netsim.t ->
  mrouters:node list ->
  unit ->
  t
(** One {!Scmp_proto} agent set per m-router, each with the tightest
    DCDM delay bound. [assign] maps a group to its home m-router and
    must return one of [mrouters] (checked at use; default: round-robin
    by group id).
    @raise Invalid_argument on an empty or duplicated m-router list. *)

val mrouters : t -> node list

val home : (* lint: allow unused-export: introspection, a group's home m-router *)
  t -> group:Message.group -> node
(** The group's home m-router. *)

val host_join : t -> group:Message.group -> node -> unit
val host_leave : t -> group:Message.group -> node -> unit
val send_data : t -> group:Message.group -> src:node -> seq:int -> unit

val tree : t -> group:Message.group -> Mtree.Tree.t option
(** The home m-router's current tree for the group. *)

val network_tree_consistent : t -> group:Message.group -> (unit, string) result
(** {!Scmp_proto.network_tree_consistent} on the group's home agent
    set. *)
