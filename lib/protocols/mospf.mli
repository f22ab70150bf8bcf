(** MOSPF agents (Moy, ref [3]) — the link-state, source-tree baseline.

    Group membership travels in {e group-membership LSAs} flooded to
    every router in the domain on each join and leave — "the DR will
    flood a group-membership-LSA packet throughout the domain to make
    all the routers updated, which generates a great deal of protocol
    packets" (§IV.B.1); this is why MOSPF has the steepest protocol
    overhead curve in Fig 8(d-f).

    Data forwards along the source-rooted shortest-delay tree, pruned
    to branches whose subtrees contain members according to each
    router's own membership database (so forwarding during LSA
    convergence can transiently differ between routers, as in the real
    protocol). Every member receives along its shortest path — minimum
    end-to-end delay, Fig 9. *)

type node = Message.node

type t

val create : ?delivery:Delivery.t -> Message.t Eventsim.Netsim.t -> unit -> t

val host_join : t -> group:Message.group -> node -> unit
val host_leave : t -> group:Message.group -> node -> unit
val send_data : t -> group:Message.group -> src:node -> seq:int -> unit

val knows_member : (* lint: allow unused-export: introspection, one router's membership database *)
  t -> at:node -> group:Message.group -> node -> bool
(** Does [at]'s membership database list the given router as having
    members? (Tests use this to verify LSA convergence.) *)

val lsa_count : (* lint: allow unused-export: introspection counter, LSAs originated *)
  t -> int
(** LSAs originated so far (not flooding transmissions). *)
