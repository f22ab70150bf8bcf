(** DVMRP agents (Waitzman & Partridge, ref [2]) — the dense-mode,
    flood-and-prune baseline of Figs 8/9.

    Mechanics modelled:

    - {b Reverse-path flooding}: a data packet from source [s] is
      accepted on the shortest-path interface toward [s] and forwarded
      to the {e dependent} downstream neighbours (those whose own route
      to [s] passes through this router), so every flood spans the
      whole domain along the RPF tree — the reason the paper finds
      DVMRP's data overhead "much higher" than the other protocols';
    - {b Pruning}: a router with no member hosts and nothing left to
      forward to sends PRUNE to its RPF upstream; prune state carries a
      lifetime, and expiry lets the next packet re-flood ("floods the
      packets frequently when … the timer in a leaf router is
      expired"). More members mean fewer prunes, which is why DVMRP's
      protocol overhead {e falls} as the group grows (Fig 8 d-f);
    - {b Grafting}: a member appearing below pruned state sends GRAFT
      up the RPF tree, cancelling prunes. *)

type node = Message.node

type t

val create :
  ?delivery:Delivery.t ->
  Message.t Eventsim.Netsim.t ->
  unit ->
  t
(** Prunes live for 10 simulated seconds. No core/root parameter:
    DVMRP trees are rooted at each source. *)

val host_join : t -> group:Message.group -> node -> unit
val host_leave : t -> group:Message.group -> node -> unit
val send_data : t -> group:Message.group -> src:node -> seq:int -> unit

val is_member : t -> group:Message.group -> node -> bool

val pruned_links : (* lint: allow unused-export: introspection counter, live prune records *)
  t -> int
(** Live prune records across the domain (introspection for tests). *)
