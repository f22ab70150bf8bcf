(** PIM Sparse-Mode agents (Deering et al., the paper's reference [6])
    — the other shared-tree protocol the paper names (§I: "Core-Based
    Tree, Protocol-Independent Multicast Sparse Mode and Simple
    Multicast are ST-based protocols").

    The paper simulates CBT for the ST-based family; this module adds
    PIM-SM as an extension baseline because its behaviour differs from
    CBT in two ways that matter for the paper's metrics:

    - the rendezvous-point (RP) tree is {e unidirectional}: sources do
      not inject on the shared tree but {e register}-encapsulate every
      packet to the RP, which forwards down the star-G tree — so even
      on-tree sources pay the detour CBT avoids;
    - {e SPT switchover}: when a member's DR first receives data from
      a source via the RP, it joins the source-rooted shortest-path
      tree directly ((S,G) JOIN toward the source, hop-by-hop) and
      subsequent packets arrive with SPT delay, pruning the RP leg.

    Net effect (see `bench pimsm`): early packets behave like CBT with
    a worse detour, steady-state packets like MOSPF — the crossover the
    switchover exists to buy. *)

type node = Message.node

type t

val create :
  delivery:Delivery.t ->
  ?spt_switchover:bool ->
  Message.t Eventsim.Netsim.t ->
  rp:node ->
  unit ->
  t
(** [spt_switchover] (default true) enables the (S,G) switchover; with
    it off the agent behaves as a pure unidirectional RP tree. *)

val host_join : t -> group:Message.group -> node -> unit
val host_leave : t -> group:Message.group -> node -> unit
val send_data : t -> group:Message.group -> src:node -> seq:int -> unit

val on_rp_tree : (* lint: allow unused-export: introspection, routers with star-G state *)
  t -> group:Message.group -> node list
(** Routers holding star-G state, ascending. *)

val on_spt : (* lint: allow unused-export: introspection, routers with (S,G) state *)
  t -> group:Message.group -> src:node -> node list
(** Routers holding (S,G) state for the source, ascending. *)

val switched_over : (* lint: allow unused-export: introspection, a DR's switchover state *)
  t -> group:Message.group -> src:node -> node -> bool
(** Has this member's DR completed its switchover to the source? *)
