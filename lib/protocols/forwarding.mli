(** The data plane of every driver: shared-tree forwarding state, the
    per-hop forwarding step (§III.F), and the neighbour fan-out.

    - SCMP and CBT forward on bidirectional shared trees: a router's
      entry for a group holds its F set — the upstream neighbour and
      the downstream list. A data packet arriving from a member of the
      F set is sent to every other member of it, upstream first and
      then downstream in list order ({!step}); a packet from outside it
      is dropped.
    - PIM-SM's RP tree holds the same entries, but data flows down
      only and skips the children that pruned its source
      ({!send_down}).
    - DVMRP, HPIM-DM and MOSPF send to a router's neighbours, less the
      arrival one and the ones the caller excludes ({!fan_out}).

    The entry table is keyed by one packed int, and so is every other
    driver's per-packet state ({!map}); no loop here allocates: no key
    tuple, no option, no closure per packet. *)

type node = Message.node

val pk : node -> Message.group -> int
(** [pk x g] packs a router id (well below 2^30) above a group id (a
    32-bit multicast address): one immediate int key, hashed with a
    single multiply and compared with one word compare. *)

val pk_hi : int -> node
(** The router field of a packed key. *)

val pk_lo : int -> Message.group
(** The group field of a packed key. *)

val mem_int : int -> int list -> bool
(** [List.mem] on ints without the polymorphic compare per element. *)

type entry = {
  mutable upstream : node option;
  mutable downstream : node list;
  mutable member : bool;  (** a host on the router's subnet joined *)
  mutable ep : int;
      (** authority epoch the adjacency was installed under (SCMP;
          always 0 for CBT) *)
}

val fresh_entry : member:bool -> ep:int -> entry
(** An entry with no upstream and no downstream. *)

(** {2 Packed-key maps} *)

type 'v map
(** Values keyed by a packed key — a non-negative int such as
    [pk router group]: open addressing over one int array of keys. *)

val map : 'v -> 'v map
(** [map filler]: an empty map. [filler] only fills vacant value slots
    and is never returned. *)

type table = entry map
(** The entry table, keyed by [pk router group]. *)

val create : unit -> table
val find_opt : 'v map -> int -> 'v option

val find_slot : 'v map -> int -> int
(** The slot holding the key, or -1: with {!value}, a lookup that
    allocates nothing. A slot is valid until the next {!replace} or
    {!remove}. *)

val value : 'v map -> int -> 'v
(** The value in a slot {!find_slot} returned. *)

val find_or : 'v map -> int -> default:'v -> 'v
(** The key's value, or [default]; allocates nothing. *)

val mem : 'v map -> int -> bool
val replace : 'v map -> int -> 'v -> unit
val remove : 'v map -> int -> unit

val fold : (int -> 'v -> 'a -> 'a) -> 'v map -> 'a -> 'a
(** Visits every binding once, in slot order — an order callers must
    not let escape. [f] must not add or remove bindings. *)

val iter : (int -> 'v -> unit) -> 'v map -> unit
(** {!fold} without an accumulator; the same rules hold. *)

(** {2 Forwarding} *)

val step :
  'm Eventsim.Netsim.t -> table -> x:node -> group:Message.group ->
  from:node -> 'm -> bool
(** [step net tbl ~x ~group ~from msg]: a data packet [msg] arrived at
    router [x] from neighbour [from]. If [x] has an entry for [group]
    and [from] is in its F set, transmit [msg] to every other member of
    the F set — upstream first, then downstream in list order — and
    return whether [x]'s subnet has a member, i.e. whether the packet
    is delivered there. Otherwise drop it and return [false].
    Allocates nothing beyond what {!Eventsim.Netsim.transmit} does. *)

val originate : 'm Eventsim.Netsim.t -> entry -> src:node -> 'm -> unit
(** Send a packet that starts at [src] over [src]'s whole F set, in
    the order {!step} uses. *)

val send_downstream : 'm Eventsim.Netsim.t -> entry -> src:node -> 'm -> unit
(** Send a packet to [src]'s downstream list only, in order: the root
    of the tree handing a decapsulated packet to the tree. *)

val send_down :
  'm Eventsim.Netsim.t -> src:node -> except:node -> pruned:int list ->
  source:node -> 'm -> node list -> unit
(** [send_down net ~src ~except ~pruned ~source msg children] sends a
    packet of [source] from router [src] down a unidirectional tree:
    to each child in order but [except] (-1 skips none) and the
    children [d] whose [pk d source] is in [pruned] — the (S,G,rpt)
    prunes, packed child above source. *)

(** {2 Neighbour fan-out} *)

val fan_out :
  'm Eventsim.Netsim.t -> x:node -> from:node ->
  keep:('s -> int -> node -> bool) -> 's -> 'm -> int
(** [fan_out net ~x ~from ~keep st msg] transmits [msg] from router [x]
    to each neighbour [y] other than [from] (-1 skips none) with
    [keep st i y], where [i] is the CSR slot of [x]'s link to [y] — a
    dense id of the directed link, which per-link state can index. It
    goes in CSR slot order (the order the links were added) and returns
    how many it sent. With [keep] a top-level function the loop
    allocates nothing beyond what {!Eventsim.Netsim.transmit} does. *)

val any_neighbour :
  Netgraph.Graph.t -> x:node -> from:node ->
  keep:('s -> int -> node -> bool) -> 's -> bool
(** Would {!fan_out} send to anyone? Stops at the first such
    neighbour. *)

val link_slot : Netgraph.Graph.t -> node -> node -> int
(** [link_slot g x y]: the CSR slot of [x]'s link to [y] (what {!fan_out}
    passes [keep]), or -1 if they are not linked. Scans [x]'s links. *)
