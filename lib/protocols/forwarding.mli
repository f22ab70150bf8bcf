(** Shared-tree forwarding state and the per-hop forwarding step
    (§III.F), used by both bidirectional shared-tree protocols: SCMP
    and CBT.

    A router's entry for a group holds its F set — the upstream
    neighbour and the downstream list. A data packet arriving from a
    member of the F set is sent to every other member of it, upstream
    first and then downstream in list order; a packet from outside it
    is dropped. The step reads the entry through a table keyed by one
    packed int and allocates nothing: no key tuple, no option, no
    closure per packet. *)

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

(** {2 The entry table} *)

type table
(** Entries keyed by [pk router group]: open addressing over one int
    array of keys. *)

val create : unit -> table
val find_opt : table -> int -> entry option
val mem : table -> int -> bool
val replace : table -> int -> entry -> unit
val remove : table -> int -> unit

val fold : (int -> entry -> 'a -> 'a) -> table -> 'a -> 'a
(** Visits every entry once, in slot order — an order callers must not
    let escape. [f] must not add or remove entries. *)

val iter : (int -> entry -> unit) -> table -> unit
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
