(** Shortest-path (shortest-delay) trees.

    The paper's delay-optimal baseline. Under the Fig 7 assumption that
    the source coincides with the core, the trees built by DVMRP, MOSPF
    and CBT are identical: the union of shortest-delay paths from the
    core/source to the members. Every member's multicast delay equals
    its unicast delay, so the tree delay is minimal; the cost is
    whatever those paths add up to. *)

val build : Netgraph.Apsp.t -> root:Tree.node -> members:Tree.node list -> Tree.t
(** Union of shortest-delay paths root -> member. Members unreachable
    from the root raise [Invalid_argument]. *)
