(** Rooted multicast trees over a network graph.

    A tree is rooted at the m-router's attachment node. Every on-tree
    node has an {e upstream} (its parent; the root has none) and a
    {e downstream} (its children) — the vocabulary of §III.A. Group
    members are marked on their designated routers; non-member relay
    nodes may also be on the tree.

    The structure is mutable: DCDM joins graft paths onto it, leaves
    prune dangling branches, and loop elimination re-parents nodes. All
    mutators preserve the tree invariants (checked by {!validate}):
    every tree edge is a graph link, the parent relation is acyclic and
    reaches the root, and children lists mirror the parent map. *)

type node = Netgraph.Graph.node

type t

val create : Netgraph.Graph.t -> root:node -> t
(** Fresh tree containing only the root. *)

val graph : t -> Netgraph.Graph.t
val root : t -> node

val on_tree : t -> node -> bool

val on_tree_edge : t -> node -> node -> bool
(** Is the undirected edge a-b carried by the tree (one endpoint the
    parent of the other)? O(1); [false] when either endpoint is
    off-tree. *)

val size : t -> int
(** Number of on-tree nodes (including the root). *)

val nodes : t -> node list
(** On-tree nodes, ascending. *)

val parent : t -> node -> node option
(** Upstream router; [None] for the root. @raise Invalid_argument if
    off-tree. *)

val children : t -> node -> node list
(** Downstream routers. @raise Invalid_argument if off-tree. *)

val edges : t -> (node * node) list
(** Tree links as (parent, child) pairs, one per non-root node. *)

val is_member : t -> node -> bool
val members : t -> node list
(** Marked members, ascending. *)

val member_count : t -> int
(** O(1): the tree keeps a running count. *)

val set_member : t -> node -> unit
(** Mark a node as member. @raise Invalid_argument if off-tree. *)

val unset_member : t -> node -> unit

val attach : t -> parent:node -> node -> unit
(** Add an off-tree node under an on-tree parent.
    @raise Invalid_argument if the edge is not a graph link, the parent
    is off-tree, or the child already on-tree. *)

val graft_path : t -> Netgraph.Path.t -> unit
(** [graft_path t path] grafts [path] — whose head must be on-tree —
    onto the tree, walking head to tail. Off-tree nodes are attached in
    sequence. When the walk meets an on-tree node [b] (a loop in the
    sense of §III.D, Fig 5c), the branch is repaired as the paper
    prescribes: [b] is re-parented onto the new path and its former
    upstream chain is pruned until a member, a branching node or the
    root is reached. If re-parenting [b] would create a cycle (the walk
    came from inside [b]'s own subtree) the redundant new-path prefix is
    dropped and grafting resumes from [b] using the existing tree
    connectivity.
    @raise Invalid_argument if the head is off-tree or consecutive
    nodes are not graph-adjacent. *)

val prune_upward : t -> node -> unit
(** Starting at the given node, repeatedly remove childless non-member
    non-root nodes, following parents — the LEAVE/PRUNE cascade of
    §III.C. A node that is a member, has children, or is the root stops
    the cascade. No-op on off-tree nodes. *)

val delays : t -> float array
(** [delays t] maps each node to its {e multicast delay} (delay of the
    unique tree path from the root, §III.A); [infinity] for off-tree
    nodes, [0.] for the root. *)

val delays_into : t -> float array -> unit
(** [delays] written into a caller-owned buffer of at least
    [node_count] slots, allocation-free: the DCDM join and repair passes
    reuse one buffer per group. *)

(** {1 Change window}

    The m-router decides between an incremental BRANCH and a full TREE
    distribution (§III.B/§III.E) from what one JOIN or LEAVE changed.
    Instead of diffing whole-tree snapshots, the tree can record its own
    changes: {!mark} opens a window, and from then on the first time
    {!attach}, {!detach_leaf} or a re-parenting (through {!graft_path}
    or {!prune_upward}) touches a node, the node's on-tree flag and
    parent at the mark are saved. A non-root node's parent link is its
    tree edge, so comparing the saved and the current state of the
    touched nodes alone gives the {e net} change since the mark — the
    same answers a before/after diff of {!edges} and {!nodes} gives. An
    edge removed and re-added inside one window is no change. Member
    marks are not tracked. Before the first {!mark} the window is
    empty. Cost: O(1) per touch; each query is O(touched nodes). *)

val mark : t -> unit
(** Open a fresh change window (the first call allocates its buffers). *)

val edges_lost : t -> bool
(** Some tree edge present at the mark is gone. *)

val edges_gained : t -> bool
(** Some tree edge present now was absent at the mark. *)

val edges_changed : t -> bool
(** [edges_lost t || edges_gained t]: the edge set differs from the
    mark's. *)

val removed_since_mark : t -> node list
(** Nodes on the tree at the mark and off it now, ascending. *)

val depth : t -> node -> int
(** Hop count from the root. @raise Invalid_argument if off-tree. *)

val validate : t -> (unit, string) result
(** Structural self-check (meant for tests): edges exist in the graph,
    parent/children agree, no cycles, every on-tree node reaches the
    root, members are on-tree. *)

