(** The CCN — connection component network — as a binary reduction tree.

    §II.B: "The CCN realizes the connections of multiple sources by
    merging them in a reversed tree rooted at an output … sources to
    different multicast groups are never connected."

    We model the CCN as a static complete binary tree over [n] port
    columns (internal node [(level, index)] covers columns
    [index * 2^level .. (index+1) * 2^level - 1]). A group that owns a
    buddy block of columns merges through exactly the subtree over its
    block — the "reversed tree rooted at an output" of the paper — and
    buddy alignment makes distinct groups' subtrees node- and
    link-disjoint, which is precisely the isolation property claimed.

    {!merge_tree} enumerates a block's internal nodes; {!disjoint}
    checks the isolation property so tests (and {!Sandwich.self_check})
    can verify it on live configurations. *)

type node = { level : int; index : int }
(** [level 0] nodes are the port columns themselves. *)

val root_of : (* lint: allow unused-export: introspection, a block's merge root *)
  Buddy.block -> node
(** The reversed-tree root a block's sources merge into. *)

val columns : node -> int * int
(** [(first, last)] columns a node covers, inclusive. *)

val merge_tree : Buddy.block -> node list
(** Every tree node a group's merge uses, leaves included, root last.
    A singleton block uses exactly its leaf. *)

val merge_depth : (* lint: allow unused-export: introspection, a block's merge depth *)
  Buddy.block -> int
(** Stages a signal crosses to reach the root: [log2 size]. *)

val disjoint : Buddy.block -> Buddy.block -> bool
(** No shared tree node between the two blocks' merges (true whenever
    the blocks do not overlap, thanks to buddy alignment). *)

val output_column : Buddy.block -> int
(** Canonical column on which the merged signal exits the CCN (the
    leftmost column of the block); input for the DN permutation. *)
