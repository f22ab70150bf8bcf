(** DCDM — Delay-Constrained Dynamic Multicast tree construction
    (§III.D; Yang & Yang, ICCCN 2005 [20]).

    The m-router maintains one DCDM state per group. On a JOIN it
    grafts the new member onto the existing tree through the candidate
    path that adds the least cost while keeping the member's multicast
    delay within the delay bound; on a LEAVE it prunes the dangling
    branch. Candidates for a join of [s] are, for every one of the [m]
    on-tree routers [v], the precomputed least-cost path [P_lc(s,v)]
    and shortest-delay path [P_sl(s,v)] — the "2m paths" of the paper.
    The {!Netgraph.Apsp} table backing them is demand-driven, so a join
    forces at most the [m] on-tree sources (each memoized across
    joins), never the whole topology.

    The delay bound is dynamic: [Bound.limit] of the largest member
    unicast delay seen in the current group (§III.D: when a member
    farther than the current tree delay joins, its shortest-delay path
    is added and the bound stretches to its unicast delay — with the
    tightest constraint this reproduces exactly that behaviour, because
    the only feasible candidates then are shortest-delay grafts).

    Loop elimination follows Fig 5(c,d): when a graft path crosses the
    existing tree the crossed node is re-parented onto the new path and
    its stale upstream branch pruned. Because re-parenting shifts the
    multicast delay of a whole subtree, a bounded repair pass afterwards
    re-grafts any member pushed beyond the bound via its shortest-delay
    path, restoring the invariant that the tree delay never exceeds the
    bound (under [Tightest], tree delay equals the SPT tree delay, the
    property Fig 7(a) reports). *)

type candidate_set =
  | Both  (** the paper's 2m candidate paths *)
  | Least_cost_only  (** ablation: only [P_lc] paths *)
  | Shortest_delay_only  (** ablation: only [P_sl] paths *)

type t

val create :
  ?candidates:candidate_set ->
  Netgraph.Apsp.t ->
  root:Tree.node ->
  bound:Bound.t ->
  unit ->
  t
(** Fresh group state rooted at the m-router's node. *)

val tree : t -> Tree.t
(** The live tree (do not mutate it directly). *)

val bound : t -> Bound.t

val current_limit : t -> float
(** Absolute delay bound implied by the current member set;
    [infinity] when unconstrained or when there are no members. *)

val join : t -> Tree.node -> unit
(** Add a member. Idempotent for existing members. The root may join
    its own group. @raise Invalid_argument if the node is unreachable
    from the root. *)

val reaches : t -> Tree.node -> bool
(** Whether {!join} can add the node: it is on the tree already, or the
    group's APSP table reaches it from the root. {!join} raises exactly
    when this is [false]. *)

val leave : t -> Tree.node -> unit
(** Remove a member and prune per §III.C/D. No-op for non-members.
    When the departed member was the farthest one the dynamic bound
    tightens, and any member whose graft only fit the old bound is
    re-grafted via its shortest-delay path so the delay invariant
    survives churn (compare {!join}'s repair pass). *)

val last_graft : (* lint: allow unused-export: introspection, the branch the last join grafted *)
  t -> Netgraph.Path.t option
(** The path grafted by the most recent {!join} (tree-order: from graft
    node to the member); [None] if the join needed no new branch. Used
    by the SCMP protocol layer to emit BRANCH packets. *)

val build :
  ?candidates:candidate_set ->
  Netgraph.Apsp.t ->
  root:Tree.node ->
  bound:Bound.t ->
  members:Tree.node list ->
  Tree.t
(** One-shot: join the members in list order and return the tree. *)
