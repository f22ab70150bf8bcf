(** Tree quality metrics (§III.A definitions).

    - {e tree cost}: sum of the link costs of the tree's links — "the
      cost to deliver packets along the multicast tree";
    - {e multicast delay} of a member: delay of its unique tree path
      from the m-router;
    - {e tree delay}: the largest multicast delay over group members. *)

val tree_cost : Tree.t -> float

val tree_delay : Tree.t -> float
(** Max multicast delay over members; [0.] when there are no members. *)

val member_delays : (* lint: allow unused-export: reference oracle, per-member tree delay *)
  Tree.t -> (Tree.node * float) list
(** Multicast delay of each member, ascending node order. *)

val hops : Tree.t -> int
(** Number of tree links. *)
