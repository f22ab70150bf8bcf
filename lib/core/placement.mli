(** m-router placement heuristics (§IV.A).

    The paper observes that no single location wins under every member
    set and join order, and offers three rules that "achieve good
    performance in most cases":

    + rule 1 — the node with the least average unicast delay to all
      other nodes;
    + rule 2 — a node with a large degree;
    + rule 3 — a node lying on a path whose delay equals the graph
      diameter (we take the midpoint of such a path).

    {!evaluate} scores any candidate empirically by building DCDM trees
    for sampled member sets, which is how the placement bench compares
    the rules against random placement. *)

type rule =
  | Min_avg_delay  (** rule 1 *)
  | Max_degree  (** rule 2 *)
  | Diameter_midpoint  (** rule 3 *)

val all_rules : rule list

val rule_name : rule -> string

val pick : Netgraph.Apsp.t -> rule -> Netgraph.Graph.node
(** Deterministic: ties break toward the smaller node id.

    Rule 1 is {!Netgraph.Apsp.min_mean_delay_node}: the exact argmin of
    {!Netgraph.Apsp.mean_delay_from}, ties included, found without
    running every candidate's search to the end — a search stops once
    its delay sum provably exceeds the best mean so far times its
    reach, with a relative slack of 1e-9 so a tie is never cut. Rule 3
    scans each source's delays through a scratch SPT
    ({!Netgraph.Apsp.with_delay_spt}), so picking by any rule memoizes
    at most one SPT in the table.
    @raise Invalid_argument on a graph with no nodes. *)

val evaluate :
  Netgraph.Apsp.t ->
  candidate:Netgraph.Graph.node ->
  bound:Mtree.Bound.t ->
  group_size:int ->
  trials:int ->
  seed:int ->
  float
(** Mean DCDM tree cost over [trials] random member sets of
    [group_size] joined in random order with the candidate as
    m-router. Lower is better. *)
