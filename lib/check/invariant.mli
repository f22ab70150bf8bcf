(** Machine-checkable protocol invariants (the correctness layer).

    The paper's architecture splits multicast state in two: the
    m-router holds {e the} authoritative group tree (§III.A), every
    i-router holds a derived forwarding entry distributed by
    TREE/BRANCH packets (§III.E). Nothing forces those two views to
    agree — this module does. Each predicate returns a list of
    {!violation}s with precise diagnostics; {!verify_all} aggregates
    them for the [~check:true] hook in {!Protocols.Runner}.

    The checks operate on plain views ({!tree_view}, {!entry_view})
    rather than on the live abstract types, for two reasons: the
    checker stays below the protocol layer in the dependency order, and
    tests can corrupt a view (cycle, orphan, stale entry) to prove each
    predicate actually fires — something the abstract [Mtree.Tree] API
    makes impossible by construction. *)

type violation = { rule : string; detail : string }

exception Violation of string
(** Raised by {!verify_all_exn} (and by runners driven with
    [~check:true]) when any invariant fails. *)

val report_to_string : violation list -> string
(** ["ok"] for the empty report. *)

(** {2 Views of live state} *)

type tree_view = {
  graph : Netgraph.Graph.t;
  root : int;
  parent : (int * int) list;  (** (child, parent), one per non-root on-tree node *)
  children : (int * int list) list;  (** downstream lists, one per on-tree node *)
  members : int list;
}

val view : Mtree.Tree.t -> tree_view
(** Snapshot the m-router's authoritative tree. *)

type entry_view = {
  router : int;
  upstream : int option;
  downstream : int list;
  member : bool;
  epoch : int;
      (** Authority epoch the adjacency was installed under (1 before
          any takeover). *)
}
(** One i-router's distributed SCMP forwarding entry. *)

type snapshot = {
  group : int;
  mrouter : int;
  auth_epoch : int;  (** the reigning authority's epoch *)
  tree : tree_view option;  (** [None] when the m-router holds no tree *)
  limit : float;  (** absolute delay bound; [infinity] if unconstrained *)
  entries : entry_view list;
  dead_links : (int * int) list;
      (** Links currently unusable in the network (failed, or with a
          failed endpoint); empty on a healthy topology. *)
}
(** Everything the verifier needs about one group: the central tree and
    the distributed entries, captured at the same instant, plus the
    fault state of the topology. Built by
    [Protocols.Scmp_proto.snapshots]. *)

(** {2 Predicates} *)

val check_tree : (* lint: allow unused-export: invariant checker, I1 alone on a seeded defect *)
  tree_view -> violation list
(** I1 — tree well-formedness: single parent per non-root node, parent
    and children mirror each other, every tree edge is a graph link,
    everything on-tree is root-reachable (hence acyclic), members are
    on-tree. Protects §III.A/D. *)

val check_delay_bound : (* lint: allow unused-export: invariant checker, I2 alone on a seeded defect *)
  tree_view -> limit:float -> violation list
(** I2 — every member's multicast delay (root-to-member tree path
    delay) stays within [limit]. Protects the DCDM QoS contract of
    §III.D / Fig 7. No-op when [limit] is infinite. *)

val check_coherence : snapshot -> violation list
(** I3 — entry/tree coherence: every on-tree router holds an entry
    whose upstream/downstream/member fields match the tree; no off-tree
    router holds one; and the unions of the per-router upstream and
    downstream links each reconstruct exactly the m-router's edge set.
    Protects the TREE/BRANCH/PRUNE distribution of §III.E. *)

type delivery_counters = {
  expected : int;
  delivered : int;
  duplicates : int;
  spurious : int;
  missed : int;
}

val check_delivery : (* lint: allow unused-export: invariant checker, I4 alone on seeded counters *)
  delivery_counters -> violation list
(** I4 — packet conservation: every expected (seq, member) pair
    delivered exactly once, nothing delivered to non-members. Protects
    the F-set forwarding rule of §III.F. *)

val check_live_links : (* lint: allow unused-export: invariant checker, I6 alone on a seeded defect *)
  snapshot -> violation list
(** I6 — a consistent tree only uses live links: no tree edge may
    cross a link listed in [dead_links]. A converged repair always
    satisfies this; a violation means the m-router distributed (or
    kept) a tree through a failed element. *)

val check_epochs : (* lint: allow unused-export: invariant checker, I7 alone on a seeded defect *)
  snapshot -> violation list
(** I7 — no stale-epoch entries: every observable entry was installed
    under the reigning authority's epoch ([auth_epoch]). A violation
    means a deposed m-router's tree state survived a partition heal —
    the split-brain outcome epoch fencing plus the step-down resync
    exist to prevent. *)

(** {2 Aggregation} *)

val verify_all :
  ?delivery:delivery_counters ->
  ?fabric:Fabric.Sandwich.t ->
  snapshot list ->
  (unit, string) result
(** Run every applicable invariant; [Error] carries the concatenated
    diagnostics. *)

val verify_all_exn :
  ?delivery:delivery_counters ->
  ?fabric:Fabric.Sandwich.t ->
  where:string ->
  snapshot list ->
  unit
(** Like {!verify_all} but raises {!Violation}, prefixing [where] (the
    checkpoint name) to the report. *)
