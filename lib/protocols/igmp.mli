(** IGMPv2 edge model — the host/subnet side of membership (§II.C).

    One [t] models one router's subnet: the router is the designated
    router (DR), hosts join and leave groups, the DR discovers
    membership through periodic Host Membership Queries and
    report-suppressed Host Membership Reports, and translates the
    {e first} host joining / {e last} host leaving a group into the
    callbacks the multicast routing protocol hooks (its JOIN/LEAVE
    toward the m-router or core).

    IGMP traffic stays on the subnet — it crosses no network link, so
    it never contributes to the paper's overhead metrics; the module
    counts it separately for inspection. *)

type t

val create :
  Eventsim.Engine.t ->
  router:Message.node ->
  on_first_join:(Message.group -> unit) ->
  on_last_leave:(Message.group -> unit) ->
  unit ->
  t
(** Starts the DR's periodic query cycle on the engine: a general query
    every 125 simulated seconds (IGMP's default). *)

val host_join : t -> host:int -> group:Message.group -> unit
(** A host sends an unsolicited report. Fires [on_first_join]
    immediately if it is the subnet's first member of the group. *)

val host_leave : t -> host:int -> group:Message.group -> unit
(** IGMPv2 Leave: the DR issues a group-specific query and fires
    [on_last_leave] 1 simulated second later if no member remains. *)

val members : t -> group:Message.group -> int list
(** Hosts currently joined, ascending. *)

val groups : t -> Message.group list
(** Groups with at least one member host, ascending. *)

val queries_sent : (* lint: allow unused-export: introspection counter, queries, which cross no link *)
  t -> int
(** General + group-specific queries the DR has sent. *)

val reports_sent : (* lint: allow unused-export: introspection counter, reports, which cross no link *)
  t -> int
(** Reports actually transmitted (suppression means one per group per
    query round, not one per host). *)

val router : t -> Message.node
(** The DR this subnet hangs off. *)
