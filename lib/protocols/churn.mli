(** Membership churn workloads.

    The paper's tree is a {e dynamic} shared tree — members come and go
    throughout a session. This module drives any protocol's join/leave
    hooks with a standard churn model: Poisson arrivals (exponential
    inter-arrival times) of joins from a candidate pool, each joined
    member holding its membership for an exponentially distributed
    time before leaving. Used by tests and examples to exercise the
    JOIN/BRANCH/TREE/PRUNE machinery far beyond static member sets. *)

type t

val start :
  Eventsim.Engine.t ->
  rng:Scmp_util.Prng.t ->
  candidates:Message.node list ->
  join:(Message.node -> unit) ->
  leave:(Message.node -> unit) ->
  mean_interarrival:float ->
  mean_holding:float ->
  horizon:float ->
  t
(** Schedules the whole churn process on the engine, starting now:
    arrivals stop at [horizon] (absolute time); pending departures
    still fire. Each arrival joins a uniformly random candidate not
    currently a member (skipped silently if everyone is in). Departures
    only target current members.
    @raise Invalid_argument on non-positive means, an empty pool, or a
    churn {!too_dense} over the span from now to [horizon]. *)

val pick_outside : (* lint: allow unused-export: differential test against Prng.pick over the listed outside candidates *)
  Scmp_util.Prng.t -> Message.node array -> inside:(Message.node -> bool) -> Message.node option
(** The candidate an arrival joins: [Prng.pick rng] over the candidates
    for which [inside] is false, in array order, or [None] (drawing
    nothing) when there is none. Makes the same single draw and gives
    the same candidate without building that array, so it allocates
    the same few words whatever the pool size. *)

val max_arrivals : float
(** The most arrivals a churn may expect: 10{^6}. The run time grows
    with the arrival count (a million arrivals take about a second). *)

val too_dense : mean_interarrival:float -> span:float -> float option
(** [Some n] when a churn with this mean inter-arrival time expects [n]
    arrivals over [span] seconds, more than {!max_arrivals}; [None]
    otherwise. *)

val joins : t -> int
(** Joins performed so far. *)

val leaves : t -> int

val current_members : t -> Message.node list
(** Members at the current simulation instant, ascending. *)
