(** The m-router's service layer (§II.C).

    "The m-router is the sole entity for managing the multicast groups
    and multicast sessions": it issues and revokes multicast addresses,
    starts and tears down sessions, and keeps per-group accounting of every
    membership on-off and traffic event "for accounting/billing
    purposes" — queryable by outsiders. All of that state lives in this
    module's database.

    Time is supplied by the caller ([now] arguments), so the service
    works equally under the event engine or wall-clock drivers. *)

type addr = int
(** Multicast group address (an opaque id from the m-router's pool). *)

type session_id = int

type event =
  | Member_joined of Netgraph.Graph.node
  | Member_left of Netgraph.Graph.node
  | Data_forwarded of { src : Netgraph.Graph.node; seq : int }
  | Session_started of session_id
  | Session_ended of session_id

type t

val create : unit -> t
(** A pool of 256 addresses starting at 0xE0000100 (224.0.1.0). *)

(** {2 Group address management} *)

val allocate_group : t -> now:float -> (addr, string) result
(** Issue a fresh multicast address; [Error] when the pool is
    exhausted. *)

val revoke_group : t -> addr -> (unit, string) result
(** Revoke an abandoned group's address (it returns to the pool; its
    accounting log is retained). Errors on unknown or active-session
    groups. *)

(** {2 Session management} *)

val start_session : t -> group:addr -> now:float -> (session_id, string) result
(** Open a session on a group. Errors on unknown groups. *)

val end_session : t -> session_id -> now:float -> (unit, string) result

val active_sessions : t -> group:addr -> session_id list

(** {2 Accounting and queries} *)

val record : t -> group:addr -> now:float -> event -> unit
(** Append to the group's log. Unknown groups are ignored (a revoked
    group may still have in-flight traffic). *)

val log : t -> group:addr -> (float * event) list
(** The group's events, oldest first. Survives revocation. *)

val join_count : t -> group:addr -> int
val data_count : t -> group:addr -> int

val current_members : t -> group:addr -> Netgraph.Graph.node list
(** Nodes whose joins outnumber their leaves, ascending. *)
