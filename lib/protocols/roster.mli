(** A group's membership roster at an m-router: the set of member DRs
    in the order they joined.

    The active m-router keeps one per group, and so does the standby's
    mirror of it. A join appends a router not already present; a leave
    removes it; both take O(1) time and allocate nothing. The order
    matters when a takeover or a repair rebuilds the tree: members are
    replayed in join order, so the rebuilt tree is the one the joins
    would have grown. Only those rare readers materialise a list
    ({!to_list}). *)

type t

val create : int -> t
(** An empty roster over routers [0 .. n-1]. *)

val mem : t -> int -> bool
(** Whether the router is on the roster; [false] for any router
    outside [0 .. n-1]. *)

val add : t -> int -> unit
(** Appends the router unless it is on the roster already.
    @raise Invalid_argument for a router outside [0 .. n-1]. *)

val remove : t -> int -> unit
(** Removes the router if it is on the roster. *)

val to_list : t -> int list
(** The members, earliest join first. *)
