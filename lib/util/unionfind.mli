(** Disjoint-set forest with union by rank and path compression.

    Used by Kruskal's MST inside the KMB Steiner heuristic and by the
    fabric checkers to verify group isolation. Elements are the integers
    [0 .. n-1]. *)

type t

val create : int -> t
(** [create n] puts each of [0..n-1] in its own singleton set. *)

val find : t -> int -> int
(** Canonical representative of the element's set. *)

val union : t -> int -> int -> bool
(** [union t a b] merges the two sets. Returns [false] when [a] and [b]
    were already in the same set. *)

val count : t -> int
(** Number of disjoint sets remaining. *)
