(** Imperative binary min-heap.

    Shared by Dijkstra's algorithm ([Netgraph.Dijkstra]) and the
    discrete-event engine ([Eventsim.Engine]). Keys are floats (distances
    or timestamps); ties are broken by insertion order so event execution
    is deterministic. *)

type 'a t
(** A min-heap of values of type ['a] keyed by [float]. *)

val create : ?capacity:int -> unit -> 'a t
(** Fresh empty heap. [capacity] pre-sizes the backing array. *)

val length : 'a t -> int
(** Number of queued elements. *)

val is_empty : 'a t -> bool

val add : 'a t -> key:float -> 'a -> unit
(** [add t ~key v] inserts [v] with priority [key]. O(log n). *)

val peek : 'a t -> (float * 'a) option
(** Smallest binding without removing it. *)

val pop : 'a t -> (float * 'a) option
(** Remove and return the smallest binding. Among equal keys, the
    earliest-inserted is returned first. O(log n). *)

val iter : 'a t -> (float -> 'a -> unit) -> unit
(** Iterate over current contents in unspecified order. *)
