(** Self-routing copy (multicast) network — the construction of the
    paper's reference [10] (Yang & Wang, "A new self-routing multicast
    network", IEEE TPDS 1999) that the TREE packet's self-routing idea
    is borrowed from (§III.E: "we adopt the self-routing scheme used in
    [10], in which multicast routing is realized by the tag attached to
    the packet").

    An [n]-port ([n] a power of two) banyan of 1x2 elements copies one
    input signal to any {e contiguous} range of outputs with no routing
    tables: the packet carries the interval [\[lo, hi\]] as its tag and
    every element decides locally by {e Boolean interval splitting} —
    if the interval lies within one half of the element's output span
    it forwards one copy toward that half; if it straddles both halves
    it splits, sending each branch the sub-interval it covers.

    In the m-router this is the fan-out companion of the CCN's fan-in:
    where the CCN merges a group's sources down to one column, a copy
    network lets the merged stream leave on several egress ports (e.g.
    mirrored tree roots). {!route} computes the element decisions,
    {!eval} replays them, and the tests verify the exactly-the-interval
    property the tag scheme promises. *)

type t

val create : int -> t
(** [create n] — a copy network with [n] outputs, [n] a power of two.
    @raise Invalid_argument otherwise. *)

val ports : t -> int

val stages : (* lint: allow unused-export: introspection, the network depth *)
  t -> int
(** [log2 n]. *)

type plan
(** Element decisions for one multicast. *)

val route : t -> lo:int -> hi:int -> plan
(** Copies to outputs [lo..hi] inclusive.
    @raise Invalid_argument unless [0 <= lo <= hi < ports]. *)

val eval : t -> plan -> bool array
(** Which outputs receive the signal: [eval t (route t ~lo ~hi)] is
    true exactly on [lo..hi]. *)

val elements_used : plan -> int
(** Internal elements the multicast occupies (its fan-out tree size):
    for a range of width w spanning depth d, between d and ~2w. *)

val copies : (* lint: allow unused-export: introspection, a plan's copy count *)
  plan -> int
(** Number of output copies produced, [hi - lo + 1]. *)
