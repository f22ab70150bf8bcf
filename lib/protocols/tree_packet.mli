(** The self-routing TREE packet (§III.E).

    A TREE packet received by a router describes the multicast subtree
    rooted at that router: for each downstream router, its address and
    a nested sub-packet of the same format. The packet is
    {e self-routing}: each router consumes one level, installs its
    routing entry, and forwards each sub-packet to the corresponding
    child — no other state is needed to distribute a whole tree.

    {!encode}/{!decode} implement the exact wire layout of the paper's
    table: [count; (address, sub-length, sub-packet)*], flattened to a
    word (int) sequence, e.g. the paper's example
    [(3; 4,1,(0); 5,7,(2,7,1,(0),8,1,(0)); 6,4,(1,9,1,(0)))]. *)

type t = { children : (int * t) list }
(** Sub-packet of one router: its downstream routers, in tree order. *)

val of_tree : Mtree.Tree.t -> at:Mtree.Tree.node -> t
(** Sub-packet describing the subtree of [at] (its downstream and
    below). @raise Invalid_argument if [at] is off-tree. *)

val split : t -> (int * t) list
(** What an i-router does on receipt: one (child, sub-packet) per
    downstream router. *)

val nodes : t -> at:int -> int list
(** All routers the subtree rooted at [at] spans (including [at]). *)

val size : t -> int
(** Encoded length in words — the paper's variable packet length. *)

val encode : t -> int list

val decode : int list -> (t, string) result
(** Inverse of {!encode}; rejects trailing garbage, truncation and
    negative counts. *)
