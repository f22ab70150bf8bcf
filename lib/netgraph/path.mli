(** Operations on simple paths represented as node lists.

    A path is a list of nodes [x0; x1; ...; xk] such that consecutive
    nodes are adjacent in the graph. A single node is a valid (empty)
    path; the empty list is not a path. *)

type t = Graph.node list

val is_valid : (* lint: allow unused-export: reference oracle, path well-formedness *)
  Graph.t -> t -> bool
(** Consecutive nodes adjacent, no repeated node, non-empty. *)

val delay : Graph.t -> t -> float
(** Sum of link delays along the path.
    @raise Not_found if consecutive nodes are not adjacent. *)

val cost : Graph.t -> t -> float
(** Sum of link costs along the path.
    @raise Not_found if consecutive nodes are not adjacent. *)

val edges : t -> (Graph.node * Graph.node) list
(** Consecutive pairs, in path order. *)

val concat : t -> t -> t
(** [concat p q] joins paths sharing an endpoint: last of [p] must equal
    head of [q]. @raise Invalid_argument otherwise. *)
