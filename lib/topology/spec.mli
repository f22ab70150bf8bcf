(** Generated topology: graph plus node placement metadata.

    Every generator in this library produces a {!t}. The paper's weight
    model (§IV.A) ties both link parameters to geometry: cost equals the
    Manhattan distance between the endpoints, and delay is uniform in
    (0, cost]. Keeping the coordinates around lets tests re-check those
    invariants and lets the placement study reason about geography. *)

type t = private {
  name : string;  (** e.g. ["waxman-100"], ["arpanet"]. *)
  graph : Netgraph.Graph.t;
  coords : (int * int) array;  (** Grid position of each node. *)
  mutable sim : Netgraph.Graph.t option;
      (** {!sim_graph}'s memo; [None] until its first call. *)
}

val make :
  name:string -> graph:Netgraph.Graph.t -> coords:(int * int) array -> t
(** The one constructor: validates generator output (connected graph,
    one coordinate per node).
    @raise Invalid_argument on violation. *)

val grid_size : int
(** Side of the placement grid, 32767 (paper §IV.A). *)

val manhattan : (int * int) -> (int * int) -> int
(** [|x1-x2| + |y1-y2|]. *)

val max_distance : int
(** Largest possible Manhattan distance on the grid, [2 * 32767]; the
    paper's [L]. *)

val random_coords : Scmp_util.Prng.t -> int -> (int * int) array
(** [random_coords rng n] places [n] nodes uniformly on the grid,
    re-drawing collisions so positions are distinct. *)

val sim_graph : t -> Netgraph.Graph.t
(** The graph the packet simulator runs on: link delays converted from
    grid units to simulated seconds at 3 µs per unit, costs kept in the
    paper's link-cost units. Built on the first call and kept on the
    spec, so every call on one spec returns physically the same graph
    (and, through {!Netgraph.Apsp.compute}'s memo, one APSP table). *)

val uniform_delay : Scmp_util.Prng.t -> cost:float -> float
(** Draw the paper's link delay: uniform in (0, cost], never zero. *)
