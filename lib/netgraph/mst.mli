(** Minimum spanning trees.

    Two entry points, matching the two places MSTs appear in the KMB
    Steiner-tree heuristic (steps 2 and 4 of Kou–Markowsky–Berman 1981):

    - {!prim_dense} over a complete weighted graph given as a weight
      function (the terminal distance graph of step 1);
    - {!kruskal} over a sparse {!Graph.t} restricted to a node subset
      (the induced subgraph of step 3). *)

val prim_dense : n:int -> weight:(int -> int -> float) -> (int * int) list
(** [prim_dense ~n ~weight] is an MST of the complete graph on [0..n-1].
    Edges [(u, v)] have [u < v]. Returns [] for [n <= 1].
    @raise Invalid_argument if any needed weight is not finite (the
    complete graph must really be complete). *)

val kruskal : (* lint: allow unused-export: reference oracle, sparse MST against prim_dense *)
  Graph.t -> metric:Dijkstra.metric -> within:Graph.node list -> (int * int) list
(** [kruskal g ~metric ~within] is a minimum spanning forest of the
    subgraph of [g] induced by [within], weighted by [metric]. Edges with
    both endpoints in [within] only. *)
