(** Waxman random topologies (the paper's Fig 7 model, §IV.A).

    Nodes are placed uniformly on the 32767x32767 grid. Each pair (u, v)
    is linked with probability

    {[ P(u, v) = beta * exp (- d(u, v) / (alpha * L)) ]}

    where [d] is the Manhattan distance and [L] the maximum possible
    distance. Link cost is the Manhattan distance; link delay is uniform
    in (0, cost]. [alpha = 0.25] and [beta = 0.2] are fixed at the
    paper's values; its experiments use [n = 100].

    A raw Waxman draw can be disconnected; as is standard practice, the
    generator then augments it by joining each stray component to the
    main one through the shortest available inter-component link, so the
    published experiments (which assume reachability of every member)
    are well-defined on every seed. *)

val generate : seed:int -> n:int -> unit -> Spec.t
(** [generate ~seed ~n ()] draws a connected Waxman topology.
    @raise Invalid_argument if [n < 2]. *)
