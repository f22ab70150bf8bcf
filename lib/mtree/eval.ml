let tree_cost t =
  let g = Tree.graph t in
  List.fold_left
    (fun acc (p, c) ->
      acc +. Netgraph.Graph.edge_cost g (Netgraph.Graph.edge_id_ix g p c))
    0.0 (Tree.edges t)

let member_delays t =
  let d = Tree.delays t in
  List.map (fun m -> (m, d.(m))) (Tree.members t)

let tree_delay t =
  List.fold_left (fun acc (_, d) -> Float.max acc d) 0.0 (member_delays t)

let hops t = List.length (Tree.edges t)
