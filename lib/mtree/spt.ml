let graft_shortest tree path =
  (* Shortest-path trees from a single Dijkstra are consistent: the
     prefix of any parent-chain path already on the tree is identical,
     so plain sequential attachment never needs loop elimination. *)
  let rec walk prev = function
    | [] -> ()
    | x :: rest ->
      if not (Tree.on_tree tree x) then Tree.attach tree ~parent:prev x;
      walk x rest
  in
  match path with [] -> () | x :: rest -> walk x rest

let build apsp ~root ~members =
  let g = Netgraph.Apsp.graph apsp in
  let tree = Tree.create g ~root in
  List.iter
    (fun m ->
      match Netgraph.Apsp.sl_path apsp root m with
      | None -> invalid_arg "Spt.build: member unreachable from root"
      | Some p ->
        graft_shortest tree p;
        Tree.set_member tree m)
    (List.sort_uniq Int.compare members);
  tree
