type rule = Min_avg_delay | Max_degree | Diameter_midpoint

let all_rules = [ Min_avg_delay; Max_degree; Diameter_midpoint ]

let rule_name = function
  | Min_avg_delay -> "min-avg-delay"
  | Max_degree -> "max-degree"
  | Diameter_midpoint -> "diameter-midpoint"

let argbest n ~better ~score =
  let best = ref 0 and best_score = ref (score 0) in
  for x = 1 to n - 1 do
    let s = score x in
    if better s !best_score then begin
      best := x;
      best_score := s
    end
  done;
  !best

let pick apsp rule =
  let g = Netgraph.Apsp.graph apsp in
  let n = Netgraph.Graph.node_count g in
  if n = 0 then invalid_arg "Placement.pick: graph has no nodes";
  match rule with
  | Min_avg_delay -> Netgraph.Apsp.min_mean_delay_node apsp
  | Max_degree ->
    argbest n
      ~better:( > )
      ~score:(fun x -> float_of_int (Netgraph.Graph.degree g x))
  | Diameter_midpoint ->
    (* Find the pair realizing the diameter, then the node on its
       shortest-delay path closest to the midpoint delay. Each source's
       row is scanned through a scratch SPT, so only [u]'s ends up
       memoized. *)
    let diam = ref neg_infinity and ends = ref (0, 0) in
    for u = 0 to n - 1 do
      Netgraph.Apsp.with_delay_spt apsp u (fun spt ->
          let dist = Netgraph.Dijkstra.dists spt in
          for v = u + 1 to n - 1 do
            let d = dist.(v) in
            if Float.is_finite d && d > !diam then begin
              diam := d;
              ends := (u, v)
            end
          done)
    done;
    let u, v = !ends in
    (match Netgraph.Apsp.sl_path apsp u v with
    | None -> u
    | Some p ->
      let half = !diam /. 2.0 in
      let best = ref u and gap = ref infinity in
      List.iter
        (fun x ->
          let here = Float.abs (Netgraph.Apsp.delay apsp u x -. half) in
          if here < !gap then begin
            gap := here;
            best := x
          end)
        p;
      !best)

let evaluate apsp ~candidate ~bound ~group_size ~trials ~seed =
  let g = Netgraph.Apsp.graph apsp in
  let n = Netgraph.Graph.node_count g in
  if group_size >= n then invalid_arg "Placement.evaluate: group too large";
  let rng = Scmp_util.Prng.create seed in
  let total = ref 0.0 in
  for _ = 1 to trials do
    let members =
      Scmp_util.Prng.sample rng group_size n
      |> List.filter (fun x -> x <> candidate)
    in
    let tree = Mtree.Dcdm.build apsp ~root:candidate ~bound ~members in
    total := !total +. Mtree.Eval.tree_cost tree
  done;
  !total /. float_of_int trials
