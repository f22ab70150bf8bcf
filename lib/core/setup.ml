type t = { scenario : Protocols.Runner.scenario; apsp : Netgraph.Apsp.t }

let draw ~rng ~group_size ?packets spec =
  let g = spec.Topology.Spec.graph in
  let n = Netgraph.Graph.node_count g in
  let apsp = Netgraph.Apsp.compute g in
  let center = Placement.pick apsp Placement.Min_avg_delay in
  let k = max 0 (min group_size (n - 1)) in
  let members =
    Scmp_util.Prng.sample rng k n |> List.filter (fun x -> x <> center)
  in
  match members with
  | [] ->
    Error
      (Printf.sprintf
         "%s: a group of %d sampled no member besides the m-router (node %d)"
         spec.Topology.Spec.name group_size center)
  | source :: _ as members ->
    Ok
      {
        scenario =
          Protocols.Runner.make ?data_count:packets ~spec ~center ~source
            ~members ();
        apsp;
      }
