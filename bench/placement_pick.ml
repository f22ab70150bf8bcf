(* Micro-benchmark rows micro/placement-1000* (see W_micro). *)

(* Placement rule 1 on a Waxman-1000: the pruned pick
   ({!Netgraph.Apsp.min_mean_delay_node}, the cut searches) against the
   full scan it replaced — one complete delay Dijkstra per node, an
   index-order argbest over [mean_delay_from] — paired round by round,
   so the ratio survives host speed drift. A table keeps its rule-1
   pick, so every round builds a fresh table over a physically new copy
   of the graph (same links, same edge ids) and runs one untimed full
   scan on it first: that leaves the table's live delay CSR pruned as a
   table's first pick finds it after earlier whole-table scans, and
   memoizes no SPT. The round then times the pruned pick, then the full
   scan, on that table. Returns the median over [k] rounds of (ref time
   / pruned time), and each side's fastest round in ns. *)
let run g ~k =
  let n = Netgraph.Graph.node_count g in
  let copy () =
    Netgraph.Graph.map_links g ~f:(fun l -> (l.Netgraph.Graph.delay, l.cost))
  in
  let full_scan apsp =
    let best = ref 0 and best_mean = ref (Netgraph.Apsp.mean_delay_from apsp 0) in
    for x = 1 to n - 1 do
      let m = Netgraph.Apsp.mean_delay_from apsp x in
      if m < !best_mean then begin
        best := x;
        best_mean := m
      end
    done;
    !best
  in
  let fastest = ref infinity and fastest_ref = ref infinity in
  let ratios =
    Array.init k (fun _ ->
        let apsp = Netgraph.Apsp.compute (copy ()) in
        ignore (full_scan apsp);
        let picked, s =
          Obs.Clock.time (fun () -> Netgraph.Apsp.min_mean_delay_node apsp)
        in
        let oracle, s_ref = Obs.Clock.time (fun () -> full_scan apsp) in
        (* the reference must find the same node, not a cheaper answer *)
        assert (picked = oracle);
        fastest := Float.min !fastest s;
        fastest_ref := Float.min !fastest_ref s_ref;
        s_ref /. s)
  in
  Array.sort compare ratios;
  (ratios.(k / 2), !fastest *. 1e9, !fastest_ref *. 1e9)
