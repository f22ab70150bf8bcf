(* Micro-benchmark rows micro/placement-1000* (see W_micro). *)

open Bench_util

(* Placement rule 1 on a Waxman-1000: the pruned pick
   ({!Netgraph.Apsp.min_mean_delay_node}, the cut searches) against the
   full scan it replaced — one complete delay Dijkstra per node, an
   index-order argbest over [mean_delay_from] — in paired interleaved
   batches, so the ratio survives host speed drift. Neither side
   memoizes an SPT, so every pick does the same work. Both search the
   table's live delay CSR, which the first pick (the assertion below)
   leaves pruned. A pick takes
   tenths of a second, so every batch is one pick and each side's
   ns/run is its fastest pick. Returns (ref / pruned median ratio,
   pruned ns, ref ns). *)
let run g ~k ~min_batch_s =
  let apsp = Netgraph.Apsp.compute g in
  let n = Netgraph.Graph.node_count g in
  let full_scan () =
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
  let pruned () = Netgraph.Apsp.min_mean_delay_node apsp in
  (* the reference must find the same node, not a cheaper answer *)
  assert (pruned () = full_scan ());
  let fastest = ref infinity and fastest_ref = ref infinity in
  let timed best f () =
    let r, s = Obs.Clock.time f in
    if s < !best then best := s;
    r
  in
  let ratio =
    paired_ratio ~k ~min_batch_s (timed fastest pruned)
      (timed fastest_ref full_scan)
  in
  (ratio, !fastest *. 1e9, !fastest_ref *. 1e9)
