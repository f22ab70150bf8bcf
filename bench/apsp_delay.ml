(* Micro-benchmark rows micro/apsp-delay-1000* (see W_micro). *)

(* Delay SPTs for a fixed sequence of 300 sources on a fresh
   Waxman-1000 table, each run in place ({!Netgraph.Apsp.with_delay_spt}),
   so the table's live delay CSR starts full and shrinks along the
   sequence; against plain full-CSR {!Netgraph.Dijkstra.run}s over the
   same sequence, source by source, so the ratio survives host speed
   drift. [Apsp.compute] memoizes per graph, so every round builds a
   physically new copy of the graph (same links, same edge ids) and
   with it a fresh table, outside the timed region. Returns the median
   over [k] rounds of (ref time / live time), and each side's fastest
   round in ns. *)
let run g ~k =
  let sources =
    Scmp_util.Prng.sample (Scmp_util.Prng.create 31) 300
      (Netgraph.Graph.node_count g)
  in
  let copy () =
    Netgraph.Graph.map_links g ~f:(fun l -> (l.Netgraph.Graph.delay, l.cost))
  in
  let ws = Netgraph.Dijkstra.create_workspace () in
  let full s =
    let r =
      Netgraph.Dijkstra.run ~ws g ~metric:Netgraph.Dijkstra.Delay ~source:s
    in
    let e = Netgraph.Dijkstra.eccentricity r in
    Netgraph.Dijkstra.recycle ws r;
    e
  in
  (* One round: each source's live search, then its full one, each
     timed on its own, so host drift hits both sides alike. *)
  let round () =
    let t = Netgraph.Apsp.compute (copy ()) in
    List.fold_left
      (fun (sl, sf) s ->
        let e, dl =
          Obs.Clock.time (fun () ->
              Netgraph.Apsp.with_delay_spt t s Netgraph.Dijkstra.eccentricity)
        in
        let e', df = Obs.Clock.time (fun () -> full s) in
        (* both sides must compute the same trees, not a cheaper answer *)
        assert (e = e');
        (sl +. dl, sf +. df))
      (0.0, 0.0) sources
  in
  let fastest = ref infinity and fastest_ref = ref infinity in
  let ratios =
    Array.init k (fun _ ->
        let s, s_ref = round () in
        fastest := Float.min !fastest s;
        fastest_ref := Float.min !fastest_ref s_ref;
        s_ref /. s)
  in
  Array.sort compare ratios;
  (ratios.(k / 2), !fastest *. 1e9, !fastest_ref *. 1e9)
