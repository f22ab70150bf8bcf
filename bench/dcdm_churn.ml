(* Micro-benchmark row micro/dcdm-churn-1000 (see W_micro). *)

open Bench_util

(* The m-router request path at scale: DCDM join/leave churn on a
   Waxman-1000, marking the tree's change window before and reading it
   after every op, as the SCMP m-router does to choose between BRANCH
   and TREE distribution. One untimed pass warms the APSP table, so
   later passes force no Dijkstra and measure only DCDM bookkeeping and
   candidate scans. Returns (best-of-k ns per pass, minor words of one
   warmed pass). Run it last: the warmed table is tens of MB, and while
   it is live it slows the measurements around it. *)
let run g ~k ~min_batch_s =
  let apsp = Netgraph.Apsp.compute g in
  let n = Netgraph.Graph.node_count g in
  let churn () =
    let d = Mtree.Dcdm.create apsp ~root:0 ~bound:Mtree.Bound.Moderate () in
    let tr = Mtree.Dcdm.tree d in
    let rng = Scmp_util.Prng.create 17 in
    let changes = ref 0 in
    for _ = 1 to 400 do
      let x = 1 + Scmp_util.Prng.int rng (n - 1) in
      Mtree.Tree.mark tr;
      if Mtree.Tree.is_member tr x then Mtree.Dcdm.leave d x
      else Mtree.Dcdm.join d x;
      if Mtree.Tree.edges_lost tr then incr changes;
      if Mtree.Tree.edges_gained tr then incr changes;
      changes := !changes + List.length (Mtree.Tree.removed_since_mark tr)
    done;
    !changes
  in
  ignore (churn ());
  (* deterministic, so the bench profile gates it with a tight band: an
     allocation creeping back onto the request path fails check.sh on
     any host *)
  let words =
    let w0 = Gc.minor_words () in
    ignore (churn ());
    int_of_float (Gc.minor_words () -. w0)
  in
  (best_of_ns ~k ~min_batch_s (fun () -> ignore (churn ())), words)
