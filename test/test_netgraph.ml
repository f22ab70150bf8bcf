(* Tests for the netgraph library: graphs, paths, Dijkstra (validated
   against Bellman-Ford), all-pairs tables, MSTs. *)

module G = Netgraph.Graph
module P = Netgraph.Path
module D = Netgraph.Dijkstra
module A = Netgraph.Apsp
module M = Netgraph.Mst
module Prng = Scmp_util.Prng

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checkf msg = Alcotest.check (Alcotest.float 1e-9) msg
let checkfo msg = Alcotest.check Alcotest.(option (float 1e-9)) msg

(* The paper's Fig 5 example network: 6 nodes; labels (delay, cost).
   0 is the m-router; 1..5 as drawn (members g1=4, g2=3, g3=5). *)
let fig5 () =
  G.of_links ~n:6
    [
      (0, 1, 3.0, 6.0);
      (0, 2, 2.0, 6.0);
      (0, 3, 4.0, 5.0);
      (1, 2, 3.0, 3.0);
      (1, 4, 9.0, 3.0);
      (2, 3, 3.0, 2.0);
      (3, 5, 7.0, 2.0);
      (2, 5, 9.0, 3.0);
    ]

let random_graph seed n extra =
  let rng = Prng.create seed in
  let extra = min extra ((n * (n - 1) / 2) - (n - 1)) in
  let bld = G.Builder.create n in
  (* random spanning tree + extra random links *)
  for v = 1 to n - 1 do
    let u = Prng.int rng v in
    G.Builder.add_link bld u v
      ~delay:(1.0 +. Prng.float rng 9.0)
      ~cost:(1.0 +. Prng.float rng 9.0)
  done;
  let added = ref 0 in
  while !added < extra do
    let u = Prng.int rng n and v = Prng.int rng n in
    if u <> v && not (G.Builder.has_link bld u v) then begin
      G.Builder.add_link bld u v
        ~delay:(1.0 +. Prng.float rng 9.0)
        ~cost:(1.0 +. Prng.float rng 9.0);
      incr added
    end
  done;
  G.Builder.freeze bld

(* ---------------- Graph ---------------- *)

let test_graph_basic () =
  let g = fig5 () in
  checki "nodes" 6 (G.node_count g);
  checki "links" 8 (G.link_count g);
  checkb "has link" true (G.has_link g 0 1);
  checkb "symmetric" true (G.has_link g 1 0);
  checkb "absent" false (G.has_link g 4 5);
  checkfo "delay" (Some 3.0) (G.link_delay_opt g 0 1);
  checkfo "cost" (Some 6.0) (G.link_cost_opt g 1 0);
  checki "degree of 2" 4 (G.degree g 2);
  Alcotest.check (Alcotest.float 1e-9) "mean degree" (16.0 /. 6.0) (G.mean_degree g)

let test_graph_errors () =
  let bld = G.Builder.create 3 in
  G.Builder.add_link bld 0 1 ~delay:1.0 ~cost:1.0;
  Alcotest.check_raises "self loop"
    (Invalid_argument "Graph.Builder.add_link: self-loop") (fun () ->
      G.Builder.add_link bld 1 1 ~delay:1.0 ~cost:1.0);
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Graph.Builder.add_link: duplicate link") (fun () ->
      G.Builder.add_link bld 1 0 ~delay:2.0 ~cost:2.0);
  Alcotest.check_raises "bad delay"
    (Invalid_argument "Graph.Builder.add_link: delay and cost must be positive")
    (fun () -> G.Builder.add_link bld 1 2 ~delay:0.0 ~cost:1.0);
  Alcotest.check_raises "negative node count"
    (Invalid_argument "Graph.Builder.create: negative node count") (fun () ->
      ignore (G.Builder.create (-1)));
  let g = G.Builder.freeze bld in
  checkfo "missing link delay opt" None (G.link_delay_opt g 0 2);
  checkfo "missing link cost opt" None (G.link_cost_opt g 2 0);
  checkfo "present link cost opt" (Some 1.0) (G.link_cost_opt g 1 0)

let test_graph_components () =
  let links = [ (0, 1, 1.0, 1.0); (2, 3, 1.0, 1.0) ] in
  let g = G.of_links ~n:5 links in
  checkb "disconnected" false (G.is_connected g);
  Alcotest.check
    Alcotest.(list (list int))
    "components" [ [ 0; 1 ]; [ 2; 3 ]; [ 4 ] ] (G.components g);
  let g2 =
    G.of_links ~n:5 (links @ [ (1, 2, 1.0, 1.0); (3, 4, 1.0, 1.0) ])
  in
  checkb "now connected" true (G.is_connected g2)

let test_graph_trivial_connectivity () =
  checkb "empty graph connected" true (G.is_connected (G.of_links ~n:0 []));
  checkb "single node connected" true (G.is_connected (G.of_links ~n:1 []))

let test_graph_links_order () =
  let g = fig5 () in
  let ls = G.links g in
  checki "every link once" 8 (List.length ls);
  List.iter (fun (l : G.link) -> checkb "u < v" true (l.u < l.v)) ls

let test_graph_map_links () =
  let g = fig5 () in
  let doubled = G.map_links g ~f:(fun l -> (l.G.delay *. 2.0, l.G.cost)) in
  checkfo "delay doubled" (Some 6.0) (G.link_delay_opt doubled 0 1);
  checkfo "cost kept" (Some 6.0) (G.link_cost_opt doubled 0 1);
  checki "same structure" (G.link_count g) (G.link_count doubled);
  (* The simulator's graph is one more map: delays scaled to seconds. *)
  let spec = Topology.Spec.make ~name:"fig5" ~graph:g ~coords:(Array.make 6 (0, 0)) in
  let sim = Topology.Spec.sim_graph spec in
  checki "sim graph: same structure" (G.link_count g) (G.link_count sim);
  let scale (l : G.link) = Option.get (G.link_delay_opt sim l.u l.v) /. l.delay in
  let k = scale (List.hd (G.links g)) in
  checkb "sim graph: grid units become microseconds" true (k > 1e-7 && k < 1e-5);
  List.iter
    (fun (l : G.link) ->
      checkfo "sim graph: cost kept" (Some l.cost) (G.link_cost_opt sim l.u l.v);
      checkb "sim graph: one delay scale" true (Float.abs (scale l -. k) <= 1e-12 *. k))
    (G.links g)

let test_graph_neighbors () =
  let g = fig5 () in
  Alcotest.check Alcotest.(list int) "neighbors of 0" [ 1; 2; 3 ] (G.neighbors g 0);
  let total =
    List.fold_left
      (fun acc y -> acc +. Option.get (G.link_cost_opt g 0 y))
      0.0 (G.neighbors g 0)
  in
  checkf "fold over costs" 17.0 total

(* ---------------- Path ---------------- *)

let test_path_metrics () =
  let g = fig5 () in
  checkf "path delay" 6.0 (P.delay g [ 0; 1; 2 ]);
  checkf "path cost" 9.0 (P.cost g [ 0; 1; 2 ]);
  checkf "singleton delay" 0.0 (P.delay g [ 3 ]);
  checkb "valid path" true (P.is_valid g [ 0; 1; 4 ]);
  checkb "broken path" false (P.is_valid g [ 0; 4 ]);
  checkb "repeated node invalid" false (P.is_valid g [ 0; 1; 2; 0 ]);
  checkb "empty invalid" false (P.is_valid g [])

let test_path_concat () =
  Alcotest.check Alcotest.(list int) "concat" [ 0; 1; 2; 3 ] (P.concat [ 0; 1; 2 ] [ 2; 3 ]);
  Alcotest.check_raises "mismatch"
    (Invalid_argument "Path.concat: paths do not share an endpoint") (fun () ->
      ignore (P.concat [ 0; 1 ] [ 2; 3 ]))

let test_path_edges () =
  Alcotest.check
    Alcotest.(list (pair int int))
    "edges" [ (4, 1); (1, 0) ] (P.edges [ 4; 1; 0 ]);
  Alcotest.check Alcotest.(list (pair int int)) "no edge" [] (P.edges [ 9 ])

(* ---------------- Dijkstra ---------------- *)

let test_dijkstra_fig5 () =
  let g = fig5 () in
  let r = D.run g ~metric:D.Delay ~source:0 in
  checkf "d(0)" 0.0 (D.dist r 0);
  checkf "d(1)" 3.0 (D.dist r 1);
  checkf "d(2)" 2.0 (D.dist r 2);
  checkf "d(3)" 4.0 (D.dist r 3);
  checkf "d(4) via 1" 12.0 (D.dist r 4);
  checkf "d(5) min(11, 11)" 11.0 (D.dist r 5);
  Alcotest.check Alcotest.(option (list int)) "path to 4" (Some [ 0; 1; 4 ]) (D.path r 4);
  Alcotest.check Alcotest.(option int) "source parent" None (D.parent r 0);
  checkf "eccentricity" 12.0 (D.eccentricity r)

let test_dijkstra_by_cost () =
  let g = fig5 () in
  let r = D.run g ~metric:D.Cost ~source:0 in
  checkf "cost to 3: direct 5" 5.0 (D.dist r 3);
  checkf "cost to 5: 0-3-5 = 7" 7.0 (D.dist r 5)

let test_dijkstra_unreachable () =
  let g = G.of_links ~n:3 [ (0, 1, 1.0, 1.0) ] in
  let r = D.run g ~metric:D.Delay ~source:0 in
  checkb "unreachable" false (D.reachable r 2);
  checkb "dist infinite" true (D.dist r 2 = infinity);
  Alcotest.check Alcotest.(option (list int)) "no path" None (D.path r 2);
  checkb "still no path" true (D.path r 2 = None)

(* A cut search must leave its workspace as a finished one does: an
   empty frontier that kept its bucket storage, and arrays whose reuse
   by the next search changes nothing. Cut and completed bounded
   searches are interleaved with full runs in one workspace; every
   result must match a run in a fresh workspace, slot for slot. *)
let test_dijkstra_cut_keeps_workspace () =
  let g = random_graph 11 120 240 in
  let n = G.node_count g in
  let ws = D.create_workspace () in
  let same what a b =
    for x = 0 to n - 1 do
      let bits f r = Int64.bits_of_float (f r x) in
      if
        bits D.dist a <> bits D.dist b
        || bits D.other_dist a <> bits D.other_dist b
        || D.parent_ix a x <> D.parent_ix b x
        || D.parent_edge_ix a x <> D.parent_edge_ix b x
      then Alcotest.failf "%s: node %d differs from a fresh workspace" what x
    done
  in
  let fresh source =
    D.run ~ws:(D.create_workspace ()) g ~metric:D.Delay ~source
  in
  D.recycle ws (D.run ~ws g ~metric:D.Delay ~source:0);
  let _, slots0 = D.frontier_usage ws in
  checkb "a search grows the frontier" true (slots0 > 0);
  let rng = Prng.create 5 in
  let cuts = ref 0 in
  for i = 1 to 60 do
    let source = Prng.int rng n in
    let sum = Array.fold_left ( +. ) 0.0 (D.dists (fresh source)) in
    (* below the search's own delay sum, just above it (summing in
       settle order instead of index order may round up by an ulp or
       so), and unbounded *)
    let cutoff =
      match i mod 3 with
      | 0 -> sum *. 0.5
      | 1 -> sum *. (1.0 +. 1e-9)
      | _ -> infinity
    in
    (match D.run_bounded ~ws g ~metric:D.Delay ~source ~reach:(n - 1) ~cutoff with
    | None ->
      incr cuts;
      let queued, slots = D.frontier_usage ws in
      checki "cut leaves no entry queued" 0 queued;
      checkb "cut keeps the bucket storage" true (slots >= slots0)
    | Some r ->
      same "completed bounded search" r (fresh source);
      D.recycle ws r);
    let next = Prng.int rng n in
    let r = D.run ~ws g ~metric:D.Delay ~source:next in
    same "full run after a bounded one" r (fresh next);
    D.recycle ws r
  done;
  checki "every search below its sum is cut" 20 !cuts

(* Bellman-Ford cross-check on random graphs. *)
let bellman_ford g metric source =
  let n = G.node_count g in
  let dist = Array.make n infinity in
  dist.(source) <- 0.0;
  for _ = 1 to n - 1 do
    G.iter_links g (fun l ->
        let w = match metric with D.Delay -> l.G.delay | D.Cost -> l.G.cost in
        if dist.(l.G.u) +. w < dist.(l.G.v) then dist.(l.G.v) <- dist.(l.G.u) +. w;
        if dist.(l.G.v) +. w < dist.(l.G.u) then dist.(l.G.u) <- dist.(l.G.v) +. w)
  done;
  dist

let prop_dijkstra_vs_bellman_ford =
  QCheck.Test.make ~name:"dijkstra matches bellman-ford" ~count:60
    QCheck.(pair small_int (int_range 2 25))
    (fun (seed, n) ->
      let g = random_graph seed n (n / 2) in
      let r = D.run g ~metric:D.Delay ~source:0 in
      let bf = bellman_ford g D.Delay 0 in
      Array.for_all2 (fun a b -> Float.abs (a -. b) < 1e-6) bf
        (Array.init n (D.dist r)))

let prop_dijkstra_paths_realize_distances =
  QCheck.Test.make ~name:"extracted paths realize reported distances" ~count:60
    QCheck.(pair small_int (int_range 2 25))
    (fun (seed, n) ->
      let g = random_graph (seed + 1000) n (n / 2) in
      let r = D.run g ~metric:D.Cost ~source:0 in
      List.for_all
        (fun v ->
          match D.path r v with
          | None -> false
          | Some p ->
            P.is_valid g p && Float.abs (P.cost g p -. D.dist r v) < 1e-6)
        (List.init n Fun.id))

(* ---------------- Apsp ---------------- *)

let test_apsp_fig5 () =
  let g = fig5 () in
  let a = A.compute g in
  checkf "delay symmetric" (A.delay a 0 5) (A.delay a 5 0);
  checkf "unicast delay 0-5" 11.0 (A.delay a 0 5);
  checkf "least cost 0-5" 7.0 (A.cost a 0 5);
  checkb "sl delay <= lc delay along lc path" true (A.delay a 0 5 <= A.delay_of_lc a 0 5 +. 1e-9);
  checkb "lc cost <= sl cost along sl path" true (A.cost a 0 5 <= A.cost_of_sl a 0 5 +. 1e-9);
  checkf "diagonal" 0.0 (A.delay a 2 2);
  (* farthest pair is 4-5: 4-1-2-5 = 9+3+9 = 21 *)
  checkf "diameter" 21.0 (A.diameter a)

let prop_apsp_metric_coherence =
  QCheck.Test.make ~name:"apsp cross-metric coherence" ~count:40
    QCheck.(pair small_int (int_range 2 20))
    (fun (seed, n) ->
      let g = random_graph (seed + 2000) n (n / 2) in
      let a = A.compute g in
      let ok = ref true in
      for u = 0 to n - 1 do
        for v = 0 to n - 1 do
          if u <> v then begin
            (* the shortest delay is no more than the delay along P_lc,
               and the least cost no more than the cost along P_sl *)
            if A.delay a u v > A.delay_of_lc a u v +. 1e-6 then ok := false;
            if A.cost a u v > A.cost_of_sl a u v +. 1e-6 then ok := false;
            (* concrete paths match their metrics *)
            (match A.sl_path a u v with
            | Some p when Float.abs (P.delay g p -. A.delay a u v) > 1e-6 -> ok := false
            | Some _ -> ()
            | None -> ok := false);
            match A.lc_path a u v with
            | Some p when Float.abs (P.cost g p -. A.cost a u v) > 1e-6 -> ok := false
            | Some _ -> ()
            | None -> ok := false
          end
        done
      done;
      !ok)

let test_apsp_mean_delay () =
  let g = G.of_links ~n:3 [ (0, 1, 2.0, 1.0); (1, 2, 4.0, 1.0) ] in
  let a = A.compute g in
  checkf "mean from middle" 3.0 (A.mean_delay_from a 1);
  checkf "mean from end" 4.0 (A.mean_delay_from a 0)

let prop_apsp_symmetric =
  QCheck.Test.make ~name:"unicast delay and cost are symmetric" ~count:40
    QCheck.(pair small_int (int_range 2 20))
    (fun (seed, n) ->
      let g = random_graph (seed + 4000) n (n / 2) in
      let a = A.compute g in
      let ok = ref true in
      for u = 0 to n - 1 do
        for v = u + 1 to n - 1 do
          if Float.abs (A.delay a u v -. A.delay a v u) > 1e-9 then ok := false;
          if Float.abs (A.cost a u v -. A.cost a v u) > 1e-9 then ok := false
        done
      done;
      !ok)

(* ---------------- Mst ---------------- *)

let test_prim_dense_triangle () =
  let w = [| [| 0.0; 1.0; 4.0 |]; [| 1.0; 0.0; 2.0 |]; [| 4.0; 2.0; 0.0 |] |] in
  let edges = M.prim_dense ~n:3 ~weight:(fun i j -> w.(i).(j)) in
  Alcotest.check
    Alcotest.(list (pair int int))
    "mst edges" [ (0, 1); (1, 2) ] (List.sort compare edges)

let test_prim_dense_trivial () =
  Alcotest.check Alcotest.(list (pair int int)) "n=1" [] (M.prim_dense ~n:1 ~weight:(fun _ _ -> 1.0));
  Alcotest.check Alcotest.(list (pair int int)) "n=0" [] (M.prim_dense ~n:0 ~weight:(fun _ _ -> 1.0))

let test_kruskal_subset () =
  let g = fig5 () in
  let edges = M.kruskal g ~metric:D.Cost ~within:[ 0; 1; 2; 3 ] in
  checki "spanning forest size" 3 (List.length edges);
  (* cheapest in-subset links by cost: 2-3 (2), 1-2 (3), then 0-3 (5) *)
  Alcotest.check
    Alcotest.(list (pair int int))
    "kruskal picks cheap links" [ (0, 3); (1, 2); (2, 3) ]
    (List.sort compare (List.map (fun (a, b) -> (min a b, max a b)) edges))

let prop_mst_total_weight =
  QCheck.Test.make ~name:"prim and kruskal agree on total weight" ~count:40
    QCheck.(pair small_int (int_range 2 15))
    (fun (seed, n) ->
      let g = random_graph (seed + 3000) n n in
      (* complete the graph distances via Dijkstra cost to make a dense
         instance for prim *)
      let a = A.compute g in
      let prim = M.prim_dense ~n ~weight:(fun i j -> A.cost a i j) in
      let total =
        List.fold_left (fun acc (i, j) -> acc +. A.cost a i j) 0.0 prim
      in
      (* kruskal over the original sparse graph spans all nodes with
         total cost <= prim's total (its edges are a subset of metric
         closure weights) is not generally true; instead check prim
         yields n-1 edges and connects everything *)
      let uf = Scmp_util.Unionfind.create n in
      List.iter (fun (i, j) -> ignore (Scmp_util.Unionfind.union uf i j)) prim;
      List.length prim = n - 1 && Scmp_util.Unionfind.count uf = 1 && total > 0.0)

(* ---------------- Dot ---------------- *)

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec probe i = i + nl <= hl && (String.sub hay i nl = needle || probe (i + 1)) in
  probe 0

let test_dot_render () =
  let g = fig5 () in
  let doc =
    Netgraph.Dot.render ~name:"fig5" ~highlight:[ (0, 1); (4, 1) ] ~members:[ 4 ]
      ~root:0 g
  in
  checkb "graph header" true (contains doc "graph \"fig5\" {");
  checkb "edge present" true (contains doc "0 -- 1");
  checkb "highlight colored" true (contains doc "color=red");
  checkb "member filled" true (contains doc "fillcolor=lightblue");
  checkb "root doubled" true (contains doc "shape=doublecircle");
  checkb "closed" true (contains doc "}")

let test_dot_edge_labels_and_coords () =
  let g = fig5 () in
  let coords = Array.init 6 (fun i -> (i * 1000, 500)) in
  let doc = Netgraph.Dot.render ~coords g in
  checkb "positions emitted" true (contains doc "pos=");
  checkb "links carry no labels" false (contains doc "label=")

let test_dot_write_file () =
  let path = Filename.temp_file "scmp" ".dot" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      (match Netgraph.Dot.write_file path "graph {}" with
      | Ok () -> ()
      | Error e -> Alcotest.failf "write: %s" e);
      let ic = open_in path in
      let got =
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      Alcotest.check Alcotest.string "contents" "graph {}" got);
  checkb "bad path errors" true
    (Result.is_error (Netgraph.Dot.write_file "/nonexistent-dir/x.dot" "z"))

let qc = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "netgraph"
    [
      ( "graph",
        [
          Alcotest.test_case "basics" `Quick test_graph_basic;
          Alcotest.test_case "errors" `Quick test_graph_errors;
          Alcotest.test_case "components" `Quick test_graph_components;
          Alcotest.test_case "trivial connectivity" `Quick test_graph_trivial_connectivity;
          Alcotest.test_case "links order" `Quick test_graph_links_order;
          Alcotest.test_case "map_links" `Quick test_graph_map_links;
          Alcotest.test_case "neighbors" `Quick test_graph_neighbors;
        ] );
      ( "path",
        [
          Alcotest.test_case "metrics" `Quick test_path_metrics;
          Alcotest.test_case "concat" `Quick test_path_concat;
          Alcotest.test_case "edges" `Quick test_path_edges;
        ] );
      ( "dijkstra",
        [
          Alcotest.test_case "fig5 delays" `Quick test_dijkstra_fig5;
          Alcotest.test_case "fig5 costs" `Quick test_dijkstra_by_cost;
          Alcotest.test_case "unreachable" `Quick test_dijkstra_unreachable;
          Alcotest.test_case "cut keeps workspace" `Quick
            test_dijkstra_cut_keeps_workspace;
          qc prop_dijkstra_vs_bellman_ford;
          qc prop_dijkstra_paths_realize_distances;
        ] );
      ( "apsp",
        [
          Alcotest.test_case "fig5" `Quick test_apsp_fig5;
          Alcotest.test_case "mean delay" `Quick test_apsp_mean_delay;
          qc prop_apsp_metric_coherence;
          qc prop_apsp_symmetric;
        ] );
      ( "mst",
        [
          Alcotest.test_case "prim triangle" `Quick test_prim_dense_triangle;
          Alcotest.test_case "prim trivial" `Quick test_prim_dense_trivial;
          Alcotest.test_case "kruskal subset" `Quick test_kruskal_subset;
          qc prop_mst_total_weight;
        ] );
      ( "dot",
        [
          Alcotest.test_case "render" `Quick test_dot_render;
          Alcotest.test_case "labels/coords" `Quick test_dot_edge_labels_and_coords;
          Alcotest.test_case "write file" `Quick test_dot_write_file;
        ] );
    ]
