(* Differential tests for the frozen CSR graph core.

   The immutable int-array representation (offsets / neighbor ids /
   edge ids / per-edge metric arrays) and the radix-heap Dijkstra on
   top of it must answer *exactly* like a plain adjacency-list oracle
   driven by the textbook algorithm with the binary-heap frontier —
   distances, predecessors and companion metrics alike, ties included —
   across random Waxman topologies and quantized-weight graphs built to
   force ties. Plus builder-misuse checks and a radix-heap unit suite
   (FIFO tie order, monotone floor, image encoding). *)

module G = Netgraph.Graph
module Dijkstra = Netgraph.Dijkstra
module Mst = Netgraph.Mst
module Heap = Scmp_util.Heap
module Radix = Scmp_util.Radix_heap
module Prng = Scmp_util.Prng

(* ------------------------------------------------------------------ *)
(* Oracles                                                            *)

(* Adjacency-list mirror of a frozen graph, built from the public link
   list only (never the csr_* accessors): per node, (neighbor, delay,
   cost) in link insertion order — the order the CSR slots promise. *)
let adjacency g =
  let n = G.node_count g in
  let adj = Array.make n [] in
  G.iter_links g (fun l ->
      adj.(l.G.u) <- (l.G.v, l.G.delay, l.G.cost) :: adj.(l.G.u);
      adj.(l.G.v) <- (l.G.u, l.G.delay, l.G.cost) :: adj.(l.G.v));
  Array.map List.rev adj

(* Textbook Dijkstra over the adjacency oracle: binary-heap frontier
   (FIFO on equal keys), relaxation in adjacency order. Returns
   (dist, pred, other) where [other] accumulates the companion metric
   along the chosen path. *)
let dijkstra_oracle adj ~metric ~source =
  let n = Array.length adj in
  let dist = Array.make n infinity in
  let pred = Array.make n (-1) in
  let other = Array.make n infinity in
  let settled = Array.make n false in
  let h = Heap.create () in
  dist.(source) <- 0.0;
  other.(source) <- 0.0;
  Heap.add h ~key:0.0 source;
  let rec drain () =
    match Heap.pop h with
    | None -> ()
    | Some (d, x) ->
      if not settled.(x) then begin
        settled.(x) <- true;
        List.iter
          (fun (y, delay, cost) ->
            let w, c =
              match metric with
              | Dijkstra.Delay -> (delay, cost)
              | Dijkstra.Cost -> (cost, delay)
            in
            let nd = d +. w in
            if nd < dist.(y) then begin
              dist.(y) <- nd;
              pred.(y) <- x;
              other.(y) <- other.(x) +. c;
              Heap.add h ~key:nd y
            end)
          adj.(x)
      end;
      drain ()
  in
  drain ();
  (dist, pred, other)

(* Minimum-spanning-forest weight by Kruskal with union-find; the MSF
   weight is unique even when tie-breaking differs. *)
let msf_weight_oracle g ~metric =
  let n = G.node_count g in
  let parent = Array.init n (fun i -> i) in
  let rec find x = if parent.(x) = x then x else find parent.(x) in
  let edges = ref [] in
  G.iter_links g (fun l ->
      let w = match metric with Dijkstra.Delay -> l.G.delay | Dijkstra.Cost -> l.G.cost in
      edges := (w, l.G.u, l.G.v) :: !edges);
  let edges = List.sort compare !edges in
  List.fold_left
    (fun acc (w, u, v) ->
      let ru = find u and rv = find v in
      if ru = rv then acc
      else begin
        parent.(ru) <- rv;
        acc +. w
      end)
    0.0 edges

(* ------------------------------------------------------------------ *)
(* Random graphs                                                      *)

let waxman_of_seed seed =
  let n = 12 + (seed mod 24) in
  (Topology.Waxman.generate ~seed:(seed + 1) ~n ()).Topology.Spec.graph

(* Quantized weights from a tiny set make equal-length paths (and so
   tie-breaking differences) common instead of measure-zero. *)
let quantized_of_seed seed =
  let rng = Prng.create ((seed * 48271) + 7) in
  let n = 6 + Prng.int rng 10 in
  let b = G.Builder.create n in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      if Prng.chance rng 0.4 then
        G.Builder.add_link b u v
          ~delay:(float_of_int (1 + Prng.int rng 3))
          ~cost:(float_of_int (1 + Prng.int rng 2))
    done
  done;
  G.Builder.freeze b

(* ------------------------------------------------------------------ *)
(* CSR layout vs the public API                                       *)

let check_csr_layout g =
  let n = G.node_count g in
  let off = G.csr_offsets g in
  let nbr = G.csr_neighbors g in
  let eid = G.csr_edge_ids g in
  let del = G.csr_delays g in
  let cost = G.csr_costs g in
  let adj = adjacency g in
  let ok = ref (Array.length off = n + 1 && off.(n) = 2 * G.edge_count g) in
  for x = 0 to n - 1 do
    (* slots of x = adjacency of x, same order, same params *)
    let slots = ref [] in
    for s = off.(x + 1) - 1 downto off.(x) do
      slots := (nbr.(s), del.(s), cost.(s)) :: !slots
    done;
    if !slots <> adj.(x) then ok := false;
    (* edge ids point back at the (x, y) link *)
    for s = off.(x) to off.(x + 1) - 1 do
      let e = eid.(s) in
      let u, v = (G.edge_u g e, G.edge_v g e) in
      if not ((u = x && v = nbr.(s)) || (v = x && u = nbr.(s))) then
        ok := false;
      if G.edge_delay g e <> del.(s) || G.edge_cost g e <> cost.(s) then
        ok := false;
      if G.edge_id_opt g x nbr.(s) <> Some e then ok := false
    done;
    if G.degree g x <> List.length adj.(x) then ok := false
  done;
  (* option lookups agree with the oracle in both directions *)
  Array.iteri
    (fun x l ->
      List.iter
        (fun (y, d, c) ->
          if G.link_delay_opt g x y <> Some d then ok := false;
          if G.link_cost_opt g y x <> Some c then ok := false)
        l)
    adj;
  !ok

let prop_csr_layout =
  QCheck.Test.make ~name:"CSR arrays mirror the adjacency oracle" ~count:40
    QCheck.small_nat
    (fun seed -> check_csr_layout (waxman_of_seed seed))

(* ------------------------------------------------------------------ *)
(* Dijkstra differential                                              *)

let check_dijkstra ?ws g ~metric ~source =
  let adj = adjacency g in
  let dist_o, pred_o, other_o = dijkstra_oracle adj ~metric ~source in
  let r = Dijkstra.run ?ws g ~metric ~source in
  let n = G.node_count g in
  let ok = ref true in
  for x = 0 to n - 1 do
    if Dijkstra.dist r x <> dist_o.(x) then ok := false;
    if Dijkstra.other_dist r x <> other_o.(x) then ok := false;
    (match Dijkstra.parent r x with
    | Some p -> if p <> pred_o.(x) then ok := false
    | None -> if x <> source && dist_o.(x) < infinity then ok := false);
    (* parent edge really is the (pred, x) link *)
    match Dijkstra.parent_edge r x with
    | None -> ()
    | Some e ->
      if G.edge_id_opt g pred_o.(x) x <> Some e then ok := false
  done;
  (match ws with Some ws -> Dijkstra.recycle ws r | None -> ());
  !ok

(* One workspace across all cases: every iteration reuses the previous
   iteration's pooled arrays, heap and scratch — the arena is part of
   what is under test. *)
let shared_ws = Dijkstra.create_workspace ()

let prop_dijkstra_waxman =
  QCheck.Test.make
    ~name:"radix Dijkstra = binary-heap oracle (Waxman, both metrics)"
    ~count:40 QCheck.small_nat
    (fun seed ->
      let g = waxman_of_seed seed in
      let source = seed mod G.node_count g in
      check_dijkstra ~ws:shared_ws g ~metric:Dijkstra.Delay ~source
      && check_dijkstra g ~metric:Dijkstra.Cost ~source)

let prop_dijkstra_ties =
  QCheck.Test.make
    ~name:"radix Dijkstra tie-breaking = oracle (quantized weights)"
    ~count:60 QCheck.small_nat
    (fun seed ->
      let g = quantized_of_seed seed in
      let source = seed mod G.node_count g in
      check_dijkstra ~ws:shared_ws g ~metric:Dijkstra.Delay ~source
      && check_dijkstra g ~metric:Dijkstra.Cost ~source)

(* A masked view stands for the subgraph of its live links: after any
   sequence of kills and revivals, a search over it (both metrics,
   through the shared workspace) must answer like the oracle over a
   freshly frozen copy of exactly the live links, ties included —
   revived links relax in their original slot position. *)
let prop_dijkstra_masked =
  QCheck.Test.make
    ~name:"masked view = oracle over the surviving subgraph" ~count:60
    QCheck.small_nat
    (fun seed ->
      let g = quantized_of_seed seed in
      let n = G.node_count g and m = G.edge_count g in
      let rng = Prng.create ((seed * 69069) + 1) in
      let dead = Array.init m (fun _ -> Prng.chance rng 0.3) in
      let lv = Dijkstra.masked g (fun e -> not dead.(e)) in
      let agrees () =
        let b = G.Builder.create n in
        G.iter_links g (fun l ->
            match G.edge_id_opt g l.G.u l.G.v with
            | Some e when not dead.(e) ->
              G.Builder.add_link b l.G.u l.G.v ~delay:l.G.delay ~cost:l.G.cost
            | Some _ | None -> ());
        let adj = adjacency (G.Builder.freeze b) in
        let source = Prng.int rng n in
        List.for_all
          (fun metric ->
            let dist_o, pred_o, other_o = dijkstra_oracle adj ~metric ~source in
            let r = Dijkstra.run ~ws:shared_ws ~live:lv g ~metric ~source in
            let ok = ref (Dijkstra.dead_count lv = Array.fold_left (fun k d -> if d then k + 1 else k) 0 dead) in
            for x = 0 to n - 1 do
              if Dijkstra.dist r x <> dist_o.(x) then ok := false;
              if Dijkstra.other_dist r x <> other_o.(x) then ok := false;
              match Dijkstra.parent r x with
              | Some p -> if p <> pred_o.(x) then ok := false
              | None -> if x <> source && dist_o.(x) < infinity then ok := false
            done;
            Dijkstra.recycle shared_ws r;
            !ok)
          [ Dijkstra.Delay; Dijkstra.Cost ]
      in
      let ok = ref (agrees ()) in
      for _ = 1 to 8 do
        if m > 0 then begin
          let e = Prng.int rng m in
          if dead.(e) then Dijkstra.revive lv e else Dijkstra.kill lv e;
          dead.(e) <- not dead.(e);
          ok := !ok && agrees ()
        end
      done;
      !ok)

let prop_mst_weight =
  QCheck.Test.make ~name:"kruskal forest weight = union-find oracle"
    ~count:40 QCheck.small_nat
    (fun seed ->
      let g = if seed mod 2 = 0 then waxman_of_seed seed else quantized_of_seed seed in
      let within = List.init (G.node_count g) (fun i -> i) in
      let w =
        List.fold_left
          (fun acc (u, v) ->
            match G.link_delay_opt g u v with
            | Some d -> acc +. d
            | None -> nan)
          0.0
          (Mst.kruskal g ~metric:Dijkstra.Delay ~within)
      in
      w = msf_weight_oracle g ~metric:Dijkstra.Delay)

(* ------------------------------------------------------------------ *)
(* Live delay CSR                                                     *)

module Apsp = Netgraph.Apsp

(* Chained triangles a-b-c with tiny sides and a direct a-c link longer
   than a-b-c by 3 parts in 10^9 of itself, joined by unit-scale links:
   the a-c links sit above a slack relative to the link but far below
   the absolute one, which must keep them live. *)
let near_tie_of_seed seed =
  let rng = Prng.create ((seed * 7919) + 3) in
  let k = 3 + Prng.int rng 5 in
  let b = G.Builder.create (3 * k) in
  for t = 0 to k - 1 do
    let a = 3 * t in
    let x = 1e-6 *. (1.0 +. Prng.float rng 1.0) in
    let y = 1e-6 *. (1.0 +. Prng.float rng 1.0) in
    G.Builder.add_link b a (a + 1) ~delay:x ~cost:1.0;
    G.Builder.add_link b (a + 1) (a + 2) ~delay:y ~cost:1.0;
    G.Builder.add_link b a (a + 2) ~delay:((x +. y) *. (1.0 +. 3e-9)) ~cost:1.0;
    if t > 0 then
      G.Builder.add_link b (a - 1) a ~delay:(1.0 +. Prng.float rng 9.0) ~cost:1.0
  done;
  G.Builder.freeze b

(* Two random components and an isolated node. *)
let disconnected_of_seed seed =
  let rng = Prng.create ((seed * 104729) + 11) in
  let n1 = 4 + Prng.int rng 8 and n2 = 3 + Prng.int rng 8 in
  let n = n1 + n2 + 1 in
  let b = G.Builder.create n in
  let part lo hi =
    for v = lo + 1 to hi - 1 do
      G.Builder.add_link b (lo + Prng.int rng (v - lo)) v
        ~delay:(1.0 +. Prng.float rng 9.0) ~cost:(1.0 +. Prng.float rng 9.0)
    done;
    for _ = 1 to hi - lo do
      let u = lo + Prng.int rng (hi - lo) and v = lo + Prng.int rng (hi - lo) in
      if u <> v && not (G.Builder.has_link b u v) then
        G.Builder.add_link b u v ~delay:(1.0 +. Prng.float rng 9.0)
          ~cost:(1.0 +. Prng.float rng 9.0)
    done
  in
  part 0 n1;
  part n1 (n1 + n2);
  G.Builder.freeze b

let live_case seed =
  let n = 12 + (seed mod 20) in
  match seed mod 7 with
  | 0 -> ("waxman", waxman_of_seed seed)
  | 1 ->
    ("random3", (Topology.Flat_random.generate ~seed ~n ~avg_degree:3.0).Topology.Spec.graph)
  | 2 ->
    ("random5", (Topology.Flat_random.generate ~seed ~n ~avg_degree:5.0).Topology.Spec.graph)
  | 3 -> ("arpanet", (Topology.Arpanet.generate ~seed).Topology.Spec.graph)
  | 4 -> ("quantized", quantized_of_seed seed)
  | 5 -> ("disconnected", disconnected_of_seed seed)
  | _ -> ("near-tie", near_tie_of_seed seed)

(* Bit-identical SPTs: dist everywhere, other/pred/pred_edge wherever
   they are meaningful (reachable, not the source). *)
let same_spt g a b =
  let src = Dijkstra.source a in
  let ok = ref (src = Dijkstra.source b) in
  for x = 0 to G.node_count g - 1 do
    let bits f r = Int64.bits_of_float (f r x) in
    if
      bits Dijkstra.dist a <> bits Dijkstra.dist b
      || bits Dijkstra.other_dist a <> bits Dijkstra.other_dist b
      || Dijkstra.parent_ix a x <> Dijkstra.parent_ix b x
      || Dijkstra.parent_edge_ix a x <> Dijkstra.parent_edge_ix b x
    then ok := false
  done;
  !ok

(* Rule 1 by brute force over full-graph runs, scored as
   [Apsp.mean_delay_from] scores a source. *)
let full_mean g x =
  let r = Dijkstra.run g ~metric:Dijkstra.Delay ~source:x in
  let total = ref 0.0 and count = ref 0 in
  for y = 0 to G.node_count g - 1 do
    if y <> x && Dijkstra.dist r y < infinity then begin
      total := !total +. Dijkstra.dist r y;
      incr count
    end
  done;
  if !count = 0 then 0.0 else !total /. float_of_int !count

let full_scan_winner g =
  let best = ref 0 and best_mean = ref (full_mean g 0) in
  for x = 1 to G.node_count g - 1 do
    let m = full_mean g x in
    if m < !best_mean then begin
      best := x;
      best_mean := m
    end
  done;
  !best

let rec is_subsequence sub l =
  match (sub, l) with
  | [], _ -> true
  | _ :: _, [] -> false
  | a :: sub', b :: l' -> if a = b then is_subsequence sub' l' else is_subsequence sub l'

(* The live CSR's shape after any sequence of searches: each node's
   live links are a subsequence of its incident links, a link is live
   at both ends or at neither, and every retired link is longer than
   its ends' shortest-delay distance by more than 1e-9 times the sum of
   all link delays (the slack's documented floor). *)
let live_shape_ok g lv =
  let n = G.node_count g in
  let total = ref 0.0 in
  G.iter_links g (fun l -> total := !total +. l.G.delay);
  let slack = 1e-9 *. !total in
  let ok = ref (Dijkstra.live_slack lv >= slack) in
  let live = Array.init n (Dijkstra.live_edges lv) in
  for x = 0 to n - 1 do
    let incident = ref [] in
    G.iter_incident g x (fun e _ -> incident := e :: !incident);
    let incident = List.rev !incident in
    if not (is_subsequence live.(x) incident) then ok := false;
    let dist = lazy (Dijkstra.run g ~metric:Dijkstra.Delay ~source:x) in
    List.iter
      (fun e ->
        let u, v = (G.edge_u g e, G.edge_v g e) in
        let y = if u = x then v else u in
        let live_here = List.mem e live.(x) in
        if live_here <> List.mem e live.(y) then ok := false;
        if
          (not live_here)
          && not (G.edge_delay g e > Dijkstra.dist (Lazy.force dist) y +. slack)
        then ok := false)
      incident
  done;
  !ok

(* One table per case, driven through a random sequence of its
   unfiltered delay searches — memoized SPTs, scratch SPTs, mean delays
   and rule 1's cut searches — each completed SPT checked against a
   fresh full-CSR run; then the live CSR's shape and the rule-1 winner. *)
let prop_live_csr =
  QCheck.Test.make ~name:"live delay CSR = full-CSR Dijkstra" ~count:210
    QCheck.small_nat
    (fun seed ->
      let name, g = live_case seed in
      let n = G.node_count g in
      let t = Apsp.compute g in
      let fresh s = Dijkstra.run g ~metric:Dijkstra.Delay ~source:s in
      let winner = full_scan_winner g in
      let rng = Prng.create (seed + 17) in
      let fail what = QCheck.Test.fail_reportf "%s (seed %d): %s" name seed what in
      for _ = 1 to 2 * n do
        let s = Prng.int rng n in
        match Prng.int rng 6 with
        | 0 | 1 -> if not (same_spt g (Apsp.sl_tree t s) (fresh s)) then fail "sl_tree"
        | 2 | 3 ->
          if not (Apsp.with_delay_spt t s (fun r -> same_spt g r (fresh s))) then
            fail "with_delay_spt"
        | 4 ->
          if
            Int64.bits_of_float (Apsp.mean_delay_from t s)
            <> Int64.bits_of_float (full_mean g s)
          then fail "mean_delay_from"
        | _ -> if Apsp.min_mean_delay_node t <> winner then fail "rule-1 winner"
      done;
      (match Apsp.live t with
      | None -> fail "no live CSR after delay searches"
      | Some lv -> if not (live_shape_ok g lv) then fail "live CSR shape");
      Apsp.min_mean_delay_node t = winner || fail "final rule-1 winner")

(* The live CSR does prune: a full scan of a Waxman-100 (the diameter)
   retires over a quarter of its links (about 40%), and every tree read afterwards is still the
   full-graph one. *)
let test_live_prunes () =
  let g = (Topology.Waxman.generate ~seed:3 ~n:100 ()).Topology.Spec.graph in
  let t = Apsp.compute g in
  ignore (Apsp.diameter t);
  let lv = Option.get (Apsp.live t) in
  let live = ref 0 in
  for x = 0 to G.node_count g - 1 do
    live := !live + List.length (Dijkstra.live_edges lv x)
  done;
  Alcotest.(check bool)
    "under 3/4 of the slots live" true
    (4 * !live < 3 * 2 * G.edge_count g);
  Alcotest.(check bool) "live CSR shape" true (live_shape_ok g lv);
  for s = 0 to G.node_count g - 1 do
    if
      not
        (same_spt g (Apsp.sl_tree t s)
           (Dijkstra.run g ~metric:Dijkstra.Delay ~source:s))
    then Alcotest.failf "source %d: SPT differs from the full graph's" s
  done;
  (* a live CSR serves unfiltered delay searches of its own graph only *)
  Alcotest.check_raises "cost metric"
    (Invalid_argument "Dijkstra.run: a live CSR serves unfiltered delay searches")
    (fun () -> ignore (Dijkstra.run ~live:lv g ~metric:Dijkstra.Cost ~source:0));
  Alcotest.check_raises "a pruned view takes no faults"
    (Invalid_argument "Dijkstra.kill: a pruned view takes no faults")
    (fun () -> Dijkstra.kill lv 0);
  Alcotest.check_raises "another graph"
    (Invalid_argument "Dijkstra.run: live CSR of another graph")
    (fun () ->
      ignore
        (Dijkstra.run ~live:lv (quantized_of_seed 1) ~metric:Dijkstra.Delay
           ~source:0));
  Alcotest.check_raises "bounded search names itself"
    (Invalid_argument "Dijkstra.run_bounded: source out of range")
    (fun () ->
      ignore
        (Dijkstra.run_bounded ~ws:(Dijkstra.create_workspace ()) g
           ~metric:Dijkstra.Delay ~source:(-1) ~reach:0 ~cutoff:infinity))

(* ------------------------------------------------------------------ *)
(* Builder misuse                                                     *)

let test_builder_misuse () =
  let b = G.Builder.create 3 in
  G.Builder.add_link b 0 1 ~delay:1.0 ~cost:1.0;
  let g = G.Builder.freeze b in
  Alcotest.check Alcotest.int "frozen graph usable" 1 (G.edge_count g);
  Alcotest.check_raises "freeze twice"
    (Invalid_argument "Graph.Builder.freeze: builder is already frozen")
    (fun () -> ignore (G.Builder.freeze b));
  Alcotest.check_raises "add after freeze"
    (Invalid_argument "Graph.Builder.add_link: builder is already frozen")
    (fun () -> G.Builder.add_link b 1 2 ~delay:1.0 ~cost:1.0)

(* ------------------------------------------------------------------ *)
(* Radix heap units                                                   *)

let test_radix_fifo () =
  (* equal keys pop in global insertion order, interleaved with other
     keys and across a floor advance *)
  let h = Radix.create () in
  Radix.add h ~key:2.0 1;
  Radix.add h ~key:1.0 10;
  Radix.add h ~key:2.0 2;
  Radix.add h ~key:1.0 11;
  Radix.add h ~key:2.0 3;
  let pops = List.init 5 (fun _ -> Radix.pop_min h) in
  Alcotest.(check (list int)) "fifo on ties" [ 10; 11; 1; 2; 3 ] pops;
  Alcotest.(check bool) "empty" true (Radix.is_empty h)

let test_radix_floor () =
  let h = Radix.create () in
  Alcotest.check_raises "negative key"
    (Invalid_argument
       "Radix_heap.add: key below the extracted minimum (or NaN)")
    (fun () -> Radix.add h ~key:(-1.0) 0);
  (* The floor trails the extracted minimum lazily — it advances when a
     large bucket is redistributed. Enough equal keys force that
     advance deterministically, after which a below-minimum add is
     rejected. *)
  Radix.add h ~key:7.0 2;
  for i = 0 to 19 do
    Radix.add h ~key:5.0 (10 + i)
  done;
  Alcotest.check Alcotest.int "min val" 10 (Radix.pop_min h);
  Alcotest.check_raises "below advanced floor"
    (Invalid_argument
       "Radix_heap.add: key below the extracted minimum (or NaN)")
    (fun () -> Radix.add h ~key:4.0 3);
  (* a key equal to the floor is still fine *)
  Radix.add h ~key:5.0 4;
  Alcotest.check Alcotest.int "fifo after floor add" 11 (Radix.pop_min h);
  Radix.clear h;
  (* clear resets the floor to 0 *)
  Radix.add h ~key:0.0 9;
  Alcotest.check Alcotest.int "reusable after clear" 9 (Radix.pop_min h)

(* Random monotone traces: the radix heap must pop exactly like the
   binary heap under any legal schedule (adds never below the last
   popped key), through every entry point — [add] and [add_image],
   [min_image] then [pop_min], a bare [min_image] peek whose memo the
   next adds must invalidate, and [pop] — and across [clear] on a
   non-empty heap, a drain to empty, and reuse after both. Keys are quantized so
   ties are common; bursts of 24 keys inside one unit interval far above
   the floor share a bucket larger than the 16-entry scan threshold, so
   the floor-advancing redistribution runs too. Payloads are insertion
   sequence numbers, so every pop pins both key order and FIFO order. *)
let prop_radix_trace =
  QCheck.Test.make ~name:"radix heap = binary heap on monotone traces"
    ~count:60 QCheck.small_nat
    (fun seed ->
      let rng = Prng.create ((seed * 31337) + 3) in
      let rh = Radix.create () in
      let bh = Heap.create () in
      let floor = ref 0.0 and seq = ref 0 and ok = ref true in
      let add key =
        incr seq;
        if Prng.chance rng 0.5 then Radix.add rh ~key !seq
        else Radix.add_image rh (Radix.image key) !seq;
        Heap.add bh ~key !seq
      in
      let expect (k, v) =
        floor := k;
        ok := !ok && Heap.pop bh = Some (k, v)
      in
      let pop_one () =
        match Prng.int rng 3 with
        | 0 -> (
          match Radix.pop rh with
          | Some kv -> expect kv
          | None -> ok := !ok && Heap.is_empty bh)
        | 1 when not (Radix.is_empty rh) ->
          let k = Radix.key_of_image (Radix.min_image rh) in
          expect (k, Radix.pop_min rh)
        | _ ->
          (* peek only: the located minimum stays memoized across the
             adds that follow *)
          let want =
            match Heap.peek bh with
            | Some (k, _) -> Radix.image k
            | None -> max_int
          in
          ok := !ok && Radix.min_image rh = want
      in
      let n_ops = 40 + Prng.int rng 160 in
      for _ = 1 to n_ops do
        match Prng.int rng 20 with
        | 0 ->
          for _ = 1 to 24 do
            add (!floor +. 64.0 +. (float_of_int (Prng.int rng 16) /. 16.0))
          done
        | 1 ->
          Radix.clear rh;
          while Heap.pop bh <> None do
            ()
          done;
          floor := 0.0
        | r when r < 11 || Heap.is_empty bh ->
          add (!floor +. (float_of_int (Prng.int rng 8) /. 2.0))
        | _ -> pop_one ()
      done;
      while not (Heap.is_empty bh || Radix.is_empty rh) do
        pop_one ()
      done;
      ok := !ok && Heap.is_empty bh && Radix.is_empty rh && Radix.pop rh = None;
      (* reuse after the drain, with a key below the old floor *)
      Radix.clear rh;
      Radix.add rh ~key:0.5 7;
      !ok && Radix.pop rh = Some (0.5, 7))

let prop_image_order =
  QCheck.Test.make ~name:"image is order-isomorphic on float keys"
    ~count:200
    QCheck.(pair (float_bound_exclusive 1e9) (float_bound_exclusive 1e9))
    (fun (a, b) ->
      let a = Float.abs a and b = Float.abs b in
      compare (Radix.image a) (Radix.image b) = compare a b
      && Radix.key_of_image (Radix.image a) = a
      && Radix.key_of_image (Radix.image b) = b)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "csr"
    [
      ( "differential",
        [
          QCheck_alcotest.to_alcotest prop_csr_layout;
          QCheck_alcotest.to_alcotest prop_dijkstra_waxman;
          QCheck_alcotest.to_alcotest prop_dijkstra_ties;
          QCheck_alcotest.to_alcotest prop_dijkstra_masked;
          QCheck_alcotest.to_alcotest prop_mst_weight;
        ] );
      ( "live-csr",
        [
          QCheck_alcotest.to_alcotest prop_live_csr;
          Alcotest.test_case "prunes and keeps trees" `Quick test_live_prunes;
        ] );
      ( "builder",
        [ Alcotest.test_case "misuse raises" `Quick test_builder_misuse ] );
      ( "radix-heap",
        [
          Alcotest.test_case "fifo tie order" `Quick test_radix_fifo;
          Alcotest.test_case "monotone floor" `Quick test_radix_floor;
          QCheck_alcotest.to_alcotest prop_radix_trace;
          QCheck_alcotest.to_alcotest prop_image_order;
        ] );
    ]
