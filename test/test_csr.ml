(* Differential tests for the frozen CSR graph core.

   The immutable int-array representation (offsets / neighbor ids /
   edge ids / per-edge metric arrays) and the radix-heap Dijkstra on
   top of it must answer *exactly* like a plain adjacency-list oracle
   driven by the textbook algorithm with the binary-heap frontier —
   distances, predecessors and companion metrics alike, ties included —
   across random Waxman topologies and quantized-weight graphs built to
   force ties. Plus builder-misuse checks and a radix-heap unit suite
   (FIFO tie order, monotone floor, batch pops, image encoding). *)

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
      let u, v = G.edge_ends g e in
      if not ((u = x && v = nbr.(s)) || (v = x && u = nbr.(s))) then
        ok := false;
      if G.edge_delay g e <> del.(s) || G.edge_cost g e <> cost.(s) then
        ok := false;
      if G.edge_id_opt g x nbr.(s) <> Some e then ok := false
    done;
    (* iter_neighbors walks the same slots *)
    let via_iter = ref [] in
    G.iter_neighbors g x (fun y ~delay ~cost ->
        via_iter := (y, delay, cost) :: !via_iter);
    if List.rev !via_iter <> adj.(x) then ok := false;
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

(* The filtered drain loop (pop_run batches) is a separate code path
   from the fused unfiltered one; with an always-true filter both must
   produce the oracle's answer, ties included. *)
let prop_dijkstra_filtered_noop =
  QCheck.Test.make
    ~name:"filtered drain with always-true filters = oracle" ~count:40
    QCheck.small_nat
    (fun seed ->
      let g = quantized_of_seed seed in
      let source = seed mod G.node_count g in
      check_dijkstra ~ws:shared_ws g ~metric:Dijkstra.Delay ~source
      &&
      let adj = adjacency g in
      let dist_o, pred_o, _ = dijkstra_oracle adj ~metric:Dijkstra.Delay ~source in
      let r =
        Dijkstra.run ~ws:shared_ws ~node_ok:(fun _ -> true)
          ~edge_ok:(fun _ -> true) g ~metric:Dijkstra.Delay ~source
      in
      let ok = ref true in
      for x = 0 to G.node_count g - 1 do
        if Dijkstra.dist r x <> dist_o.(x) then ok := false;
        match Dijkstra.parent r x with
        | Some p -> if p <> pred_o.(x) then ok := false
        | None -> if x <> source && dist_o.(x) < infinity then ok := false
      done;
      Dijkstra.recycle shared_ws r;
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
  Alcotest.check Alcotest.int "reusable after clear" 9 (Radix.pop_min h);
  Alcotest.check Alcotest.int "pop_run on empty" 0 (Radix.pop_run h [| 0 |])

let test_radix_pop_run () =
  let h = Radix.create () in
  let buf = Array.make 2 0 in
  Radix.add h ~key:1.0 1;
  Radix.add h ~key:1.0 2;
  Radix.add h ~key:1.0 3;
  Radix.add h ~key:2.0 4;
  (* capped run continues on the next call; runs never mix keys *)
  Alcotest.check Alcotest.int "capped run" 2 (Radix.pop_run h buf);
  Alcotest.(check (list int)) "first chunk" [ 1; 2 ] (Array.to_list buf);
  Alcotest.check Alcotest.int "run tail" 1 (Radix.pop_run h buf);
  Alcotest.check Alcotest.int "tail value" 3 buf.(0);
  Alcotest.check Alcotest.int "next key alone" 1 (Radix.pop_run h buf);
  Alcotest.check Alcotest.int "next value" 4 buf.(0);
  Alcotest.check Alcotest.int "empty run" 0 (Radix.pop_run h buf)

(* Random monotone traces: the radix heap must pop exactly like the
   binary heap under any legal schedule (adds never below the last
   popped key), through every entry point — [add] and [add_image],
   [min_image] then [pop_min], a bare [min_image] peek whose memo the
   next adds must invalidate, [pop], and [pop_run] into a 3-slot
   buffer (capped runs included) — and across [clear] on a non-empty
   heap, a drain to empty, and reuse after both. Keys are quantized so
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
      let buf = Array.make 3 0 in
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
        match Prng.int rng 4 with
        | 0 -> (
          match Radix.pop rh with
          | Some kv -> expect kv
          | None -> ok := !ok && Heap.is_empty bh)
        | 1 when not (Radix.is_empty rh) ->
          let k = Radix.key_of_image (Radix.min_image rh) in
          expect (k, Radix.pop_min rh)
        | 2 ->
          (* peek only: the located minimum stays memoized across the
             adds that follow *)
          let want =
            match Heap.peek bh with
            | Some (k, _) -> Radix.image k
            | None -> max_int
          in
          ok := !ok && Radix.min_image rh = want
        | _ ->
          let n = Radix.pop_run rh buf in
          (* the oracle's run: the next entries sharing the minimum key,
             as many as the buffer holds *)
          let run_key = Option.map fst (Heap.peek bh) in
          for i = 0 to n - 1 do
            match Heap.pop bh with
            | Some (k, v) ->
              floor := k;
              ok := !ok && Some k = run_key && v = buf.(i)
            | None -> ok := false
          done;
          ok :=
            !ok
            && (n = Array.length buf
               || Option.map fst (Heap.peek bh) <> run_key
               || run_key = None)
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
          Heap.clear bh;
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
          QCheck_alcotest.to_alcotest prop_dijkstra_filtered_noop;
          QCheck_alcotest.to_alcotest prop_mst_weight;
        ] );
      ( "builder",
        [ Alcotest.test_case "misuse raises" `Quick test_builder_misuse ] );
      ( "radix-heap",
        [
          Alcotest.test_case "fifo tie order" `Quick test_radix_fifo;
          Alcotest.test_case "monotone floor" `Quick test_radix_floor;
          Alcotest.test_case "pop_run batches" `Quick test_radix_pop_run;
          QCheck_alcotest.to_alcotest prop_radix_trace;
          QCheck_alcotest.to_alcotest prop_image_order;
        ] );
    ]
