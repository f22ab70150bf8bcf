type metric = Delay | Cost

let weight g metric a b =
  let w =
    match metric with
    | Delay -> Graph.link_delay_opt g a b
    | Cost -> Graph.link_cost_opt g a b
  in
  match w with Some w -> w | None -> raise Not_found

(* Invariant: [pred], [pred_edge] and [other] are meaningful only where
   [dist.(x) < infinity] and [x <> src] — every accessor guards on that
   before reading them. Pooled runs exploit it: only [dist] is
   re-filled, the other three arrays keep dead values in never-read
   slots. *)
type result = {
  src : Graph.node;
  dist : float array;
  pred : int array;
  pred_edge : int array;  (* edge id of the pred link *)
  other : float array;
      (* the non-selected metric accumulated along the chosen path, kept
         in lockstep with [pred]; summed head-to-tail exactly as
         [Path.delay]/[Path.cost] would over the materialized path, so
         scalar consumers observe bit-identical floats *)
}

(* Scratch arena shared across SPT builds: the radix-heap frontier, an
   epoch-stamped settled array (no per-run clear), and a free pool of
   dead results whose dist/pred/pred_edge/other arrays are reused
   instead of reallocated. Results handed back via [recycle] must be
   dead — the next [run] overwrites their arrays in place. *)
type workspace = {
  heap : int Scmp_util.Radix_heap.t;
  mutable stamp : int array;
  mutable epoch : int;
  mutable pool : result list;
  runbuf : int array;  (* tie-run buffer for Radix_heap.pop_run *)
}

let create_workspace () =
  {
    heap = Scmp_util.Radix_heap.create ();
    stamp = [||];
    epoch = 0;
    pool = [];
    runbuf = Array.make 32 0;
  }

let recycle ws r = ws.pool <- r :: ws.pool

(* Pooled arrays must match the current graph size exactly; stale sizes
   (workspace reused across differently sized graphs) are dropped. *)
let rec take_pooled ws n =
  match ws.pool with
  | [] -> None
  | r :: rest ->
    ws.pool <- rest;
    if Array.length r.dist = n then Some r else take_pooled ws n

(* Raised by a cut search, after its arrays went back to the pool: a
   partial tree never escapes as a result, and a search that completes
   returns its result without a wrapper to allocate. *)
exception Cut

(* [node_ok] / [edge_ok] let the search run directly over the base graph
   plus a fault overlay, without materializing the surviving subgraph: a
   node failing [node_ok] (or an edge id failing [edge_ok]) is treated
   as absent. The source always gets distance 0 even when excluded — it
   is then isolated, exactly as a present-but-linkless node would be.
   Relaxations visit surviving CSR slots in the graph's insertion order
   and the radix heap pops equal keys in insertion order (the binary
   heap's seq rule), so the result — dist and pred alike, ties included
   — is identical to an unfiltered run over a copy of the surviving
   subgraph, and byte-identical to the pre-CSR implementation.

   [reach] and [cutoff] are {!Scmp_util.Radix_heap.drain_csr}'s cut,
   which only the unfiltered drain implements: [run_bounded] takes no
   filters, and [run] passes [cutoff = infinity]. *)
let search ?ws ?node_ok ?edge_ok g ~metric ~source ~reach ~cutoff =
  let n = Graph.node_count g in
  if source < 0 || source >= n then invalid_arg "Dijkstra.run: source out of range";
  let heap, stamp, ep, pooled, runbuf =
    match ws with
    | None ->
      (Scmp_util.Radix_heap.create (), Array.make n 0, 1, None,
       Array.make 32 0)
    | Some ws ->
      Scmp_util.Radix_heap.clear ws.heap;
      if Array.length ws.stamp < n then begin
        ws.stamp <- Array.make n 0;
        ws.epoch <- 0
      end;
      ws.epoch <- ws.epoch + 1;
      (ws.heap, ws.stamp, ws.epoch, take_pooled ws n, ws.runbuf)
  in
  let dist, pred, pred_edge, other =
    match pooled with
    | Some r ->
      Array.fill r.dist 0 n infinity;
      (r.dist, r.pred, r.pred_edge, r.other)
    | None ->
      (Array.make n infinity, Array.make n (-1), Array.make n (-1),
       Array.make n infinity)
  in
  let off = Graph.csr_offsets g in
  let nbr = Graph.csr_neighbors g in
  let eid = Graph.csr_edge_ids g in
  let wsel, woth =
    match metric with
    | Delay -> (Graph.csr_delays g, Graph.csr_costs g)
    | Cost -> (Graph.csr_costs g, Graph.csr_delays g)
  in
  dist.(source) <- 0.0;
  other.(source) <- 0.0;
  Scmp_util.Radix_heap.add heap ~key:0.0 source;
  (* Both drain loops pop whole tie runs with [pop_run] — one
     cross-module call per run of equal keys, popping in exactly the
     per-entry order (link weights are strictly positive, so every add
     made while a run is processed sorts after it). The key is read
     back as [dist.(x)]: the first (non-stale) pop of x carries x's
     smallest enqueued key, which is exactly the current dist.(x) — so
     skipping the key return keeps the loop allocation-free without
     changing a single extraction or tie. *)
  let complete = ref true in
  (match (node_ok, edge_ok) with
  | None, None ->
    (* Unfiltered fast path: the APSP / Routes steady state. The whole
       drain runs inside {!Scmp_util.Radix_heap.drain_csr} — one
       cross-module call per search, with heap state and relaxation
       loop fused in a single compilation unit (the non-flambda
       compiler never inlines across modules, so per-operation heap
       calls would otherwise dominate this loop). *)
    complete :=
      Scmp_util.Radix_heap.drain_csr heap ~off ~nbr ~eid ~wsel ~woth ~dist
        ~pred ~pred_edge ~other ~reach ~cutoff
  | _ ->
    let node_ok = match node_ok with None -> fun _ -> true | Some f -> f in
    let edge_ok = match edge_ok with None -> fun _ -> true | Some f -> f in
    let k = ref (Scmp_util.Radix_heap.pop_run heap runbuf) in
    while !k > 0 do
      for i = 0 to !k - 1 do
        let x = runbuf.(i) in
        if stamp.(x) <> ep then begin
          stamp.(x) <- ep;
        (* Non-source nodes only reach the heap through a surviving
           edge, so [node_ok x] can fail here only for the source. *)
        if node_ok x then begin
          let d = dist.(x) in
          let ox = other.(x) in
          for s = off.(x) to off.(x + 1) - 1 do
            let y = nbr.(s) in
            let e = eid.(s) in
            if node_ok y && edge_ok e then begin
              let nd = d +. wsel.(s) in
              if nd < dist.(y) then begin
                dist.(y) <- nd;
                pred.(y) <- x;
                pred_edge.(y) <- e;
                other.(y) <- ox +. woth.(s);
                Scmp_util.Radix_heap.add heap ~key:nd y
              end
            end
          done
        end
      end
      done;
      k := Scmp_util.Radix_heap.pop_run heap runbuf
    done);
  let r = { src = source; dist; pred; pred_edge; other } in
  if not !complete then begin
    (match ws with Some ws -> recycle ws r | None -> ());
    raise_notrace Cut
  end;
  r

let run ?ws ?node_ok ?edge_ok g ~metric ~source =
  search ?ws ?node_ok ?edge_ok g ~metric ~source ~reach:0 ~cutoff:infinity

let run_bounded ~ws g ~metric ~source ~reach ~cutoff =
  match search ~ws g ~metric ~source ~reach ~cutoff with
  | r -> Some r
  | exception Cut -> None

let frontier_usage ws =
  (Scmp_util.Radix_heap.length ws.heap, Scmp_util.Radix_heap.capacity ws.heap)

let source r = r.src
let dist r x = r.dist.(x)
let other_dist r x = if r.dist.(x) = infinity then infinity else r.other.(x)
let reachable r x = r.dist.(x) < infinity

let parent r x =
  if x = r.src || r.dist.(x) = infinity then None else Some r.pred.(x)

let parent_edge r x =
  if x = r.src || r.dist.(x) = infinity then None else Some r.pred_edge.(x)

let parent_ix r x =
  if x = r.src || r.dist.(x) = infinity then -1 else r.pred.(x)

let parent_edge_ix r x =
  if x = r.src || r.dist.(x) = infinity then -1 else r.pred_edge.(x)

let path r x =
  if not (reachable r x) then None
  else begin
    let rec walk acc y = if y = r.src then y :: acc else walk (y :: acc) r.pred.(y) in
    Some (walk [] x)
  end

let path_exn r x =
  match path r x with Some p -> p | None -> raise Not_found

let dists r = r.dist
let others r = r.other
let preds r = r.pred
let pred_edges r = r.pred_edge

let eccentricity r =
  Array.fold_left
    (fun acc d -> if d < infinity && d > acc then d else acc)
    0.0 r.dist
