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

(* A live delay CSR: a private copy of a graph's slot arrays whose node
   ranges keep their live slots first, in original order, up to a
   per-node live end; the slots behind an end are links no
   shortest-delay path uses. [off] is the graph's own (ranges never
   move), everything else is private and mutated by [prune].

   Soundness. Every label a search sets is the float sum along some
   real path, and a computed distance lies within n * 2^-53 * L of the
   exact one, L being the sum of all link delays (no simple path is
   longer). So a link (u, v) of delay w > dist_u(v) + slack, with
   [slack] several such errors, is longer than an exact u-v path by
   more than any rounding: from every source r, relaxing it yields
   fl(d(r,u) + w) > d(r,v), a label that can never be v's last. Such a
   relaxation only ever sets a transient label on v (a queue entry the
   drain later skips as stale) and can block only other transient
   labels, so dropping it changes neither which relaxation sets each
   node's final label nor the FIFO order of the final labels' queue
   entries: dist, pred, pred_edge and other come out byte-identical,
   ties included. The argument holds for every source at once, so a
   link dropped after one search stays dropped for all later ones.

   Order-keeping matters for the ties: the drain relaxes a node's live
   slots in CSR order, and a stable removal keeps the survivors in
   their original relative order. A slack relative to the link alone
   would be unsound: the rounding lives in the path sums, which can be
   far longer than w. *)
type live = {
  lg : Graph.t;
  off : int array;  (* the graph's offsets, shared *)
  ends : int array;  (* per-node live end, off.(x) <= ends.(x) <= off.(x + 1) *)
  nbr : int array;
  eid : int array;
  delay : float array;
  cost : float array;
  slack : float;
}

let live g =
  let n = Graph.node_count g in
  let delays = Graph.edge_delays g in
  let total = ref 0.0 in
  for e = 0 to Array.length delays - 1 do
    total := !total +. delays.(e)
  done;
  {
    lg = g;
    off = Graph.csr_offsets g;
    ends = Array.copy (Graph.csr_ends g);
    nbr = Array.copy (Graph.csr_neighbors g);
    eid = Array.copy (Graph.csr_edge_ids g);
    delay = Array.copy (Graph.csr_delays g);
    cost = Array.copy (Graph.csr_costs g);
    slack =
      !total *. Float.max 1e-9 (float_of_int (2 * (n + 1)) *. epsilon_float);
  }

let live_slack lv = lv.slack

let live_edges lv x =
  if x < 0 || x >= Graph.node_count lv.lg then
    invalid_arg "Dijkstra.live_edges: node out of range";
  List.init (lv.ends.(x) - lv.off.(x)) (fun k -> lv.eid.(lv.off.(x) + k))

(* Move live slot [i] of node [x] to just behind x's live end, shifting
   the live slots after it down one: the survivors keep their order. *)
let retire lv x i =
  let last = lv.ends.(x) - 1 in
  let y = lv.nbr.(i) and e = lv.eid.(i) in
  let d = lv.delay.(i) and c = lv.cost.(i) in
  for k = i to last - 1 do
    lv.nbr.(k) <- lv.nbr.(k + 1);
    lv.eid.(k) <- lv.eid.(k + 1);
    lv.delay.(k) <- lv.delay.(k + 1);
    lv.cost.(k) <- lv.cost.(k + 1)
  done;
  lv.nbr.(last) <- y;
  lv.eid.(last) <- e;
  lv.delay.(last) <- d;
  lv.cost.(last) <- c;
  lv.ends.(x) <- last

(* x's live slot holding edge [e]; a link is live at both ends or at
   neither, so it is there. *)
let rec live_slot lv x e i =
  if i >= lv.ends.(x) then invalid_arg "Dijkstra: live CSR ends out of step"
  else if lv.eid.(i) = e then i
  else live_slot lv x e (i + 1)

(* After a search from [src] (complete or cut), retire at both ends
   every live link at the source whose delay exceeds the far end's
   label by more than the slack. Scanning down keeps the slots still to
   be read where they are. *)
let prune lv src dist =
  for i = lv.ends.(src) - 1 downto lv.off.(src) do
    let y = lv.nbr.(i) in
    if lv.delay.(i) > dist.(y) +. lv.slack then begin
      let e = lv.eid.(i) in
      retire lv src i;
      retire lv y (live_slot lv y e lv.off.(y))
    end
  done

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
   filters, and [run] passes [cutoff = infinity]. [live] swaps the
   graph's delay slots for a live CSR's on the unfiltered drain and
   prunes it afterwards. [caller] names the public entry point in
   argument errors. *)
let search ~caller ?ws ?live ?node_ok ?edge_ok g ~metric ~source ~reach ~cutoff
    =
  let n = Graph.node_count g in
  if source < 0 || source >= n then invalid_arg (caller ^ ": source out of range");
  (match live with
  | None -> ()
  | Some lv ->
    if lv.lg != g (* lint: allow physical-eq *) then
      invalid_arg (caller ^ ": live CSR of another graph");
    match (metric, node_ok, edge_ok) with
    | Delay, None, None -> ()
    | _ -> invalid_arg (caller ^ ": a live CSR serves unfiltered delay searches"));
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
    (match live with
    | None ->
      complete :=
        Scmp_util.Radix_heap.drain_csr heap ~off ~ends:(Graph.csr_ends g) ~nbr
          ~eid ~wsel ~woth ~dist ~pred ~pred_edge ~other ~reach ~cutoff
    | Some lv ->
      complete :=
        Scmp_util.Radix_heap.drain_csr heap ~off ~ends:lv.ends ~nbr:lv.nbr
          ~eid:lv.eid ~wsel:lv.delay ~woth:lv.cost ~dist ~pred ~pred_edge
          ~other ~reach ~cutoff;
      prune lv source dist)
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

let run ?ws ?live ?node_ok ?edge_ok g ~metric ~source =
  search ~caller:"Dijkstra.run" ?ws ?live ?node_ok ?edge_ok g ~metric ~source
    ~reach:0 ~cutoff:infinity

let run_bounded ~ws ?live g ~metric ~source ~reach ~cutoff =
  match
    search ~caller:"Dijkstra.run_bounded" ~ws ?live g ~metric ~source ~reach
      ~cutoff
  with
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
