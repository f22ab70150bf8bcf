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

(* Scratch arena shared across SPT builds: the radix-heap frontier and
   a free pool of dead results whose dist/pred/pred_edge/other arrays
   are reused instead of reallocated. Results handed back via [recycle]
   must be dead — the next [run] overwrites their arrays in place. *)
type workspace = {
  heap : Scmp_util.Radix_heap.t;
  mutable pool : result list;
}

let create_workspace () = { heap = Scmp_util.Radix_heap.create (); pool = [] }

let recycle ws r = ws.pool <- r :: ws.pool

(* Pooled arrays must match the current graph size exactly; stale sizes
   (workspace reused across differently sized graphs) are dropped. *)
let rec take_pooled ws n =
  match ws.pool with
  | [] -> None
  | r :: rest ->
    ws.pool <- rest;
    if Array.length r.dist = n then Some r else take_pooled ws n

(* A CSR view: a private copy of a graph's slot arrays whose node
   ranges keep their live slots first, in original order, up to a
   per-node live end; the slots behind an end are never read. [off] is
   the graph's own (ranges never move), everything else is private. A
   link is live at both ends or at neither; a death moves its slot
   behind each end's live end by a stable shift ([retire]), and a
   revival lays each end's live range out afresh from the graph's own
   slot order ([rederive]). So a view always relaxes exactly the slots
   a copy of the surviving subgraph would, in the same order: results
   are byte-identical to a run over that copy, ties included.

   A masked view is a fault overlay ([kill], [revive]); a pruned view
   ([prunes], made by [live]) is pruned by its own delay searches.

   Soundness of pruning. Every label a search sets is the float sum
   along some real path, and a computed distance lies within
   n * 2^-53 * L of the exact one, L being the sum of all link delays
   (no simple path is longer). So a link (u, v) of delay
   w > dist_u(v) + slack, with [slack] several such errors, is longer
   than an exact u-v path by more than any rounding: from every source
   r, relaxing it yields fl(d(r,u) + w) > d(r,v), a label that can
   never be v's last. Such a relaxation only ever sets a transient
   label on v (a queue entry the drain later skips as stale) and can
   block only other transient labels, so dropping it changes neither
   which relaxation sets each node's final label nor the FIFO order of
   the final labels' queue entries: dist, pred, pred_edge and other
   come out byte-identical, ties included. The argument holds for every
   source at once, so a link dropped after one search stays dropped for
   all later ones — but only while no link dies, which is why a pruned
   view takes no [kill]. A slack relative to the link alone would be
   unsound: the rounding lives in the path sums, which can be far
   longer than w. *)
type live = {
  lg : Graph.t;
  off : int array;  (* the graph's offsets, shared *)
  ends : int array;  (* per-node live end, off.(x) <= ends.(x) <= off.(x + 1) *)
  nbr : int array;
  eid : int array;
  delay : float array;
  cost : float array;
  dead : Bytes.t;  (* per edge id: '\001' once killed (masked views only) *)
  mutable ndead : int;
  prunes : bool;
  slack : float;
}

let view g ~prunes =
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
    dead = Bytes.make (Graph.edge_count g) '\000';
    ndead = 0;
    prunes;
    slack =
      !total *. Float.max 1e-9 (float_of_int (2 * (n + 1)) *. epsilon_float);
  }

let live g = view g ~prunes:true

let live_slack lv = lv.slack
let dead_count lv = lv.ndead

let live_edges lv x =
  if x < 0 || x >= Graph.node_count lv.lg then
    invalid_arg "Dijkstra.live_edges: node out of range";
  List.init (lv.ends.(x) - lv.off.(x)) (fun k -> lv.eid.(lv.off.(x) + k))

let is_dead lv e = Bytes.get lv.dead e <> '\000'

let mark lv e dead =
  Bytes.set lv.dead e (if dead then '\001' else '\000');
  lv.ndead <- (lv.ndead + if dead then 1 else -1)

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

(* Retire link [e] at both ends. *)
let retire_link lv e =
  let retire_at x = retire lv x (live_slot lv x e lv.off.(x)) in
  retire_at (Graph.edge_u lv.lg e);
  retire_at (Graph.edge_v lv.lg e)

(* Lay x's live range out afresh from the graph's own slot order: a
   revived link takes back its original position among the survivors,
   where appending it would reorder the ties. *)
let rederive lv x =
  let g = lv.lg in
  let gnbr = Graph.csr_neighbors g and geid = Graph.csr_edge_ids g in
  let gdelay = Graph.csr_delays g and gcost = Graph.csr_costs g in
  let w = ref lv.off.(x) in
  for s = lv.off.(x) to lv.off.(x + 1) - 1 do
    let e = geid.(s) in
    if not (is_dead lv e) then begin
      let i = !w in
      lv.nbr.(i) <- gnbr.(s);
      lv.eid.(i) <- e;
      lv.delay.(i) <- gdelay.(s);
      lv.cost.(i) <- gcost.(s);
      w := i + 1
    end
  done;
  lv.ends.(x) <- !w

let masked g edge_ok =
  let lv = view g ~prunes:false in
  for e = 0 to Graph.edge_count g - 1 do
    if not (edge_ok e) then begin
      mark lv e true;
      retire_link lv e
    end
  done;
  lv

(* Flip one link of a masked view, at both ends; a no-op when it is
   already in that state. *)
let set_dead ~caller lv e dead =
  if lv.prunes then invalid_arg (caller ^ ": a pruned view takes no faults");
  if is_dead lv e <> dead then begin
    mark lv e dead;
    if dead then retire_link lv e
    else begin
      rederive lv (Graph.edge_u lv.lg e);
      rederive lv (Graph.edge_v lv.lg e)
    end
  end

let kill lv e = set_dead ~caller:"Dijkstra.kill" lv e true
let revive lv e = set_dead ~caller:"Dijkstra.revive" lv e false

(* After a search from [src] (complete or cut), retire at both ends
   every live link at the source whose delay exceeds the far end's
   label by more than the slack. Scanning down keeps the slots still to
   be read where they are. A pruned view takes no revival, so the
   retired links are not marked dead. *)
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

(* Every search, over the whole graph or a view, is one
   {!Scmp_util.Radix_heap.drain_csr}: one cross-module call per
   search, with heap state and relaxation loop fused in a single
   compilation unit (the non-flambda compiler never inlines across
   modules, so per-operation heap calls would otherwise dominate the
   loop). The drain relaxes a node's live slots in CSR order and the
   radix heap pops equal keys in insertion order (the binary heap's
   seq rule), so the result — dist and pred alike, ties included — is
   byte-identical to the pre-CSR implementation over the same links.

   [reach] and [cutoff] are the drain's cut: [run] passes
   [cutoff = infinity]. [live] swaps the graph's slots for the view's,
   and a pruned view is pruned afterwards. [caller] names the public
   entry point in argument errors. *)
let search ~caller ?ws ?live g ~metric ~source ~reach ~cutoff =
  let n = Graph.node_count g in
  if source < 0 || source >= n then invalid_arg (caller ^ ": source out of range");
  (match (live, metric) with
  | None, _ -> ()
  | Some lv, _ when lv.lg != g (* lint: allow physical-eq *) ->
    invalid_arg (caller ^ ": live CSR of another graph")
  | Some lv, Cost when lv.prunes ->
    invalid_arg (caller ^ ": a live CSR serves unfiltered delay searches")
  | Some _, (Delay | Cost) -> ());
  let heap, pooled =
    match ws with
    | None -> (Scmp_util.Radix_heap.create (), None)
    | Some ws ->
      Scmp_util.Radix_heap.clear ws.heap;
      (ws.heap, take_pooled ws n)
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
  dist.(source) <- 0.0;
  other.(source) <- 0.0;
  Scmp_util.Radix_heap.add heap ~key:0.0 source;
  let complete =
    match live with
    | None ->
      let wsel, woth =
        match metric with
        | Delay -> (Graph.csr_delays g, Graph.csr_costs g)
        | Cost -> (Graph.csr_costs g, Graph.csr_delays g)
      in
      Scmp_util.Radix_heap.drain_csr heap ~off:(Graph.csr_offsets g)
        ~ends:(Graph.csr_ends g) ~nbr:(Graph.csr_neighbors g)
        ~eid:(Graph.csr_edge_ids g) ~wsel ~woth ~dist ~pred ~pred_edge ~other
        ~reach ~cutoff
    | Some lv ->
      let wsel, woth =
        match metric with
        | Delay -> (lv.delay, lv.cost)
        | Cost -> (lv.cost, lv.delay)
      in
      let complete =
        Scmp_util.Radix_heap.drain_csr heap ~off:lv.off ~ends:lv.ends
          ~nbr:lv.nbr ~eid:lv.eid ~wsel ~woth ~dist ~pred ~pred_edge ~other
          ~reach ~cutoff
      in
      if lv.prunes then prune lv source dist;
      complete
  in
  let r = { src = source; dist; pred; pred_edge; other } in
  if not complete then begin
    (match ws with Some ws -> recycle ws r | None -> ());
    raise_notrace Cut
  end;
  r

let run ?ws ?live g ~metric ~source =
  search ~caller:"Dijkstra.run" ?ws ?live g ~metric ~source ~reach:0
    ~cutoff:infinity

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

let dists r = r.dist
let others r = r.other
let preds r = r.pred
let pred_edges r = r.pred_edge

let eccentricity r =
  Array.fold_left
    (fun acc d -> if d < infinity && d > acc then d else acc)
    0.0 r.dist
