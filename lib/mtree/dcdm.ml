type candidate_set = Both | Least_cost_only | Shortest_delay_only

module Dijkstra = Netgraph.Dijkstra
module Apsp = Netgraph.Apsp

(* The incumbent of a join's candidate scan. A record of floats only is
   stored flat, so updating its fields boxes nothing. *)
type best = { mutable ac : float; mutable ml : float }

type t = {
  apsp : Apsp.t;
  tree : Tree.t;
  bound : Bound.t;
  candidates : candidate_set;
  mutable max_ul : float;  (* largest member unicast delay, 0 if none *)
  mutable last_graft : Netgraph.Path.t option;
  (* Scratch reused by every join and repair pass of this group, so the
     per-candidate and per-member work allocates nothing. *)
  delays : float array;  (* [Tree.delays_into] buffer *)
  hops : int array;  (* a candidate path's nodes, member end first *)
  violators : int array;
  best : best;
  mutable best_src : int;  (* graft node of the incumbent; -1 if none *)
  mutable best_sl : bool;  (* the incumbent is P_sl (else P_lc) *)
}

let create ?(candidates = Both) apsp ~root ~bound () =
  let g = Apsp.graph apsp in
  let n = Netgraph.Graph.node_count g in
  {
    apsp;
    tree = Tree.create g ~root;
    bound;
    candidates;
    max_ul = 0.0;
    last_graft = None;
    delays = Array.make n infinity;
    hops = Array.make n 0;
    violators = Array.make n 0;
    best = { ac = infinity; ml = infinity };
    best_src = -1;
    best_sl = false;
  }

let tree t = t.tree
let bound t = t.bound

let current_limit t =
  if t.max_ul = 0.0 && Tree.member_count t.tree = 0 then infinity
  else Bound.limit t.bound ~max_unicast_delay:t.max_ul

let last_graft t = t.last_graft

(* [Dijkstra.other_dist] off the raw arrays: the delay of the
   least-cost path (or the cost of the shortest-delay one). *)
let[@inline] other_dist spt s =
  if (Dijkstra.dists spt).(s) = infinity then infinity
  else (Dijkstra.others spt).(s)

(* Cost a graft path would add: links not already carried by the tree.
   The path lives implicitly in the SPT's predecessor chain; it is read
   into [t.hops] member end first and summed from the graft node on,
   which is exactly the left fold over the materialized path, so the
   returned float is bit-identical. The per-edge cost is an array read
   by dense edge id. The sum stops once it strictly exceeds [cap], the
   incumbent's added cost: the candidate has already lost (any value
   past the cap compares the same way against the incumbent). [s] must
   be reachable in [spt] and differ from its source. *)
let[@inline] added_cost t spt s cap =
  let pred = Dijkstra.preds spt and pred_edge = Dijkstra.pred_edges spt in
  let src = Dijkstra.source spt in
  let hops = t.hops in
  let len = ref 0 and y = ref s in
  while !y <> src do
    hops.(!len) <- !y;
    incr len;
    y := pred.(!y)
  done;
  let costs = Netgraph.Graph.edge_costs (Tree.graph t.tree) in
  let acc = ref 0.0 and i = ref (!len - 1) in
  while !i >= 0 && not (!acc > cap) do
    let b = hops.(!i) in
    if not (Tree.on_tree_edge t.tree pred.(b) b) then
      acc := !acc +. costs.(pred_edge.(b));
    decr i
  done;
  !acc

(* One candidate: the graft path [spt] gives from its source [v] (graft
   node multicast delay [dv]) to [s], of path delay [pd]. Feasible when
   the new member's multicast delay stays within [lim]; it replaces the
   incumbent when it adds strictly less cost, or as much at a strictly
   smaller multicast delay. [pd < infinity] excludes unreachable
   candidates (matters only when the limit itself is infinite). *)
let[@inline] consider t ~sl v dv spt s pd lim =
  let ml = dv +. pd in
  if pd < infinity && ml <= lim then begin
    let best = t.best in
    let ac = added_cost t spt s best.ac in
    if not (t.best_src >= 0 && (best.ac < ac || (best.ac = ac && best.ml <= ml)))
    then begin
      best.ac <- ac;
      best.ml <- ml;
      t.best_src <- v;
      t.best_sl <- sl
    end
  end

(* Candidate graft paths: for each on-tree router [v], in ascending
   order, P_lc(v, s) then P_sl(v, s) (tree order v -> s) as the
   candidate set allows. No candidate is materialized: path delays are
   array reads off the memoized SPTs (the companion metric is summed in
   the order [Path.delay] would, so feasibility and cost decisions are
   bit-identical to materializing the path), and the added-cost walk
   reads the predecessor chain in place. Leaves the winner in
   [t.best_src]/[t.best_sl]. [t.delays] must hold the tree's delays. *)
let scan t s limit =
  let tr = t.tree and apsp = t.apsp and d = t.delays in
  let lim = limit +. 1e-9 in
  let use_lc, use_sl =
    match t.candidates with
    | Both -> (true, true)
    | Least_cost_only -> (true, false)
    | Shortest_delay_only -> (false, true)
  in
  t.best.ac <- infinity;
  t.best.ml <- infinity;
  t.best_src <- -1;
  for v = 0 to Array.length d - 1 do
    if Tree.on_tree tr v then begin
      let dv = d.(v) in
      (* Node-level prefilter: the cheapest possible candidate delay
         through [v]. The sl path minimizes delay, so in [Both] mode its
         infeasibility rules out the lc candidate too. *)
      let min_pd =
        if use_sl then (Dijkstra.dists (Apsp.sl_tree apsp v)).(s)
        else other_dist (Apsp.lc_tree apsp v) s
      in
      if dv +. min_pd <= lim then begin
        if use_lc then begin
          let lc = Apsp.lc_tree apsp v in
          (* read [others] only where it is meaningful; an unreachable
             [s] is no candidate, as its infinite path delay says *)
          if (Dijkstra.dists lc).(s) < infinity then
            consider t ~sl:false v dv lc s (Dijkstra.others lc).(s) lim
        end;
        if use_sl then begin
          let sl = Apsp.sl_tree apsp v in
          consider t ~sl:true v dv sl s (Dijkstra.dists sl).(s) lim
        end
      end
    end
  done

let repair_limit_violations t limit =
  if Float.is_finite limit then begin
    let tr = t.tree and d = t.delays and violators = t.violators in
    let root = Tree.root tr in
    let lim = limit +. 1e-9 in
    (* Each pass re-grafts at most every member once; delays only shrink
       toward unicast optimum, so n passes certainly suffice. Violators
       are all collected, in ascending order, before the first re-graft
       of a pass moves any delay. *)
    let remaining = ref (Array.length d) and again = ref true in
    while !again && !remaining > 0 do
      Tree.delays_into tr d;
      let k = ref 0 in
      for m = 0 to Array.length d - 1 do
        if Tree.is_member tr m && d.(m) > lim then begin
          violators.(!k) <- m;
          incr k
        end
      done;
      for i = 0 to !k - 1 do
        match Apsp.sl_path t.apsp root violators.(i) with
        | Some p -> Tree.graft_path tr p
        | None -> ()
      done;
      again := !k > 0;
      decr remaining
    done
  end

let reaches t s =
  Tree.on_tree t.tree s || Float.is_finite (Apsp.delay t.apsp (Tree.root t.tree) s)

let join t s =
  let root = Tree.root t.tree in
  t.last_graft <- None;
  if Tree.on_tree t.tree s then begin
    (* Already a relay (or the root): just mark membership (§III.B: the
       DR only informs the m-router; the tree is unchanged). *)
    Tree.set_member t.tree s;
    if s <> root then t.max_ul <- Float.max t.max_ul (Apsp.delay t.apsp root s)
  end
  else begin
    let ul = Apsp.delay t.apsp root s in
    if not (Float.is_finite ul) then
      invalid_arg "Dcdm.join: member unreachable from the m-router";
    let new_max_ul = Float.max t.max_ul ul in
    let limit = Bound.limit t.bound ~max_unicast_delay:new_max_ul in
    Tree.delays_into t.tree t.delays;
    scan t s limit;
    let chosen =
      if t.best_src >= 0 then begin
        let v = t.best_src in
        let spt = if t.best_sl then Apsp.sl_tree t.apsp v else Apsp.lc_tree t.apsp v in
        match Dijkstra.path spt s with
        | Some p -> p
        | None -> assert false (* finite added cost implies reachable *)
      end
      else
        (* Unreachable only if limit < ul, which Bound.limit rules out
           (factor >= 1); fall back defensively to the shortest-delay
           path from the root. *)
        match Apsp.sl_path t.apsp root s with
        | Some p -> p
        | None -> invalid_arg "Dcdm.join: member unreachable from the m-router"
    in
    Tree.graft_path t.tree chosen;
    Tree.set_member t.tree s;
    t.max_ul <- new_max_ul;
    t.last_graft <- Some chosen;
    repair_limit_violations t limit
  end

let leave t s =
  if Tree.is_member t.tree s then begin
    let tr = t.tree in
    Tree.unset_member tr s;
    Tree.prune_upward tr s;
    (* The dynamic bound follows the surviving membership — and may
       tighten when the departed member was the farthest one. Members
       whose grafts were only feasible under the old, looser bound are
       re-grafted via their shortest-delay paths, restoring the
       invariant that every member's multicast delay stays within the
       current bound (checked by Check.Invariant.check_delay_bound). *)
    let root = Tree.root tr in
    let max_ul = ref 0.0 in
    if Tree.member_count tr > 0 then begin
      let ul = Dijkstra.dists (Apsp.sl_tree t.apsp root) in
      for m = 0 to Array.length ul - 1 do
        if m <> root && Tree.is_member tr m then max_ul := Float.max !max_ul ul.(m)
      done
    end;
    t.max_ul <- !max_ul;
    repair_limit_violations t (current_limit t)
  end

let build ?candidates apsp ~root ~bound ~members =
  let t = create ?candidates apsp ~root ~bound () in
  List.iter (join t) members;
  tree t
