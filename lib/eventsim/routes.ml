module G = Netgraph.Graph
module D = Netgraph.Dijkstra
module Apsp = Netgraph.Apsp

(* Demand-driven per-source SPT cache with incremental invalidation.

   A source's shortest-path tree is computed on first query and
   memoized. On a fault, instead of recomputing every source, the cache
   drops only the entries the fault can actually change:

   - [note_edge_down e]: a cached SPT whose *tree* does not use the
     edge is unaffected. Dijkstra relaxes with strict [<], so any
     relaxation through [e] that did not win left no trace, and any
     equal-distance tie the edge could have won puts the edge *in* the
     tree — so "tree uses the edge" ([pred_edge] of either endpoint is
     [e], O(1)) is exact: every surviving entry equals the eager
     recompute.

   - [note_edge_up e], weight w: no cached tree uses a dead edge, so
     the test flips to distances. The revived edge can change source
     s's answers only if it could relax — or tie — a label:
     [da + w <= db || db + w <= da] ([<=], not [<], because an equal
     tie could flip a predecessor choice). When both endpoints are
     unreachable from s the edge connects two nodes of a foreign
     component and cannot help; keep the entry.

   Node faults reduce to their incident edges (see Netsim). The
   edge→sources map is a plain array indexed by dense edge id —
   per tree edge, which cached sources used it when built; an edge
   death touches only candidate dependents. Only [note_edge_down]
   reads the map, so a fault-free run never builds it: the first
   [note_edge_down] builds it from the SPTs cached then, and every fill
   after that registers its tree edges as it is made. Dropped SPTs are
   recycled into a Dijkstra workspace, so steady-state recomputation
   under churn reuses the same scratch arrays instead of reallocating.

   The notices also keep the cache's own fault view, a masked CSR view
   made at the first [note_edge_down]: every fill the cache builds runs
   over it, and a revived link relaxes in its original slot position,
   so ties resolve as over a fresh copy of the surviving subgraph.

   Ownership: after [share], a fill while the view has no dead link
   borrows the shared APSP table's delay SPT instead of building an
   identical one. The table owns that SPT — other consumers (the
   m-router's DCDM join) keep reading it — so a borrowed slot is never
   recycled, only forgotten. Only SPTs this cache built itself go back
   to the workspace. *)

type t = {
  g : G.t;
  ws : D.workspace;
  results : D.result option array;
  (* '\001' where [results] holds an SPT borrowed from [table]: the
     table owns it, so [drop] must not recycle it. *)
  borrowed : Bytes.t;
  mutable table : Apsp.t option;
  (* The fault view; [None] until the first [note_edge_down]. *)
  mutable view : D.live option;
  (* edge id -> sources whose cached SPT used the edge when built;
     [None] until the first [note_edge_down]. Entries may be stale
     (source since dropped or rebuilt without the edge);
     [note_edge_down] re-checks before dropping. *)
  mutable edge_users : int list array option;
  (* '\001' once a source has registered tree edges at least once: a
     first registration cannot already appear in any [edge_users] list,
     so it skips the membership scan entirely; only a rebuild after
     invalidation pays it. *)
  registered : Bytes.t;
  mutable computed : int;
  mutable shared_fills : int;
  mutable invalidated : int;
}

let compute g =
  {
    g;
    ws = D.create_workspace ();
    results = Array.make (G.node_count g) None;
    borrowed = Bytes.make (G.node_count g) '\000';
    table = None;
    view = None;
    edge_users = None;
    registered = Bytes.make (G.node_count g) '\000';
    computed = 0;
    shared_fills = 0;
    invalidated = 0;
  }

let share t table =
  if Apsp.graph table != t.g (* lint: allow physical-eq *) then
    invalid_arg "Routes.share: table is over another graph";
  t.table <- Some table

(* Int-specialized membership: [List.mem] would go through the
   polymorphic comparator for every element — measurably hot, since
   this runs over every tree edge of every SPT build. *)
let rec mem_int (x : int) = function
  | [] -> false
  | y :: rest -> y = x || mem_int x rest

let register_tree_edges t users s r =
  let fresh = Bytes.get t.registered s = '\000' in
  Bytes.set t.registered s '\001';
  for y = 0 to G.node_count t.g - 1 do
    let e = D.parent_edge_ix r y in
    if e >= 0 && (fresh || not (mem_int s users.(e))) then
      users.(e) <- s :: users.(e)
  done

let force t s =
  match t.results.(s) with
  | Some r -> r
  | None ->
    let clean =
      match t.view with None -> true | Some v -> D.dead_count v = 0
    in
    let r =
      match t.table with
      | Some table when clean ->
        Bytes.set t.borrowed s '\001';
        t.shared_fills <- t.shared_fills + 1;
        Apsp.sl_tree table s
      | Some _ | None ->
        Bytes.set t.borrowed s '\000';
        D.run ~ws:t.ws ?live:t.view t.g ~metric:D.Delay ~source:s
    in
    t.results.(s) <- Some r;
    t.computed <- t.computed + 1;
    (match t.edge_users with
    | Some users -> register_tree_edges t users s r
    | None -> ());
    r

let path t ~src ~dst = D.path (force t src) dst

(* The node on [y]'s predecessor chain whose predecessor is [src]: the
   second node of the src -> y path, found without building the path.
   [y] must be reachable and differ from [src]. *)
let rec hop_below r src y =
  let p = D.parent_ix r y in
  if p = src then y else hop_below r src p

let next_hop_ix t ~src ~dst =
  if src = dst then -1
  else
    let r = force t src in
    if D.reachable r dst then hop_below r src dst else -1

let next_hop t ~src ~dst = match next_hop_ix t ~src ~dst with -1 -> None | h -> Some h

let distance t ~src ~dst = D.dist (force t src) dst
let spt t ~src = force t src

let drop t s =
  match t.results.(s) with
  | None -> ()
  | Some r ->
    t.results.(s) <- None;
    t.invalidated <- t.invalidated + 1;
    if Bytes.get t.borrowed s = '\000' then D.recycle t.ws r

let uses_edge t r e =
  D.parent_edge_ix r (G.edge_u t.g e) = e
  || D.parent_edge_ix r (G.edge_v t.g e) = e

let view t =
  match t.view with
  | Some v -> v
  | None ->
    let v = D.masked t.g (fun _ -> true) in
    t.view <- Some v;
    v

(* The edge→sources map, built on first use from the SPTs cached now. *)
let edge_map t =
  match t.edge_users with
  | Some users -> users
  | None ->
    let users = Array.make (G.edge_count t.g) [] in
    Array.iteri
      (fun s entry -> Option.iter (register_tree_edges t users s) entry)
      t.results;
    t.edge_users <- Some users;
    users

let note_edge_down t e =
  D.kill (view t) e;
  let map = edge_map t in
  match map.(e) with
  | [] -> ()
  | users ->
    map.(e) <- [];
    List.iter
      (fun s ->
        match t.results.(s) with
        | Some r when uses_edge t r e -> drop t s
        | Some _ | None -> ())
      users

let note_edge_up t e =
  Option.iter (fun v -> D.revive v e) t.view;
  let w = G.edge_delay t.g e in
  let a = G.edge_u t.g e and b = G.edge_v t.g e in
  Array.iteri
    (fun s entry ->
      match entry with
      | None -> ()
      | Some r ->
        let da = D.dist r a and db = D.dist r b in
        if not (da = infinity && db = infinity)
           && (da +. w <= db || db +. w <= da)
        then drop t s)
    t.results

let cached t =
  Array.fold_left
    (fun acc entry -> match entry with None -> acc | Some _ -> acc + 1)
    0 t.results

let computed t = t.computed
let shared t = t.shared_fills
let invalidated t = t.invalidated
