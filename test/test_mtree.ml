(* Tests for the multicast tree library: the rooted tree structure, the
   DCDM dynamic algorithm (§III.D, including the Fig 5 loop-elimination
   behaviour), the KMB and SPT baselines, metrics and bounds. *)

module G = Netgraph.Graph
module A = Netgraph.Apsp
module Tree = Mtree.Tree
module Dcdm = Mtree.Dcdm
module Kmb = Mtree.Kmb
module Spt = Mtree.Spt
module Eval = Mtree.Eval
module Bound = Mtree.Bound
module Prng = Scmp_util.Prng

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checkf msg = Alcotest.check (Alcotest.float 1e-9) msg

let assert_valid name t =
  match Tree.well_formed t with
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s: invalid tree: %s" name e

(* The Fig 5-style example network (see test_netgraph.ml for the
   layout): links as (delay, cost). *)
let fig5 () =
    let bld = G.Builder.create 6 in
  G.Builder.add_link bld 0 1 ~delay:3.0 ~cost:6.0;
  G.Builder.add_link bld 0 2 ~delay:2.0 ~cost:6.0;
  G.Builder.add_link bld 0 3 ~delay:4.0 ~cost:5.0;
  G.Builder.add_link bld 1 2 ~delay:3.0 ~cost:3.0;
  G.Builder.add_link bld 1 4 ~delay:9.0 ~cost:3.0;
  G.Builder.add_link bld 2 3 ~delay:3.0 ~cost:2.0;
  G.Builder.add_link bld 3 5 ~delay:7.0 ~cost:2.0;
  G.Builder.add_link bld 2 5 ~delay:9.0 ~cost:3.0;
  let g = G.Builder.freeze bld in
  g

let waxman_apsp seed =
  let spec = Topology.Waxman.generate ~seed ~n:60 () in
  A.compute spec.Topology.Spec.graph

(* ---------------- Tree structure ---------------- *)

let test_tree_create () =
  let g = fig5 () in
  let t = Tree.create g ~root:0 in
  checki "size" 1 (Tree.size t);
  checkb "root on tree" true (Tree.on_tree t 0);
  Alcotest.check Alcotest.(option int) "root parent" None (Tree.parent t 0);
  Alcotest.check Alcotest.(list int) "nodes" [ 0 ] (Tree.nodes t);
  assert_valid "fresh" t

let test_tree_attach_detach () =
  let g = fig5 () in
  let t = Tree.create g ~root:0 in
  Tree.attach t ~parent:0 1;
  Tree.attach t ~parent:1 4;
  checki "size" 3 (Tree.size t);
  Alcotest.check Alcotest.(option int) "parent of 4" (Some 1) (Tree.parent t 4);
  Alcotest.check Alcotest.(list int) "children of 1" [ 4 ] (Tree.children t 1);
  checki "depth of 4" 2 (Tree.depth t 4);
  assert_valid "after attach" t;
  Alcotest.check_raises "attach without link"
    (Invalid_argument "Tree.attach: no such graph link") (fun () ->
      Tree.attach t ~parent:0 5);
  Alcotest.check_raises "attach on-tree node"
    (Invalid_argument "Tree.attach: node already on tree") (fun () ->
      Tree.attach t ~parent:0 4)

let test_tree_members () =
  let g = fig5 () in
  let t = Tree.create g ~root:0 in
  Tree.attach t ~parent:0 1;
  Tree.set_member t 1;
  Alcotest.check Alcotest.(list int) "members" [ 1 ] (Tree.members t);
  checki "member count" 1 (Tree.member_count t);
  Tree.unset_member t 1;
  Alcotest.check Alcotest.(list int) "no members" [] (Tree.members t);
  Alcotest.check_raises "member off tree"
    (Invalid_argument "Tree.set_member: node 5 is not on the tree") (fun () ->
      Tree.set_member t 5)

let test_tree_prune_upward () =
  let g = fig5 () in
  let t = Tree.create g ~root:0 in
  Tree.attach t ~parent:0 1;
  Tree.attach t ~parent:1 2;
  Tree.attach t ~parent:2 3;
  Tree.attach t ~parent:1 4;
  Tree.set_member t 4;
  (* pruning from 3 removes 3 and 2 (childless non-members) but stops
     at 1, which still has child 4 *)
  Tree.prune_upward t 3;
  checkb "3 gone" false (Tree.on_tree t 3);
  checkb "2 gone" false (Tree.on_tree t 2);
  checkb "1 stays (has child)" true (Tree.on_tree t 1);
  checkb "4 stays (member)" true (Tree.on_tree t 4);
  assert_valid "after prune" t;
  (* pruning a member does nothing *)
  Tree.prune_upward t 4;
  checkb "member not pruned" true (Tree.on_tree t 4)

let test_tree_delays () =
  let g = fig5 () in
  let t = Tree.create g ~root:0 in
  Tree.attach t ~parent:0 1;
  Tree.attach t ~parent:1 4;
  Tree.attach t ~parent:0 3;
  let d = Tree.delays t in
  checkf "root" 0.0 d.(0);
  checkf "node 1" 3.0 d.(1);
  checkf "node 4" 12.0 d.(4);
  checkf "node 3" 4.0 d.(3);
  checkb "off-tree infinite" true (d.(5) = infinity)

let test_tree_graft_loop_elimination () =
  (* Fig 5(c,d): the new path 0-3-5 crosses the tree at 3 (child of 2);
     3 is re-parented under 0 and the stale branch 2 is pruned back to
     the branching node 1. *)
  let g = fig5 () in
  let t = Tree.create g ~root:0 in
  Tree.attach t ~parent:0 1;
  Tree.attach t ~parent:1 2;
  Tree.attach t ~parent:2 3;
  Tree.attach t ~parent:1 4;
  Tree.set_member t 3;
  Tree.set_member t 4;
  Tree.graft_path t [ 0; 3; 5 ];
  assert_valid "after loop elimination" t;
  Alcotest.check Alcotest.(option int) "3 re-parented to 0" (Some 0) (Tree.parent t 3);
  checkb "2 pruned" false (Tree.on_tree t 2);
  Alcotest.check Alcotest.(list int) "1 keeps subtree" [ 4 ] (Tree.children t 1);
  Alcotest.check Alcotest.(option int) "5 attached under 3" (Some 3) (Tree.parent t 5);
  checkb "3 still member" true (Tree.is_member t 3)

let test_tree_graft_ancestor_case () =
  (* When the graft path climbs back into its own ancestry, the walk
     must not create a cycle: it continues from the ancestor. *)
  let g = fig5 () in
  let t = Tree.create g ~root:0 in
  Tree.attach t ~parent:0 1;
  Tree.attach t ~parent:1 2;
  Tree.graft_path t [ 2; 0; 3 ];
  assert_valid "no cycle" t;
  Alcotest.check Alcotest.(option int) "0 still root" None (Tree.parent t 0);
  Alcotest.check Alcotest.(option int) "3 attached under 0" (Some 0) (Tree.parent t 3);
  Alcotest.check Alcotest.(option int) "2 untouched" (Some 1) (Tree.parent t 2)

let test_tree_graft_errors () =
  let g = fig5 () in
  let t = Tree.create g ~root:0 in
  Alcotest.check_raises "off-tree head"
    (Invalid_argument "Tree.graft_path: node 3 is not on the tree") (fun () ->
      Tree.graft_path t [ 3; 5 ]);
  Alcotest.check_raises "non-adjacent path"
    (Invalid_argument "Tree.graft_path: path edge is not a graph link") (fun () ->
      Tree.graft_path t [ 0; 4 ])

let prop_tree_random_churn_valid =
  QCheck.Test.make ~name:"random graft/prune churn keeps the tree valid" ~count:30
    QCheck.small_int
    (fun seed ->
      let apsp = waxman_apsp (succ seed) in
      let g = A.graph apsp in
      let t = Tree.create g ~root:0 in
      let rng = Prng.create (seed * 31) in
      let ok = ref true in
      for _ = 1 to 100 do
        let x = 1 + Prng.int rng 59 in
        if Tree.on_tree t x && Int64.logand (Prng.bits64 rng) 1L = 1L then begin
          Tree.unset_member t x;
          Tree.prune_upward t x
        end
        else begin
          (match A.sl_path apsp 0 x with
          | Some p -> Tree.graft_path t p
          | None -> ());
          if Tree.on_tree t x then Tree.set_member t x
        end;
        if Tree.well_formed t <> Ok () then ok := false
      done;
      !ok)

(* ---------------- Change window ---------------- *)

(* The oracle: the before/after snapshot diff the m-router ran on every
   JOIN/LEAVE before the tree recorded its own changes — tree edges
   packed as sorted (parent, child) ints, plus the ascending node list. *)
let edge_set t =
  List.sort Int.compare (List.map (fun (p, x) -> (p lsl 31) lor x) (Tree.edges t))

let rec mem_int (x : int) = function [] -> false | y :: rest -> y = x || mem_int x rest

let snapshot t = (edge_set t, Tree.nodes t)

(* (lost, gained, changed, removed nodes) between two snapshots *)
let snapshot_diff (before_edges, before_nodes) (after_edges, after_nodes) =
  ( List.exists (fun e -> not (mem_int e after_edges)) before_edges,
    List.exists (fun e -> not (mem_int e before_edges)) after_edges,
    after_edges <> before_edges,
    List.filter (fun x -> not (mem_int x after_nodes)) before_nodes )

let window t =
  ( Tree.edges_lost t,
    Tree.edges_gained t,
    Tree.edges_changed t,
    Tree.removed_since_mark t )

(* Random DCDM join/leave churn; [f] sees each op's kind, the oracle's
   answer and the window's. *)
let churn_window ~bound ~seed ~ops f =
  let apsp = waxman_apsp (seed + 500) in
  let d = Dcdm.create apsp ~root:0 ~bound () in
  let t = Dcdm.tree d in
  let rng = Prng.create ((seed * 211) + 1) in
  for _ = 1 to ops do
    let x = 1 + Prng.int rng 59 in
    let before = snapshot t in
    Tree.mark t;
    let joined = not (Tree.is_member t x) in
    if joined then Dcdm.join d x else Dcdm.leave d x;
    f ~joined (snapshot_diff before (snapshot t)) (window t)
  done

let prop_window_matches_snapshot_diff =
  QCheck.Test.make ~name:"change window = before/after snapshot diff under DCDM churn"
    ~count:20 QCheck.small_int (fun seed ->
      let ok = ref true in
      List.iter
        (fun bound ->
          churn_window ~bound ~seed ~ops:120 (fun ~joined:_ oracle got ->
              if oracle <> got then ok := false))
        [ Bound.Tightest; Bound.Moderate; Bound.Loosest ];
      !ok)

(* The differential above only means something if the churn reaches the
   restructuring paths: joins whose graft re-parents on-tree nodes (edges
   lost) and leaves whose tightened bound re-grafts members (edges
   gained). *)
let test_window_sees_restructures () =
  let restructuring_joins = ref 0 and regrafting_leaves = ref 0 in
  for seed = 0 to 9 do
    List.iter
      (fun bound ->
        churn_window ~bound ~seed ~ops:120 (fun ~joined (lost, gained, _, _) _ ->
            if joined && lost then incr restructuring_joins;
            if (not joined) && gained then incr regrafting_leaves))
      [ Bound.Tightest; Bound.Loosest ]
  done;
  checkb "some join lost edges" true (!restructuring_joins > 0);
  checkb "some leave gained edges" true (!regrafting_leaves > 0)

let test_window_nets_out () =
  let g = fig5 () in
  let t = Tree.create g ~root:0 in
  Tree.attach t ~parent:0 1;
  Tree.attach t ~parent:1 4;
  Tree.set_member t 1;
  Tree.set_member t 4;
  let none = (false, false, false, []) in
  checkb "never marked: empty window" true (window t = none);
  Tree.mark t;
  checkb "fresh mark: no change" true (window t = none);
  (* edge 1-4 removed and re-added inside one window *)
  Tree.unset_member t 4;
  Tree.prune_upward t 4;
  checkb "4 pruned" false (Tree.on_tree t 4);
  Tree.attach t ~parent:1 4;
  checkb "remove + re-add nets to no change" true (window t = none);
  assert_valid "after re-add" t

let test_window_loop_elimination () =
  (* the Fig 5(c,d) graft: 3 moves under the root, 2 is pruned *)
  let g = fig5 () in
  let t = Tree.create g ~root:0 in
  Tree.attach t ~parent:0 1;
  Tree.attach t ~parent:1 2;
  Tree.attach t ~parent:2 3;
  Tree.attach t ~parent:1 4;
  Tree.set_member t 3;
  Tree.set_member t 4;
  let before = snapshot t in
  Tree.mark t;
  Tree.graft_path t [ 0; 3; 5 ];
  checkb "lost, gained, changed, 2 removed" true
    (window t = (true, true, true, [ 2 ]));
  checkb "agrees with the snapshot diff" true
    (window t = snapshot_diff before (snapshot t))

(* ---------------- Bound ---------------- *)

let test_bound () =
  let factor b = Bound.limit b ~max_unicast_delay:1.0 in
  checkf "tightest factor" 1.0 (factor Bound.Tightest);
  checkf "moderate factor" 1.5 (factor Bound.Moderate);
  checkb "loosest infinite" true (factor Bound.Loosest = infinity);
  checkf "limit scales" 30.0 (Bound.limit Bound.Moderate ~max_unicast_delay:20.0);
  checkb "loosest limit" true (Bound.limit Bound.Loosest ~max_unicast_delay:5.0 = infinity);
  Alcotest.check_raises "infeasible factor"
    (Invalid_argument "Bound.factor: multiplier below 1.0 is infeasible") (fun () ->
      ignore (factor (Bound.Factor 0.5)));
  Alcotest.check Alcotest.string "names" "tightest" (Bound.to_string Bound.Tightest);
  checki "three levels" 3 (List.length Bound.all_levels)

(* ---------------- DCDM ---------------- *)

let test_dcdm_fig5_walkthrough () =
  (* Joining 4, then 3, then 5 on the example network (§III.D).
     Hand-computed: member 4 arrives by its shortest-delay path 0-1-4
     (tree delay 12); member 3 grafts directly on the root (cheapest
     feasible, +5); member 5 grafts below 3 (+2, multicast delay 11). *)
  let g = fig5 () in
  let apsp = A.compute g in
  let d = Dcdm.create apsp ~root:0 ~bound:Bound.Tightest () in
  Dcdm.join d 4;
  let t = Dcdm.tree d in
  Alcotest.check Alcotest.(list int) "after g1" [ 0; 1; 4 ] (Tree.nodes t);
  checkf "tree delay" 12.0 (Eval.tree_delay t);
  Dcdm.join d 3;
  Alcotest.check Alcotest.(option int) "3 grafts on root" (Some 0) (Tree.parent t 3);
  checkf "cost after g2" 14.0 (Eval.tree_cost t);
  Dcdm.join d 5;
  assert_valid "final" t;
  Alcotest.check Alcotest.(option int) "5 under 3" (Some 3) (Tree.parent t 5);
  checkf "final cost" 16.0 (Eval.tree_cost t);
  checkf "final delay" 12.0 (Eval.tree_delay t);
  Alcotest.check Alcotest.(list int) "members" [ 3; 4; 5 ] (Tree.members t)

let test_dcdm_join_idempotent () =
  let g = fig5 () in
  let apsp = A.compute g in
  let d = Dcdm.create apsp ~root:0 ~bound:Bound.Tightest () in
  Dcdm.join d 4;
  let cost1 = Eval.tree_cost (Dcdm.tree d) in
  Dcdm.join d 4;
  checkf "re-join changes nothing" cost1 (Eval.tree_cost (Dcdm.tree d));
  checki "still one member" 1 (Tree.member_count (Dcdm.tree d))

let test_dcdm_root_member () =
  let g = fig5 () in
  let apsp = A.compute g in
  let d = Dcdm.create apsp ~root:0 ~bound:Bound.Tightest () in
  Dcdm.join d 0;
  checkb "root is member" true (Tree.is_member (Dcdm.tree d) 0);
  checki "tree unchanged" 1 (Tree.size (Dcdm.tree d))

let test_dcdm_leave_prunes () =
  let g = fig5 () in
  let apsp = A.compute g in
  let d = Dcdm.create apsp ~root:0 ~bound:Bound.Tightest () in
  List.iter (Dcdm.join d) [ 4; 3; 5 ];
  Dcdm.leave d 5;
  let t = Dcdm.tree d in
  assert_valid "after leave 5" t;
  checkb "5 pruned" false (Tree.on_tree t 5);
  checkb "3 stays (member)" true (Tree.on_tree t 3);
  Dcdm.leave d 4;
  Dcdm.leave d 3;
  checki "all gone: root alone" 1 (Tree.size (Dcdm.tree d));
  Dcdm.leave d 3 (* leaving twice is a no-op *);
  checki "idempotent leave" 1 (Tree.size (Dcdm.tree d))

let test_dcdm_last_graft () =
  let g = fig5 () in
  let apsp = A.compute g in
  let d = Dcdm.create apsp ~root:0 ~bound:Bound.Tightest () in
  Dcdm.join d 4;
  (match Dcdm.last_graft d with
  | Some p -> Alcotest.check Alcotest.(list int) "graft path" [ 0; 1; 4 ] p
  | None -> Alcotest.fail "expected a graft");
  Dcdm.join d 4;
  Alcotest.check Alcotest.(option (list int)) "no graft on re-join" None
    (Dcdm.last_graft d)

let test_dcdm_unreachable () =
    let bld = G.Builder.create 3 in
  G.Builder.add_link bld 0 1 ~delay:1.0 ~cost:1.0;
  let g = G.Builder.freeze bld in
  let apsp = A.compute g in
  let d = Dcdm.create apsp ~root:0 ~bound:Bound.Loosest () in
  checkb "root reaches itself" true (Dcdm.reaches d 0);
  checkb "linked node reachable" true (Dcdm.reaches d 1);
  checkb "isolated node unreachable" false (Dcdm.reaches d 2);
  Alcotest.check_raises "unreachable member"
    (Invalid_argument "Dcdm.join: member unreachable from the m-router") (fun () ->
      Dcdm.join d 2)

let random_members rng n k root =
  Prng.sample rng k n |> List.filter (fun x -> x <> root)

let prop_dcdm_tightest_matches_spt_delay =
  QCheck.Test.make ~name:"tightest DCDM tree delay equals SPT tree delay" ~count:25
    QCheck.(pair small_int (int_range 5 30))
    (fun (seed, k) ->
      let apsp = waxman_apsp (seed + 50) in
      let rng = Prng.create (seed * 131) in
      let members = random_members rng 60 k 0 in
      let dcdm = Dcdm.build apsp ~root:0 ~bound:Bound.Tightest ~members in
      let spt = Spt.build apsp ~root:0 ~members in
      Float.abs (Eval.tree_delay dcdm -. Eval.tree_delay spt) < 1e-6)

let prop_dcdm_respects_bound =
  QCheck.Test.make ~name:"DCDM member delays within the dynamic bound" ~count:25
    QCheck.(pair small_int (int_range 5 30))
    (fun (seed, k) ->
      let apsp = waxman_apsp (seed + 80) in
      let rng = Prng.create (seed * 137) in
      let members = random_members rng 60 k 0 in
      List.for_all
        (fun bound ->
          let t = Dcdm.build apsp ~root:0 ~bound ~members in
          let max_ul =
            List.fold_left (fun acc m -> Float.max acc (A.delay apsp 0 m)) 0.0 members
          in
          Tree.well_formed t = Ok ()
          && Eval.tree_delay t
             <= Bound.limit bound ~max_unicast_delay:max_ul +. 1e-9)
        [ Bound.Tightest; Bound.Moderate; Bound.Factor 2.0 ])

(* The greedy heuristic is not strictly monotone per instance, so the
   claim "looser constraints buy cheaper trees" is asserted on the
   average over a fixed batch of instances (as the paper plots it). *)
let test_dcdm_loosest_cheaper_on_average () =
  let tight = ref 0.0 and loose = ref 0.0 in
  for seed = 1 to 10 do
    let apsp = waxman_apsp (seed + 110) in
    let rng = Prng.create (seed * 139) in
    let members = random_members rng 60 (8 + (seed mod 4 * 6)) 0 in
    let cost b = Eval.tree_cost (Dcdm.build apsp ~root:0 ~bound:b ~members) in
    tight := !tight +. cost Bound.Tightest;
    loose := !loose +. cost Bound.Loosest
  done;
  checkb "loosest cheaper on average" true (!loose < !tight)

let prop_dcdm_churn_valid =
  QCheck.Test.make ~name:"DCDM stays valid under join/leave churn" ~count:15
    QCheck.small_int
    (fun seed ->
      let apsp = waxman_apsp (seed + 140) in
      let d = Dcdm.create apsp ~root:0 ~bound:Bound.Moderate () in
      let rng = Prng.create (seed * 149) in
      let ok = ref true in
      for _ = 1 to 150 do
        let x = 1 + Prng.int rng 59 in
        if Tree.is_member (Dcdm.tree d) x then Dcdm.leave d x else Dcdm.join d x;
        if Tree.well_formed (Dcdm.tree d) <> Ok () then ok := false
      done;
      !ok)

let test_dcdm_deterministic () =
  let apsp = waxman_apsp 33 in
  let rng = Prng.create 7 in
  let members = random_members rng 60 20 0 in
  let build () =
    Tree.edges (Dcdm.build apsp ~root:0 ~bound:Bound.Moderate ~members)
  in
  Alcotest.check
    Alcotest.(list (pair int int))
    "identical trees for identical inputs" (build ()) (build ())

let test_dcdm_candidate_ablation_variants () =
  let apsp = waxman_apsp 44 in
  let rng = Prng.create 9 in
  let members = random_members rng 60 15 0 in
  List.iter
    (fun candidates ->
      let t =
        Dcdm.build ~candidates apsp ~root:0 ~bound:Bound.Moderate ~members
      in
      checkb "variant builds a valid tree" true (Tree.well_formed t = Ok ());
      checkb "variant spans members" true
        (List.for_all (Tree.is_member t) members))
    [ Dcdm.Least_cost_only; Dcdm.Shortest_delay_only; Dcdm.Both ];
  (* sl-only under the tightest bound reduces to pure shortest paths *)
  let sl =
    Dcdm.build ~candidates:Dcdm.Shortest_delay_only apsp ~root:0
      ~bound:Bound.Tightest ~members
  in
  let spt = Spt.build apsp ~root:0 ~members in
  checkf "sl-only tightest matches SPT delay" (Eval.tree_delay spt)
    (Eval.tree_delay sl)

let test_dcdm_factor_bound () =
  let apsp = waxman_apsp 45 in
  let rng = Prng.create 10 in
  let members = random_members rng 60 12 0 in
  let t = Dcdm.build apsp ~root:0 ~bound:(Bound.Factor 1.2) ~members in
  let max_ul =
    List.fold_left (fun acc m -> Float.max acc (A.delay apsp 0 m)) 0.0 members
  in
  checkb "within 1.2x of max unicast delay" true
    (Eval.tree_delay t <= (1.2 *. max_ul) +. 1e-6);
  checkb "valid" true (Tree.well_formed t = Ok ())

(* ---------------- KMB ---------------- *)

let test_kmb_fig5 () =
  let g = fig5 () in
  let apsp = A.compute g in
  let t = Kmb.build apsp ~root:0 ~members:[ 4; 3; 5 ] in
  assert_valid "kmb" t;
  (* hand-computed Steiner tree: 0-3, 3-5, 3-2, 2-1, 1-4, cost 15 *)
  checkf "cost" 15.0 (Eval.tree_cost t);
  Alcotest.check Alcotest.(list int) "members spanned" [ 3; 4; 5 ] (Tree.members t)

let test_kmb_single_member () =
  let g = fig5 () in
  let apsp = A.compute g in
  let t = Kmb.build apsp ~root:0 ~members:[ 5 ] in
  assert_valid "kmb single" t;
  (* just the least-cost path 0-3-5 *)
  checkf "cost" 7.0 (Eval.tree_cost t)

let test_kmb_root_only () =
  let g = fig5 () in
  let apsp = A.compute g in
  let t = Kmb.build apsp ~root:0 ~members:[] in
  checki "lonely root" 1 (Tree.size t)

let prop_kmb_structure =
  QCheck.Test.make ~name:"KMB trees valid, spanning, leaf-terminal" ~count:30
    QCheck.(pair small_int (int_range 2 30))
    (fun (seed, k) ->
      let apsp = waxman_apsp (seed + 170) in
      let rng = Prng.create (seed * 151) in
      let members = random_members rng 60 k 0 in
      let t = Kmb.build apsp ~root:0 ~members in
      Tree.well_formed t = Ok ()
      && List.for_all (fun m -> Tree.is_member t m) members
      && List.for_all
           (fun x ->
             Tree.children t x <> [] || Tree.is_member t x || x = Tree.root t)
           (Tree.nodes t))

(* Exact minimum Steiner tree by Dreyfus-Wagner dynamic programming —
   exponential in the terminal count, so only for tiny instances; used
   to bound the heuristics against the true optimum. *)
let optimal_steiner_cost apsp terminals =
  let g = A.graph apsp in
  let n = G.node_count g in
  let term = Array.of_list terminals in
  let k = Array.length term in
  let full = (1 lsl k) - 1 in
  let dp = Array.make_matrix (full + 1) n infinity in
  for i = 0 to k - 1 do
    for v = 0 to n - 1 do
      dp.(1 lsl i).(v) <- A.cost apsp term.(i) v
    done
  done;
  for s = 1 to full do
    if s land (s - 1) <> 0 then begin
      (* merge two sub-solutions meeting at v *)
      for v = 0 to n - 1 do
        let rec subsets s1 =
          if s1 > 0 then begin
            if s1 land s = s1 && s1 <> s then begin
              let c = dp.(s1).(v) +. dp.(s land lnot s1).(v) in
              if c < dp.(s).(v) then dp.(s).(v) <- c
            end;
            subsets (s1 - 1)
          end
        in
        subsets (s - 1)
      done;
      (* then relax along shortest cost paths *)
      for v = 0 to n - 1 do
        for u = 0 to n - 1 do
          let c = dp.(s).(u) +. A.cost apsp u v in
          if c < dp.(s).(v) then dp.(s).(v) <- c
        done
      done
    end
  done;
  dp.(full).(term.(0))

let small_random_graph seed =
  let rng = Prng.create seed in
  let n = 8 in
  let bld = G.Builder.create n in
  for v = 1 to n - 1 do
    let u = Prng.int rng v in
    G.Builder.add_link bld u v ~delay:(1.0 +. Prng.float rng 9.0)
      ~cost:(1.0 +. Prng.float rng 9.0)
  done;
  for _ = 1 to 6 do
    let u = Prng.int rng n and v = Prng.int rng n in
    if u <> v && not (G.Builder.has_link bld u v) then
      G.Builder.add_link bld u v ~delay:(1.0 +. Prng.float rng 9.0)
        ~cost:(1.0 +. Prng.float rng 9.0)
  done;
  G.Builder.freeze bld

let prop_kmb_within_2x_of_optimal =
  QCheck.Test.make ~name:"KMB cost within its 2x guarantee of the exact optimum"
    ~count:60 QCheck.small_int (fun seed ->
      let g = small_random_graph (seed + 300) in
      let apsp = A.compute g in
      let rng = Prng.create (seed * 167) in
      let members = Prng.sample rng 3 8 |> List.filter (fun x -> x <> 0) in
      QCheck.assume (members <> []);
      let opt = optimal_steiner_cost apsp (0 :: members) in
      let kmb = Eval.tree_cost (Kmb.build apsp ~root:0 ~members) in
      kmb >= opt -. 1e-6 && kmb <= (2.0 *. opt) +. 1e-6)

let prop_dcdm_never_beats_optimal =
  QCheck.Test.make ~name:"no heuristic tree is cheaper than the exact optimum"
    ~count:60 QCheck.small_int (fun seed ->
      let g = small_random_graph (seed + 400) in
      let apsp = A.compute g in
      let rng = Prng.create (seed * 173) in
      let members = Prng.sample rng 4 8 |> List.filter (fun x -> x <> 0) in
      QCheck.assume (members <> []);
      let opt = optimal_steiner_cost apsp (0 :: members) in
      List.for_all
        (fun b -> Eval.tree_cost (Dcdm.build apsp ~root:0 ~bound:b ~members) >= opt -. 1e-6)
        [ Bound.Tightest; Bound.Loosest ]
      && Eval.tree_cost (Spt.build apsp ~root:0 ~members) >= opt -. 1e-6)

(* ---------------- SPT ---------------- *)

let test_spt_fig5 () =
  let g = fig5 () in
  let apsp = A.compute g in
  let t = Spt.build apsp ~root:0 ~members:[ 4; 3; 5 ] in
  assert_valid "spt" t;
  checkf "delay (unicast max)" 12.0 (Eval.tree_delay t);
  (* every member at exactly its unicast delay *)
  List.iter
    (fun (m, d) -> checkf (Printf.sprintf "member %d" m) (A.delay apsp 0 m) d)
    (Eval.member_delays t)

let prop_spt_member_delays_are_unicast =
  QCheck.Test.make ~name:"SPT multicast delay equals unicast delay" ~count:30
    QCheck.(pair small_int (int_range 2 40))
    (fun (seed, k) ->
      let apsp = waxman_apsp (seed + 200) in
      let rng = Prng.create (seed * 157) in
      let members = random_members rng 60 k 0 in
      let t = Spt.build apsp ~root:0 ~members in
      Tree.well_formed t = Ok ()
      && List.for_all
           (fun (m, d) -> Float.abs (d -. A.delay apsp 0 m) < 1e-6)
           (Eval.member_delays t))

let prop_delay_ordering =
  QCheck.Test.make ~name:"SPT has minimal tree delay of the three algorithms" ~count:25
    QCheck.(pair small_int (int_range 3 30))
    (fun (seed, k) ->
      let apsp = waxman_apsp (seed + 230) in
      let rng = Prng.create (seed * 163) in
      let members = random_members rng 60 k 0 in
      let spt = Eval.tree_delay (Spt.build apsp ~root:0 ~members) in
      let kmb = Eval.tree_delay (Kmb.build apsp ~root:0 ~members) in
      let dcdm =
        Eval.tree_delay (Dcdm.build apsp ~root:0 ~bound:Bound.Loosest ~members)
      in
      spt <= kmb +. 1e-6 && spt <= dcdm +. 1e-6)

(* ---------------- Eval ---------------- *)

let test_eval () =
  let g = fig5 () in
  let t = Tree.create g ~root:0 in
  Tree.attach t ~parent:0 1;
  Tree.attach t ~parent:1 4;
  Tree.set_member t 4;
  checkf "cost" 9.0 (Eval.tree_cost t);
  checkf "delay" 12.0 (Eval.tree_delay t);
  Alcotest.check Alcotest.(list (pair int (float 1e-9)))
    "member delays" [ (4, 12.0) ] (Eval.member_delays t);
  checki "hops" 2 (Eval.hops t);
  Tree.unset_member t 4;
  checkf "no members: zero delay" 0.0 (Eval.tree_delay t)

let qc = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "mtree"
    [
      ( "tree",
        [
          Alcotest.test_case "create" `Quick test_tree_create;
          Alcotest.test_case "attach/detach" `Quick test_tree_attach_detach;
          Alcotest.test_case "members" `Quick test_tree_members;
          Alcotest.test_case "prune upward" `Quick test_tree_prune_upward;
          Alcotest.test_case "delays" `Quick test_tree_delays;
          Alcotest.test_case "graft loop elimination (Fig 5)" `Quick
            test_tree_graft_loop_elimination;
          Alcotest.test_case "graft ancestor case" `Quick test_tree_graft_ancestor_case;
          Alcotest.test_case "graft errors" `Quick test_tree_graft_errors;
          qc prop_tree_random_churn_valid;
          Alcotest.test_case "change window nets out" `Quick test_window_nets_out;
          Alcotest.test_case "change window loop elimination" `Quick
            test_window_loop_elimination;
          qc prop_window_matches_snapshot_diff;
          Alcotest.test_case "change window sees restructures" `Quick
            test_window_sees_restructures;
        ] );
      ("bound", [ Alcotest.test_case "levels" `Quick test_bound ]);
      ( "dcdm",
        [
          Alcotest.test_case "fig5 walkthrough" `Quick test_dcdm_fig5_walkthrough;
          Alcotest.test_case "join idempotent" `Quick test_dcdm_join_idempotent;
          Alcotest.test_case "root member" `Quick test_dcdm_root_member;
          Alcotest.test_case "leave prunes" `Quick test_dcdm_leave_prunes;
          Alcotest.test_case "last graft" `Quick test_dcdm_last_graft;
          Alcotest.test_case "unreachable" `Quick test_dcdm_unreachable;
          qc prop_dcdm_tightest_matches_spt_delay;
          qc prop_dcdm_respects_bound;
          Alcotest.test_case "loosest cheaper on average" `Quick
            test_dcdm_loosest_cheaper_on_average;
          qc prop_dcdm_churn_valid;
          Alcotest.test_case "deterministic" `Quick test_dcdm_deterministic;
          Alcotest.test_case "candidate-set ablation" `Quick
            test_dcdm_candidate_ablation_variants;
          Alcotest.test_case "factor bound" `Quick test_dcdm_factor_bound;
        ] );
      ( "kmb",
        [
          Alcotest.test_case "fig5 cost" `Quick test_kmb_fig5;
          Alcotest.test_case "single member" `Quick test_kmb_single_member;
          Alcotest.test_case "root only" `Quick test_kmb_root_only;
          qc prop_kmb_structure;
          qc prop_kmb_within_2x_of_optimal;
          qc prop_dcdm_never_beats_optimal;
        ] );
      ( "spt",
        [
          Alcotest.test_case "fig5" `Quick test_spt_fig5;
          qc prop_spt_member_delays_are_unicast;
          qc prop_delay_ordering;
        ] );
      ("eval", [ Alcotest.test_case "metrics" `Quick test_eval ]);
    ]
