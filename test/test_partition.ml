(* Partition tolerance and split-brain fencing.

   Two drills: (1) an engine-level split-brain scenario on the Fig 5
   topology — the side holding the primary keeps serving its half, the
   standby takes over the other half under a bumped epoch, and the heal
   deposes the old primary with a resync and zero stale-epoch entries;
   (2) a QCheck differential: a partition + heal confined to the quiet
   window between the last join and the first data packet must be
   invisible in the delivery record — same deliveries, same delays, no
   anomalies — because the post-heal repair rebuilds exactly the tree
   an undisturbed run would have used. *)

module G = Netgraph.Graph
module Engine = Eventsim.Engine
module Netsim = Eventsim.Netsim
module Faults = Eventsim.Faults
module Message = Protocols.Message
module Delivery = Protocols.Delivery
module Runner = Protocols.Runner
module P = Protocols.Scmp_proto
module Prng = Scmp_util.Prng

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

(* Same timing regime as the failover tests: link delays are O(10)
   units, probes every 50, takeover after 150 of silence. *)
let hb = 50.0
let window = 150.0

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
  G.Builder.freeze bld

let setup () =
  let g = fig5 () in
  let e = Engine.create () in
  let net = Netsim.create e g ~classify:Message.classify in
  let delivery = Delivery.create e in
  let p =
    P.create ~delivery ~standby:2 ~heartbeat_interval:hb ~takeover_after:window
      net ~mrouter:0 ()
  in
  (e, net, delivery, p)

let join_all e p members =
  List.iter
    (fun r ->
      P.host_join p ~group:1 r;
      Engine.run e)
    members

(* The full split-brain arc: partition {0,1,4} (primary + a member)
   away from {2,3,5} (standby + two members), let both sides serve
   their half, then heal and watch the deposed primary step down. *)
let test_split_brain_and_heal () =
  let e, net, delivery, p = setup () in
  join_all e p [ 4; 5; 3 ];
  let side = [ 0; 1; 4 ] in
  let t0 = Engine.now e +. 10.0 in
  let t_heal = t0 +. 1000.0 in
  let _f =
    Faults.install net
      [
        { Faults.at = t0; event = Faults.Partition side };
        { Faults.at = t_heal; event = Faults.Heal side };
      ]
  in
  (* Run until the standby's takeover has happened but the heal has
     not: the detection pin fires takeover_after + 2*hb past the cut. *)
  Engine.run ~until:(t0 +. window +. (3.0 *. hb)) e;
  checkb "standby took over during the partition" true (P.standby_took_over p);
  checki "standby in charge" 2 (P.mrouter p);
  checki "takeover bumped the epoch" 2 (P.epoch p);
  checki "both regimes claim authority mid-split" 2
    (List.length (P.active_authorities p));
  (* Both sides genuinely act. Standby side: data reaches its members. *)
  Delivery.expect delivery ~seq:0 ~members:[ 5 ] ~sent_at:(Engine.now e);
  P.send_data p ~group:1 ~src:3 ~seq:0;
  Engine.run ~until:(Engine.now e +. 50.0) e;
  checki "new authority serves its side" 1 (Delivery.deliveries delivery);
  (* Primary side: a join during the split lands at the old primary
     (router 1's view never saw the announce), and its data flows. *)
  P.host_join p ~group:1 1;
  Engine.run ~until:(Engine.now e +. 100.0) e;
  (match P.router_state p 1 ~group:1 with
  | Some (_, _, true) -> ()
  | _ -> Alcotest.fail "join on the primary side did not connect");
  Delivery.expect delivery ~seq:1 ~members:[ 1 ] ~sent_at:(Engine.now e);
  P.send_data p ~group:1 ~src:4 ~seq:1;
  Engine.run ~until:(t_heal -. 1.0) e;
  checki "old primary serves its side" 2 (Delivery.deliveries delivery);
  (* Heal: the announce reaches the stale primary, which steps down and
     resyncs its roster into the new regime. *)
  Engine.run e;
  let stats = P.stats p in
  checki "exactly one authority after the heal" 1
    (List.length (P.active_authorities p));
  (match P.active_authorities p with
  | [ (auth, ep) ] ->
    checki "the survivor is the standby" 2 auth;
    checki "at the takeover epoch" 2 ep
  | _ -> Alcotest.fail "expected a single surviving authority");
  checki "old primary stepped down once" 1 stats.P.stepdowns;
  checki "one resync per group" 1 stats.P.resyncs;
  checkb "stale-epoch frames were fenced" true (stats.P.fenced >= 1);
  (* The resync merged the split-side join: member 1 survives under the
     new authority's tree. *)
  (match P.mrouter_tree p ~group:1 with
  | None -> Alcotest.fail "no tree after the heal"
  | Some tree ->
    checki "rooted at the new authority" 2 (Mtree.Tree.root tree);
    checkb "split-side join survived the merge" true
      (List.mem 1 (Mtree.Tree.members tree));
    checkb "pre-split members survived" true
      (List.for_all (fun m -> List.mem m (Mtree.Tree.members tree)) [ 3; 4; 5 ]));
  (* Zero stale-epoch entries (I7) and full coherence (I3). *)
  (match P.verify p with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "post-heal invariants: %s" msg);
  (match P.network_tree_consistent p ~group:1 with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "post-heal inconsistent: %s" msg);
  (* Availability accounting produced blackout samples. *)
  checkb "blackout samples recorded" true (P.blackouts p <> []);
  List.iter
    (fun b -> checkb "blackout samples are positive" true (b > 0.0))
    (P.blackouts p)

(* A partition that never heals: the reachable half keeps consistent
   state, the far half is exempt from observation until it returns. *)
let test_partition_without_heal () =
  let e, net, _delivery, p = setup () in
  join_all e p [ 4; 5; 3 ];
  let _f =
    Faults.install net [ { Faults.at = Engine.now e +. 10.0; event = Faults.Partition [ 0; 1; 4 ] } ]
  in
  Engine.run e;
  checkb "standby took over" true (P.standby_took_over p);
  (match P.verify p with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "mid-partition invariants: %s" msg);
  match P.mrouter_tree p ~group:1 with
  | None -> Alcotest.fail "no tree"
  | Some tree ->
    checkb "unreachable member skipped until connectivity returns" false
      (List.mem 4 (Mtree.Tree.members tree))

(* ---- the QCheck differential ---- *)

let scmp = Protocols.Driver.find_exn "scmp"

(* A partition + heal confined to the quiet window between the last
   join and the first data packet leaves no trace in the delivery
   record: nothing missed, duplicated or spurious, and the same
   delivery count as an undisturbed run. When the cut isolated a group
   member, the heal forces a full rebuild from the roster in join
   order — reproducing exactly the tree the undisturbed run built — so
   every delivery delay is identical too. (A cut that missed every
   member may leave a valid mid-partition detour tree in place, whose
   delays legitimately differ; every odd salt forces a member into the
   cut so the strong branch is exercised throughout.) *)
let prop_quiet_partition_invisible =
  QCheck.Test.make ~name:"partition+heal in the join/data gap is invisible"
    ~count:15 QCheck.small_nat (fun salt ->
      let seed = 101 + salt in
      let n = 24 + (salt mod 3 * 8) in
      let spec = Topology.Waxman.generate ~seed ~n () in
      let g = spec.Topology.Spec.graph in
      let apsp = Netgraph.Apsp.compute g in
      let center = Scmp.Placement.pick apsp Scmp.Placement.Min_avg_delay in
      let rng = Prng.create ((7 * seed) + 3) in
      let members =
        Prng.sample rng 8 n |> List.filter (fun x -> x <> center)
      in
      QCheck.assume (members <> []);
      let source = List.hd members in
      let base =
        Runner.make ~data_count:12 ~spec ~center ~source ~members ()
      in
      (* Quiet window: joins settle 3 s (sim) before data_start. *)
      let t0 = base.Runner.data_start -. 2.0 in
      let t1 = base.Runner.data_start -. 1.0 in
      let side =
        let drawn = Prng.sample rng (1 + Prng.int rng (n / 3)) n in
        if salt mod 2 = 1 then
          let forced = List.nth members (Prng.int rng (List.length members)) in
          List.sort_uniq Int.compare (forced :: drawn)
        else drawn
      in
      QCheck.assume (List.length side < n);
      let member_cut = List.exists (fun m -> List.mem m side) members in
      let faults =
        [
          { Faults.at = t0; event = Faults.Partition side };
          { Faults.at = t1; event = Faults.Heal side };
        ]
      in
      let rb = Runner.run scmp base in
      let rp = Runner.run ~check:true scmp { base with Runner.faults } in
      rb.Runner.deliveries = rp.Runner.deliveries
      && rp.Runner.missed = 0 && rp.Runner.duplicates = 0
      && rp.Runner.spurious = 0
      && ((not member_cut)
         || rb.Runner.max_delay = rp.Runner.max_delay
            && rb.Runner.mean_delay = rp.Runner.mean_delay))

(* Same scenario, tree-level: after the heal the rebuilt tree must be
   edge-identical to the undisturbed run's tree, and every router's
   entry must agree. *)
let test_tree_differential () =
  let run_one ~faulted =
    let g = fig5 () in
    let e = Engine.create () in
    let net = Netsim.create e g ~classify:Message.classify in
    let p = P.create ~delivery:(Delivery.create e) net ~mrouter:0 () in
    join_all e p [ 4; 5; 3 ];
    if faulted then begin
      let t0 = Engine.now e +. 10.0 in
      let _f =
        Faults.install net
          [
            { Faults.at = t0; event = Faults.Partition [ 3; 5 ] };
            { Faults.at = t0 +. 100.0; event = Faults.Heal [ 3; 5 ] };
          ]
      in
      ()
    end;
    Engine.run e;
    let tree =
      match P.mrouter_tree p ~group:1 with
      | Some t -> List.sort compare (Mtree.Tree.edges t)
      | None -> []
    in
    let states = List.init 6 (fun x -> P.router_state p x ~group:1) in
    (tree, states)
  in
  let tb, sb = run_one ~faulted:false in
  let tp, sp = run_one ~faulted:true in
  checkb "post-heal tree is edge-identical" true (tb = tp);
  checkb "every router entry agrees" true (sb = sp)

let () =
  Alcotest.run "partition"
    [
      ( "split-brain",
        [
          Alcotest.test_case "partition, dual service, heal, step-down" `Quick
            test_split_brain_and_heal;
          Alcotest.test_case "partition without heal" `Quick
            test_partition_without_heal;
        ] );
      ( "differential",
        [
          QCheck_alcotest.to_alcotest prop_quiet_partition_invisible;
          Alcotest.test_case "tree-level differential" `Quick
            test_tree_differential;
        ] );
    ]
