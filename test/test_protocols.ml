(* Tests for the protocol agents: TREE packets, IGMP, SCMP, CBT, DVMRP,
   MOSPF and the scenario runner. *)

module G = Netgraph.Graph
module Engine = Eventsim.Engine
module Netsim = Eventsim.Netsim
module TP = Protocols.Tree_packet
module Message = Protocols.Message
module Delivery = Protocols.Delivery
module Igmp = Protocols.Igmp
module Scmp_proto = Protocols.Scmp_proto
module Cbt = Protocols.Cbt
module Dvmrp = Protocols.Dvmrp
module Mospf = Protocols.Mospf
module Hpim_dm = Protocols.Hpim_dm
module Runner = Protocols.Runner
module Prng = Scmp_util.Prng

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checkf msg = Alcotest.check (Alcotest.float 1e-9) msg

let fig5_scaled scale =
  let bld = G.Builder.create 6 in
  List.iter
    (fun (u, v, delay, cost) ->
      G.Builder.add_link bld u v ~delay:(delay *. scale) ~cost)
    [
      (0, 1, 3.0, 6.0);
      (0, 2, 2.0, 6.0);
      (0, 3, 4.0, 5.0);
      (1, 2, 3.0, 3.0);
      (1, 4, 9.0, 3.0);
      (2, 3, 3.0, 2.0);
      (3, 5, 7.0, 2.0);
      (2, 5, 9.0, 3.0);
    ];
  G.Builder.freeze bld

let fig5 () = fig5_scaled 1.0

(* Delays in simulated milliseconds, so protocol timers (DVMRP's 10 s
   prune lifetime) dominate link latency, as in the runner. *)
let fig5_ms () = fig5_scaled 1e-3

(* ---------------- Tree_packet ---------------- *)

let leaf = { TP.children = [] }

let test_tree_packet_paper_example () =
  (* §III.E's worked example: the m-router's subtree at node 2 with
     children 4 (leaf), 5 (children 7, 8) and 6 (child 9) encodes as
     (3; 4,1,0; 5,7,(2,7,1,0,8,1,0); 6,4,(1,9,1,0)). *)
  let t =
    {
      TP.children =
        [
          (4, leaf);
          (5, { TP.children = [ (7, leaf); (8, leaf) ] });
          (6, { TP.children = [ (9, leaf) ] });
        ];
    }
  in
  Alcotest.check
    Alcotest.(list int)
    "paper wire format"
    [ 3; 4; 1; 0; 5; 7; 2; 7; 1; 0; 8; 1; 0; 6; 4; 1; 9; 1; 0 ]
    (TP.encode t);
  checki "size" 19 (TP.size t);
  (match TP.decode (TP.encode t) with
  | Ok t' -> checkb "roundtrip" true (t = t')
  | Error e -> Alcotest.failf "decode: %s" e);
  Alcotest.check
    Alcotest.(list int)
    "spanned nodes" [ 2; 4; 5; 7; 8; 6; 9 ] (TP.nodes t ~at:2)

let test_tree_packet_leaf () =
  Alcotest.check Alcotest.(list int) "leaf encodes [0]" [ 0 ] (TP.encode leaf);
  checki "leaf size" 1 (TP.size leaf)

let test_tree_packet_of_tree () =
  let g = fig5 () in
  let t = Mtree.Tree.create g ~root:0 in
  Mtree.Tree.attach t ~parent:0 1;
  Mtree.Tree.attach t ~parent:1 2;
  Mtree.Tree.attach t ~parent:1 4;
  let p = TP.of_tree t ~at:1 in
  Alcotest.check Alcotest.(list int) "subtree at 1" [ 1; 2; 4 ] (TP.nodes p ~at:1);
  checki "two children" 2 (List.length (TP.split p));
  Alcotest.check_raises "off-tree node"
    (Invalid_argument "Tree_packet.of_tree: node is not on the tree") (fun () ->
      ignore (TP.of_tree t ~at:5))

let test_tree_packet_decode_errors () =
  let bad words msg =
    match TP.decode words with
    | Ok _ -> Alcotest.failf "expected decode failure for %s" msg
    | Error _ -> ()
  in
  bad [] "empty";
  bad [ 1 ] "missing child header";
  bad [ 1; 4 ] "missing length";
  bad [ 1; 4; 5; 0 ] "truncated body";
  bad [ -1 ] "negative count";
  bad [ 1; 4; -2; 0 ] "negative length";
  bad [ 0; 99 ] "trailing garbage";
  bad [ 1; 4; 2; 0; 0 ] "overshooting length"

let gen_packet =
  let rec make depth rng =
    if depth = 0 then leaf
    else begin
      let n = Prng.int rng 3 in
      let children =
        List.init n (fun i -> (Prng.int rng 90 + (i * 100), make (depth - 1) rng))
      in
      { TP.children }
    end
  in
  QCheck.Gen.map
    (fun seed -> make 4 (Prng.create seed))
    QCheck.Gen.small_int

let prop_tree_packet_roundtrip =
  QCheck.Test.make ~name:"encode/decode roundtrip" ~count:200
    (QCheck.make gen_packet)
    (fun t -> TP.decode (TP.encode t) = Ok t)

(* ---------------- Delivery recorder ---------------- *)

let test_delivery_recorder () =
  let e = Engine.create () in
  let d = Delivery.create e in
  Delivery.expect d ~seq:0 ~members:[ 1; 2; 3 ] ~sent_at:0.0;
  Engine.schedule e ~delay:2.0 (fun () ->
      Delivery.record d ~seq:0 ~at_router:1;
      Delivery.record d ~seq:0 ~at_router:1 (* duplicate *);
      Delivery.record d ~seq:0 ~at_router:9 (* not a member *);
      Delivery.record d ~seq:7 ~at_router:1 (* unknown packet *));
  Engine.schedule e ~delay:5.0 (fun () -> Delivery.record d ~seq:0 ~at_router:2);
  Engine.run e;
  checki "deliveries" 2 (Delivery.deliveries d);
  checki "duplicates" 1 (Delivery.duplicates d);
  checki "spurious (non-member + unknown)" 2 (Delivery.spurious d);
  checki "missed (member 3)" 1 (Delivery.missed d);
  checkf "max delay" 5.0 (Delivery.max_delay d);
  checkf "mean delay" 3.5 (Delivery.mean_delay d);
  checki "raw delays kept" 2 (List.length (Delivery.delays d))

let test_delivery_empty () =
  let e = Engine.create () in
  let d = Delivery.create e in
  checkf "no samples, zero max" 0.0 (Delivery.max_delay d);
  checki "nothing missed" 0 (Delivery.missed d)

(* ---------------- Igmp ---------------- *)

let test_igmp_callbacks () =
  let e = Engine.create () in
  let joins = ref [] and leaves = ref [] in
  let igmp =
    Igmp.create e ~router:3
      ~on_first_join:(fun gr -> joins := gr :: !joins)
      ~on_last_leave:(fun gr -> leaves := gr :: !leaves)
      ()
  in
  checki "router accessor" 3 (Igmp.router igmp);
  Igmp.host_join igmp ~host:1 ~group:9;
  Alcotest.check Alcotest.(list int) "first join fires" [ 9 ] !joins;
  Igmp.host_join igmp ~host:2 ~group:9;
  Alcotest.check Alcotest.(list int) "second join silent" [ 9 ] !joins;
  Alcotest.check Alcotest.(list int) "members" [ 1; 2 ] (Igmp.members igmp ~group:9);
  Igmp.host_leave igmp ~host:1 ~group:9;
  Engine.run e;
  Alcotest.check Alcotest.(list int) "not last: no leave" [] !leaves;
  Igmp.host_leave igmp ~host:2 ~group:9;
  Engine.run e;
  Alcotest.check Alcotest.(list int) "last leave fires" [ 9 ] !leaves;
  Alcotest.check Alcotest.(list int) "no groups" [] (Igmp.groups igmp)

let test_igmp_rejoin_during_wait () =
  let e = Engine.create () in
  let leaves = ref 0 in
  let igmp =
    Igmp.create e ~router:0
      ~on_first_join:(fun _ -> ())
      ~on_last_leave:(fun _ -> incr leaves)
      ()
  in
  Igmp.host_join igmp ~host:1 ~group:5;
  Igmp.host_leave igmp ~host:1 ~group:5;
  (* someone re-joins before the group-specific query times out (1 s) *)
  Engine.schedule e ~delay:0.5 (fun () -> Igmp.host_join igmp ~host:2 ~group:5);
  Engine.run e;
  checki "leave cancelled by re-join" 0 !leaves;
  Alcotest.check Alcotest.(list int) "member present" [ 2 ] (Igmp.members igmp ~group:5)

let test_igmp_queries () =
  let e = Engine.create () in
  let igmp =
    Igmp.create e ~router:0
      ~on_first_join:(fun _ -> ())
      ~on_last_leave:(fun _ -> ())
      ()
  in
  Igmp.host_join igmp ~host:1 ~group:1;
  Igmp.host_join igmp ~host:2 ~group:2;
  Engine.run ~until:380.0 e;
  (* 3 general query rounds, one per 125 s; one suppressed report per
     group each *)
  checki "queries" 3 (Igmp.queries_sent igmp);
  checki "reports: 2 unsolicited + 3 rounds x 2 groups" 8 (Igmp.reports_sent igmp)

(* (fig5 is shared by all the protocol scenarios below) *)

(* ---------------- helper: network harness ---------------- *)

let make_net g =
  let e = Engine.create () in
  let net = Netsim.create e g ~classify:Message.classify in
  let delivery = Delivery.create e in
  (e, net, delivery)

let expect_and_send e delivery ~seq ~members ~send =
  Delivery.expect delivery ~seq ~members ~sent_at:(Engine.now e);
  send ();
  Engine.run e

(* ---------------- SCMP ---------------- *)

let test_scmp_join_builds_consistent_tree () =
  let g = fig5 () in
  let e, net, delivery = make_net g in
  let p = Scmp_proto.create ~delivery net ~mrouter:0 () in
  checki "mrouter" 0 (Scmp_proto.mrouter p);
  List.iter
    (fun r ->
      Scmp_proto.host_join p ~group:1 r;
      Engine.run e)
    [ 4; 3; 5 ];
  (match Scmp_proto.network_tree_consistent p ~group:1 with
  | Ok () -> ()
  | Error err -> Alcotest.failf "inconsistent: %s" err);
  let tree = Option.get (Scmp_proto.mrouter_tree p ~group:1) in
  Alcotest.check Alcotest.(list int) "members" [ 3; 4; 5 ] (Mtree.Tree.members tree);
  (* i-router entries mirror the tree *)
  (match Scmp_proto.router_state p 1 ~group:1 with
  | Some (up, down, member) ->
    Alcotest.check Alcotest.(option int) "upstream of 1" (Some 0) up;
    Alcotest.check Alcotest.(list int) "downstream of 1" [ 4 ] down;
    checkb "1 is relay" false member
  | None -> Alcotest.fail "router 1 should hold an entry");
  checkb "off-tree router has no entry" true
    (Scmp_proto.router_state p 2 ~group:1 = None)

let test_scmp_data_delivery () =
  let g = fig5 () in
  let e, net, delivery = make_net g in
  let p = Scmp_proto.create ~delivery net ~mrouter:0 () in
  List.iter
    (fun r ->
      Scmp_proto.host_join p ~group:1 r;
      Engine.run e)
    [ 4; 3; 5 ];
  (* member source: travels the bidirectional tree *)
  expect_and_send e delivery ~seq:0 ~members:[ 3; 5 ] ~send:(fun () ->
      Scmp_proto.send_data p ~group:1 ~src:4 ~seq:0);
  checki "deliveries" 2 (Delivery.deliveries delivery);
  checki "no dups" 0 (Delivery.duplicates delivery);
  checki "no missed" 0 (Delivery.missed delivery);
  (* off-tree source: encapsulated via the m-router *)
  expect_and_send e delivery ~seq:1 ~members:[ 3; 4; 5 ] ~send:(fun () ->
      Scmp_proto.send_data p ~group:1 ~src:2 ~seq:1);
  checki "deliveries incl. encap" 5 (Delivery.deliveries delivery);
  checki "still clean" 0 (Delivery.duplicates delivery + Delivery.spurious delivery)

let test_scmp_leave_prunes_network () =
  let g = fig5 () in
  let e, net, delivery = make_net g in
  let p = Scmp_proto.create ~delivery net ~mrouter:0 () in
  List.iter
    (fun r ->
      Scmp_proto.host_join p ~group:1 r;
      Engine.run e)
    [ 4; 3; 5 ];
  Scmp_proto.host_leave p ~group:1 4;
  Engine.run e;
  (match Scmp_proto.network_tree_consistent p ~group:1 with
  | Ok () -> ()
  | Error err -> Alcotest.failf "inconsistent after leave: %s" err);
  checkb "4 dropped its entry" true (Scmp_proto.router_state p 4 ~group:1 = None);
  checkb "1 pruned too (relay with no children)" true
    (Scmp_proto.router_state p 1 ~group:1 = None);
  (* packets no longer reach the departed member *)
  expect_and_send e delivery ~seq:0 ~members:[ 5 ] ~send:(fun () ->
      Scmp_proto.send_data p ~group:1 ~src:3 ~seq:0);
  checki "one delivery" 1 (Delivery.deliveries delivery);
  checki "none spurious" 0 (Delivery.spurious delivery)

let test_scmp_mrouter_member () =
  let g = fig5 () in
  let e, net, delivery = make_net g in
  let p = Scmp_proto.create ~delivery net ~mrouter:0 () in
  Scmp_proto.host_join p ~group:1 0;
  Scmp_proto.host_join p ~group:1 4;
  Engine.run e;
  expect_and_send e delivery ~seq:0 ~members:[ 0 ] ~send:(fun () ->
      Scmp_proto.send_data p ~group:1 ~src:4 ~seq:0);
  checki "m-router's subnet delivered" 1 (Delivery.deliveries delivery)

let prop_scmp_churn_consistent =
  QCheck.Test.make ~name:"SCMP network state mirrors m-router tree under churn"
    ~count:10 QCheck.small_int (fun seed ->
      let spec = Topology.Waxman.generate ~seed:(seed + 1) ~n:40 () in
      let e, net, _delivery = make_net spec.Topology.Spec.graph in
      let p = Scmp_proto.create net ~mrouter:0 () in
      let rng = Prng.create (seed * 17 + 3) in
      let present = Hashtbl.create 16 in
      let ok = ref true in
      for _ = 1 to 60 do
        let x = 1 + Prng.int rng 39 in
        if Hashtbl.mem present x then begin
          Hashtbl.remove present x;
          Scmp_proto.host_leave p ~group:1 x
        end
        else begin
          Hashtbl.replace present x ();
          Scmp_proto.host_join p ~group:1 x
        end;
        Engine.run e;
        if Scmp_proto.network_tree_consistent p ~group:1 <> Ok () then ok := false
      done;
      !ok)

let test_scmp_full_tree_distribution_equivalent () =
  (* The Always_full_tree ablation must produce the same converged
     network state as the incremental BRANCH scheme, just at a higher
     control cost. *)
  let converge distribution =
    let g = fig5 () in
    let e, net, _delivery = make_net g in
    let p = Scmp_proto.create ~distribution net ~mrouter:0 () in
    List.iter
      (fun r ->
        Scmp_proto.host_join p ~group:1 r;
        Engine.run e)
      [ 4; 3; 5 ];
    (p, Netsim.control_overhead net)
  in
  let p_incr, cost_incr = converge Scmp_proto.Incremental in
  let p_full, cost_full = converge Scmp_proto.Always_full_tree in
  (match Scmp_proto.network_tree_consistent p_full ~group:1 with
  | Ok () -> ()
  | Error err -> Alcotest.failf "full-tree mode inconsistent: %s" err);
  List.iter
    (fun x ->
      checkb
        (Printf.sprintf "router %d state agrees" x)
        true
        (Scmp_proto.router_state p_incr x ~group:1
        = Scmp_proto.router_state p_full x ~group:1))
    [ 0; 1; 2; 3; 4; 5 ];
  checkb "BRANCH scheme is cheaper" true (cost_incr < cost_full)

let test_scmp_two_groups_isolated () =
  let g = fig5 () in
  let e, net, delivery = make_net g in
  let p = Scmp_proto.create ~delivery net ~mrouter:0 () in
  Scmp_proto.host_join p ~group:1 4;
  Scmp_proto.host_join p ~group:2 5;
  Engine.run e;
  (* group 1's packet must not reach group 2's member *)
  expect_and_send e delivery ~seq:0 ~members:[ 4 ] ~send:(fun () ->
      Scmp_proto.send_data p ~group:1 ~src:3 ~seq:0);
  checki "only group 1 member served" 1 (Delivery.deliveries delivery);
  checki "no cross-group leak" 0 (Delivery.spurious delivery);
  (match Scmp_proto.network_tree_consistent p ~group:1 with
  | Ok () -> ()
  | Error err -> Alcotest.failf "g1: %s" err);
  match Scmp_proto.network_tree_consistent p ~group:2 with
  | Ok () -> ()
  | Error err -> Alcotest.failf "g2: %s" err

let test_scmp_relay_becomes_member () =
  (* A router serving as a relay joins the group itself: the tree is
     unchanged, only its member flag flips (§III.B). *)
  let g = fig5 () in
  let e, net, delivery = make_net g in
  let p = Scmp_proto.create ~delivery net ~mrouter:0 () in
  Scmp_proto.host_join p ~group:1 4;
  Engine.run e;
  (* node 1 relays for 4 *)
  (match Scmp_proto.router_state p 1 ~group:1 with
  | Some (_, _, false) -> ()
  | _ -> Alcotest.fail "expected relay");
  let ctl_before = Netsim.control_overhead net in
  Scmp_proto.host_join p ~group:1 1;
  Engine.run e;
  (match Scmp_proto.router_state p 1 ~group:1 with
  | Some (Some 0, [ 4 ], true) -> ()
  | _ -> Alcotest.fail "relay should have become a member in place");
  (* only the JOIN accounting message crossed the network *)
  checkb "no tree traffic for in-place join" true
    (Netsim.control_overhead net -. ctl_before <= 12.0 +. 1e-9);
  expect_and_send e delivery ~seq:0 ~members:[ 1; 4 ] ~send:(fun () ->
      Scmp_proto.send_data p ~group:1 ~src:0 ~seq:0);
  checki "both served" 2 (Delivery.deliveries delivery)

(* ---------------- CBT ---------------- *)

let test_cbt_join_and_tree_shape () =
  let g = fig5 () in
  let e, net, delivery = make_net g in
  let p = Cbt.create ~delivery net ~core:0 () in
  Cbt.host_join p ~group:1 4;
  Engine.run e;
  (* JOIN travelled 4-1-0 (shortest delay to core); ACK installed
     state at 1 and 4 *)
  (match Cbt.router_state p 4 ~group:1 with
  | Some (Some up, _, true) -> checki "upstream of 4" 1 up
  | _ -> Alcotest.fail "4 should be a connected member");
  (match Cbt.router_state p 1 ~group:1 with
  | Some (Some 0, down, false) -> Alcotest.check Alcotest.(list int) "relay down" [ 4 ] down
  | _ -> Alcotest.fail "1 should be a relay under the core");
  (* second join grafts at the first on-tree router, not the core *)
  Cbt.host_join p ~group:1 2;
  Engine.run e;
  (match Cbt.router_state p 2 ~group:1 with
  | Some (Some up, _, true) -> checkb "2 grafts at 0 (its next hop)" true (up = 0)
  | _ -> Alcotest.fail "2 should be connected");
  Alcotest.check Alcotest.(list int) "on-tree routers" [ 0; 1; 2; 4 ] (Cbt.on_tree p ~group:1)

let test_cbt_data_and_encap () =
  let g = fig5 () in
  let e, net, delivery = make_net g in
  let p = Cbt.create ~delivery net ~core:0 () in
  List.iter
    (fun r ->
      Cbt.host_join p ~group:1 r;
      Engine.run e)
    [ 4; 3 ];
  expect_and_send e delivery ~seq:0 ~members:[ 3 ] ~send:(fun () ->
      Cbt.send_data p ~group:1 ~src:4 ~seq:0);
  checki "on-tree source delivers" 1 (Delivery.deliveries delivery);
  expect_and_send e delivery ~seq:1 ~members:[ 3; 4 ] ~send:(fun () ->
      Cbt.send_data p ~group:1 ~src:5 ~seq:1);
  checki "encap source delivers" 3 (Delivery.deliveries delivery);
  checki "clean" 0 (Delivery.duplicates delivery + Delivery.spurious delivery);
  checki "nothing missed" 0 (Delivery.missed delivery)

let test_cbt_quit_cascade () =
  let g = fig5 () in
  let e, net, delivery = make_net g in
  let p = Cbt.create ~delivery net ~core:0 () in
  Cbt.host_join p ~group:1 4;
  Engine.run e;
  Cbt.host_leave p ~group:1 4;
  Engine.run e;
  checkb "4 gone" true (Cbt.router_state p 4 ~group:1 = None);
  checkb "relay 1 cascaded away" true (Cbt.router_state p 1 ~group:1 = None)

(* ---------------- DVMRP ---------------- *)

let test_dvmrp_flood_prune_reflood () =
  let g = fig5_ms () in
  let e, net, delivery = make_net g in
  let p = Dvmrp.create ~delivery net () in
  Dvmrp.host_join p ~group:1 5;
  checkb "membership" true (Dvmrp.is_member p ~group:1 5);
  (* first packet floods the whole domain and triggers prunes *)
  expect_and_send e delivery ~seq:0 ~members:[ 5 ] ~send:(fun () ->
      Dvmrp.send_data p ~group:1 ~src:4 ~seq:0);
  let first_crossings = Netsim.data_transmissions net in
  checki "delivered" 1 (Delivery.deliveries delivery);
  checkb "flood crossed many links" true (first_crossings >= G.link_count g);
  checkb "prune state installed" true (Dvmrp.pruned_links p > 0);
  (* second packet rides the pruned tree: far fewer crossings *)
  expect_and_send e delivery ~seq:1 ~members:[ 5 ] ~send:(fun () ->
      Dvmrp.send_data p ~group:1 ~src:4 ~seq:1);
  let second = Netsim.data_transmissions net - first_crossings in
  checki "delivered again" 2 (Delivery.deliveries delivery);
  checkb "pruned tree is lean" true (second < first_crossings);
  checki "exactly once each time" 0
    (Delivery.duplicates delivery + Delivery.spurious delivery + Delivery.missed delivery)

let test_dvmrp_prune_expiry_refloods () =
  let g = fig5_ms () in
  let e, net, delivery = make_net g in
  let p = Dvmrp.create ~delivery net () in
  Dvmrp.host_join p ~group:1 5;
  expect_and_send e delivery ~seq:0 ~members:[ 5 ] ~send:(fun () ->
      Dvmrp.send_data p ~group:1 ~src:4 ~seq:0);
  checkb "pruned" true (Dvmrp.pruned_links p > 0);
  (* after the 10 s prune lifetime all prune state is gone *)
  Engine.schedule e ~delay:30.0 (fun () -> ());
  Engine.run e;
  checki "prunes expired" 0 (Dvmrp.pruned_links p)

let test_dvmrp_graft () =
  let g = fig5_ms () in
  let e, net, delivery = make_net g in
  let p = Dvmrp.create ~delivery net () in
  Dvmrp.host_join p ~group:1 5;
  expect_and_send e delivery ~seq:0 ~members:[ 5 ] ~send:(fun () ->
      Dvmrp.send_data p ~group:1 ~src:4 ~seq:0);
  (* node 3 was pruned from the (4,1) tree; joining grafts it back *)
  Dvmrp.host_join p ~group:1 3;
  Engine.run e;
  expect_and_send e delivery ~seq:1 ~members:[ 3; 5 ] ~send:(fun () ->
      Dvmrp.send_data p ~group:1 ~src:4 ~seq:1);
  checki "both members served after graft" 3 (Delivery.deliveries delivery);
  checki "no missed" 0 (Delivery.missed delivery)

let test_dvmrp_leave_then_prune () =
  let g = fig5_ms () in
  let e, net, delivery = make_net g in
  let p = Dvmrp.create ~delivery net () in
  Dvmrp.host_join p ~group:1 5;
  Dvmrp.host_join p ~group:1 3;
  expect_and_send e delivery ~seq:0 ~members:[ 3; 5 ] ~send:(fun () ->
      Dvmrp.send_data p ~group:1 ~src:4 ~seq:0);
  Dvmrp.host_leave p ~group:1 3;
  expect_and_send e delivery ~seq:1 ~members:[ 5 ] ~send:(fun () ->
      Dvmrp.send_data p ~group:1 ~src:4 ~seq:1);
  checki "departed member not served" 0 (Delivery.spurious delivery);
  checki "remaining member served" 3 (Delivery.deliveries delivery)

let test_dvmrp_per_source_prune_state () =
  (* prune state is per (source, group): pruning away from source 4
     must not dam up traffic from source 1 *)
  let g = fig5_ms () in
  let e, net, delivery = make_net g in
  let p = Dvmrp.create ~delivery net () in
  Dvmrp.host_join p ~group:1 5;
  expect_and_send e delivery ~seq:0 ~members:[ 5 ] ~send:(fun () ->
      Dvmrp.send_data p ~group:1 ~src:4 ~seq:0);
  checkb "prunes installed for source 4" true (Dvmrp.pruned_links p > 0);
  (* a different source's first packet still floods and delivers *)
  expect_and_send e delivery ~seq:1 ~members:[ 5 ] ~send:(fun () ->
      Dvmrp.send_data p ~group:1 ~src:1 ~seq:1);
  checki "both sources delivered" 2 (Delivery.deliveries delivery);
  checki "clean" 0 (Delivery.missed delivery + Delivery.spurious delivery)

let test_cbt_data_before_any_join () =
  (* a packet sent while the group has no tree dies at the core,
     harmlessly *)
  let g = fig5 () in
  let e, net, delivery = make_net g in
  let p = Cbt.create ~delivery net ~core:0 () in
  Delivery.expect delivery ~seq:0 ~members:[] ~sent_at:(Engine.now e);
  Cbt.send_data p ~group:1 ~src:4 ~seq:0;
  Engine.run e;
  checki "no deliveries" 0 (Delivery.deliveries delivery);
  checki "no spurious" 0 (Delivery.spurious delivery);
  checkb "encap charged anyway" true (Netsim.data_overhead net > 0.0)

let test_scmp_delivery_delay_equals_tree_path () =
  (* end-to-end delay is exactly the tree-path delay between source and
     member: the simulator adds nothing else *)
  let g = fig5 () in
  let e, net, delivery = make_net g in
  let p = Scmp_proto.create ~delivery net ~mrouter:0 () in
  List.iter
    (fun r ->
      Scmp_proto.host_join p ~group:1 r;
      Engine.run e)
    [ 4; 3 ];
  (* tree: 0-1-4 and 0-3; path 4 -> 3 on the tree = 4-1-0-3 *)
  expect_and_send e delivery ~seq:0 ~members:[ 3 ] ~send:(fun () ->
      Scmp_proto.send_data p ~group:1 ~src:4 ~seq:0);
  checkf "delay = 9 + 3 + 4" 16.0 (Delivery.max_delay delivery)

(* ---------------- PIM-SM (extension baseline) ---------------- *)

module Pim = Protocols.Pim_sm

let test_pim_rpt_join_and_register () =
  let g = fig5 () in
  let e, net, delivery = make_net g in
  let p = Pim.create ~delivery net ~rp:0 () in
  Pim.host_join p ~group:1 4;
  Engine.run e;
  Alcotest.check Alcotest.(list int) "star-G state on the RP path" [ 0; 1; 4 ]
    (Pim.on_rp_tree p ~group:1);
  (* a source registers to the RP; the RP forwards down the tree *)
  expect_and_send e delivery ~seq:0 ~members:[ 4 ] ~send:(fun () ->
      Pim.send_data p ~group:1 ~src:5 ~seq:0);
  checki "delivered via RP" 1 (Delivery.deliveries delivery);
  checki "clean" 0 (Delivery.duplicates delivery + Delivery.missed delivery)

let test_pim_spt_switchover () =
  let g = fig5 () in
  let e, net, delivery = make_net g in
  let p = Pim.create ~delivery net ~rp:0 () in
  Pim.host_join p ~group:1 4;
  Engine.run e;
  (* first packet arrives via the RP and triggers the switchover *)
  expect_and_send e delivery ~seq:0 ~members:[ 4 ] ~send:(fun () ->
      Pim.send_data p ~group:1 ~src:5 ~seq:0);
  checkb "switched" true (Pim.switched_over p ~group:1 ~src:5 4);
  checkb "spt state exists" true (List.length (Pim.on_spt p ~group:1 ~src:5) >= 2);
  let d = Delivery.delays delivery in
  let first_delay = List.hd d in
  (* later packets ride the SPT: shorter path, still exactly once *)
  expect_and_send e delivery ~seq:1 ~members:[ 4 ] ~send:(fun () ->
      Pim.send_data p ~group:1 ~src:5 ~seq:1);
  checki "delivered exactly once" 2 (Delivery.deliveries delivery);
  checki "no dups through the transition" 0 (Delivery.duplicates delivery);
  let steady_delay = List.hd (Delivery.delays delivery) in
  (* RPT: 5~>0 (11) + 0->1->4 (12) = 23; SPT: 5->2->1->4 = 21 *)
  checkf "first packet via RP" 23.0 first_delay;
  checkf "steady state via SPT" 21.0 steady_delay

let test_pim_no_switchover_mode () =
  let g = fig5 () in
  let e, net, delivery = make_net g in
  let p = Pim.create ~delivery ~spt_switchover:false net ~rp:0 () in
  Pim.host_join p ~group:1 4;
  Engine.run e;
  for seq = 0 to 2 do
    expect_and_send e delivery ~seq ~members:[ 4 ] ~send:(fun () ->
        Pim.send_data p ~group:1 ~src:5 ~seq)
  done;
  checkb "never switches" false (Pim.switched_over p ~group:1 ~src:5 4);
  checki "all via RP, exactly once" 3 (Delivery.deliveries delivery);
  Alcotest.check Alcotest.(list int) "no spt state" [] (Pim.on_spt p ~group:1 ~src:5)

let test_pim_multiple_members_exactly_once () =
  let g = fig5 () in
  let e, net, delivery = make_net g in
  let p = Pim.create ~delivery net ~rp:0 () in
  List.iter
    (fun r ->
      Pim.host_join p ~group:1 r;
      Engine.run e)
    [ 4; 3; 5 ];
  for seq = 0 to 4 do
    expect_and_send e delivery ~seq ~members:[ 3; 4; 5 ] ~send:(fun () ->
        Pim.send_data p ~group:1 ~src:1 ~seq)
  done;
  checki "15 deliveries" 15 (Delivery.deliveries delivery);
  checki "clean" 0
    (Delivery.duplicates delivery + Delivery.spurious delivery
   + Delivery.missed delivery)

let test_pim_leave () =
  let g = fig5 () in
  let e, net, delivery = make_net g in
  let p = Pim.create ~delivery net ~rp:0 () in
  Pim.host_join p ~group:1 4;
  Engine.run e;
  expect_and_send e delivery ~seq:0 ~members:[ 4 ] ~send:(fun () ->
      Pim.send_data p ~group:1 ~src:5 ~seq:0);
  Pim.host_leave p ~group:1 4;
  Engine.run e;
  Alcotest.check Alcotest.(list int) "rpt state gone (RP keeps its own)"
    [ 0 ] (Pim.on_rp_tree p ~group:1);
  expect_and_send e delivery ~seq:1 ~members:[] ~send:(fun () ->
      Pim.send_data p ~group:1 ~src:5 ~seq:1);
  checki "nobody served after leave" 1 (Delivery.deliveries delivery);
  checki "no spurious" 0 (Delivery.spurious delivery)

let prop_pim_exactly_once =
  QCheck.Test.make ~name:"PIM-SM exactly-once on random topologies (both modes)"
    ~count:15 QCheck.small_int (fun seed ->
      let spec = Topology.Waxman.generate ~seed:(seed + 2) ~n:30 () in
      let rng = Prng.create (seed * 191) in
      let members = Prng.sample rng 8 30 in
      let source = Prng.int rng 30 in
      let rp = Prng.int rng 30 in
      let expected = List.filter (fun m -> m <> source) members in
      List.for_all
        (fun spt_switchover ->
          let e, net, delivery = make_net spec.Topology.Spec.graph in
          ignore net;
          let p = Pim.create ~delivery ~spt_switchover net ~rp () in
          List.iter
            (fun m ->
              Pim.host_join p ~group:1 m;
              Engine.run e)
            members;
          for seq = 0 to 4 do
            Delivery.expect delivery ~seq ~members:expected ~sent_at:(Engine.now e);
            Pim.send_data p ~group:1 ~src:source ~seq;
            Engine.run e
          done;
          Delivery.deliveries delivery = 5 * List.length expected
          && Delivery.duplicates delivery = 0
          && Delivery.spurious delivery = 0
          && Delivery.missed delivery = 0)
        [ true; false ])

(* ---------------- MOSPF ---------------- *)

let test_mospf_lsa_convergence () =
  let g = fig5 () in
  let e, net, _delivery = make_net g in
  let p = Mospf.create net () in
  Mospf.host_join p ~group:1 4;
  Engine.run e;
  for x = 0 to 5 do
    checkb
      (Printf.sprintf "router %d knows 4 joined" x)
      true
      (Mospf.knows_member p ~at:x ~group:1 4)
  done;
  checki "one LSA originated" 1 (Mospf.lsa_count p);
  Mospf.host_leave p ~group:1 4;
  Engine.run e;
  for x = 0 to 5 do
    checkb
      (Printf.sprintf "router %d saw the leave" x)
      false
      (Mospf.knows_member p ~at:x ~group:1 4)
  done

let test_mospf_delivery_on_spt () =
  let g = fig5 () in
  let e, net, delivery = make_net g in
  let p = Mospf.create ~delivery net () in
  List.iter
    (fun r ->
      Mospf.host_join p ~group:1 r;
      Engine.run e)
    [ 3; 5 ];
  let t0 = Engine.now e in
  expect_and_send e delivery ~seq:0 ~members:[ 3; 5 ] ~send:(fun () ->
      Mospf.send_data p ~group:1 ~src:4 ~seq:0);
  checki "both delivered" 2 (Delivery.deliveries delivery);
  checki "exactly once" 0 (Delivery.duplicates delivery + Delivery.missed delivery);
  (* SPT delivery: max delay equals the longest unicast delay from the
     source among members *)
  ignore t0;
  let apsp = Netgraph.Apsp.compute g in
  let expected =
    Float.max (Netgraph.Apsp.delay apsp 4 3) (Netgraph.Apsp.delay apsp 4 5)
  in
  checkf "min-delay delivery" expected (Delivery.max_delay delivery)

(* ---------------- HPIM-DM ---------------- *)

let test_hpim_hard_state_no_reflood () =
  (* The protocol's defining claim, as a differential against DVMRP:
     after the first flood round the no-interest state is permanent, so
     a packet sent long after DVMRP's prune timeout still rides the
     lean tree, while DVMRP re-floods the whole domain. *)
  let crossings_of_third create_p send =
    let g = fig5 () in
    let e, net, delivery = make_net g in
    let p = create_p delivery net in
    let join, send_data = send p in
    join ();
    expect_and_send e delivery ~seq:0 ~members:[ 5 ] ~send:(fun () ->
        send_data ~seq:0);
    expect_and_send e delivery ~seq:1 ~members:[ 5 ] ~send:(fun () ->
        send_data ~seq:1);
    let before = Netsim.data_transmissions net in
    (* idle past DVMRP's 10 s prune timeout *)
    Engine.schedule e ~delay:30.0 (fun () -> ());
    Engine.run e;
    expect_and_send e delivery ~seq:2 ~members:[ 5 ] ~send:(fun () ->
        send_data ~seq:2);
    checki "all three delivered" 3 (Delivery.deliveries delivery);
    checki "clean" 0
      (Delivery.duplicates delivery + Delivery.spurious delivery
     + Delivery.missed delivery);
    Netsim.data_transmissions net - before
  in
  let hpim =
    crossings_of_third
      (fun delivery net -> Hpim_dm.create ~delivery net ())
      (fun p ->
        ( (fun () -> Hpim_dm.host_join p ~group:1 5),
          fun ~seq -> Hpim_dm.send_data p ~group:1 ~src:4 ~seq ))
  in
  let dvmrp =
    crossings_of_third
      (fun delivery net -> Dvmrp.create ~delivery net ())
      (fun p ->
        ( (fun () -> Dvmrp.host_join p ~group:1 5),
          fun ~seq -> Dvmrp.send_data p ~group:1 ~src:4 ~seq ))
  in
  checkb "DVMRP re-floods after its timeout, HPIM-DM does not" true
    (hpim < dvmrp)

let test_hpim_graft_on_join () =
  let g = fig5 () in
  let e, net, delivery = make_net g in
  let p = Hpim_dm.create ~delivery net () in
  Hpim_dm.host_join p ~group:1 5;
  checkb "membership" true (Hpim_dm.is_member p ~group:1 5);
  expect_and_send e delivery ~seq:0 ~members:[ 5 ] ~send:(fun () ->
      Hpim_dm.send_data p ~group:1 ~src:4 ~seq:0);
  checkb "no-interest state installed" true (Hpim_dm.no_interest_links p > 0);
  (* node 3 declared no interest during the flood; joining must graft
     its branch back explicitly — there is no timeout to save it *)
  Hpim_dm.host_join p ~group:1 3;
  Engine.run e;
  expect_and_send e delivery ~seq:1 ~members:[ 3; 5 ] ~send:(fun () ->
      Hpim_dm.send_data p ~group:1 ~src:4 ~seq:1);
  checki "both members served after graft" 3 (Delivery.deliveries delivery);
  checki "no missed" 0 (Delivery.missed delivery);
  (match Hpim_dm.verify p with
  | Ok () -> ()
  | Error err -> Alcotest.failf "verify: %s" err)

let test_hpim_leave_then_rejoin () =
  let g = fig5 () in
  let e, net, delivery = make_net g in
  let p = Hpim_dm.create ~delivery net () in
  Hpim_dm.host_join p ~group:1 5;
  Hpim_dm.host_join p ~group:1 3;
  expect_and_send e delivery ~seq:0 ~members:[ 3; 5 ] ~send:(fun () ->
      Hpim_dm.send_data p ~group:1 ~src:4 ~seq:0);
  Hpim_dm.host_leave p ~group:1 3;
  Engine.run e;
  expect_and_send e delivery ~seq:1 ~members:[ 5 ] ~send:(fun () ->
      Hpim_dm.send_data p ~group:1 ~src:4 ~seq:1);
  checki "departed member not served" 0 (Delivery.spurious delivery);
  (* hard state means only an explicit re-sync can reopen the branch *)
  Hpim_dm.host_join p ~group:1 3;
  Engine.run e;
  expect_and_send e delivery ~seq:2 ~members:[ 3; 5 ] ~send:(fun () ->
      Hpim_dm.send_data p ~group:1 ~src:4 ~seq:2);
  checki "re-join resumes delivery" 0 (Delivery.missed delivery);
  (match Hpim_dm.verify p with
  | Ok () -> ()
  | Error err -> Alcotest.failf "verify: %s" err)

let test_hpim_reliable_sync_under_control_loss () =
  (* Interest syncs ride a lossy control plane: the seq-numbered
     retransmission chain must still converge every branch, and the
     retransmissions must be visible in the observed metrics. *)
  let g = fig5 () in
  let e, net, delivery = make_net g in
  Netsim.set_loss ~only:`Control net ~rate:0.3 ~seed:11;
  let p = Hpim_dm.create ~delivery net () in
  Hpim_dm.host_join p ~group:1 5;
  Hpim_dm.host_join p ~group:1 3;
  expect_and_send e delivery ~seq:0 ~members:[ 3; 5 ] ~send:(fun () ->
      Hpim_dm.send_data p ~group:1 ~src:4 ~seq:0);
  expect_and_send e delivery ~seq:1 ~members:[ 3; 5 ] ~send:(fun () ->
      Hpim_dm.send_data p ~group:1 ~src:4 ~seq:1);
  checki "members keep being served" 0 (Delivery.missed delivery);
  let m = Obs.Metrics.create () in
  Hpim_dm.observe p m;
  let c name = Obs.Metrics.counter_value (Obs.Metrics.counter m name) in
  checkb "syncs flowed" true (c "hpim/syncs" > 0);
  checkb "lost syncs were retransmitted" true (c "hpim/retransmissions" > 0);
  (match Hpim_dm.verify p with
  | Ok () -> ()
  | Error err -> Alcotest.failf "verify: %s" err)

let test_scmp_under_packet_loss () =
  (* Failure injection: with lossy links, deliveries are missed but the
     protocol neither crashes nor mis-delivers; lossless runs stay
     perfect (the control case). *)
  let run rate =
    let spec = Topology.Waxman.generate ~seed:3 ~n:30 () in
    let e, net, delivery = make_net spec.Topology.Spec.graph in
    Netsim.set_loss net ~rate ~seed:5;
    let p = Scmp_proto.create ~delivery net ~mrouter:0 () in
    List.iter
      (fun r ->
        Scmp_proto.host_join p ~group:1 r;
        Engine.run e)
      [ 5; 11; 17; 23 ];
    for seq = 0 to 9 do
      Delivery.expect delivery ~seq ~members:[ 11; 17; 23 ] ~sent_at:(Engine.now e);
      Scmp_proto.send_data p ~group:1 ~src:5 ~seq;
      Engine.run e
    done;
    delivery
  in
  let clean = run 0.0 in
  checki "lossless: all delivered" 30 (Delivery.deliveries clean);
  checki "lossless: none missed" 0 (Delivery.missed clean);
  let lossy = run 0.25 in
  checkb "loss causes misses" true (Delivery.missed lossy > 0);
  checki "but never spurious deliveries" 0 (Delivery.spurious lossy);
  checki "and never duplicates" 0 (Delivery.duplicates lossy)

(* ---------------- Churn ---------------- *)

module Churn = Protocols.Churn

let test_churn_statistics () =
  let e = Engine.create () in
  let joined = ref [] and left = ref [] in
  let c =
    Churn.start e
      ~rng:(Prng.create 7)
      ~candidates:(List.init 20 Fun.id)
      ~join:(fun x -> joined := x :: !joined)
      ~leave:(fun x -> left := x :: !left)
      ~mean_interarrival:1.0 ~mean_holding:5.0 ~horizon:200.0
  in
  Engine.run e;
  checki "callbacks = counters (joins)" (Churn.joins c) (List.length !joined);
  checki "callbacks = counters (leaves)" (Churn.leaves c) (List.length !left);
  checkb "plenty of arrivals" true (Churn.joins c > 100);
  (* after the horizon every holding timer has fired *)
  checki "everyone eventually left" (Churn.joins c) (Churn.leaves c);
  Alcotest.check Alcotest.(list int) "no residual members" [] (Churn.current_members c)

let test_churn_members_distinct () =
  let e = Engine.create () in
  let members_now = ref [] in
  let c =
    Churn.start e
      ~rng:(Prng.create 11)
      ~candidates:[ 1; 2; 3 ]
      ~join:(fun _ -> ())
      ~leave:(fun _ -> ())
      ~mean_interarrival:0.5 ~mean_holding:50.0 ~horizon:20.0
  in
  (* sample membership mid-run: never exceeds the pool, never repeats *)
  Engine.schedule e ~delay:10.0 (fun () -> members_now := Churn.current_members c);
  Engine.run e;
  checkb "bounded by pool" true (List.length !members_now <= 3);
  checki "distinct" (List.length !members_now)
    (List.length (List.sort_uniq compare !members_now))

let test_churn_drives_scmp_consistently () =
  (* Poisson churn against the full SCMP machinery: after the dust
     settles the network must still mirror the m-router's tree. Churn
     times are in scaled seconds, far above network RTTs, so most
     transitions complete before the next one starts — and transient
     overlap is exactly what the protocol must survive. *)
  let spec = Topology.Waxman.generate ~seed:13 ~n:40 () in
  let e, net, _delivery = make_net (Topology.Spec.sim_graph spec) in
  let p = Scmp_proto.create net ~mrouter:0 () in
  let c =
    Churn.start e
      ~rng:(Prng.create 17)
      ~candidates:(List.init 39 (fun i -> i + 1))
      ~join:(fun x -> Scmp_proto.host_join p ~group:1 x)
      ~leave:(fun x -> Scmp_proto.host_leave p ~group:1 x)
      ~mean_interarrival:0.3 ~mean_holding:4.0 ~horizon:60.0
  in
  Engine.run e;
  checkb "substantial churn" true (Churn.joins c > 50);
  (match Scmp_proto.network_tree_consistent p ~group:1 with
  | Ok () -> ()
  | Error err -> Alcotest.failf "after churn: %s" err);
  match Scmp_proto.mrouter_tree p ~group:1 with
  | None -> Alcotest.fail "tree should exist"
  | Some t ->
    checkb "tree valid" true (Mtree.Tree.well_formed t = Ok ());
    Alcotest.check Alcotest.(list int) "membership agrees with churn state"
      (Churn.current_members c) (Mtree.Tree.members t)

(* ---------------- Multi (multiple m-routers, §II.A) ---------------- *)

module Multi = Protocols.Multi

let test_multi_homes_and_trees () =
  let g = fig5 () in
  let e, net, delivery = make_net g in
  let m = Multi.create ~delivery net ~mrouters:[ 0; 2 ] () in
  Alcotest.check Alcotest.(list int) "m-routers" [ 0; 2 ] (Multi.mrouters m);
  (* round-robin by group id: even groups at 0, odd at 2 *)
  checki "home of g2" 0 (Multi.home m ~group:2);
  checki "home of g3" 2 (Multi.home m ~group:3);
  Multi.host_join m ~group:2 4;
  Multi.host_join m ~group:3 4;
  Engine.run e;
  (match Multi.tree m ~group:2 with
  | Some t -> checki "g2 rooted at 0" 0 (Mtree.Tree.root t)
  | None -> Alcotest.fail "no g2 tree");
  (match Multi.tree m ~group:3 with
  | Some t -> checki "g3 rooted at 2" 2 (Mtree.Tree.root t)
  | None -> Alcotest.fail "no g3 tree");
  (match Multi.network_tree_consistent m ~group:2 with
  | Ok () -> ()
  | Error err -> Alcotest.failf "g2: %s" err);
  match Multi.network_tree_consistent m ~group:3 with
  | Ok () -> ()
  | Error err -> Alcotest.failf "g3: %s" err

let test_multi_delivery_per_home () =
  let g = fig5 () in
  let e, net, delivery = make_net g in
  let m = Multi.create ~delivery net ~mrouters:[ 0; 2 ] () in
  List.iter (fun r -> Multi.host_join m ~group:2 r) [ 4; 5 ];
  List.iter (fun r -> Multi.host_join m ~group:3 r) [ 1; 3 ];
  Engine.run e;
  (* on-tree source in g2 *)
  expect_and_send e delivery ~seq:0 ~members:[ 5 ] ~send:(fun () ->
      Multi.send_data m ~group:2 ~src:4 ~seq:0);
  (* off-tree source in g3: encapsulates to g3's home (node 2) *)
  expect_and_send e delivery ~seq:1 ~members:[ 1; 3 ] ~send:(fun () ->
      Multi.send_data m ~group:3 ~src:5 ~seq:1);
  checki "all deliveries" 3 (Delivery.deliveries delivery);
  checki "clean" 0
    (Delivery.duplicates delivery + Delivery.spurious delivery
   + Delivery.missed delivery)

let test_multi_custom_assignment () =
  let g = fig5 () in
  let e, net, _delivery = make_net g in
  let m =
    Multi.create net ~mrouters:[ 0; 2 ]
      ~assign:(fun group -> if group < 100 then 2 else 0)
      ()
  in
  checki "custom home" 2 (Multi.home m ~group:7);
  Multi.host_join m ~group:7 5;
  Engine.run e;
  (match Multi.tree m ~group:7 with
  | Some t -> checki "rooted per assignment" 2 (Mtree.Tree.root t)
  | None -> Alcotest.fail "no tree");
  (* a broken assignment function is rejected loudly *)
  let bad = Multi.create net ~mrouters:[ 0 ] ~assign:(fun _ -> 5) () in
  Alcotest.check_raises "assign outside set"
    (Invalid_argument "Multi: assign returned 5, not one of the m-routers")
    (fun () -> ignore (Multi.home bad ~group:1))

let test_multi_create_errors () =
  let g = fig5 () in
  let e, net, _delivery = make_net g in
  ignore e;
  Alcotest.check_raises "empty" (Invalid_argument "Multi.create: need at least one m-router")
    (fun () -> ignore (Multi.create net ~mrouters:[] ()));
  Alcotest.check_raises "duplicate" (Invalid_argument "Multi.create: duplicate m-router")
    (fun () -> ignore (Multi.create net ~mrouters:[ 1; 1 ] ()))

let test_multi_load_spreads () =
  (* with two homes, join-processing control work lands on both *)
  let spec = Topology.Waxman.generate ~seed:6 ~n:40 () in
  let e, net, _delivery = make_net spec.Topology.Spec.graph in
  let m = Multi.create net ~mrouters:[ 0; 20 ] () in
  for grp = 1 to 6 do
    List.iter
      (fun r -> Multi.host_join m ~group:grp r)
      [ 5 + grp; 15 + grp; 25 + grp ]
  done;
  Engine.run e;
  let trees_at home =
    List.length
      (List.filter
         (fun grp ->
           match Multi.tree m ~group:grp with
           | Some t -> Mtree.Tree.root t = home
           | None -> false)
         [ 1; 2; 3; 4; 5; 6 ])
  in
  checki "half the groups at each home" 3 (trees_at 0);
  checki "other half" 3 (trees_at 20)

(* ---------------- Runner ---------------- *)

let runner_scenario seed =
  let spec = Topology.Flat_random.generate ~seed ~n:30 ~avg_degree:3.0 in
  let apsp = Netgraph.Apsp.compute spec.Topology.Spec.graph in
  let center = Scmp.Placement.pick apsp Scmp.Placement.Min_avg_delay in
  let rng = Prng.create (seed + 5) in
  let members = Prng.sample rng 10 30 |> List.filter (fun x -> x <> center) in
  Runner.make ~spec ~center ~source:(List.hd members) ~members ()

let test_runner_exactly_once_all_protocols () =
  let sc = runner_scenario 11 in
  let n_members = List.length sc.Runner.members in
  List.iter
    (fun d ->
      let r = Runner.run d sc in
      let name = Protocols.Driver.display d in
      checki (name ^ " deliveries") (30 * (n_members - 1)) r.Runner.deliveries;
      checki (name ^ " dups") 0 r.Runner.duplicates;
      checki (name ^ " spurious") 0 r.Runner.spurious;
      checki (name ^ " missed") 0 r.Runner.missed;
      checkb (name ^ " data overhead positive") true (r.Runner.data_overhead > 0.0);
      checkb (name ^ " delay positive") true (r.Runner.max_delay > 0.0))
    (Protocols.Driver.all ())

let test_runner_deterministic () =
  let sc = runner_scenario 13 in
  List.iter
    (fun d ->
      let a = Runner.run d sc in
      let b = Runner.run d sc in
      checkb (Protocols.Driver.display d ^ " bitwise identical") true (a = b))
    (Protocols.Driver.all ())

let test_runner_leavers () =
  let sc0 = runner_scenario 17 in
  (* one member leaves halfway through the data phase *)
  let departer = List.nth sc0.Runner.members 3 in
  let t_leave = sc0.Runner.data_start +. 15.2 in
  let sc = { sc0 with Runner.leavers = [ (t_leave, departer) ] } in
  let r = Runner.run (Protocols.Driver.find_exn "scmp") sc in
  let n = List.length sc.Runner.members in
  (* 16 packets expected by everyone, 14 by everyone minus the
     departer (send times are data_start + 0..29) *)
  checki "missed none" 0 r.Runner.missed;
  checki "spurious none" 0 r.Runner.spurious;
  checki "deliveries drop after leave" ((16 * (n - 1)) + (14 * (n - 2)))
    r.Runner.deliveries

let delivery_expected driver sc =
  let r = Obs.Report.create ~name:"expected" () in
  ignore (Runner.run ~report:r driver sc);
  Obs.Metrics.counter_value
    (Obs.Metrics.counter (Obs.Report.metrics r) "delivery/expected")

let test_runner_expected_pinned () =
  (* Each packet is expected by the live membership at its send
     instant, whether members leave on a script or churn; the totals
     are pinned. *)
  let scmp = Protocols.Driver.find_exn "scmp" in
  let sc0 = runner_scenario 17 in
  let departer = List.nth sc0.Runner.members 3 in
  let leavers =
    { sc0 with Runner.leavers = [ (sc0.Runner.data_start +. 15.2, departer) ] }
  in
  checki "leavers run" 256 (delivery_expected scmp leavers);
  let sc0 = runner_scenario 19 in
  let departer = List.nth sc0.Runner.members 2 in
  let churn =
    {
      sc0 with
      Runner.leavers = [ (sc0.Runner.data_start +. 10.5, departer) ];
      churn =
        Some
          {
            Runner.mean_interarrival = 0.5;
            mean_holding = 6.0;
            horizon = Runner.data_end sc0;
            churn_seed = 3;
          };
    }
  in
  checki "churn run" 702 (delivery_expected scmp churn)

let test_driver_always_full_tree () =
  (* The BRANCH-vs-TREE ablation is a driver outside the list: same
     trees, so the same deliveries over the same data plane, but every
     change costs a full TREE packet. *)
  let sc = runner_scenario 11 in
  let full_tree = Protocols.Driver.scmp_always_full_tree in
  let a = Runner.run (Protocols.Driver.find_exn "scmp") sc in
  let b = Runner.run full_tree sc in
  checki "same deliveries" a.Runner.deliveries b.Runner.deliveries;
  checki "none missed" 0 b.Runner.missed;
  checki "no duplicates" 0 b.Runner.duplicates;
  checkf "same data overhead" a.Runner.data_overhead b.Runner.data_overhead;
  checkb "protocol overhead at least SCMP's" true
    (b.Runner.protocol_overhead >= a.Runner.protocol_overhead);
  let name = Protocols.Driver.name full_tree in
  checkb "not in the driver list" false
    (List.mem name (Protocols.Driver.names ()));
  checkb "not found by name" true (Result.is_error (Protocols.Driver.find name))

(* A checked run that trips still finishes its trace and its report
   before the violation escapes: SCMP whose quiescent self-check always
   fails stands in for a real defect. *)
module Failing_verify = struct
  let name = "scmp-failing-verify"
  let display = "SCMP*"

  let setup cfg =
    let inst = Protocols.Driver.setup (Protocols.Driver.find_exn "scmp") cfg in
    { inst with Protocols.Driver.verify = (fun () -> Error "stub") }
end

let test_runner_trip_keeps_evidence () =
  let trace = Filename.temp_file "scmp_trip" ".tr" in
  Sys.remove trace;
  let sc = { (runner_scenario 11) with Runner.trace_path = Some trace } in
  let report = Obs.Report.create ~name:"trip" () in
  (match
     Runner.run ~check:true ~report (module Failing_verify : Protocols.Driver.S) sc
   with
  | _ -> Alcotest.fail "the stub verify must trip the run"
  | exception Check.Invariant.Violation msg ->
    Alcotest.check Alcotest.string "the stub tripped it"
      "runner driver verify: stub" msg);
  checkb "trace written" true (Sys.file_exists trace);
  checkb "trace has crossings" true
    (In_channel.with_open_bin trace In_channel.length > 0L);
  Sys.remove trace;
  checkb "report finished" true
    (List.mem "delivery/ratio" (Obs.Metrics.names (Obs.Report.metrics report)))

let qc = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "protocols"
    [
      ( "tree_packet",
        [
          Alcotest.test_case "paper example" `Quick test_tree_packet_paper_example;
          Alcotest.test_case "leaf" `Quick test_tree_packet_leaf;
          Alcotest.test_case "of_tree" `Quick test_tree_packet_of_tree;
          Alcotest.test_case "decode errors" `Quick test_tree_packet_decode_errors;
          qc prop_tree_packet_roundtrip;
        ] );
      ( "delivery",
        [
          Alcotest.test_case "recorder" `Quick test_delivery_recorder;
          Alcotest.test_case "empty" `Quick test_delivery_empty;
        ] );
      ( "igmp",
        [
          Alcotest.test_case "callbacks" `Quick test_igmp_callbacks;
          Alcotest.test_case "rejoin during wait" `Quick test_igmp_rejoin_during_wait;
          Alcotest.test_case "queries" `Quick test_igmp_queries;
        ] );
      ( "scmp",
        [
          Alcotest.test_case "join builds tree" `Quick test_scmp_join_builds_consistent_tree;
          Alcotest.test_case "data delivery" `Quick test_scmp_data_delivery;
          Alcotest.test_case "leave prunes" `Quick test_scmp_leave_prunes_network;
          Alcotest.test_case "m-router member" `Quick test_scmp_mrouter_member;
          Alcotest.test_case "full-tree ablation equivalent" `Quick
            test_scmp_full_tree_distribution_equivalent;
          Alcotest.test_case "two groups isolated" `Quick test_scmp_two_groups_isolated;
          Alcotest.test_case "relay becomes member" `Quick test_scmp_relay_becomes_member;
          Alcotest.test_case "delay = tree path delay" `Quick
            test_scmp_delivery_delay_equals_tree_path;
          qc prop_scmp_churn_consistent;
        ] );
      ( "cbt",
        [
          Alcotest.test_case "join/tree shape" `Quick test_cbt_join_and_tree_shape;
          Alcotest.test_case "data + encap" `Quick test_cbt_data_and_encap;
          Alcotest.test_case "quit cascade" `Quick test_cbt_quit_cascade;
          Alcotest.test_case "data before joins" `Quick test_cbt_data_before_any_join;
        ] );
      ( "dvmrp",
        [
          Alcotest.test_case "flood/prune" `Quick test_dvmrp_flood_prune_reflood;
          Alcotest.test_case "prune expiry" `Quick test_dvmrp_prune_expiry_refloods;
          Alcotest.test_case "graft" `Quick test_dvmrp_graft;
          Alcotest.test_case "leave" `Quick test_dvmrp_leave_then_prune;
          Alcotest.test_case "per-source prune state" `Quick
            test_dvmrp_per_source_prune_state;
        ] );
      ( "pim-sm",
        [
          Alcotest.test_case "RP tree + register" `Quick test_pim_rpt_join_and_register;
          Alcotest.test_case "SPT switchover" `Quick test_pim_spt_switchover;
          Alcotest.test_case "no-switchover mode" `Quick test_pim_no_switchover_mode;
          Alcotest.test_case "multi-member exactly once" `Quick
            test_pim_multiple_members_exactly_once;
          Alcotest.test_case "leave" `Quick test_pim_leave;
          qc prop_pim_exactly_once;
        ] );
      ( "hpim-dm",
        [
          Alcotest.test_case "hard state, no re-flood (vs DVMRP)" `Quick
            test_hpim_hard_state_no_reflood;
          Alcotest.test_case "graft on join" `Quick test_hpim_graft_on_join;
          Alcotest.test_case "leave then re-join" `Quick
            test_hpim_leave_then_rejoin;
          Alcotest.test_case "reliable sync under control loss" `Quick
            test_hpim_reliable_sync_under_control_loss;
        ] );
      ( "mospf",
        [
          Alcotest.test_case "LSA convergence" `Quick test_mospf_lsa_convergence;
          Alcotest.test_case "SPT delivery" `Quick test_mospf_delivery_on_spt;
        ] );
      ( "loss",
        [
          Alcotest.test_case "SCMP under packet loss" `Quick test_scmp_under_packet_loss;
        ] );
      ( "churn",
        [
          Alcotest.test_case "statistics" `Quick test_churn_statistics;
          Alcotest.test_case "distinct members" `Quick test_churn_members_distinct;
          Alcotest.test_case "drives SCMP consistently" `Quick
            test_churn_drives_scmp_consistently;
        ] );
      ( "multi",
        [
          Alcotest.test_case "homes and trees" `Quick test_multi_homes_and_trees;
          Alcotest.test_case "delivery per home" `Quick test_multi_delivery_per_home;
          Alcotest.test_case "custom assignment" `Quick test_multi_custom_assignment;
          Alcotest.test_case "create errors" `Quick test_multi_create_errors;
          Alcotest.test_case "load spreads" `Quick test_multi_load_spreads;
        ] );
      ( "runner",
        [
          Alcotest.test_case "exactly once, all protocols" `Quick
            test_runner_exactly_once_all_protocols;
          Alcotest.test_case "deterministic" `Quick test_runner_deterministic;
          Alcotest.test_case "leavers" `Quick test_runner_leavers;
          Alcotest.test_case "expected sets pinned" `Quick
            test_runner_expected_pinned;
          Alcotest.test_case "always-TREE driver" `Quick
            test_driver_always_full_tree;
          Alcotest.test_case "tripped check keeps trace and report" `Quick
            test_runner_trip_keeps_evidence;
        ] );
    ]
