(* Fault injection, route reconvergence and the reliable SCMP control
   plane.

   Layer by layer: the netsim failure overlay (drop reasons, epochs,
   in-flight kills, class-filtered loss), the Faults schedule module
   (parsers, installation, seeded randomness), the SCMP reliable
   transport (lost JOIN retransmitted, give-up after max attempts) and
   tree repair (mid-session tree-link failure reconverges), and finally
   the full acceptance scenario from the robustness issue: 5% control
   loss plus a scripted tree-link failure, invariants green, delivery
   ratio >= 0.95, deterministic report. *)

module G = Netgraph.Graph
module Engine = Eventsim.Engine
module Netsim = Eventsim.Netsim
module Faults = Eventsim.Faults
module Trace = Eventsim.Trace
module Message = Protocols.Message
module Delivery = Protocols.Delivery
module Scmp_proto = Protocols.Scmp_proto
module Hpim_dm = Protocols.Hpim_dm
module Runner = Protocols.Runner
module Driver = Protocols.Driver
module Prng = Scmp_util.Prng

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

(* ---------------- netsim failure overlay ---------------- *)

(* Tiny string-message network: a 4-node path 0-1-2-3 plus a 1-3
   chord, classified by message content. *)
let string_net () =
    let bld = G.Builder.create 4 in
  G.Builder.add_link bld 0 1 ~delay:0.001 ~cost:1.0;
  G.Builder.add_link bld 1 2 ~delay:0.001 ~cost:1.0;
  G.Builder.add_link bld 2 3 ~delay:0.001 ~cost:1.0;
  G.Builder.add_link bld 1 3 ~delay:0.001 ~cost:1.0;
  let g = G.Builder.freeze bld in
  let e = Engine.create () in
  let net =
    Netsim.create e g ~classify:(fun m ->
        if m = "ctl" then `Control else `Data)
  in
  (e, net)

let test_drop_reasons () =
  let e, net = string_net () in
  let arrived = ref 0 in
  for x = 0 to 3 do
    Netsim.set_handler net x (fun _ ~from:_ _ -> incr arrived)
  done;
  let hook_hits = ref [] in
  Netsim.on_drop net (fun ~reason ~src ~dst _ ->
      hook_hits := (reason, src, dst) :: !hook_hits);
  Netsim.fail_link net 0 1;
  (* dead link: dropped, uncharged *)
  let cost0 = Netsim.control_overhead net in
  Netsim.transmit net ~src:0 ~dst:1 "ctl";
  Engine.run e;
  checki "link_down drop" 1 (Netsim.dropped_by net Netsim.Link_down);
  checkb "dead-link transmit is not charged" true
    (Netsim.control_overhead net = cost0);
  (* node 0 is now partitioned: unicast 0 -> 3 has no route *)
  Netsim.unicast net ~src:0 ~dst:3 "data";
  Engine.run e;
  checki "no_route drop" 1 (Netsim.dropped_by net Netsim.No_route);
  (* dead endpoint *)
  Netsim.restore_link net 0 1;
  Netsim.fail_node net 3;
  Netsim.unicast net ~src:0 ~dst:3 "data";
  Engine.run e;
  checki "node_down drop" 1 (Netsim.dropped_by net Netsim.Node_down);
  checki "total" 3 (Netsim.dropped net);
  checki "nothing was delivered" 0 !arrived;
  checki "on_drop saw each kill" 3 (List.length !hook_hits);
  checkb "labels are stable" true
    (Netsim.drop_reason_label Netsim.Link_down = "link_down"
    && Netsim.drop_reason_label Netsim.No_route = "no_route")

let test_routes_epoch_and_live_graph () =
  let _, net = string_net () in
  checki "fresh epoch" 0 (Netsim.routes_epoch net);
  Netsim.fail_link net 1 2;
  checki "fail bumps" 1 (Netsim.routes_epoch net);
  Netsim.fail_link net 2 1;
  checki "re-failing is a no-op" 1 (Netsim.routes_epoch net);
  Alcotest.check
    Alcotest.(list (pair int int))
    "dead_links normalized" [ (1, 2) ] (Netsim.dead_link_list net);
  checki "live graph lost one link" 3 (G.link_count (Netsim.live_graph net));
  Netsim.fail_node net 3;
  checkb "links of a dead node die with it" false (Netsim.link_alive net 1 3);
  Alcotest.check
    Alcotest.(list (pair int int))
    "dead_links includes the node's links"
    [ (1, 2); (1, 3); (2, 3) ]
    (Netsim.dead_link_list net);
  Netsim.restore_node net 3;
  Netsim.restore_link net 1 2;
  checkb "all alive again" true (Netsim.dead_link_list net = []);
  checki "four reconvergences" 4 (Netsim.routes_epoch net);
  Alcotest.check_raises "unknown link rejected"
    (Invalid_argument "Netsim.fail_link: no such link") (fun () ->
      Netsim.fail_link net 0 3)

let test_inflight_kill () =
  let e, net = string_net () in
  let arrived = ref 0 in
  Netsim.set_handler net 1 (fun _ ~from:_ _ -> incr arrived);
  (* The packet is launched at t=0 and would arrive at t=0.001; the
     link dies under it at t=0.0005 and even comes back before the
     arrival instant — the packet must still be gone. *)
  Netsim.transmit net ~src:0 ~dst:1 "data";
  Engine.schedule_at e ~time:0.0005 (fun () -> Netsim.fail_link net 0 1);
  Engine.schedule_at e ~time:0.0008 (fun () -> Netsim.restore_link net 0 1);
  Engine.run e;
  checki "killed in flight" 1 (Netsim.dropped_by net Netsim.Link_down);
  checki "never delivered" 0 !arrived

let test_loss_class_filter () =
  let e, net = string_net () in
  let data = ref 0 and ctl = ref 0 in
  Netsim.set_handler net 1 (fun _ ~from:_ m ->
      if m = "ctl" then incr ctl else incr data);
  Netsim.set_loss net { rate = 0.4; seed = 7; only = Some `Control };
  for _ = 1 to 50 do
    Netsim.transmit net ~src:0 ~dst:1 "data";
    Netsim.transmit net ~src:0 ~dst:1 "ctl"
  done;
  Engine.run e;
  checki "data packets never lost" 50 !data;
  checkb "control packets do get lost" true (!ctl < 50);
  checki "every kill is accounted as loss" (50 - !ctl)
    (Netsim.dropped_by net Netsim.Loss)

let test_drop_trace_events () =
  let e, net = string_net () in
  let tr = Trace.attach net ~describe:(fun m -> m) in
  Netsim.fail_link net 0 1;
  Netsim.transmit net ~src:0 ~dst:1 "ctl";
  Engine.run e;
  checki "one drop event traced" 1 (Trace.drop_events tr);
  checkb "the line names the reason" true
    (List.exists
       (fun l ->
         let n = String.length l and m = String.length "link_down" in
         let rec go i =
           i + m <= n && (String.sub l i m = "link_down" || go (i + 1))
         in
         go 0)
       (Trace.lines tr))

(* ---------------- Faults schedules ---------------- *)

let test_faults_parse () =
  (match Faults.parse_link_failure "3-7@2.5" with
  | Ok [ { Faults.at = 2.5; event = Faults.Link_down (3, 7) } ] -> ()
  | Ok _ -> Alcotest.fail "wrong specs for 3-7@2.5"
  | Error e -> Alcotest.failf "parse: %s" e);
  (match Faults.parse_link_failure "3-7@2.5:restore@4" with
  | Ok
      [
        { Faults.at = 2.5; event = Faults.Link_down (3, 7) };
        { Faults.at = 4.0; event = Faults.Link_up (3, 7) };
      ] ->
    ()
  | Ok _ -> Alcotest.fail "wrong specs for restore form"
  | Error e -> Alcotest.failf "parse: %s" e);
  (match Faults.parse_node_failure "5@1.25:restore@9.5" with
  | Ok
      [
        { Faults.at = 1.25; event = Faults.Node_down 5 };
        { Faults.at = 9.5; event = Faults.Node_up 5 };
      ] ->
    ()
  | Ok _ -> Alcotest.fail "wrong specs for node restore form"
  | Error e -> Alcotest.failf "parse: %s" e);
  List.iter
    (fun s ->
      match Faults.parse_link_failure s with
      | Ok _ -> Alcotest.failf "expected parse failure for %S" s
      | Error _ -> ())
    [ ""; "3-7"; "3@2.5"; "a-b@1"; "3-7@x"; "3-7@5:restore@2" ]

let test_faults_install_and_random () =
  let e, net = string_net () in
  let f =
    Faults.install net
      [
        { Faults.at = 1.0; event = Faults.Link_down (1, 2) };
        { Faults.at = 2.0; event = Faults.Link_up (1, 2) };
      ]
  in
  checki "nothing applied yet" 0 (Faults.applied f);
  Engine.run e;
  checki "both applied" 2 (Faults.applied f);
  checkb "link back up" true (Netsim.link_alive net 1 2);
  checki "two reconvergences" 2 (Netsim.routes_epoch net);
  (* the schedule alone keeps the engine alive to its last instant *)
  checkb "engine ran to the restore" true (Engine.now e >= 2.0);
  let g = Netsim.graph net in
  let s1 = Faults.random_link_failures ~seed:3 ~count:2 ~t0:1.0 ~t1:5.0 g in
  let s2 = Faults.random_link_failures ~seed:3 ~count:2 ~t0:1.0 ~t1:5.0 g in
  checkb "seeded draws are reproducible" true (s1 = s2);
  checki "two failures drawn" 2 (List.length s1);
  List.iter
    (fun { Faults.at; event } ->
      checkb "time within the window" true (at >= 1.0 && at < 5.0);
      match event with
      | Faults.Link_down (a, b) -> checkb "a real link" true (G.has_link g a b)
      | _ -> Alcotest.fail "expected Link_down")
    s1;
  checki "count clamped to the link population" 4
    (List.length (Faults.random_link_failures ~seed:3 ~count:99 ~t0:0.0 ~t1:1.0 g))

(* ---------------- SCMP reliable control plane ---------------- *)

(* Path network 0-1-2: the m-router at 0, a member DR at 2, and a
   single cuttable link 1-2 between them. *)
let path_net () =
    let bld = G.Builder.create 3 in
  G.Builder.add_link bld 0 1 ~delay:0.001 ~cost:1.0;
  G.Builder.add_link bld 1 2 ~delay:0.001 ~cost:1.0;
  let g = G.Builder.freeze bld in
  let e = Engine.create () in
  let net = Netsim.create e g ~classify:Message.classify in
  (e, net)

let test_lost_join_retransmitted () =
  let e, net = path_net () in
  let p = Scmp_proto.create ~delivery:(Delivery.create e) net ~mrouter:0 () in
  (* Sever the member before it asks to join; heal the cut at t=0.2 so
     the first retransmission (rto = 0.25) is the one that lands. *)
  Netsim.fail_link net 1 2;
  let _ = Faults.install net [ { Faults.at = 0.2; event = Faults.Link_up (1, 2) } ] in
  Scmp_proto.host_join p ~group:1 2;
  Engine.run e;
  checkb "first JOIN died" true (Netsim.dropped net >= 1);
  checkb "it was retransmitted" true ((Scmp_proto.stats p).retransmissions >= 1);
  (match Scmp_proto.router_state p 2 ~group:1 with
  | Some (_, _, member) -> checkb "member joined after the retry" true member
  | None -> Alcotest.fail "router 2 holds no entry after the retry");
  (match Scmp_proto.network_tree_consistent p ~group:1 with
  | Ok () -> ()
  | Error err -> Alcotest.failf "inconsistent: %s" err);
  checki "nothing was abandoned" 0 (Scmp_proto.stats p).giveups

let test_giveup_after_max_attempts () =
  let e, net = path_net () in
  let p = Scmp_proto.create ~delivery:(Delivery.create e) net ~mrouter:0 () in
  Netsim.fail_link net 1 2;
  Scmp_proto.host_join p ~group:1 2;
  (* The engine returning at all proves the retry chain is bounded —
     an unbounded one would keep scheduling foreground checks. *)
  Engine.run e;
  checkb "the request was given up" true ((Scmp_proto.stats p).giveups >= 1);
  checki "exactly max_attempts - 1 retransmissions" 5
    (Scmp_proto.stats p).retransmissions;
  checkb "the m-router never heard of the group" true
    (Scmp_proto.mrouter_tree p ~group:1 = None)

(* ---------------- HPIM-DM reliable sync ---------------- *)

let hpim_counter p name =
  let m = Obs.Metrics.create () in
  Hpim_dm.observe p m;
  if List.mem name (Obs.Metrics.names m) then
    Some (Obs.Metrics.counter_value (Obs.Metrics.counter m name))
  else None

(* The SCMP give-up test's HPIM-DM twin. Source 0 floods one packet;
   router 2 (no member, nothing downstream) withdraws with a
   no-interest sync toward 1, and the 1-2 link dies while that sync is
   in flight — every retransmission then dies too. *)
let test_hpim_giveup_after_max_attempts () =
  let e, net = path_net () in
  let p = Hpim_dm.create ~delivery:(Delivery.create e) net () in
  Hpim_dm.send_data p ~group:1 ~src:0 ~seq:0;
  Engine.run ~until:0.0025 e;
  Netsim.fail_link net 1 2;
  Engine.run e;
  Alcotest.(check (option int)) "one sync" (Some 1) (hpim_counter p "hpim/syncs");
  Alcotest.(check (option int)) "never acked" (Some 0) (hpim_counter p "hpim/acks");
  Alcotest.(check (option int))
    "exactly max_attempts - 1 retransmissions" (Some 7)
    (hpim_counter p "hpim/retransmissions");
  Alcotest.(check (option int)) "the sync was given up" (Some 1)
    (hpim_counter p "hpim/giveups")

let test_hpim_no_giveup_metric_when_clean () =
  let e, net = path_net () in
  let p = Hpim_dm.create ~delivery:(Delivery.create e) net () in
  Hpim_dm.send_data p ~group:1 ~src:0 ~seq:0;
  Engine.run e;
  (* 2 withdraws, then 1 (now without interest) withdraws toward 0. *)
  Alcotest.(check (option int)) "both syncs" (Some 2) (hpim_counter p "hpim/syncs");
  Alcotest.(check (option int)) "both acked" (Some 2) (hpim_counter p "hpim/acks");
  Alcotest.(check (option int)) "no giveups metric" None
    (hpim_counter p "hpim/giveups")

(* Fig 5 of the paper: 6 routers, the m-router at 0, members 4, 3, 5.
   Delays scaled to simulated milliseconds so protocol timers (rto
   0.25 s) dominate link latency, as in the runner. *)
let fig5_net () =
    let bld = G.Builder.create 6 in
  G.Builder.add_link bld 0 1 ~delay:0.003 ~cost:6.0;
  G.Builder.add_link bld 0 2 ~delay:0.002 ~cost:6.0;
  G.Builder.add_link bld 0 3 ~delay:0.004 ~cost:5.0;
  G.Builder.add_link bld 1 2 ~delay:0.003 ~cost:3.0;
  G.Builder.add_link bld 1 4 ~delay:0.009 ~cost:3.0;
  G.Builder.add_link bld 2 3 ~delay:0.003 ~cost:2.0;
  G.Builder.add_link bld 3 5 ~delay:0.007 ~cost:2.0;
  G.Builder.add_link bld 2 5 ~delay:0.009 ~cost:3.0;
  let g = G.Builder.freeze bld in
  let e = Engine.create () in
  let net = Netsim.create e g ~classify:Message.classify in
  let delivery = Delivery.create e in
  (e, net, delivery)

let test_tree_link_failure_repair () =
  let e, net, delivery = fig5_net () in
  let p = Scmp_proto.create ~delivery net ~mrouter:0 () in
  List.iter
    (fun r ->
      Scmp_proto.host_join p ~group:1 r;
      Engine.run e)
    [ 4; 3; 5 ];
  (* Member 4 hangs off the tree link 0-1 (1 relays for it). Cut it:
     the m-router must rebuild over the surviving topology and leave
     every router consistent with the new tree. *)
  (match Scmp_proto.router_state p 1 ~group:1 with
  | Some (Some 0, down, _) -> checkb "1 relays for 4" true (List.mem 4 down)
  | _ -> Alcotest.fail "expected 1 on-tree under 0");
  Netsim.fail_link net 0 1;
  Engine.run e;
  checkb "a repair was recorded" true ((Scmp_proto.stats p).repairs >= 1);
  (match Scmp_proto.network_tree_consistent p ~group:1 with
  | Ok () -> ()
  | Error err -> Alcotest.failf "inconsistent after repair: %s" err);
  (match Scmp_proto.verify p with
  | Ok () -> ()
  | Error err -> Alcotest.failf "invariants after repair: %s" err);
  (* The repaired tree reaches everyone without the dead link. *)
  Delivery.expect delivery ~seq:0 ~members:[ 3; 5; 4 ] ~sent_at:(Engine.now e);
  Scmp_proto.send_data p ~group:1 ~src:2 ~seq:0;
  Engine.run e;
  checki "all members served post-repair" 3 (Delivery.deliveries delivery);
  checki "no duplicates" 0 (Delivery.duplicates delivery);
  checki "no missed" 0 (Delivery.missed delivery)

(* ---------------- the acceptance scenario ----------------

   The issue's bar, end to end through the runner: ARPANET, 5% loss on
   the control plane, the tree link 23-24 scripted to fail mid-data.
   Invariants (including tree-live-links) and the driver verify run on
   the quiesced network; delivery ratio must hold >= 0.95; the reliable
   transport must actually have retransmitted; and the whole report
   must be byte-identical across runs of the same seed. *)

let acceptance_scenario () =
  let spec = Topology.Arpanet.generate ~seed:1 in
  let apsp = Netgraph.Apsp.compute spec.Topology.Spec.graph in
  let center = Scmp.Placement.pick apsp Scmp.Placement.Min_avg_delay in
  let rng = Prng.create (1 + 23) in
  let members = Prng.sample rng 16 48 |> List.filter (fun x -> x <> center) in
  {
    (Runner.make ~spec ~center ~source:(List.hd members) ~members ())
    with
    Runner.loss = Some { Netsim.rate = 0.05; seed = 42; only = Some `Control };
    faults = [ { Faults.at = 15.0; event = Faults.Link_down (23, 24) } ];
  }

let run_acceptance () =
  let report = Obs.Report.create ~name:"acceptance" () in
  let r =
    Runner.run ~check:true ~report (Driver.find_exn "scmp")
      (acceptance_scenario ())
  in
  (r, report)

let test_acceptance_run () =
  let r, report = run_acceptance () in
  checkb "delivery ratio >= 0.95" true (r.Runner.delivery_ratio >= 0.95);
  checkb "loss actually happened" true (r.dropped > 0);
  let m = Obs.Report.metrics report in
  let counter name = Obs.Metrics.counter_value (Obs.Metrics.counter m name) in
  checkb "control plane retransmitted" true (counter "scmp/retransmissions" > 0);
  checkb "the tree was repaired" true (counter "scmp/repair/count" >= 1);
  checki "the scripted fault was applied" 1 (counter "faults/link_down");
  checkb "expected/ratio published" true
    (counter "delivery/expected" > 0
    && Obs.Metrics.gauge_value (Obs.Metrics.gauge m "delivery/ratio") >= 0.95)

let test_acceptance_deterministic () =
  let _, rep1 = run_acceptance () in
  let _, rep2 = run_acceptance () in
  Alcotest.check Alcotest.string "same seed, byte-identical report"
    (Obs.Report.to_string ~wallclock:false rep1)
    (Obs.Report.to_string ~wallclock:false rep2)

let () =
  Alcotest.run "faults"
    [
      ( "netsim-overlay",
        [
          Alcotest.test_case "drop reasons and accounting" `Quick
            test_drop_reasons;
          Alcotest.test_case "routes epoch and live graph" `Quick
            test_routes_epoch_and_live_graph;
          Alcotest.test_case "in-flight kill" `Quick test_inflight_kill;
          Alcotest.test_case "class-filtered loss" `Quick test_loss_class_filter;
          Alcotest.test_case "drops reach the trace" `Quick
            test_drop_trace_events;
        ] );
      ( "fault-schedules",
        [
          Alcotest.test_case "CLI syntax parsing" `Quick test_faults_parse;
          Alcotest.test_case "install and seeded randomness" `Quick
            test_faults_install_and_random;
        ] );
      ( "reliable-control",
        [
          Alcotest.test_case "lost JOIN is retransmitted" `Quick
            test_lost_join_retransmitted;
          Alcotest.test_case "give-up after max attempts" `Quick
            test_giveup_after_max_attempts;
          Alcotest.test_case "hpim-dm sync give-up after max attempts" `Quick
            test_hpim_giveup_after_max_attempts;
          Alcotest.test_case "hpim-dm clean run reports no give-ups" `Quick
            test_hpim_no_giveup_metric_when_clean;
        ] );
      ( "tree-repair",
        [
          Alcotest.test_case "mid-session tree-link failure" `Quick
            test_tree_link_failure_repair;
        ] );
      ( "acceptance",
        [
          Alcotest.test_case "loss + fault run passes the bar" `Quick
            test_acceptance_run;
          Alcotest.test_case "deterministic report" `Quick
            test_acceptance_deterministic;
        ] );
    ]
