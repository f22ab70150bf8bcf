(* Resilience workloads: scheduled faults and the failover study. *)

open Bench_util

(* ------------------------------------------------------------------ *)
(* Fault recovery (ours): SCMP through control-plane loss and random
   mid-data link failures — what the reliable transport and the tree
   repair cost, and what delivery ratio they buy. *)

let faults_bench () =
  section "fault recovery — loss, link failures, tree repair";
  let spec = Topology.Flat_random.generate ~seed:4 ~n:50 ~avg_degree:3.0 in
  let base =
    (draw ~rng:(Scmp_util.Prng.create 41) ~group_size:12 spec).scenario
  in
  let run_case ?loss ~fail_count () =
    let faults =
      if fail_count = 0 then []
      else
        Eventsim.Faults.random_link_failures ~seed:11 ~count:fail_count
          ~t0:base.Protocols.Runner.data_start
          ~t1:(Protocols.Runner.data_end base) spec.Topology.Spec.graph
    in
    let sc = { base with Protocols.Runner.loss; faults } in
    let report = Obs.Report.create ~name:"bench-faults" () in
    let r =
      Protocols.Runner.run ~report (Protocols.Driver.find_exn "scmp") sc
    in
    let m = Obs.Report.metrics report in
    let c name = Obs.Metrics.counter_value (Obs.Metrics.counter m name) in
    (r, c "scmp/retransmissions", c "scmp/giveups", c "scmp/repair/count")
  in
  let control_loss = { Eventsim.Netsim.rate = 0.05; seed = 42; only = Some `Control } in
  let tab =
    T.create
      [
        T.column ~align:T.Left "scenario";
        T.column "delivery ratio";
        T.column "dropped";
        T.column "retransmits";
        T.column "give-ups";
        T.column "repairs";
        T.column "proto overhead";
      ]
  in
  List.iter
    (fun (name, loss, fail_count) ->
      let r, retx, giveups, repairs = run_case ?loss ~fail_count () in
      T.add_row tab
        [
          name;
          Printf.sprintf "%.4f" r.Protocols.Runner.delivery_ratio;
          string_of_int r.dropped;
          string_of_int retx;
          string_of_int giveups;
          string_of_int repairs;
          Printf.sprintf "%.0f" r.protocol_overhead;
        ])
    [
      ("no faults", None, 0);
      ("5% control loss", Some control_loss, 0);
      ("2 random link failures", None, 2);
      ("loss + 2 failures", Some control_loss, 2);
    ];
  print_table
    ~title:
      "50-node random (deg 3), 12 members, 30 pkts; failures drawn \
       uniformly over the data phase (seed 11)"
    tab

(* ------------------------------------------------------------------ *)
(* Hot-standby m-router failover (concluding remarks, point 4):
   steady-state cost of the standby and behaviour through a failure. *)

let failover () =
  section "m-router hot standby (concluding remarks)";
  let spec = Topology.Waxman.generate ~seed:77 ~n:40 () in
  let apsp = Netgraph.Apsp.compute spec.Topology.Spec.graph in
  let primary = Scmp.Placement.pick apsp Scmp.Placement.Min_avg_delay in
  let standby0 = Scmp.Placement.pick apsp Scmp.Placement.Max_degree in
  let standby = if standby0 = primary then (primary + 1) mod 40 else standby0 in
  let members =
    List.filter (fun x -> x <> primary && x <> standby) [ 4; 12; 19; 27; 33 ]
  in
  (* A genuinely off-tree source: its packets are encapsulated to the
     m-router (§III.F), so the m-router's death actually interrupts
     delivery. DCDM is invariant under uniform delay scaling, so the
     unscaled tree predicts the scaled one. *)
  let source =
    let tree =
      Mtree.Dcdm.build apsp ~root:primary ~bound:Mtree.Bound.Tightest ~members
    in
    List.find
      (fun x -> (not (Mtree.Tree.on_tree tree x)) && x <> standby)
      (List.init 40 Fun.id)
  in
  let run_case ~with_standby ~fail =
    let e = Eventsim.Engine.create () in
    let net = Protocols.Message.network e (Topology.Spec.sim_graph spec) in
    let delivery = Protocols.Delivery.create e in
    let p =
      if with_standby then
        Protocols.Scmp_proto.create ~delivery ~standby ~heartbeat_interval:0.5
          ~takeover_after:1.5 net ~mrouter:primary ()
      else Protocols.Scmp_proto.create ~delivery net ~mrouter:primary ()
    in
    List.iteri
      (fun i m ->
        Eventsim.Engine.schedule_at e ~time:(0.1 +. (0.2 *. float_of_int i))
          (fun () -> Protocols.Scmp_proto.host_join p ~group:1 m))
      members;
    if fail then
      Eventsim.Engine.schedule_at e ~time:10.0 (fun () ->
          Protocols.Scmp_proto.fail_primary p);
    let src = source in
    let expected = members in
    for seq = 0 to 29 do
      let at = 5.0 +. float_of_int seq in
      Eventsim.Engine.schedule_at e ~time:at (fun () ->
          Protocols.Delivery.expect delivery ~seq ~members:expected ~sent_at:at;
          Protocols.Scmp_proto.send_data p ~group:1 ~src ~seq)
    done;
    Eventsim.Engine.run ~until:40.0 e;
    ( Eventsim.Netsim.control_overhead net,
      Protocols.Delivery.deliveries delivery,
      Protocols.Delivery.missed delivery,
      Protocols.Scmp_proto.standby_took_over p )
  in
  let tab =
    T.create
      [
        T.column ~align:T.Left "case";
        T.column "ctl overhead";
        T.column "delivered";
        T.column "missed";
        T.column ~align:T.Left "recovered";
      ]
  in
  let row name (o, d, m, rec_) =
    T.add_row tab
      [
        name;
        Printf.sprintf "%.0f" o;
        string_of_int d;
        string_of_int m;
        (if rec_ then "yes" else "-");
      ]
  in
  row "no standby, no failure" (run_case ~with_standby:false ~fail:false);
  row "standby, no failure" (run_case ~with_standby:true ~fail:false);
  row "no standby, failure@10s" (run_case ~with_standby:false ~fail:true);
  row "standby, failure@10s" (run_case ~with_standby:true ~fail:true);
  T.print
    ~title:
      "40-node Waxman, 5 members, off-tree source, 30 pkts at 1/s from t=5; failure at t=10 (heartbeat 0.5s, takeover window 1.5s)"
    tab


let workloads =
  [
    { Workload.name = "faults"; doc = "scheduled fault injection"; run = (fun _ -> faults_bench ()) };
    { Workload.name = "failover"; doc = "failover study"; run = (fun _ -> failover ()) };
  ]
