(* Protocol-comparison workloads: placement, PIM-SM detail and the
   routing-layer benchmark. Figs 8/9 are the manifest
   examples/scenarios/fig8.json, rendered by `scmp_sim table`. *)

open Bench_util

(* ------------------------------------------------------------------ *)
(* m-router placement study (§IV.A rules). *)

let placement ~seeds () =
  section "m-router placement (§IV.A rules 1-3 vs random)";
  let tab =
    T.create
      [
        T.column ~align:T.Left "placement";
        T.column "mean tree cost";
        T.column "vs rule 1";
      ]
  in
  let spec = Topology.Waxman.generate ~seed:17 ~n:100 () in
  let apsp = Netgraph.Apsp.compute spec.Topology.Spec.graph in
  let score candidate =
    Scmp.Placement.evaluate apsp ~candidate ~bound:Mtree.Bound.Moderate
      ~group_size:20 ~trials:(10 * seeds) ~seed:3
  in
  let rule1 = score (Scmp.Placement.pick apsp Scmp.Placement.Min_avg_delay) in
  List.iter
    (fun rule ->
      let s = score (Scmp.Placement.pick apsp rule) in
      T.add_row tab
        [
          Scmp.Placement.rule_name rule;
          Printf.sprintf "%.0f" s;
          Printf.sprintf "%+.1f%%" (100.0 *. ((s /. rule1) -. 1.0));
        ])
    Scmp.Placement.all_rules;
  let rng = Scmp_util.Prng.create 7 in
  let rand_acc = Scmp_util.Stats.create () in
  for _ = 1 to 10 do
    Scmp_util.Stats.add rand_acc (score (Scmp_util.Prng.int rng 100))
  done;
  let s = Scmp_util.Stats.mean rand_acc in
  T.add_row tab
    [
      "random (mean of 10)";
      Printf.sprintf "%.0f" s;
      Printf.sprintf "%+.1f%%" (100.0 *. ((s /. rule1) -. 1.0));
    ];
  print_table tab


(* ------------------------------------------------------------------ *)
(* Extension baseline: PIM-SM with SPT switchover vs the paper's
   shared-tree protocols. First packets ride the unidirectional RP tree
   (register detour); the switchover buys SPT delay afterwards. *)

let pimsm () =
  section "extension — PIM-SM with SPT switchover";
  let spec = Topology.Flat_random.generate ~seed:4 ~n:50 ~avg_degree:3.0 in
  let { Protocols.Runner.center; members; _ } =
    (draw ~rng:(Scmp_util.Prng.create 41) ~group_size:12 spec).scenario
  in
  (* an off-tree source maximizes the register/encap contrast *)
  let source =
    List.find (fun x -> (not (List.mem x members)) && x <> center)
      (List.init 50 Fun.id)
  in
  let run_case name instantiate =
    let e = Eventsim.Engine.create () in
    let net = Protocols.Message.network e (Topology.Spec.sim_graph spec) in
    let delivery = Protocols.Delivery.create e in
    let send = instantiate e net delivery in
    for seq = 0 to 19 do
      let at = 10.0 +. float_of_int seq in
      Eventsim.Engine.schedule_at e ~time:at (fun () ->
          Protocols.Delivery.expect delivery ~seq ~members ~sent_at:at;
          send ~seq)
    done;
    Eventsim.Engine.run e;
    let dmax = ref 0.0 and dmin = ref infinity in
    Protocols.Delivery.iter_delays delivery (fun d ->
        dmax := Float.max !dmax d;
        dmin := Float.min !dmin d);
    (name, !dmax, !dmin,
     Eventsim.Netsim.data_overhead net /. 20.0,
     Protocols.Delivery.missed delivery + Protocols.Delivery.duplicates delivery)
  in
  let join_all e join =
    List.iteri
      (fun i m ->
        Eventsim.Engine.schedule_at e ~time:(0.1 +. (0.2 *. float_of_int i))
          (fun () -> join m))
      members
  in
  let cases =
    [
      run_case "PIM-SM (switchover)" (fun e net delivery ->
          let p = Protocols.Pim_sm.create ~delivery net ~rp:center () in
          join_all e (fun m -> Protocols.Pim_sm.host_join p ~group:1 m);
          fun ~seq -> Protocols.Pim_sm.send_data p ~group:1 ~src:source ~seq);
      run_case "PIM-SM (no switchover)" (fun e net delivery ->
          let p =
            Protocols.Pim_sm.create ~delivery ~spt_switchover:false net ~rp:center ()
          in
          join_all e (fun m -> Protocols.Pim_sm.host_join p ~group:1 m);
          fun ~seq -> Protocols.Pim_sm.send_data p ~group:1 ~src:source ~seq);
      run_case "CBT" (fun e net delivery ->
          let p = Protocols.Cbt.create ~delivery net ~core:center () in
          join_all e (fun m -> Protocols.Cbt.host_join p ~group:1 m);
          fun ~seq -> Protocols.Cbt.send_data p ~group:1 ~src:source ~seq);
      run_case "SCMP" (fun e net delivery ->
          let p = Protocols.Scmp_proto.create ~delivery net ~mrouter:center () in
          join_all e (fun m -> Protocols.Scmp_proto.host_join p ~group:1 m);
          fun ~seq -> Protocols.Scmp_proto.send_data p ~group:1 ~src:source ~seq);
    ]
  in
  let tab =
    T.create
      [
        T.column ~align:T.Left "protocol";
        T.column "first-pkt max delay (ms)";
        T.column "steady min delay (ms)";
        T.column "data overhead/pkt";
        T.column "anomalies";
      ]
  in
  List.iter
    (fun (name, dmax, dmin, per_pkt, bad) ->
      T.add_row tab
        [
          name;
          Printf.sprintf "%.2f" (1000.0 *. dmax);
          Printf.sprintf "%.2f" (1000.0 *. dmin);
          Printf.sprintf "%.0f" per_pkt;
          string_of_int bad;
        ])
    cases;
  print_table
    ~title:"50-node random (deg 3), 12 members, off-tree source, 20 pkts at 1/s"
    tab

(* ------------------------------------------------------------------ *)
(* Micro-benchmarks of the core algorithms (best-of-k batches), plus
   one end-to-end runner throughput measurement. With --json PATH the
   results are also written as a scmp-report/1 document (BENCH.json —
   the perf baseline future PRs diff against). All numbers here are
   wall-clock by nature, so the report flags every metric [wallclock]. *)

(* ------------------------------------------------------------------ *)
(* Demand-driven routing cache: cold/warm query cost, and reconvergence
   under a fault schedule — incremental invalidation vs the eager
   recompute-every-source scheme it replaced. *)

let routing_bench () =
  section "routing cache — demand-driven SPTs, incremental reconvergence";
  let spec = Topology.Waxman.generate ~seed:7 ~n:100 () in
  let g = spec.Topology.Spec.graph in
  let n = Netgraph.Graph.node_count g in
  let mk_net () =
    let engine = Eventsim.Engine.create () in
    (engine, Eventsim.Netsim.create engine g ~classify:(fun (_ : unit) -> `Data))
  in
  (* cold vs warm: the first query per source pays one Dijkstra, the
     second is a table read *)
  let _, net = mk_net () in
  let sweep () =
    let acc = ref 0.0 in
    for s = 0 to n - 1 do
      acc :=
        !acc
        +. Eventsim.Routes.distance
             (Eventsim.Netsim.routes net)
             ~src:s
             ~dst:((s + (n / 2)) mod n)
    done;
    !acc
  in
  let cold_sum, cold_s = Obs.Clock.time sweep in
  let warm_sum, warm_s = Obs.Clock.time sweep in
  assert (cold_sum = warm_sum);
  let tab =
    T.create
      [
        T.column ~align:T.Left "phase";
        T.column "queries";
        T.column "SPTs built";
        T.column "ns/query";
      ]
  in
  let per_query s = s /. float_of_int n *. 1e9 in
  T.add_row tab
    [ "cold (one sweep, all sources)"; string_of_int n; string_of_int n;
      Printf.sprintf "%.0f" (per_query cold_s) ];
  T.add_row tab
    [ "warm (same sweep again)"; string_of_int n; "0";
      Printf.sprintf "%.0f" (per_query warm_s) ];
  print_table ~title:"100-node Waxman (seed 7), one distance query per source"
    tab;
  (* reconvergence under churn: 10 link failures (each restored 3 s
     later) drawn over [1, 30); after every topology change a 32-pair
     query workload fires. The eager scheme is the seed implementation:
     rebuild a live-graph copy and recompute all n sources per change. *)
  let faults_for () =
    Eventsim.Faults.random_link_failures ~seed:13 ~count:10 ~t0:1.0 ~t1:30.0
      ~restore_after:3.0 g
  in
  let run_scheme ~eager =
    let engine, net = mk_net () in
    let qrng = Scmp_util.Prng.create 99 in
    let eager_built = ref 0 in
    let eager_tbl = ref None in
    let rebuild_eager () =
      let r = Eventsim.Routes.compute (Eventsim.Netsim.live_graph net) in
      for s = 0 to n - 1 do
        ignore (Eventsim.Routes.spt r ~src:s)
      done;
      eager_built := !eager_built + n;
      eager_tbl := Some r
    in
    if eager then begin
      rebuild_eager ();
      Eventsim.Netsim.on_topology_change net rebuild_eager
    end;
    let query () =
      for _ = 1 to 32 do
        let src = Scmp_util.Prng.int qrng n
        and dst = Scmp_util.Prng.int qrng n in
        match !eager_tbl with
        | Some r -> ignore (Eventsim.Routes.distance r ~src ~dst)
        | None ->
          ignore
            (Eventsim.Routes.distance (Eventsim.Netsim.routes net) ~src ~dst)
      done
    in
    Eventsim.Netsim.on_topology_change net query;
    ignore (Eventsim.Faults.install net (faults_for ()));
    query ();
    let (), wall = Obs.Clock.time (fun () -> Eventsim.Engine.run engine) in
    let epochs = Eventsim.Netsim.routes_epoch net in
    let built, invalidated =
      if eager then (!eager_built, n * epochs)
      else
        ( Eventsim.Routes.computed (Eventsim.Netsim.routes net),
          Eventsim.Routes.invalidated (Eventsim.Netsim.routes net) )
    in
    let events = Eventsim.Engine.events_executed engine in
    (epochs, built, invalidated, events, wall)
  in
  let tab =
    T.create
      [
        T.column ~align:T.Left "scheme";
        T.column "reconvergences";
        T.column "SPTs built";
        T.column "invalidated";
        T.column "ns/event";
      ]
  in
  let add name (epochs, built, invalidated, events, wall) =
    T.add_row tab
      [
        name;
        string_of_int epochs;
        string_of_int built;
        string_of_int invalidated;
        Printf.sprintf "%.0f" (wall /. float_of_int (max events 1) *. 1e9);
      ]
  in
  add "eager (recompute all sources)" (run_scheme ~eager:true);
  add "lazy (incremental invalidation)" (run_scheme ~eager:false);
  print_table
    ~title:
      "10 link failures + restores (seed 13) over 30 s, 32 queries per \
       reconvergence; eager cost is n SPTs per epoch plus the initial table"
    tab

let workloads =
  [
    {
      Workload.name = "placement";
      doc = "m-router placement rules vs random";
      run = (fun c -> placement ~seeds:(if c.Workload.full then 3 else 1) ());
    };
    {
      Workload.name = "pimsm";
      doc = "PIM-SM RP study";
      run = (fun _ -> pimsm ());
    };
    {
      Workload.name = "routing";
      doc = "routing-layer benchmark";
      run = (fun _ -> routing_bench ());
    };
  ]
