type churn = {
  mean_interarrival : float;
  mean_holding : float;
  horizon : float;
  churn_seed : int;
}

type scenario = {
  spec : Topology.Spec.t;
  center : Message.node;
  source : Message.node;
  members : Message.node list;
  data_start : float;
  data_interval : float;
  data_count : int;
  leavers : (float * Message.node) list;
  trace_path : string option;
  trace_limit : int option;
  loss : (float * int) option;
  loss_class : Eventsim.Netsim.pkt_class option;
  faults : Eventsim.Faults.spec list;
  churn : churn option;
}

(* §IV.B's set-up: joins from t = 0.1 s spaced 0.5 s apart, so control
   flows do not collide, and traffic 3 s after the last join. *)
let join_start = 0.1
let join_spacing = 0.5
let join_at i = join_start +. (join_spacing *. float_of_int i)

let make ?(data_interval = 1.0) ?(data_count = 30) ?loss ?(faults = []) ~spec
    ~center ~source ~members () =
  {
    spec;
    center;
    source;
    members;
    data_start = join_at (List.length members) +. 3.0;
    data_interval;
    data_count;
    leavers = [];
    trace_path = None;
    trace_limit = None;
    loss;
    loss_class = None;
    faults;
    churn = None;
  }

let data_end s = s.data_start +. (s.data_interval *. float_of_int s.data_count)

type result = {
  data_overhead : float;
  protocol_overhead : float;
  max_delay : float;
  mean_delay : float;
  data_transmissions : int;
  control_transmissions : int;
  deliveries : int;
  duplicates : int;
  spurious : int;
  missed : int;
  packets_sent : int;
  dropped : int;
  delivery_ratio : float;
  routes_epochs : int;
  spt_computed : int;
  spt_invalidated : int;
  blackouts : float list;
}

(* Report wiring: metadata before the run, phase boundaries during it,
   subsystem counters and series once the network has quiesced. All
   sim-time quantities are deterministic; wall-clock ones are flagged so
   [Obs.Report.to_string ~wallclock:false] stays byte-stable. *)

let report_meta r driver s =
  Obs.Report.set_meta r "protocol" (Obs.Json.String (Driver.name driver));
  Obs.Report.set_meta r "topology_nodes"
    (Obs.Json.Int (Netgraph.Graph.node_count s.spec.Topology.Spec.graph));
  Obs.Report.set_meta r "members" (Obs.Json.Int (List.length s.members));
  Obs.Report.set_meta r "data_count" (Obs.Json.Int s.data_count);
  Obs.Report.set_meta r "leavers" (Obs.Json.Int (List.length s.leavers))

let report_finish r s ~engine ~net ~delivery ~trace ~(inst : Driver.instance)
    ~faults ~churn ~expected ~join_wall ~run_wall ~setup_wall =
  let m = Obs.Report.metrics r in
  let gauge ?wallclock name v = Obs.Metrics.set (Obs.Metrics.gauge ?wallclock m name) v in
  let count name v = Obs.Metrics.set_counter (Obs.Metrics.counter m name) v in
  Option.iter
    (fun c ->
      count "churn/joins" (Churn.joins c);
      count "churn/leaves" (Churn.leaves c))
    churn;
  gauge ~wallclock:true "phase/setup/wall_s" setup_wall;
  gauge ~wallclock:true "phase/join/wall_s" join_wall;
  gauge ~wallclock:true "phase/data/wall_s" (run_wall -. join_wall);
  gauge ~wallclock:true "run/total_wall_s" (setup_wall +. run_wall);
  gauge "phase/join/sim_s" s.data_start;
  gauge "phase/data/sim_s" (Eventsim.Engine.now engine -. s.data_start);
  gauge "run/total_sim_s" (Eventsim.Engine.now engine);
  Eventsim.Engine.observe engine m;
  Eventsim.Netsim.observe net m;
  inst.Driver.observe m;
  Option.iter (fun f -> Eventsim.Faults.observe f m) faults;
  count "delivery/deliveries" (Delivery.deliveries delivery);
  count "delivery/expected" expected;
  gauge "delivery/ratio"
    (if expected = 0 then 1.0
     else float_of_int (Delivery.deliveries delivery) /. float_of_int expected);
  count "delivery/duplicates" (Delivery.duplicates delivery);
  count "delivery/spurious" (Delivery.spurious delivery);
  count "delivery/missed" (Delivery.missed delivery);
  gauge "delivery/max_delay_s" (Delivery.max_delay delivery);
  gauge "delivery/mean_delay_s" (Delivery.mean_delay delivery);
  let h = Obs.Metrics.histogram m "delivery/delay_s" in
  List.iter (Obs.Metrics.observe h) (Delivery.delays delivery);
  match trace with
  | None -> ()
  | Some tr ->
    count "trace/lines" (Eventsim.Trace.line_count tr);
    count "trace/dropped" (Eventsim.Trace.dropped tr)

let run ?(check = false) ?report driver s =
  let group = 1 in
  let wall0 = Obs.Clock.now_s () in
  let g = Topology.Spec.sim_graph s.spec in
  let engine = Eventsim.Engine.create () in
  let net = Message.network engine g in
  (match s.loss with
  | None -> ()
  | Some (rate, seed) ->
    Eventsim.Netsim.set_loss ?only:s.loss_class net ~rate ~seed);
  let faults =
    match s.faults with
    | [] -> None
    | specs -> Some (Eventsim.Faults.install net specs)
  in
  (* Loss, faults and churn make exact packet conservation (and the
     pre-data tree checkpoint, which a scheduled fault or churn arrival
     may precede) meaningless; the quiescent structural invariants and
     the driver's own verify still must hold. *)
  let perturbed = s.loss <> None || s.faults <> [] || s.churn <> None in
  let delivery = Delivery.create engine in
  let trace =
    Option.map
      (fun _ ->
        Eventsim.Trace.attach ?limit:s.trace_limit net
          ~describe:Message.describe)
      s.trace_path
  in
  let inst =
    Driver.setup driver { Driver.net; delivery; center = s.center }
  in
  Option.iter (fun r -> report_meta r driver s) report;
  let setup_wall = Obs.Clock.now_s () -. wall0 in
  let run0 = Obs.Clock.now_s () in
  let join_wall = ref 0.0 in
  (* Membership: staggered joins, optional departures, optional seeded
     churn. [live] mirrors every join/leave as it happens, the source
     excluded (its subnet gets the packet locally): it is the expected
     set of a packet sent now. *)
  let live = ref [] in
  let do_join m =
    if m <> s.source then live := m :: !live;
    inst.Driver.join ~group m
  in
  let do_leave m =
    live := List.filter (fun x -> x <> m) !live;
    inst.Driver.leave ~group m
  in
  List.iteri
    (fun i m ->
      Eventsim.Engine.schedule_at engine ~time:(join_at i) (fun () -> do_join m))
    s.members;
  List.iter
    (fun (at, m) ->
      Eventsim.Engine.schedule_at engine ~time:at (fun () -> do_leave m))
    s.leavers;
  let churn_state =
    match s.churn with
    | None -> None
    | Some c ->
      let n = Netgraph.Graph.node_count g in
      let fixed = s.center :: s.source :: s.members in
      let candidates =
        List.init n Fun.id |> List.filter (fun x -> not (List.mem x fixed))
      in
      Some
        (Churn.start engine
           ~rng:(Scmp_util.Prng.create c.churn_seed)
           ~candidates ~join:do_join ~leave:do_leave
           ~mean_interarrival:c.mean_interarrival ~mean_holding:c.mean_holding
           ~horizon:c.horizon)
  in
  let expected_acc = ref 0 in
  (* Join/data phase boundary. Scheduled before the checkpoint and data
     events at the same instant, so the equal-key FIFO order of the
     engine records the boundary first. *)
  Eventsim.Engine.schedule_at engine ~background:true ~time:s.data_start
    (fun () -> join_wall := Obs.Clock.now_s () -. run0);
  (* First invariant checkpoint: membership has converged, no packet is
     in flight yet (joins end well before [data_start]; leavers are
     mid-run events by construction). *)
  if check && not perturbed then
    Eventsim.Engine.schedule_at engine ~time:s.data_start (fun () ->
        Check.Invariant.verify_all_exn ~where:"runner pre-data"
          (inst.Driver.snapshots ()));
  for seq = 0 to s.data_count - 1 do
    let at = s.data_start +. (s.data_interval *. float_of_int seq) in
    Eventsim.Engine.schedule_at engine ~time:at (fun () ->
        expected_acc := !expected_acc + List.length !live;
        Delivery.expect delivery ~seq ~members:!live ~sent_at:at;
        inst.Driver.send ~group ~src:s.source ~seq)
  done;
  (* Sim-time series for the report, sampled at the data cadence.
     Scheduled after the data events so a sample at instant [t] sees the
     send at [t]; background, so sampling never extends the run. *)
  let cumulative = Obs.Series.create ~name:"delivery/cumulative" in
  let transmissions = Obs.Series.create ~name:"net/transmissions" in
  if report <> None then
    for seq = 0 to s.data_count - 1 do
      let at = s.data_start +. (s.data_interval *. float_of_int seq) in
      Eventsim.Engine.schedule_at engine ~background:true ~time:at (fun () ->
          Obs.Series.sample cumulative ~t:at
            (float_of_int (Delivery.deliveries delivery));
          Obs.Series.sample transmissions ~t:at
            (float_of_int
               (Eventsim.Netsim.data_transmissions net
               + Eventsim.Netsim.control_transmissions net)))
    done;
  (* A tripped checkpoint still leaves its evidence: the trace and the
     report are finished below, then the violation is re-raised. *)
  let caught f =
    match f () with
    | () -> None
    | exception (Check.Invariant.Violation _ as e) -> Some e
  in
  let violation = caught (fun () -> Eventsim.Engine.run engine) in
  let run_wall = Obs.Clock.now_s () -. run0 in
  let expected = !expected_acc in
  (* Final checkpoint on the quiesced network: distributed state still
     coheres after every leave/PRUNE cascade, and packet conservation
     holds over the whole run — the latter only on an unperturbed
     network, since loss and faults legitimately destroy packets. *)
  let quiescent_checks () =
    let delivery_counters =
      if perturbed then None
      else
        Some
          {
            Check.Invariant.expected;
            delivered = Delivery.deliveries delivery;
            duplicates = Delivery.duplicates delivery;
            spurious = Delivery.spurious delivery;
            missed = Delivery.missed delivery;
          }
    in
    Check.Invariant.verify_all_exn ~where:"runner quiescent"
      ?delivery:delivery_counters
      (inst.Driver.snapshots ());
    match inst.Driver.verify () with
    | Ok () -> ()
    | Error msg ->
      raise (Check.Invariant.Violation ("runner driver verify: " ^ msg))
  in
  let violation =
    if check && Option.is_none violation then caught quiescent_checks
    else violation
  in
  (match (trace, s.trace_path) with
  | Some tr, Some path -> ignore (Eventsim.Trace.save tr ~path)
  | _ -> ());
  Option.iter
    (fun r ->
      (* Close both series at quiescence, then publish everything. *)
      let t_end = Eventsim.Engine.now engine in
      Obs.Series.sample cumulative ~t:t_end
        (float_of_int (Delivery.deliveries delivery));
      Obs.Series.sample transmissions ~t:t_end
        (float_of_int
           (Eventsim.Netsim.data_transmissions net
           + Eventsim.Netsim.control_transmissions net));
      Obs.Report.add_series r cumulative;
      Obs.Report.add_series r transmissions;
      report_finish r s ~engine ~net ~delivery ~trace ~inst ~faults
        ~churn:churn_state ~expected ~join_wall:!join_wall ~run_wall ~setup_wall)
    report;
  Option.iter raise violation;
  let blackouts = inst.Driver.blackouts () in
  {
    data_overhead = Eventsim.Netsim.data_overhead net;
    protocol_overhead = Eventsim.Netsim.control_overhead net;
    max_delay = Delivery.max_delay delivery;
    mean_delay = Delivery.mean_delay delivery;
    data_transmissions = Eventsim.Netsim.data_transmissions net;
    control_transmissions = Eventsim.Netsim.control_transmissions net;
    deliveries = Delivery.deliveries delivery;
    duplicates = Delivery.duplicates delivery;
    spurious = Delivery.spurious delivery;
    missed = Delivery.missed delivery;
    packets_sent = s.data_count;
    dropped = Eventsim.Netsim.dropped net;
    delivery_ratio =
      (if expected = 0 then 1.0
       else float_of_int (Delivery.deliveries delivery) /. float_of_int expected);
    routes_epochs = Eventsim.Netsim.routes_epoch net;
    spt_computed = Eventsim.Routes.computed (Eventsim.Netsim.routes net);
    spt_invalidated = Eventsim.Routes.invalidated (Eventsim.Netsim.routes net);
    blackouts;
  }
