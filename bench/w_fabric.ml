(* Fabric and capacity workloads: the service fabric, multi-group,
   capacity and congestion studies. *)

open Bench_util

(* ------------------------------------------------------------------ *)
(* Fabric validation/ablation: Beneš routing scale and the many-to-many
   merge claims of §II.B. *)

let fabric () =
  section "m-router switching fabric (PN-CCN-DN sandwich, §II.B)";
  let tab =
    T.create
      [
        T.column ~align:T.Left "ports";
        T.column "stages";
        T.column "2x2 elements";
        T.column "perms checked";
        T.column "failures";
      ]
  in
  List.iter
    (fun bits ->
      let n = 1 lsl bits in
      let rng = Scmp_util.Prng.create (1000 + n) in
      let failures = ref 0 in
      let trials = 50 in
      let cfg = ref (Fabric.Benes.identity n) in
      for _ = 1 to trials do
        let p = Array.init n (fun i -> i) in
        Scmp_util.Prng.shuffle rng p;
        cfg := Fabric.Benes.route p;
        if Fabric.Benes.eval !cfg <> p then incr failures
      done;
      T.add_row tab
        [
          string_of_int n;
          string_of_int (Fabric.Benes.depth !cfg);
          string_of_int (Fabric.Benes.element_count !cfg);
          string_of_int trials;
          string_of_int !failures;
        ])
    [ 2; 3; 4; 5; 6; 7; 8 ];
  print_table ~title:"Beneš permutation routing (looping algorithm)" tab;
  (* Group churn on a 64-port fabric, verifying isolation after every
     step. *)
  let f = Fabric.Sandwich.create ~ports:64 in
  let rng = Scmp_util.Prng.create 31337 in
  let steps = 500 and violations = ref 0 and opened = ref 0 and merged = ref 0 in
  for step = 1 to steps do
    let gid = 1 + Scmp_util.Prng.int rng 8 in
    (match Scmp_util.Prng.int rng 4 with
    | 0 ->
      (match Fabric.Sandwich.open_group f ~gid ~output:(32 + gid) with
      | Ok () -> incr opened
      | Error _ -> ())
    | 1 ->
      if List.mem gid (Fabric.Sandwich.groups f) then begin
        match
          Fabric.Sandwich.add_source f ~gid ~input:(Scmp_util.Prng.int rng 32)
        with
        | Ok () -> incr merged
        | Error _ -> ()
      end
    | 2 ->
      if List.mem gid (Fabric.Sandwich.groups f) then begin
        match Fabric.Sandwich.sources f gid with
        | [] -> ()
        | input :: _ -> Fabric.Sandwich.remove_source f ~gid ~input
      end
    | _ -> if step mod 7 = 0 then Fabric.Sandwich.close_group f gid);
    match Fabric.Sandwich.self_check f with
    | Ok () -> ()
    | Error _ -> incr violations
  done;
  pr
    "\ngroup churn: %d steps (%d opens, %d source merges) on 64 ports — %d \
     isolation/routing violations\n"
    steps !opened !merged !violations;
  (* the ref [10] self-routing copy network: exactly-the-interval
     delivery at every width *)
  let cn = Fabric.Copynet.create 256 in
  let ctab =
    T.create
      [
        T.column ~align:T.Left "copies";
        T.column "elements used";
        T.column "checked";
        T.column "failures";
      ]
  in
  List.iter
    (fun width ->
      let rng = Scmp_util.Prng.create (3000 + width) in
      let failures = ref 0 and used = ref 0 in
      let trials = 40 in
      for _ = 1 to trials do
        let lo =
          if width = 256 then 0 else Scmp_util.Prng.int rng (256 - width + 1)
        in
        let hi = lo + width - 1 in
        let plan = Fabric.Copynet.route cn ~lo ~hi in
        used := !used + Fabric.Copynet.elements_used plan;
        let out = Fabric.Copynet.eval cn plan in
        Array.iteri
          (fun i got -> if got <> (i >= lo && i <= hi) then incr failures)
          out
      done;
      T.add_row ctab
        [
          string_of_int width;
          string_of_int (!used / trials);
          string_of_int trials;
          string_of_int !failures;
        ])
    [ 1; 4; 16; 64; 256 ];
  print_table ~title:"self-routing copy network (256 ports, interval splitting)" ctab


(* ------------------------------------------------------------------ *)
(* Multiple m-routers per domain (§II.A extension): regional homes cut
   both the control path length and the shared-tree cost. *)

let multi () =
  section "multiple m-routers per domain (§II.A extension)";
  let spec = Topology.Waxman.generate ~seed:11 ~n:60 () in
  let apsp = Netgraph.Apsp.compute spec.Topology.Spec.graph in
  let tab =
    T.create
      [
        T.column ~align:T.Left "m-routers";
        T.column "mean tree cost";
        T.column "join ctl overhead";
      ]
  in
  let west, east =
    (* split by x coordinate to get two regional anchors *)
    let coords = spec.Topology.Spec.coords in
    let by_x = List.init 60 Fun.id |> List.sort (fun a b ->
        compare (fst coords.(a)) (fst coords.(b))) in
    (List.nth by_x 15, List.nth by_x 44)
  in
  let central = Scmp.Placement.pick apsp Scmp.Placement.Min_avg_delay in
  (* Two membership patterns: groups spread domain-wide, and regional
     groups whose members cluster in one half of the map. Regional
     homes pay off exactly when groups are regional — and the bench
     shows the domain-wide case too, where a central m-router wins. *)
  let coords = spec.Topology.Spec.coords in
  let by_x =
    List.init 60 Fun.id
    |> List.sort (fun a b -> compare (fst coords.(a)) (fst coords.(b)))
  in
  let halves = (Array.of_list by_x, 30) in
  let sample_members rng ~regional grp mrouters =
    let pool =
      if not regional then List.init 60 Fun.id
      else begin
        let arr, half = halves in
        let side = if grp mod 2 = 0 then Array.sub arr 0 half else Array.sub arr half 30 in
        Array.to_list side
      end
    in
    let pool = List.filter (fun x -> not (List.mem x mrouters)) pool in
    let arr = Array.of_list pool in
    Scmp_util.Prng.shuffle rng arr;
    Array.to_list (Array.sub arr 0 (min 10 (Array.length arr)))
  in
  let nearest_assign mrouters grp_members =
    (* home = m-router with least total delay to the group's members *)
    fun grp ->
      let members = List.assoc grp grp_members in
      List.fold_left
        (fun best m ->
          let score m =
            List.fold_left (fun acc x -> acc +. Netgraph.Apsp.delay apsp m x) 0.0 members
          in
          if score m < score best then m else best)
        (List.hd mrouters) mrouters
  in
  let run_config name ~regional mrouters =
    let e = Eventsim.Engine.create () in
    let net = Protocols.Message.network e (Topology.Spec.sim_graph spec) in
    let rng = Scmp_util.Prng.create 99 in
    let groups = [ 1; 2; 3; 4; 5; 6; 7; 8 ] in
    let grp_members =
      List.map (fun grp -> (grp, sample_members rng ~regional grp mrouters)) groups
    in
    let m =
      Protocols.Multi.create ~delivery:(Protocols.Delivery.create e)
        ~assign:(nearest_assign mrouters grp_members)
        net ~mrouters ()
    in
    List.iter
      (fun (grp, members) ->
        List.iter (fun r -> Protocols.Multi.host_join m ~group:grp r) members)
      grp_members;
    Eventsim.Engine.run e;
    let total_cost =
      List.fold_left
        (fun acc grp ->
          match Protocols.Multi.tree m ~group:grp with
          | Some t -> acc +. Mtree.Eval.tree_cost t
          | None -> acc)
        0.0 groups
    in
    T.add_row tab
      [
        name;
        Printf.sprintf "%.0f" (total_cost /. float_of_int (List.length groups));
        Printf.sprintf "%.0f" (Eventsim.Netsim.control_overhead net);
      ]
  in
  run_config "1 central, domain-wide groups" ~regional:false [ central ];
  run_config "2 regional, domain-wide groups" ~regional:false [ west; east ];
  run_config "1 central, regional groups" ~regional:true [ central ];
  run_config "2 regional, regional groups" ~regional:true [ west; east ];
  T.print
    ~title:"60-node Waxman, 8 groups of 10 members; home = nearest m-router"
    tab

(* ------------------------------------------------------------------ *)
(* m-router control-plane capacity (§II.B: "capable of handling
   multiple multicast tasks simultaneously" on multiple processors).
   JOIN requests arrive in a Poisson stream and queue for a processor;
   each costs a fixed 10 ms of tree recomputation + distribution. *)

let capacity () =
  section "m-router processing capacity (§II.B multiprocessor claim)";
  let spec = Topology.Waxman.generate ~seed:19 ~n:50 () in
  let tab =
    T.create
      [
        T.column ~align:T.Left "processors";
        T.column "arrivals/s";
        T.column "joins served";
        T.column "mean wait (ms)";
        T.column "max queue";
      ]
  in
  let service = 0.010 in
  List.iter
    (fun k ->
      List.iter
        (fun rate ->
          let e = Eventsim.Engine.create () in
          let net = Protocols.Message.network e (Topology.Spec.sim_graph spec) in
          let station = Eventsim.Server.create e ~servers:k in
          let p =
            Protocols.Scmp_proto.create ~delivery:(Protocols.Delivery.create e)
              ~cpu:(station, service) net ~mrouter:0 ()
          in
          let rng = Scmp_util.Prng.create (k * 1000 + rate) in
          (* Poisson joins over 10 s: random router, one of 8 groups. *)
          let rec arrivals at n =
            if at <= 10.0 then begin
              Eventsim.Engine.schedule_at e ~time:at (fun () ->
                  Protocols.Scmp_proto.host_join p
                    ~group:(1 + (n mod 8))
                    (1 + Scmp_util.Prng.int rng 49));
              let gap =
                -.(1.0 /. float_of_int rate)
                *. log (1.0 -. Scmp_util.Prng.float rng 1.0)
              in
              arrivals (at +. gap) (n + 1)
            end
          in
          arrivals 0.05 0;
          Eventsim.Engine.run e;
          let served = Eventsim.Server.completed station in
          let mean_wait =
            if served = 0 then 0.0
            else Eventsim.Server.total_queueing_delay station /. float_of_int served
          in
          T.add_row tab
            [
              string_of_int k;
              string_of_int rate;
              string_of_int served;
              Printf.sprintf "%.2f" (1000.0 *. mean_wait);
              string_of_int (Eventsim.Server.max_queue_length station);
            ])
        [ 50; 90; 150 ])
    [ 1; 2; 4 ];
  T.print
    ~title:"50-node Waxman, 8 groups, 10 ms service per JOIN, 10 s Poisson stream"
    tab

(* ------------------------------------------------------------------ *)
(* Traffic concentration at the center (§I: ST-based cores suffer
   "traffic jam around the core … packet loss and longer communication
   delay", while m-routers are "specially designed powerful routers").
   Many simultaneous sources drive one group; the center forwards every
   transit packet through its forwarding engine — a single processor
   for an ordinary core vs the m-router's parallel fabric. *)

let congestion () =
  section "traffic concentration at the center (§I motivation)";
  let spec = Topology.Waxman.generate ~seed:23 ~n:40 () in
  let { Protocols.Runner.center; members; _ } =
    (draw ~rng:(Scmp_util.Prng.create 5) ~group_size:12 spec).scenario
  in
  (* per-packet forwarding time at the center: 10 ms, i.e. one engine
     sustains 100 pkts/s *)
  let service = 0.010 in
  let run_case processors =
    let e = Eventsim.Engine.create () in
    let net = Protocols.Message.network e (Topology.Spec.sim_graph spec) in
    let delivery = Protocols.Delivery.create e in
    let station = Eventsim.Server.create e ~servers:processors in
    Eventsim.Netsim.set_node_processing net center station ~service_time:service;
    let p = Protocols.Scmp_proto.create ~delivery net ~mrouter:center () in
    List.iteri
      (fun i m ->
        Eventsim.Engine.schedule_at e ~time:(0.1 +. (0.2 *. float_of_int i))
          (fun () -> Protocols.Scmp_proto.host_join p ~group:1 m))
      members;
    (* every member is also a speaker: 10 packets each, ~165 pkts/s
       aggregate through the shared tree's root — 1.65x one engine's
       capacity *)
    let seq = ref 0 in
    for round = 0 to 9 do
      List.iteri
        (fun i src ->
          let s = !seq in
          incr seq;
          let at =
            10.0 +. (0.006 *. float_of_int ((round * List.length members) + i))
          in
          Eventsim.Engine.schedule_at e ~time:at (fun () ->
              Protocols.Delivery.expect delivery ~seq:s
                ~members:(List.filter (fun m -> m <> src) members)
                ~sent_at:at;
              Protocols.Scmp_proto.send_data p ~group:1 ~src ~seq:s))
        members
    done;
    Eventsim.Engine.run e;
    (delivery, station)
  in
  let tab =
    T.create
      [
        T.column ~align:T.Left "center";
        T.column "max delay (ms)";
        T.column "mean delay (ms)";
        T.column "max queue";
        T.column "forwarded";
      ]
  in
  List.iter
    (fun (name, k) ->
      let delivery, station = run_case k in
      T.add_row tab
        [
          name;
          Printf.sprintf "%.1f" (1000.0 *. Protocols.Delivery.max_delay delivery);
          Printf.sprintf "%.1f" (1000.0 *. Protocols.Delivery.mean_delay delivery);
          string_of_int (Eventsim.Server.max_queue_length station);
          string_of_int (Eventsim.Server.completed station);
        ])
    [
      ("ordinary core (1 engine)", 1);
      ("m-router fabric (4 engines)", 4);
      ("m-router fabric (16 engines)", 16);
    ];
  print_table
    ~title:
"40-node Waxman, 12 members all sending (120 pkts, ~165/s aggregate), 10 ms \
       forwarding per packet at the center"
    tab


let workloads =
  [
    { Workload.name = "fabric"; doc = "service fabric study"; run = (fun _ -> fabric ()) };
    { Workload.name = "multi"; doc = "multi-group study"; run = (fun _ -> multi ()) };
    { Workload.name = "capacity"; doc = "capacity study"; run = (fun _ -> capacity ()) };
    { Workload.name = "congestion"; doc = "congestion study"; run = (fun _ -> congestion ()) };
  ]
