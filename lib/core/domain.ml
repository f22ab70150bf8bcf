type node = Netgraph.Graph.node

type group_rt = {
  mutable next_seq : int;
  mutable sources : node list;  (* routers registered as fabric inputs *)
}

type t = {
  spec : Topology.Spec.t;
  engine : Eventsim.Engine.t;
  net : Protocols.Message.t Eventsim.Netsim.t;
  proto : Protocols.Scmp_proto.t;
  service : Service.t;
  fabric : Fabric.Sandwich.t;
  igmp : Protocols.Igmp.t array;
  delivery : Protocols.Delivery.t;
  groups : (Service.addr, group_rt) Hashtbl.t;
  mutable next_port : int;
  mutable next_input : int;
  mutable expect_seq : int;  (* global sequence for delivery tracking *)
}

let mrouter t = Protocols.Scmp_proto.mrouter t.proto
let spec t = t.spec
let engine t = t.engine
let now t = Eventsim.Engine.now t.engine
let service t = t.service
let fabric t = t.fabric

let create ?(fabric_ports = 64) ?mrouter ?standby ~spec () =
  let root =
    match mrouter with
    | Some m -> m
    | None ->
      Placement.pick
        (Netgraph.Apsp.compute spec.Topology.Spec.graph)
        Placement.Min_avg_delay
  in
  let engine = Eventsim.Engine.create () in
  let net = Protocols.Message.network engine (Topology.Spec.sim_graph spec) in
  let delivery = Protocols.Delivery.create engine in
  let proto =
    Protocols.Scmp_proto.create ~delivery ?standby net ~mrouter:root ()
  in
  let service = Service.create () in
  let t =
    {
      spec;
      engine;
      net;
      proto;
      service;
      fabric = Fabric.Sandwich.create ~ports:fabric_ports;
      igmp = [||];
      delivery;
      groups = Hashtbl.create 8;
      next_port = 0;
      next_input = fabric_ports / 2;
      expect_seq = 0;
    }
  in
  let igmp =
    Array.init (Netgraph.Graph.node_count spec.Topology.Spec.graph) (fun x ->
        Protocols.Igmp.create engine ~router:x
          ~on_first_join:(fun group ->
            Service.record service ~group ~now:(Eventsim.Engine.now engine)
              (Service.Member_joined x);
            Protocols.Scmp_proto.host_join proto ~group x)
          ~on_last_leave:(fun group ->
            Service.record service ~group ~now:(Eventsim.Engine.now engine)
              (Service.Member_left x);
            Protocols.Scmp_proto.host_leave proto ~group x)
          ())
  in
  { t with igmp }

let group_rt t group =
  match Hashtbl.find_opt t.groups group with
  | Some rt -> rt
  | None -> invalid_arg (Printf.sprintf "Domain: unknown group %d" group)

let create_group t =
  match Service.allocate_group t.service ~now:(now t) with
  | Error _ as e -> e
  | Ok addr ->
    if t.next_port >= Fabric.Sandwich.ports t.fabric / 2 then
      Error "fabric output ports exhausted"
    else begin
      let output = t.next_port in
      t.next_port <- t.next_port + 1;
      match Fabric.Sandwich.open_group t.fabric ~gid:addr ~output with
      | Error _ as e ->
        ignore (Service.revoke_group t.service addr);
        e
      | Ok () ->
        (match Service.start_session t.service ~group:addr ~now:(now t) with
        | Ok _ -> ()
        | Error _ -> ());
        Hashtbl.replace t.groups addr
          { next_seq = 0; sources = [] };
        Ok addr
    end

let close_group t group =
  (match Hashtbl.find_opt t.groups group with
  | None -> ()
  | Some _ ->
    Fabric.Sandwich.close_group t.fabric group;
    Hashtbl.remove t.groups group);
  List.iter
    (fun sid -> ignore (Service.end_session t.service sid ~now:(now t)))
    (Service.active_sessions t.service ~group);
  ignore (Service.revoke_group t.service group)

let join t ~group ?(host = 0) x =
  ignore (group_rt t group);
  Protocols.Igmp.host_join t.igmp.(x) ~host ~group

let leave t ~group ?(host = 0) x =
  ignore (group_rt t group);
  Protocols.Igmp.host_leave t.igmp.(x) ~host ~group

let members t ~group = Service.current_members t.service ~group

let send t ~group ~src =
  let rt = group_rt t group in
  if not (List.mem src rt.sources) then begin
    (* Register the router as a fabric input the first time it talks. *)
    (match Fabric.Sandwich.add_source t.fabric ~gid:group ~input:t.next_input with
    | Ok () -> t.next_input <- t.next_input + 1
    | Error _ -> () (* fabric full: traffic still flows in the network model *));
    rt.sources <- rt.sources @ [ src ]
  end;
  let seq = t.expect_seq in
  t.expect_seq <- seq + 1;
  rt.next_seq <- rt.next_seq + 1;
  let expected = List.filter (fun m -> m <> src) (members t ~group) in
  Protocols.Delivery.expect t.delivery ~seq ~members:expected ~sent_at:(now t);
  Service.record t.service ~group ~now:(now t) (Service.Data_forwarded { src; seq });
  Protocols.Scmp_proto.send_data t.proto ~group ~src ~seq

let run t = Eventsim.Engine.run t.engine

let tree t ~group = Protocols.Scmp_proto.mrouter_tree t.proto ~group

let data_overhead t = Eventsim.Netsim.data_overhead t.net
let protocol_overhead t = Eventsim.Netsim.control_overhead t.net
let deliveries t = Protocols.Delivery.deliveries t.delivery
let duplicates t = Protocols.Delivery.duplicates t.delivery
let max_delay t = Protocols.Delivery.max_delay t.delivery

let fabric_check t = Fabric.Sandwich.self_check t.fabric

let verify t =
  Check.Invariant.verify_all ~fabric:t.fabric
    (Protocols.Scmp_proto.snapshots t.proto)

let fail_mrouter t = Protocols.Scmp_proto.fail_primary t.proto

let standby_took_over t = Protocols.Scmp_proto.standby_took_over t.proto

let igmp t x = t.igmp.(x)
