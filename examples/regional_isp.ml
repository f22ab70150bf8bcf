(* Multiple m-routers per domain (§II.A: "An ISP may own more than one
   m-routers in the Internet for serving its customers in different
   geographic regions").

   A continental ISP runs a west-coast and an east-coast m-router on
   the ARPANET. Each multicast group is homed on the m-router nearest
   its membership; trees of different groups root at different
   m-routers, spreading load and shortening control paths.

   Run with:  dune exec examples/regional_isp.exe *)

let () =
  let spec = Scmp.Arpanet.generate ~seed:9 in

  (* two regional anchors: UTAH in the west, DC in the east *)
  let west = 12 and east = 39 in
  Printf.printf "m-routers: %s (west, node %d) and %s (east, node %d)\n"
    Scmp.Arpanet.site_names.(west) west Scmp.Arpanet.site_names.(east) east;

  let engine = Scmp.Engine.create () in
  let net = Scmp.Message.network engine (Scmp.Topology_spec.sim_graph spec) in
  let delivery = Scmp.Delivery.create engine in

  (* group 101: west-coast sites; group 102: east-coast sites *)
  let west_group = 101 and east_group = 102 in
  let west_members = [ 0; 2; 5; 7; 15 ] in
  let east_members = [ 36; 42; 44; 46; 33 ] in
  let assign grp = if grp = west_group then west else east in
  let m = Scmp.Multi_mrouter.create ~delivery ~assign net ~mrouters:[ west; east ] () in

  List.iter (fun r -> Scmp.Multi_mrouter.host_join m ~group:west_group r) west_members;
  List.iter (fun r -> Scmp.Multi_mrouter.host_join m ~group:east_group r) east_members;
  Scmp.Engine.run engine;

  List.iter
    (fun (name, grp) ->
      match Scmp.Multi_mrouter.tree m ~group:grp with
      | Some t ->
        Printf.printf "%s group: rooted at %s, %d routers, cost %.0f\n" name
          Scmp.Arpanet.site_names.(Scmp.Tree.root t)
          (Scmp.Tree.size t) (Scmp.Tree_eval.tree_cost t)
      | None -> Printf.printf "%s group: no tree\n" name)
    [ ("west", west_group); ("east", east_group) ];

  (* regional traffic stays regional: a west source multicasts *)
  let seq = ref 0 in
  let send grp src members =
    let expected = List.filter (fun x -> x <> src) members in
    Scmp.Delivery.expect delivery ~seq:!seq ~members:expected
      ~sent_at:(Scmp.Engine.now engine);
    Scmp.Multi_mrouter.send_data m ~group:grp ~src ~seq:!seq;
    incr seq
  in
  for _ = 1 to 5 do
    send west_group 0 west_members;
    send east_group 46 east_members
  done;
  Scmp.Engine.run engine;
  Printf.printf "deliveries %d (expected %d), duplicates %d\n"
    (Scmp.Delivery.deliveries delivery)
    (5 * 2 * 4)
    (Scmp.Delivery.duplicates delivery);
  (match Scmp.Multi_mrouter.network_tree_consistent m ~group:west_group with
  | Ok () -> print_endline "west network state consistent"
  | Error e -> Printf.printf "west INCONSISTENT: %s\n" e);
  match Scmp.Multi_mrouter.network_tree_consistent m ~group:east_group with
  | Ok () -> print_endline "east network state consistent"
  | Error e -> Printf.printf "east INCONSISTENT: %s\n" e
