module N = Eventsim.Netsim

type node = Message.node

type t = {
  mrouters : node list;
  agents : (node, Scmp_proto.t) Hashtbl.t;
  assign : Message.group -> node;
}

let mrouters t = t.mrouters

let home t ~group =
  let h = t.assign group in
  if not (List.mem h t.mrouters) then
    invalid_arg
      (Printf.sprintf "Multi: assign returned %d, not one of the m-routers" h);
  h

let agent t m =
  match Hashtbl.find_opt t.agents m with Some a -> a | None -> raise Not_found

let owner t group = agent t (home t ~group)

let create ~delivery ?assign net ~mrouters () =
  (match mrouters with
  | [] -> invalid_arg "Multi.create: need at least one m-router"
  | ms ->
    if List.length (List.sort_uniq Int.compare ms) <> List.length ms then
      invalid_arg "Multi.create: duplicate m-router");
  let k = List.length mrouters in
  let arr = Array.of_list mrouters in
  let assign =
    match assign with Some f -> f | None -> fun group -> arr.(group mod k)
  in
  let agents = Hashtbl.create k in
  List.iter
    (fun m ->
      Hashtbl.replace agents m
        (Scmp_proto.create ~delivery ~install_handlers:false net
           ~mrouter:m ()))
    mrouters;
  let t = { mrouters; agents; assign } in
  (* One dispatcher per node: every message belongs to exactly one
     group, hence one home m-router, hence one agent set. *)
  let g = N.graph net in
  for x = 0 to Netgraph.Graph.node_count g - 1 do
    N.set_handler net x (fun _net ~from msg ->
        match Message.group_of msg with
        | -1 ->
          (* group-less maintenance traffic (heartbeats): offer it to
             every agent set; non-owners ignore it *)
          List.iter (fun m -> Scmp_proto.handle (agent t m) x ~from msg) t.mrouters
        | group -> Scmp_proto.handle (owner t group) x ~from msg)
  done;
  t

let host_join t ~group x = Scmp_proto.host_join (owner t group) ~group x
let host_leave t ~group x = Scmp_proto.host_leave (owner t group) ~group x
let send_data t ~group ~src ~seq = Scmp_proto.send_data (owner t group) ~group ~src ~seq

let tree t ~group = Scmp_proto.mrouter_tree (owner t group) ~group

let network_tree_consistent t ~group =
  Scmp_proto.network_tree_consistent (owner t group) ~group
