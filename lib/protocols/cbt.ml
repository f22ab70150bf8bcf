module N = Eventsim.Netsim

type node = Message.node

(* CBT's entries are the shared-tree entries of {!Forwarding}, keyed
   by [Forwarding.pk router group]; the epoch field stays 0. *)
type entry = Forwarding.entry = {
  mutable upstream : node option;
  mutable downstream : node list;
  mutable member : bool;
  mutable ep : int;
}

type t = {
  net : Message.t N.t;
  core : node;
  entries : Forwarding.table;
  pending_join : (int, unit) Hashtbl.t;
      (** Joins forwarded and awaiting ACK (duplicate suppression),
          keyed like [entries]. *)
  delivery : Delivery.t;
}

let pk = Forwarding.pk
let entry_opt t x group = Forwarding.find_opt t.entries (pk x group)

let get_or_create_entry t x group =
  match entry_opt t x group with
  | Some e -> e
  | None ->
    let e = Forwarding.fresh_entry ~member:false ~ep:0 in
    Forwarding.replace t.entries (pk x group) e;
    e

let handle_data t x ~from msg seq group =
  if Forwarding.step t.net t.entries ~x ~group ~from msg then
    Delivery.record t.delivery ~seq ~at_router:x

(* A JOIN arriving at router [x]: graft if [x] is on the tree (or is
   the core), otherwise forward one hop closer to the core, extending
   the recorded path. *)
let handle_join t x group joiner path =
  (* "On tree" means actually connected: the core, or a router whose
     upstream is installed. A router whose own JOIN is still in flight
     has an entry (member flag) but no upstream yet and must not serve
     as a graft node. *)
  let on_tree =
    x = t.core
    || match entry_opt t x group with Some e -> e.upstream <> None | None -> false
  in
  if on_tree then begin
    (* Graft node: entry exists (or is the core's, created now); the
       ACK walks the path back to the joiner. *)
    ignore (get_or_create_entry t x group);
    match path with
    | [] -> () (* joiner was already on tree; nothing to ack *)
    | next :: _ ->
      let e = get_or_create_entry t x group in
      if not (List.mem next e.downstream) then e.downstream <- e.downstream @ [ next ];
      N.transmit t.net ~src:x ~dst:next (Message.Cbt_join_ack { group; path })
  end
  else begin
    (* Forward toward the core, remembering the reverse hop. *)
    if not (Hashtbl.mem t.pending_join (pk x group)) then begin
      Hashtbl.replace t.pending_join (pk x group) ();
      match N.(Eventsim.Routes.next_hop (routes t.net) ~src:x ~dst:t.core) with
      | None -> () (* core unreachable: drop *)
      | Some next ->
        N.transmit t.net ~src:x ~dst:next
          (Message.Cbt_join { group; joiner; path = x :: path })
    end
  end

(* The ACK travels graft-node -> joiner; [path] lists the remaining
   routers nearest-first. Receiving router [x = head] installs state. *)
let handle_join_ack t x ~from group path =
  match path with
  | head :: rest when head = x ->
    Hashtbl.remove t.pending_join (pk x group);
    let e = get_or_create_entry t x group in
    e.upstream <- Some from;
    (match rest with
    | [] -> () (* the joiner itself; membership was marked at host_join *)
    | next :: _ ->
      if not (List.mem next e.downstream) then e.downstream <- e.downstream @ [ next ];
      N.transmit t.net ~src:x ~dst:next (Message.Cbt_join_ack { group; path = rest }))
  | _ -> ()

let handle_quit t x group ~from =
  match entry_opt t x group with
  | None -> ()
  | Some e ->
    e.downstream <- List.filter (fun y -> y <> from) e.downstream;
    if e.downstream = [] && (not e.member) && x <> t.core then begin
      match e.upstream with
      | Some up ->
        Forwarding.remove t.entries (pk x group);
        N.transmit t.net ~src:x ~dst:up (Message.Cbt_quit { group; from = x })
      | None -> Forwarding.remove t.entries (pk x group)
    end

let handle_encap t x group src seq =
  if x = t.core then begin
    match entry_opt t t.core group with
    | None -> ()
    | Some e ->
      Forwarding.send_downstream t.net e ~src:t.core
        (Message.Data { group; src; seq });
      if e.member then Delivery.record t.delivery ~seq ~at_router:t.core
  end

let handle_message t x ~from msg =
  match msg with
  | Message.Data { group; seq; _ } -> handle_data t x ~from msg seq group
  | Message.Encap { group; src; seq } -> handle_encap t x group src seq
  | Message.Cbt_join { group; joiner; path } -> handle_join t x group joiner path
  | Message.Cbt_join_ack { group; path } -> handle_join_ack t x ~from group path
  | Message.Cbt_quit { group; from = f } -> handle_quit t x group ~from:f
  | Message.Scmp_join _ | Message.Scmp_leave _ | Message.Scmp_graft _
  | Message.Scmp_req_ack _ | Message.Scmp_reliable _ | Message.Scmp_ack _
  | Message.Scmp_tree _
  | Message.Scmp_branch _ | Message.Scmp_prune _ | Message.Scmp_invalidate _ | Message.Scmp_replicate _
  | Message.Scmp_heartbeat _ | Message.Scmp_heartbeat_ack _
  | Message.Scmp_announce _ | Message.Scmp_resync _
  | Message.Pim_join _ | Message.Pim_prune _
  | Message.Dvmrp_prune _ | Message.Dvmrp_graft _ | Message.Mospf_lsa _
  | Message.Hpim_sync _ | Message.Hpim_ack _ ->
    ()

let create ~delivery net ~core () =
  let g = N.graph net in
  let t =
    {
      net;
      core;
      entries = Forwarding.create ();
      pending_join = Hashtbl.create 16;
      delivery;
    }
  in
  for x = 0 to Netgraph.Graph.node_count g - 1 do
    N.set_handler net x (fun _net ~from msg -> handle_message t x ~from msg)
  done;
  t

let host_join t ~group x =
  let already = entry_opt t x group <> None || x = t.core in
  let e = get_or_create_entry t x group in
  e.member <- true;
  if not already then begin
    (* Not yet on the tree: launch the JOIN toward the core. The entry
       just created carries only the member flag until the ACK installs
       the upstream. *)
    match N.(Eventsim.Routes.next_hop (routes t.net) ~src:x ~dst:t.core) with
    | None -> ()
    | Some next ->
      N.transmit t.net ~src:x ~dst:next
        (Message.Cbt_join { group; joiner = x; path = [ x ] })
  end

let host_leave t ~group x =
  match entry_opt t x group with
  | None -> ()
  | Some e ->
    e.member <- false;
    if e.downstream = [] && x <> t.core then begin
      match e.upstream with
      | Some up ->
        Forwarding.remove t.entries (pk x group);
        N.transmit t.net ~src:x ~dst:up (Message.Cbt_quit { group; from = x })
      | None -> Forwarding.remove t.entries (pk x group)
    end

let send_data t ~group ~src ~seq =
  match entry_opt t src group with
  | Some e when e.upstream <> None || src = t.core ->
    Forwarding.originate t.net e ~src (Message.Data { group; src; seq })
  | Some _ | None ->
    N.unicast t.net ~src ~dst:t.core (Message.Encap { group; src; seq })

let router_state t x ~group =
  Option.map (fun e -> (e.upstream, e.downstream, e.member)) (entry_opt t x group)

let on_tree t ~group =
  Forwarding.fold
    (fun k _ acc ->
      if Forwarding.pk_lo k = group then Forwarding.pk_hi k :: acc else acc)
    t.entries []
  |> List.sort Int.compare
