module N = Eventsim.Netsim
module Engine = Eventsim.Engine

type node = Message.node

let pk = Forwarding.pk

(* The prune lifetime, in simulated seconds. *)
let prune_timeout = 10.0

(* Prune state per (source, group) tree: one record per tree, found by
   [pk source group], with byte maps over the graph's CSR slots (one
   per directed link) and over routers. *)
type tree = {
  src : node;
  group : Message.group;
  pruned : Bytes.t;
      (** per CSR slot x->y: do not send this tree's data on that link *)
  sent_prune : Bytes.t;
      (** per router: it has pruned itself from the tree (told its RPF
          upstream to stop) *)
}

type t = {
  net : Message.t N.t;
  member : unit Forwarding.map;  (** [pk router group] *)
  trees : tree Forwarding.map;  (** [pk source group] *)
  mutable pruned_links : int;
  mutable expire : Engine.dispatch;
  delivery : Delivery.t;
}

let is_member t ~group x = Forwarding.mem t.member (pk x group)

let no_tree = { src = -1; group = 0; pruned = Bytes.empty; sent_prune = Bytes.empty }

let tree t src group =
  let k = pk src group in
  match Forwarding.find_slot t.trees k with
  | -1 ->
    let g = N.graph t.net in
    let tr =
      {
        src;
        group;
        pruned = Bytes.make (Array.length (Netgraph.Graph.csr_neighbors g)) '\000';
        sent_prune = Bytes.make (Netgraph.Graph.node_count g) '\000';
      }
    in
    Forwarding.replace t.trees k tr;
    tr
  | i -> Forwarding.value t.trees i

let rpf_upstream t x src = Eventsim.Routes.next_hop_ix (N.routes t.net) ~src:x ~dst:src

let set_pruned t tr i =
  if Bytes.get tr.pruned i = '\000' then begin
    Bytes.set tr.pruned i '\001';
    t.pruned_links <- t.pruned_links + 1
  end

let clear_pruned t tr i =
  if Bytes.get tr.pruned i = '\001' then begin
    Bytes.set tr.pruned i '\000';
    t.pruned_links <- t.pruned_links - 1
  end

(* Expiry timers are background events: housekeeping must not keep the
   simulation alive once all protocol activity has quiesced. They run
   on the engine's closure-free path: [kind] 0 expires the prune on CSR
   slot [i], 1 forgets router [i]'s own prune. *)
let expire_timer t kind src group i _ =
  let tr = tree t src group in
  if kind = 0 then clear_pruned t tr i else Bytes.set tr.sent_prune i '\000'

let arm t kind tr i =
  Engine.schedule_fast (N.engine t.net) ~background:true
    ~time:(Engine.now (N.engine t.net) +. prune_timeout)
    t.expire kind tr.src tr.group i 0

let mark_pruned t tr x y =
  match Forwarding.link_slot (N.graph t.net) x y with
  | -1 -> ()
  | i ->
    set_pruned t tr i;
    arm t 0 tr i

let send_prune_upstream t tr x =
  if Bytes.get tr.sent_prune x = '\000' && x <> tr.src then begin
    match rpf_upstream t x tr.src with
    | -1 -> ()
    | up ->
      Bytes.set tr.sent_prune x '\001';
      (* Our prune record at the upstream expires after the timeout;
         forget that we pruned at the same moment so the re-flood finds
         us ready to prune again. *)
      arm t 1 tr x;
      N.transmit t.net ~src:x ~dst:up
        (Message.Dvmrp_prune { group = tr.group; src = tr.src; from = x })
  end

let unpruned tr i _ = Bytes.unsafe_get tr.pruned i = '\000'

(* Reverse-path flooding: send on every link except the arrival one and
   the pruned ones. This is the bandwidth-hungry behaviour the paper
   attributes to DVMRP ("floods the packets frequently"): during a
   flood round, data crosses essentially every link of the domain. *)
let forward_flood t tr x ~from msg =
  if
    Forwarding.fan_out t.net ~x ~from ~keep:unpruned tr msg = 0
    && not (is_member t ~group:tr.group x)
  then send_prune_upstream t tr x

let handle_data t x ~from group src seq msg =
  if rpf_upstream t x src = from then begin
    if is_member t ~group x then Delivery.record t.delivery ~seq ~at_router:x;
    forward_flood t (tree t src group) x ~from msg
  end
  else
    (* Arrived on a non-RPF interface: drop and prune that link so the
       neighbour stops wasting it. *)
    N.transmit t.net ~src:x ~dst:from (Message.Dvmrp_prune { group; src; from = x })

let handle_prune t x group src ~from =
  let tr = tree t src group in
  mark_pruned t tr x from;
  (* If every non-upstream link is now pruned and no local members,
     withdraw from the tree as well. *)
  let any_live =
    Forwarding.any_neighbour (N.graph t.net) ~x ~from:(rpf_upstream t x src)
      ~keep:unpruned tr
  in
  if (not any_live) && not (is_member t ~group x) then send_prune_upstream t tr x

let graft_upstream t tr x =
  Bytes.set tr.sent_prune x '\000';
  match rpf_upstream t x tr.src with
  | -1 -> ()
  | up ->
    N.transmit t.net ~src:x ~dst:up
      (Message.Dvmrp_graft { group = tr.group; src = tr.src; from = x })

(* Grafts cascade naturally: the upstream processes the transmitted
   GRAFT with this same handler when it arrives. *)
let handle_graft t x group src ~from =
  let tr = tree t src group in
  (match Forwarding.link_slot (N.graph t.net) x from with
  | -1 -> ()
  | i -> clear_pruned t tr i);
  if Bytes.get tr.sent_prune x = '\001' then graft_upstream t tr x

let handle_message t x ~from msg =
  match msg with
  | Message.Data { group; src; seq } -> handle_data t x ~from group src seq msg
  | Message.Dvmrp_prune { group; src; from = f } -> handle_prune t x group src ~from:f
  | Message.Dvmrp_graft { group; src; from = f } -> handle_graft t x group src ~from:f
  | Message.Encap _ | Message.Scmp_join _ | Message.Scmp_leave _
  | Message.Scmp_graft _ | Message.Scmp_req_ack _ | Message.Scmp_reliable _
  | Message.Scmp_ack _ | Message.Scmp_tree _ | Message.Scmp_branch _ | Message.Scmp_prune _
  | Message.Scmp_invalidate _ | Message.Scmp_replicate _
  | Message.Scmp_heartbeat _ | Message.Scmp_heartbeat_ack _
  | Message.Scmp_announce _ | Message.Scmp_resync _ | Message.Pim_join _ | Message.Pim_prune _ | Message.Cbt_join _ | Message.Cbt_join_ack _
  | Message.Cbt_quit _ | Message.Mospf_lsa _ | Message.Hpim_sync _
  | Message.Hpim_ack _ ->
    ()

let create ~delivery net () =
  let g = N.graph net in
  let t =
    {
      net;
      member = Forwarding.map ();
      trees = Forwarding.map no_tree;
      pruned_links = 0;
      expire = Engine.dispatch (fun _ _ _ _ _ -> ());
      delivery;
    }
  in
  t.expire <- Engine.dispatch (expire_timer t);
  for x = 0 to Netgraph.Graph.node_count g - 1 do
    N.set_handler net x (fun _net ~from msg -> handle_message t x ~from msg)
  done;
  t

let host_join t ~group x =
  Forwarding.replace t.member (pk x group) ();
  (* Graft this router back into every source tree it had pruned, in
     source order. *)
  Forwarding.fold
    (fun _ tr acc ->
      if tr.group = group && Bytes.get tr.sent_prune x = '\001' then tr :: acc else acc)
    t.trees []
  |> List.sort (fun a b -> Int.compare a.src b.src)
  |> List.iter (fun tr -> graft_upstream t tr x)

let host_leave t ~group x = Forwarding.remove t.member (pk x group)

let send_data t ~group ~src ~seq =
  forward_flood t (tree t src group) src ~from:(-1) (Message.Data { group; src; seq })

let pruned_links t = t.pruned_links
