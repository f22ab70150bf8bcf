module N = Eventsim.Netsim

type node = Message.node

(* Prune/forwarding state is per (router, source, group); membership per
   (router, group). *)
(* The prune lifetime, in simulated seconds. *)
let prune_timeout = 10.0

type t = {
  net : Message.t N.t;
  member : (node * Message.group, unit) Hashtbl.t;
  pruned : (node * node * node * Message.group, unit) Hashtbl.t;
      (** (router, neighbour, source, group): do not send this
          source/group's data on that link. *)
  sent_prune : (node * node * Message.group, unit) Hashtbl.t;
      (** (router, source, group): this router has pruned itself from
          the delivery tree (told its RPF upstream to stop). *)
  delivery : Delivery.t;
}

let is_member t ~group x = Hashtbl.mem t.member (x, group)

let rpf_upstream t x src =
  Eventsim.Routes.next_hop (N.routes t.net) ~src:x ~dst:src

(* Expiry timers are background events: housekeeping must not keep the
   simulation alive once all protocol activity has quiesced. *)
let mark_pruned t x y src group =
  Hashtbl.replace t.pruned (x, y, src, group) ();
  Eventsim.Engine.schedule (N.engine t.net) ~background:true ~delay:prune_timeout
    (fun () -> Hashtbl.remove t.pruned (x, y, src, group))

let send_prune_upstream t x src group =
  if (not (Hashtbl.mem t.sent_prune (x, src, group))) && x <> src then begin
    match rpf_upstream t x src with
    | None -> ()
    | Some up ->
      Hashtbl.replace t.sent_prune (x, src, group) ();
      (* Our prune record at the upstream expires after the timeout;
         forget that we pruned at the same moment so the re-flood finds
         us ready to prune again. *)
      Eventsim.Engine.schedule (N.engine t.net) ~background:true
        ~delay:prune_timeout (fun () ->
          Hashtbl.remove t.sent_prune (x, src, group));
      N.transmit t.net ~src:x ~dst:up (Message.Dvmrp_prune { group; src; from = x })
  end

let unpruned (t, src, group) x y = not (Hashtbl.mem t.pruned (x, y, src, group))

(* Reverse-path flooding: send on every link except the arrival one and
   the pruned ones. This is the bandwidth-hungry behaviour the paper
   attributes to DVMRP ("floods the packets frequently"): during a
   flood round, data crosses essentially every link of the domain. *)
let forward_flood t x ~from src group msg =
  if
    Forwarding.fan_out t.net ~x ~from ~keep:unpruned (t, src, group) msg = 0
    && not (is_member t ~group x)
  then send_prune_upstream t x src group

let handle_data t x ~from group src seq msg =
  if rpf_upstream t x src = Some from then begin
    if is_member t ~group x then Delivery.record t.delivery ~seq ~at_router:x;
    forward_flood t x ~from src group msg
  end
  else
    (* Arrived on a non-RPF interface: drop and prune that link so the
       neighbour stops wasting it. *)
    N.transmit t.net ~src:x ~dst:from (Message.Dvmrp_prune { group; src; from = x })

let handle_prune t x group src ~from =
  mark_pruned t x from src group;
  (* If every non-upstream link is now pruned and no local members,
     withdraw from the tree as well. *)
  let up = Option.value (rpf_upstream t x src) ~default:(-1) in
  let any_live =
    Forwarding.any_neighbour (N.graph t.net) ~x ~from:up ~keep:unpruned (t, src, group)
  in
  if (not any_live) && not (is_member t ~group x) then send_prune_upstream t x src group

(* Grafts cascade naturally: the upstream processes the transmitted
   GRAFT with this same handler when it arrives. *)
let handle_graft t x group src ~from =
  Hashtbl.remove t.pruned (x, from, src, group);
  if Hashtbl.mem t.sent_prune (x, src, group) then begin
    Hashtbl.remove t.sent_prune (x, src, group);
    match rpf_upstream t x src with
    | Some up ->
      N.transmit t.net ~src:x ~dst:up (Message.Dvmrp_graft { group; src; from = x })
    | None -> ()
  end

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
      member = Hashtbl.create 32;
      pruned = Hashtbl.create 64;
      sent_prune = Hashtbl.create 64;
      delivery;
    }
  in
  for x = 0 to Netgraph.Graph.node_count g - 1 do
    N.set_handler net x (fun _net ~from msg -> handle_message t x ~from msg)
  done;
  t

let host_join t ~group x =
  Hashtbl.replace t.member (x, group) ();
  (* Graft this router back into every source tree it had pruned. *)
  Hashtbl.fold
    (fun (r, src, g) () acc -> if r = x && g = group then src :: acc else acc)
    t.sent_prune []
  |> List.sort_uniq Int.compare
  |> List.iter (fun src ->
         Hashtbl.remove t.sent_prune (x, src, group);
         match rpf_upstream t x src with
         | Some up ->
           N.transmit t.net ~src:x ~dst:up (Message.Dvmrp_graft { group; src; from = x })
         | None -> ())

let host_leave t ~group x = Hashtbl.remove t.member (x, group)

let send_data t ~group ~src ~seq =
  forward_flood t src ~from:(-1) src group (Message.Data { group; src; seq })

let pruned_links t = Hashtbl.length t.pruned
