module N = Eventsim.Netsim

type node = Message.node

type t = {
  net : Message.t N.t;
  (* Per-router membership database: (at, router, group) present iff
     [at] believes [router] has member hosts for [group]. *)
  db : (node * node * Message.group, unit) Hashtbl.t;
  (* Flooding duplicate suppression: highest LSA seq seen, per
     (at, originating router). *)
  seen : (node * node, int) Hashtbl.t;
  mutable next_seq : int;
  mutable originated : int;
  delivery : Delivery.t;
}

let knows_member t ~at ~group r = Hashtbl.mem t.db (at, r, group)

let apply_lsa t ~at ~group ~router ~joined =
  if joined then Hashtbl.replace t.db (at, router, group) ()
  else Hashtbl.remove t.db (at, router, group)

let every () _ _ = true
let flood t x ~from msg = ignore (Forwarding.fan_out t.net ~x ~from ~keep:every () msg)

let handle_lsa t x ~from group router joined seq =
  let fresh =
    match Hashtbl.find_opt t.seen (x, router) with
    | Some s -> seq > s
    | None -> true
  in
  if fresh then begin
    Hashtbl.replace t.seen (x, router) seq;
    apply_lsa t ~at:x ~group ~router ~joined;
    flood t x ~from (Message.Mospf_lsa { group; router; joined; seq })
  end

(* Is [y] a child of [x] in the SPT whose subtree contains a member,
   according to [at]'s database? Children of [x] are its neighbours
   whose SPT parent is [x]. *)
let rec member_below ((t, spt, at, group) as st) x y =
  Netgraph.Dijkstra.parent_ix spt y = x
  && (knows_member t ~at ~group y
     || Forwarding.any_neighbour (N.graph t.net) ~x:y ~from:(-1) ~keep:member_below st)

(* Down the SPT of [src], into the subtrees [x] knows hold members. *)
let forward_spt t x ~group ~src msg =
  let spt = Eventsim.Routes.spt (N.routes t.net) ~src in
  ignore
    (Forwarding.fan_out t.net ~x ~from:(-1) ~keep:member_below (t, spt, x, group) msg)

let handle_data t x ~from group src seq msg =
  let spt = Eventsim.Routes.spt (N.routes t.net) ~src in
  if Netgraph.Dijkstra.parent_ix spt x = from then begin
    if knows_member t ~at:x ~group x then Delivery.record t.delivery ~seq ~at_router:x;
    forward_spt t x ~group ~src msg
  end

let handle_message t x ~from msg =
  match msg with
  | Message.Data { group; src; seq } -> handle_data t x ~from group src seq msg
  | Message.Mospf_lsa { group; router; joined; seq } ->
    handle_lsa t x ~from group router joined seq
  | Message.Encap _ | Message.Scmp_join _ | Message.Scmp_leave _
  | Message.Scmp_graft _ | Message.Scmp_req_ack _ | Message.Scmp_reliable _
  | Message.Scmp_ack _ | Message.Scmp_tree _ | Message.Scmp_branch _ | Message.Scmp_prune _
  | Message.Scmp_invalidate _ | Message.Scmp_replicate _
  | Message.Scmp_heartbeat _ | Message.Scmp_heartbeat_ack _
  | Message.Scmp_announce _ | Message.Scmp_resync _ | Message.Pim_join _ | Message.Pim_prune _ | Message.Cbt_join _ | Message.Cbt_join_ack _
  | Message.Cbt_quit _ | Message.Dvmrp_prune _ | Message.Dvmrp_graft _
  | Message.Hpim_sync _ | Message.Hpim_ack _ ->
    ()

let create ~delivery net () =
  let g = N.graph net in
  let t =
    {
      net;
      db = Hashtbl.create 64;
      seen = Hashtbl.create 64;
      next_seq = 1;
      originated = 0;
      delivery;
    }
  in
  for x = 0 to Netgraph.Graph.node_count g - 1 do
    N.set_handler net x (fun _net ~from msg -> handle_message t x ~from msg)
  done;
  t

let originate t x ~group ~joined =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  t.originated <- t.originated + 1;
  apply_lsa t ~at:x ~group ~router:x ~joined;
  Hashtbl.replace t.seen (x, x) seq;
  flood t x ~from:(-1) (Message.Mospf_lsa { group; router = x; joined; seq })

let host_join t ~group x = originate t x ~group ~joined:true
let host_leave t ~group x = originate t x ~group ~joined:false

let send_data t ~group ~src ~seq =
  let msg = Message.Data { group; src; seq } in
  (* The source's own subnet delivery is local; expected sets exclude
     the source. Forward down the pruned SPT. *)
  forward_spt t src ~group ~src msg

let lsa_count t = t.originated
