module N = Eventsim.Netsim
module D = Netgraph.Dijkstra

type node = Message.node

(* One group's membership databases, one row per router [r] that has
   originated an LSA for the group: byte [at] of [known.(r)] is set iff
   router [at] believes [r] has member hosts. *)
type group_db = {
  known : Bytes.t array;  (** [Bytes.empty] for a router never heard of *)
  mutable origins : node list;  (** the routers with a row *)
}

type t = {
  net : Message.t N.t;
  n : int;
  dbs : group_db Forwarding.map;  (** keyed by group *)
  (* Flooding duplicate suppression: per originating router, the
     highest LSA seq each router has seen from it ([||] until its
     first LSA; LSA seqs start at 1). *)
  seen : int array array;
  mutable next_seq : int;
  mutable originated : int;
  (* Working state of one forwarding decision, valid where [visit] holds the
     current [stamp]: [via.(z)] is the child of the forwarding router
     whose subtree holds [z] (-1 if none), and [below.(c) = stamp]
     marks the children to forward to. *)
  visit : int array;
  via : int array;
  below : int array;
  mutable stamp : int;
  delivery : Delivery.t;
}

let no_db = { known = [||]; origins = [] }

let db t group =
  match Forwarding.find_slot t.dbs group with
  | -1 ->
    let d = { known = Array.make t.n Bytes.empty; origins = [] } in
    Forwarding.replace t.dbs group d;
    d
  | i -> Forwarding.value t.dbs i

let knows_member t ~at ~group r =
  match Forwarding.find_slot t.dbs group with
  | -1 -> false
  | i ->
    let row = (Forwarding.value t.dbs i).known.(r) in
    Bytes.length row > 0 && Bytes.get row at = '\001'

let apply_lsa t ~at ~group ~router ~joined =
  let d = db t group in
  if Bytes.length d.known.(router) = 0 then begin
    d.known.(router) <- Bytes.make t.n '\000';
    d.origins <- router :: d.origins
  end;
  Bytes.set d.known.(router) at (if joined then '\001' else '\000')

let seen_row t router =
  if Array.length t.seen.(router) = 0 then t.seen.(router) <- Array.make t.n 0;
  t.seen.(router)

let every () _ _ = true
let flood t x ~from msg = ignore (Forwarding.fan_out t.net ~x ~from ~keep:every () msg)

(* The received LSA goes on unchanged: the re-flooded copy is the same
   value. *)
let handle_lsa t x ~from msg group router joined seq =
  let seen = seen_row t router in
  if seq > seen.(x) then begin
    seen.(x) <- seq;
    apply_lsa t ~at:x ~group ~router ~joined;
    flood t x ~from msg
  end

(* The child of [x] whose SPT subtree holds [z], or -1 when [z] is not
   below [x]: climb [z]'s parent chain until it reaches [x] (or the
   root), memoised per forwarding decision so each router is climbed
   through once. *)
let rec via t spt x z =
  if z < 0 || z = x then -1
  else if t.visit.(z) = t.stamp then t.via.(z)
  else begin
    let p = D.parent_ix spt z in
    let c = if p = x then z else via t spt x p in
    t.visit.(z) <- t.stamp;
    t.via.(z) <- c;
    c
  end

let rec mark_children t spt x d = function
  | [] -> ()
  | r :: rest ->
    if Bytes.unsafe_get d.known.(r) x = '\001' then begin
      let c = via t spt x r in
      if c >= 0 then t.below.(c) <- t.stamp
    end;
    mark_children t spt x d rest

let below t _ y = t.below.(y) = t.stamp

(* Down the SPT of [src], into the subtrees [x]'s database says hold
   members: a child of [x] is marked when the parent chain of some
   router [x] lists as a member passes through it. *)
let forward_spt t x ~group ~src msg =
  let spt = Eventsim.Routes.spt (N.routes t.net) ~src in
  match Forwarding.find_slot t.dbs group with
  | -1 -> ()
  | i ->
    t.stamp <- t.stamp + 1;
    let d = Forwarding.value t.dbs i in
    mark_children t spt x d d.origins;
    ignore (Forwarding.fan_out t.net ~x ~from:(-1) ~keep:below t msg)

let handle_data t x ~from group src seq msg =
  let spt = Eventsim.Routes.spt (N.routes t.net) ~src in
  if D.parent_ix spt x = from then begin
    if knows_member t ~at:x ~group x then Delivery.record t.delivery ~seq ~at_router:x;
    forward_spt t x ~group ~src msg
  end

let handle_message t x ~from msg =
  match msg with
  | Message.Data { group; src; seq } -> handle_data t x ~from group src seq msg
  | Message.Mospf_lsa { group; router; joined; seq } ->
    handle_lsa t x ~from msg group router joined seq
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
  let n = Netgraph.Graph.node_count (N.graph net) in
  let t =
    {
      net;
      n;
      dbs = Forwarding.map no_db;
      seen = Array.make n [||];
      next_seq = 1;
      originated = 0;
      visit = Array.make n 0;
      via = Array.make n (-1);
      below = Array.make n 0;
      stamp = 0;
      delivery;
    }
  in
  for x = 0 to n - 1 do
    N.set_handler net x (fun _net ~from msg -> handle_message t x ~from msg)
  done;
  t

let originate t x ~group ~joined =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  t.originated <- t.originated + 1;
  apply_lsa t ~at:x ~group ~router:x ~joined;
  (seen_row t x).(x) <- seq;
  flood t x ~from:(-1) (Message.Mospf_lsa { group; router = x; joined; seq })

let host_join t ~group x = originate t x ~group ~joined:true
let host_leave t ~group x = originate t x ~group ~joined:false

let send_data t ~group ~src ~seq =
  let msg = Message.Data { group; src; seq } in
  (* The source's own subnet delivery is local; expected sets exclude
     the source. Forward down the pruned SPT. *)
  forward_spt t src ~group ~src msg

let lsa_count t = t.originated
