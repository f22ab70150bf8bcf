module N = Eventsim.Netsim

type node = Message.node

(* Interest syncs are keyed per (router, neighbour, source, group). *)
module Sync = Reliable.Make (struct
  type t = node * node * node * Message.group

  let equal (a : t) b = a = b
  let hash (k : t) = Hashtbl.hash k
end)

(* All interest state is hard: a neighbour's no-interest declaration
   stays until a fresher sync replaces it, so there is no prune timer
   and no periodic re-flood (the defining difference from Dvmrp). *)
type t = {
  net : Message.t N.t;
  member : (node * Message.group, unit) Hashtbl.t;
  sources : (node * Message.group, unit) Hashtbl.t;
      (** Sources that injected data (verification walks one tree per
          entry). *)
  seen : (node * node * Message.group, unit) Hashtbl.t;
      (** (router, source, group): this router holds tree state. *)
  upstream : (node * node * Message.group, node option) Hashtbl.t;
      (** RPF upstream recorded when the state was installed; refreshed
          on every route reconvergence. *)
  no_interest : (node * node * node * Message.group, unit) Hashtbl.t;
      (** (router, neighbour, source, group): the neighbour synced
          no-interest — do not forward this source's data to it. *)
  out_state : (node * node * node * Message.group, bool) Hashtbl.t;
      (** Last interest value this router synced to that neighbour
          (absent = dense-mode implicit interest). *)
  next_seq : (node * node * node * Message.group, int) Hashtbl.t;
  pending : (int * bool) Sync.t;
      (** Unacked interest updates: (sequence number, interest). *)
  applied : (node * node * node * Message.group, int) Hashtbl.t;
      (** Receiver side: highest sequence number applied per peer. *)
  delivery : Delivery.t option;
  mutable syncs : int;
  mutable acks : int;
}

let is_member t ~group x = Hashtbl.mem t.member (x, group)

let record_delivery t x seq =
  match t.delivery with
  | Some d -> Delivery.record d ~seq ~at_router:x
  | None -> ()

let rpf_upstream t x src =
  Eventsim.Routes.next_hop (N.routes t.net) ~src:x ~dst:src

let recorded_upstream t x src group =
  match Hashtbl.find_opt t.upstream (x, src, group) with
  | Some u -> u
  | None -> rpf_upstream t x src

let ensure_seen t x src group =
  if not (Hashtbl.mem t.seen (x, src, group)) then begin
    Hashtbl.replace t.seen (x, src, group) ();
    Hashtbl.replace t.upstream (x, src, group) (rpf_upstream t x src)
  end

(* A router is interested in (src, group) data when it has a member
   host or any non-upstream neighbour that has not synced no-interest
   (dense-mode default: a silent neighbour is assumed interested). *)
let interested t x src group =
  is_member t ~group x
  ||
  let up = recorded_upstream t x src group in
  Netgraph.Graph.neighbors (N.graph t.net) x
  |> List.exists (fun y ->
         Some y <> up && not (Hashtbl.mem t.no_interest (x, y, src, group)))

let send_sync t x ~to_:y ~src ~group ~interested =
  ensure_seen t x src group;
  let key = (x, y, src, group) in
  let already =
    match (Sync.find t.pending key, Hashtbl.find_opt t.out_state key) with
    | Some (_, i), _ -> i = interested
    | None, Some b -> b = interested
    | None, None -> false
  in
  if not already then begin
    let seq = 1 + Option.value ~default:0 (Hashtbl.find_opt t.next_seq key) in
    Hashtbl.replace t.next_seq key seq;
    Hashtbl.replace t.out_state key interested;
    t.syncs <- t.syncs + 1;
    Sync.send t.pending key (seq, interested)
  end

(* Re-sync this router's interest toward its RPF upstream if what the
   upstream believes (last sync, or the implicit dense-mode interest)
   no longer matches. Cascades: the upstream re-evaluates on apply. *)
let sync_upstream t x src group =
  match recorded_upstream t x src group with
  | None -> ()
  | Some up ->
    let want = interested t x src group in
    let key = (x, up, src, group) in
    let told =
      match (Sync.find t.pending key, Hashtbl.find_opt t.out_state key) with
      | Some (_, i), _ -> i
      | None, Some b -> b
      | None, None -> true
    in
    if told <> want then send_sync t x ~to_:up ~src ~group ~interested:want

let forward t x ~exclude src group msg =
  Netgraph.Graph.neighbors (N.graph t.net) x
  |> List.iter (fun y ->
         if Some y <> exclude && not (Hashtbl.mem t.no_interest (x, y, src, group))
         then N.transmit t.net ~src:x ~dst:y msg)

let handle_data t x ~from group src seq msg =
  ensure_seen t x src group;
  if recorded_upstream t x src group = Some from then begin
    if is_member t ~group x then record_delivery t x seq;
    forward t x ~exclude:(Some from) src group msg;
    (* A router with nothing downstream and no members withdraws — once;
       the hard no-interest state never expires upstream. *)
    sync_upstream t x src group
  end
  else
    (* Non-RPF arrival: reliably tell that neighbour to stop. *)
    send_sync t x ~to_:from ~src ~group ~interested:false

let handle_sync t x ~from group src seq interested =
  N.transmit t.net ~src:x ~dst:from (Message.Hpim_ack { group; src; from = x; seq });
  let key = (x, from, src, group) in
  let last = Option.value ~default:0 (Hashtbl.find_opt t.applied key) in
  if seq > last then begin
    Hashtbl.replace t.applied key seq;
    ensure_seen t x src group;
    if interested then Hashtbl.remove t.no_interest key
    else Hashtbl.replace t.no_interest key ();
    sync_upstream t x src group
  end

let handle_ack t x ~from group src seq =
  let key = (x, from, src, group) in
  match Sync.find t.pending key with
  | Some (s, _) when s = seq ->
    Sync.ack t.pending key;
    t.acks <- t.acks + 1
  | Some _ | None -> ()

let handle_message t x ~from msg =
  match msg with
  | Message.Data { group; src; seq } -> handle_data t x ~from group src seq msg
  | Message.Hpim_sync { group; src; seq; interested; _ } ->
    handle_sync t x ~from group src seq interested
  | Message.Hpim_ack { group; src; seq; _ } -> handle_ack t x ~from group src seq
  | Message.Encap _ | Message.Scmp_join _ | Message.Scmp_leave _
  | Message.Scmp_graft _ | Message.Scmp_req_ack _ | Message.Scmp_reliable _
  | Message.Scmp_ack _ | Message.Scmp_tree _ | Message.Scmp_branch _
  | Message.Scmp_prune _ | Message.Scmp_invalidate _ | Message.Scmp_replicate _
  | Message.Scmp_heartbeat _ | Message.Scmp_heartbeat_ack _
  | Message.Scmp_announce _ | Message.Scmp_resync _ | Message.Pim_join _
  | Message.Pim_prune _ | Message.Cbt_join _ | Message.Cbt_join_ack _
  | Message.Cbt_quit _ | Message.Dvmrp_prune _ | Message.Dvmrp_graft _
  | Message.Mospf_lsa _ ->
    ()

let compare_tuple (a1, a2, a3) (b1, b2, b3) =
  let c = Int.compare a1 b1 in
  if c <> 0 then c
  else
    let c = Int.compare a2 b2 in
    if c <> 0 then c else Int.compare a3 b3

(* Route reconvergence: every router re-derives its RPF upstream for
   every tree it holds state for, and re-syncs interest toward the new
   parent. A pruned new parent necessarily heard this router's earlier
   no-interest sync, so [sync_upstream]'s told/want comparison issues
   the graft that re-opens the path; the cascade restores the chain up
   to the source without any re-flood. *)
let handle_topology_change t =
  Hashtbl.fold (fun (x, src, group) () acc -> (x, src, group) :: acc) t.seen []
  |> List.sort compare_tuple
  |> List.iter (fun (x, src, group) ->
         let now = rpf_upstream t x src in
         let before = Hashtbl.find_opt t.upstream (x, src, group) in
         if before <> Some now then begin
           Hashtbl.replace t.upstream (x, src, group) now;
           sync_upstream t x src group
         end)

(* A lost sync must be able to wake the engine back up, so its timers
   run in the foreground; the attempt bound keeps a permanently
   partitioned peer from holding the run alive forever. *)
let create ?delivery net () =
  (* base timeout in simulated seconds, doubling per attempt, and the
     sends one sync may take *)
  let rto = 0.6 and max_attempts = 8 in
  let g = N.graph net in
  let resend (x, y, src, group) (seq, interested) =
    N.transmit net ~src:x ~dst:y
      (Message.Hpim_sync { group; src; from = x; seq; interested })
  in
  let t =
    {
      net;
      member = Hashtbl.create 32;
      sources = Hashtbl.create 8;
      seen = Hashtbl.create 64;
      upstream = Hashtbl.create 64;
      no_interest = Hashtbl.create 64;
      out_state = Hashtbl.create 64;
      next_seq = Hashtbl.create 64;
      pending =
        Sync.create (N.engine net) ~rto ~max_attempts
          ~rtt:(fun _ _ -> 0.0)
          ~resend
          ~settled:(fun _ _ -> false)
          ~give_up:(fun _ _ -> ());
      applied = Hashtbl.create 64;
      delivery;
      syncs = 0;
      acks = 0;
    }
  in
  for x = 0 to Netgraph.Graph.node_count g - 1 do
    N.set_handler net x (fun _net ~from msg -> handle_message t x ~from msg)
  done;
  N.on_topology_change net (fun () -> handle_topology_change t);
  t

let known_sources t x group =
  Hashtbl.fold
    (fun (r, s, g) () acc -> if r = x && g = group then s :: acc else acc)
    t.seen []
  |> List.sort_uniq Int.compare

let host_join t ~group x =
  Hashtbl.replace t.member (x, group) ();
  (* Hard state means no re-flood will find this member: graft into
     every known source tree explicitly. *)
  List.iter (fun src -> sync_upstream t x src group) (known_sources t x group)

let host_leave t ~group x =
  Hashtbl.remove t.member (x, group);
  List.iter (fun src -> sync_upstream t x src group) (known_sources t x group)

let send_data t ~group ~src ~seq =
  Hashtbl.replace t.sources (src, group) ();
  ensure_seen t src src group;
  forward t src ~exclude:None src group (Message.Data { group; src; seq })

let no_interest_links t = Hashtbl.length t.no_interest

(* Static replay of the forwarding rules on the quiesced network: a
   router accepts (src, group) data iff its RPF upstream accepts and
   has not been told no-interest by it. Every member the live topology
   connects to the source must be in the accepting set. *)
let verify t =
  let g = N.graph t.net in
  let n = Netgraph.Graph.node_count g in
  let pairs =
    Hashtbl.fold (fun (s, grp) () acc -> (s, grp) :: acc) t.sources []
    |> List.sort (fun (a1, a2) (b1, b2) ->
           let c = Int.compare a1 b1 in
           if c <> 0 then c else Int.compare a2 b2)
  in
  let errors =
    List.concat_map
      (fun (src, group) ->
        let accept = Array.make n false in
        if src < n then accept.(src) <- true;
        let changed = ref true in
        while !changed do
          changed := false;
          for x = 0 to n - 1 do
            if not accept.(x) then begin
              match recorded_upstream t x src group with
              | Some u
                when accept.(u)
                     && (not (Hashtbl.mem t.no_interest (u, x, src, group)))
                     && N.link_alive t.net u x ->
                accept.(x) <- true;
                changed := true
              | Some _ | None -> ()
            end
          done
        done;
        Hashtbl.fold
          (fun (x, grp) () acc -> if grp = group then x :: acc else acc)
          t.member []
        |> List.sort Int.compare
        |> List.filter_map (fun m ->
               if accept.(m) || rpf_upstream t m src = None then None
               else
                 Some
                   (Printf.sprintf
                      "hpim-dm: member %d unreachable on tree (s=%d, g=%d)" m
                      src group)))
      pairs
  in
  match errors with [] -> Ok () | e :: _ -> Error e

let observe t m =
  let set_c name v = Obs.Metrics.set_counter (Obs.Metrics.counter m name) v in
  set_c "hpim/syncs" t.syncs;
  set_c "hpim/acks" t.acks;
  set_c "hpim/retransmissions" (Sync.retransmissions t.pending);
  let giveups = Sync.giveups t.pending in
  if giveups > 0 then set_c "hpim/giveups" giveups
