module N = Eventsim.Netsim

type node = Message.node

let pk = Forwarding.pk

(* Interest state per (source, group) tree: one record per tree, found
   by [pk source group], with maps over routers and over the graph's
   CSR slots (one per directed link x->y).

   All interest state is hard: a neighbour's no-interest declaration
   stays until a fresher sync replaces it, so there is no prune timer
   and no periodic re-flood (the defining difference from Dvmrp). *)
type tree = {
  id : int;  (** dense, in creation order *)
  src : node;
  group : Message.group;
  mutable sourced : bool;
      (** the source injected data (verification walks this tree) *)
  seen : Bytes.t;  (** per router: it holds tree state *)
  upstream : int array;
      (** per router, where [seen]: the RPF upstream recorded when the
          state was installed (-1 none); refreshed on every route
          reconvergence *)
  no_interest : Bytes.t;
      (** per slot x->y: [y] synced no-interest to [x] — do not forward
          this tree's data to it *)
  out_state : Bytes.t;
      (** per slot x->y: the last interest [x] synced to [y]: 0 none
          yet (dense-mode implicit interest), 1 no, 2 yes *)
  next_seq : int array;  (** per slot x->y: the last seq [x] sent [y] *)
  applied : int array;
      (** per slot x->y, receiver side: the highest seq [x] applied
          from [y] *)
}

(* An unacked interest update, keyed in the window by [tree id] above
   [slot]. *)
type sync = { from : node; dst : node; seq : int; msg : Message.t }

module Sync = Reliable.Make (Int)

type t = {
  net : Message.t N.t;
  member : unit Forwarding.map;  (** [pk router group] *)
  trees : tree Forwarding.map;  (** [pk source group] *)
  mutable tree_count : int;
  mutable no_interest_links : int;
  pending : sync Sync.t;
  delivery : Delivery.t;
  mutable syncs : int;
  mutable acks : int;
}

let is_member t ~group x = Forwarding.mem t.member (pk x group)

let no_tree =
  {
    id = -1; src = -1; group = 0; sourced = false; seen = Bytes.empty; upstream = [||];
    no_interest = Bytes.empty; out_state = Bytes.empty; next_seq = [||]; applied = [||];
  }

let tree t src group =
  let k = pk src group in
  match Forwarding.find_slot t.trees k with
  | -1 ->
    let g = N.graph t.net in
    let n = Netgraph.Graph.node_count g in
    let slots = Array.length (Netgraph.Graph.csr_neighbors g) in
    let tr =
      {
        id = t.tree_count;
        src;
        group;
        sourced = false;
        seen = Bytes.make n '\000';
        upstream = Array.make n (-1);
        no_interest = Bytes.make slots '\000';
        out_state = Bytes.make slots '\000';
        next_seq = Array.make slots 0;
        applied = Array.make slots 0;
      }
    in
    t.tree_count <- t.tree_count + 1;
    Forwarding.replace t.trees k tr;
    tr
  | i -> Forwarding.value t.trees i

(* The trees of [group] for which [x] holds state, in source order. *)
let known_trees t x group =
  Forwarding.fold
    (fun _ tr acc -> if tr.group = group && Bytes.get tr.seen x = '\001' then tr :: acc else acc)
    t.trees []
  |> List.sort (fun a b -> Int.compare a.src b.src)

let slot t x y = Forwarding.link_slot (N.graph t.net) x y
let rpf_upstream t x src = Eventsim.Routes.next_hop_ix (N.routes t.net) ~src:x ~dst:src

let recorded_upstream t tr x =
  if Bytes.get tr.seen x = '\001' then tr.upstream.(x) else rpf_upstream t x tr.src

let ensure_seen t tr x =
  if Bytes.get tr.seen x = '\000' then begin
    Bytes.set tr.seen x '\001';
    tr.upstream.(x) <- rpf_upstream t x tr.src
  end

let wants tr i _ = Bytes.unsafe_get tr.no_interest i = '\000'

(* A router is interested in (src, group) data when it has a member
   host or any non-upstream neighbour that has not synced no-interest
   (dense-mode default: a silent neighbour is assumed interested). *)
let interested t tr x =
  is_member t ~group:tr.group x
  || Forwarding.any_neighbour (N.graph t.net) ~x ~from:(recorded_upstream t tr x)
       ~keep:wants tr

let forward t tr x ~from msg = ignore (Forwarding.fan_out t.net ~x ~from ~keep:wants tr msg)

(* What [x] last told [y]: a sync in flight carries the same interest
   as [out_state], which every send updates. *)
let send_sync t tr x ~to_:y ~interested =
  ensure_seen t tr x;
  let i = slot t x y in
  let told = Bytes.get tr.out_state i in
  if told = '\000' || (told = '\002') <> interested then begin
    let seq = tr.next_seq.(i) + 1 in
    tr.next_seq.(i) <- seq;
    Bytes.set tr.out_state i (if interested then '\002' else '\001');
    t.syncs <- t.syncs + 1;
    Sync.send t.pending
      ((tr.id lsl 32) lor i)
      {
        from = x;
        dst = y;
        seq;
        msg = Message.Hpim_sync { group = tr.group; src = tr.src; from = x; seq; interested };
      }
  end

(* Re-sync this router's interest toward its RPF upstream if what the
   upstream believes (last sync, or the implicit dense-mode interest)
   no longer matches. Cascades: the upstream re-evaluates on apply. *)
let sync_upstream t tr x =
  match recorded_upstream t tr x with
  | -1 -> ()
  | up ->
    let want = interested t tr x in
    let told = Bytes.get tr.out_state (slot t x up) <> '\001' in
    if told <> want then send_sync t tr x ~to_:up ~interested:want

let handle_data t x ~from group src seq msg =
  let tr = tree t src group in
  ensure_seen t tr x;
  if tr.upstream.(x) = from then begin
    if is_member t ~group x then Delivery.record t.delivery ~seq ~at_router:x;
    forward t tr x ~from msg;
    (* A router with nothing downstream and no members withdraws — once;
       the hard no-interest state never expires upstream. *)
    sync_upstream t tr x
  end
  else
    (* Non-RPF arrival: reliably tell that neighbour to stop. *)
    send_sync t tr x ~to_:from ~interested:false

let handle_sync t x ~from group src seq interested =
  N.transmit t.net ~src:x ~dst:from (Message.Hpim_ack { group; src; from = x; seq });
  let tr = tree t src group in
  let i = slot t x from in
  if seq > tr.applied.(i) then begin
    tr.applied.(i) <- seq;
    ensure_seen t tr x;
    let flag = if interested then '\000' else '\001' in
    if Bytes.get tr.no_interest i <> flag then begin
      Bytes.set tr.no_interest i flag;
      t.no_interest_links <- (t.no_interest_links + if interested then -1 else 1)
    end;
    sync_upstream t tr x
  end

let handle_ack t x ~from group src seq =
  match Forwarding.find_slot t.trees (pk src group) with
  | -1 -> ()
  | j -> (
    let key = ((Forwarding.value t.trees j).id lsl 32) lor slot t x from in
    match Sync.find t.pending key with
    | Some s when s.seq = seq ->
      Sync.ack t.pending key;
      t.acks <- t.acks + 1
    | Some _ | None -> ())

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

(* All trees, ordered by (source, group). *)
let sorted_trees t =
  Forwarding.fold (fun k tr acc -> (k, tr) :: acc) t.trees []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  |> List.map snd

(* Route reconvergence: every router re-derives its RPF upstream for
   every tree it holds state for, and re-syncs interest toward the new
   parent, in (router, source, group) order. A pruned new parent
   necessarily heard this router's earlier no-interest sync, so
   [sync_upstream]'s told/want comparison issues the graft that
   re-opens the path; the cascade restores the chain up to the source
   without any re-flood. *)
let handle_topology_change t =
  let trees = sorted_trees t in
  for x = 0 to Netgraph.Graph.node_count (N.graph t.net) - 1 do
    List.iter
      (fun tr ->
        if Bytes.get tr.seen x = '\001' then begin
          let now = rpf_upstream t x tr.src in
          if tr.upstream.(x) <> now then begin
            tr.upstream.(x) <- now;
            sync_upstream t tr x
          end
        end)
      trees
  done

(* A lost sync must be able to wake the engine back up, so its timers
   run in the foreground; the attempt bound keeps a permanently
   partitioned peer from holding the run alive forever. *)
let create ~delivery net () =
  (* base timeout in simulated seconds, doubling per attempt, and the
     sends one sync may take *)
  let rto = 0.6 and max_attempts = 8 in
  let g = N.graph net in
  let t =
    {
      net;
      member = Forwarding.map ();
      trees = Forwarding.map no_tree;
      tree_count = 0;
      no_interest_links = 0;
      pending =
        Sync.create (N.engine net) ~rto ~max_attempts
          ~rtt:(fun _ _ -> 0.0)
          ~resend:(fun _ s -> N.transmit net ~src:s.from ~dst:s.dst s.msg)
          ~settled:(fun _ _ -> false)
          ~give_up:(fun _ _ -> ());
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

let host_join t ~group x =
  Forwarding.replace t.member (pk x group) ();
  (* Hard state means no re-flood will find this member: graft into
     every known source tree explicitly. *)
  List.iter (fun tr -> sync_upstream t tr x) (known_trees t x group)

let host_leave t ~group x =
  Forwarding.remove t.member (pk x group);
  List.iter (fun tr -> sync_upstream t tr x) (known_trees t x group)

let send_data t ~group ~src ~seq =
  let tr = tree t src group in
  tr.sourced <- true;
  ensure_seen t tr src;
  forward t tr src ~from:(-1) (Message.Data { group; src; seq })

let no_interest_links t = t.no_interest_links

(* Static replay of the forwarding rules on the quiesced network: a
   router accepts (src, group) data iff its RPF upstream accepts and
   has not been told no-interest by it. Every member the live topology
   connects to the source must be in the accepting set. *)
let verify t =
  let g = N.graph t.net in
  let n = Netgraph.Graph.node_count g in
  let told_no t tr u x =
    match slot t u x with -1 -> false | i -> Bytes.get tr.no_interest i = '\001'
  in
  let errors =
    List.concat_map
      (fun tr ->
        let src = tr.src and group = tr.group in
        let accept = Array.make n false in
        if src < n then accept.(src) <- true;
        let changed = ref true in
        while !changed do
          changed := false;
          for x = 0 to n - 1 do
            if not accept.(x) then begin
              let u = recorded_upstream t tr x in
              if u >= 0 && accept.(u) && (not (told_no t tr u x)) && N.link_alive t.net u x
              then begin
                accept.(x) <- true;
                changed := true
              end
            end
          done
        done;
        Forwarding.fold
          (fun k () acc -> if Forwarding.pk_lo k = group then Forwarding.pk_hi k :: acc else acc)
          t.member []
        |> List.sort Int.compare
        |> List.filter_map (fun m ->
               if accept.(m) || rpf_upstream t m src = -1 then None
               else
                 Some
                   (Printf.sprintf
                      "hpim-dm: member %d unreachable on tree (s=%d, g=%d)" m
                      src group)))
      (List.filter (fun tr -> tr.sourced) (sorted_trees t))
  in
  match errors with [] -> Ok () | e :: _ -> Error e

let observe t m =
  let set_c name v = Obs.Metrics.set_counter (Obs.Metrics.counter m name) v in
  set_c "hpim/syncs" t.syncs;
  set_c "hpim/acks" t.acks;
  set_c "hpim/retransmissions" (Sync.retransmissions t.pending);
  let giveups = Sync.giveups t.pending in
  if giveups > 0 then set_c "hpim/giveups" giveups
