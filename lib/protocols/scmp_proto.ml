module N = Eventsim.Netsim

type node = Message.node

(* The hot per-router tables key on one immediate int instead of a
   boxed pair: hashing is a single int mix and equality a word compare,
   with no tuple allocation per probe. [pk x g] packs a node id (well
   below 2^30) above a group id (a 32-bit multicast address — see
   Service.allocate_group); the node always rides in the high field so
   the group's full 32 bits fit below it. *)
let pk x g = (x lsl 32) lor g
let pk_hi k = k lsr 32
let pk_lo k = k land 0xFFFF_FFFF

(* Int-specialized membership: [List.mem] pays a polymorphic-compare
   call per element, and the forwarding sets it scans sit on the
   per-packet data path. *)
let rec mem_int (x : int) = function
  | [] -> false
  | y :: rest -> y = x || mem_int x rest

(* Int-keyed hashtable for the packed-key tables: the polymorphic
   [Hashtbl] pays a C call for hashing and another per probe for
   structural equality; here both are straight-line OCaml. The mixer
   folds the node field (bits 32+) into the low bits [key_index]
   actually uses. *)
module Int_key = struct
  type t = int

  let equal (a : int) b = a = b
  let hash k = (k lxor (k lsr 29)) * 0x9E3779B1 land max_int
end

module IT = Hashtbl.Make (Int_key)

(* Both reliable windows key on immediate ints: DR requests on
   [pk dr group], frames on their token (so a window's oldest-send-first
   order is ascending token order). *)
module Rel = Reliable.Make (Int_key)

type distribution = Incremental | Always_full_tree

type entry = {
  mutable upstream : node option;
  mutable downstream : node list;
  mutable member : bool;
  mutable ep : int;  (* authority epoch the adjacency was installed under *)
}

(* One m-router authority: the primary, or the standby once it took
   over. During a partition both can be active at once — the genuine
   split-brain — so each keeps its own DCDM state, membership roster
   and duplicate-suppression watermarks; the epoch number decides whose
   regime survives the heal. *)
type authority = {
  an : node;
  mutable a_active : bool;
  mutable a_epoch : int;
  mutable a_failed : bool;  (* protocol-level crash: deaf and excised *)
  a_dcdm : (Message.group, Mtree.Dcdm.t) Hashtbl.t;
  a_members : (Message.group, node list ref) Hashtbl.t;
  a_seen : int IT.t;  (* key = [pk dr group] *)
      (* duplicate suppression: highest request seq per (group, dr) *)
}

(* Hot-standby state (paper's concluding remark 4): the secondary
   m-router mirrors the primary's group state from replication messages
   and probes it with heartbeats; when acks stop it takes over. *)
type standby = {
  sb_node : node;
  sb_auth : authority;
  heartbeat_interval : float;
  takeover_after : float;  (* silence that triggers takeover *)
  (* Mirrored membership, in original join order per group. *)
  mirror : (Message.group, node list ref) Hashtbl.t;
  mutable last_ack : float;
  mutable hb_seq : int;
}

(* One reliable frame in flight: hop-by-hop TREE/BRANCH/PRUNE framing
   ([f_routed = false]; the neighbour acks the token back over the
   link) or a routed end-to-end INVALIDATE/RESYNC ([f_routed = true];
   the target acks over unicast). *)
type frame = {
  f_src : node;
  f_dst : node;
  f_routed : bool;
  f_msg : Message.t;
}

type t = {
  net : Message.t N.t;
  primary : node;
  primary_auth : authority;
  mutable active : node;
      (* node of the highest-epoch active authority — the m-router the
         *global* observer considers in charge *)
  standby : standby option;
  mutable apsp : Netgraph.Apsp.t;  (* recomputed on takeover and topology change *)
  base_apsp : Netgraph.Apsp.t;
      (* the unfiltered table over the base graph, also lent to the
         unicast routes cache: [apsp] whenever the overlay is clean *)
  distribution : distribution;
  cpu : (Eventsim.Server.t * float) option;
      (* control-plane processing station + per-request service time *)
  rto : float;  (* the windows' base timeout; repair polls run at half of it *)
  (* Split-brain fencing: the highest epoch each router has adopted and
     the authority it consequently addresses. [epoch_owner] maps an
     epoch to the authority that claimed it (filled at takeover). *)
  node_epoch : int array;
  view : node array;
  epoch_owner : (int, node) Hashtbl.t;
  entries : entry IT.t;  (* key = [pk router group] *)
  pending_iface : unit IT.t;  (* key = [pk router group] *)
  (* Reliable control transport. *)
  mutable ctl_seq : int;  (* request sequence numbers, network-wide *)
  requests : Message.t Rel.t;  (* key = [pk dr group] *)
      (* latest outstanding JOIN/LEAVE/GRAFT per (dr, group); a new
         request supersedes the old one *)
  mutable tokens : int;  (* reliable-frame token allocator *)
  frames : frame Rel.t;  (* outstanding frames by token *)
  rel_seen : (int, unit) Hashtbl.t;  (* receiver-side duplicate filter *)
  dead_letters : (Message.group * node) list ref;
      (* invalidations abandoned while their target was unreachable;
         retried by the active authority once connectivity returns, so
         a long partition cannot strand a stale entry past its heal *)
  delivery : Delivery.t option;
  (* Blackout tracking: groups dark since a fault, cleared by the first
     delivery that reaches a member again. *)
  dark : (Message.group, float) Hashtbl.t;
  mutable blackouts : float list;  (* newest first, sim seconds *)
  (* observability: m-router distribution and compute cost (§III.E and
     the related-work motivation for tracking centralized tree
     computation) *)
  mutable tree_pkts : int;        (* TREE packets emitted by the m-router *)
  mutable branch_pkts : int;      (* BRANCH packets emitted *)
  mutable invalidations : int;    (* invalidations issued *)
  mutable tree_computes : int;    (* DCDM create/join/leave operations *)
  mutable tree_compute_s : float; (* their accumulated wall-clock cost *)
  (* repair accounting *)
  mutable repairs : int;          (* post-failure tree rebuilds *)
  mutable repair_unconverged : int;
  mutable repair_latencies : float list;  (* newest first, sim seconds *)
  (* split-brain accounting *)
  mutable fenced : int;     (* stale-epoch frames dropped *)
  mutable stepdowns : int;  (* authorities deposed by a higher epoch *)
  mutable resyncs : int;    (* per-group resyncs sent on step-down *)
}

type stats = {
  tree_packets : int;
  branch_packets : int;
  invalidations : int;
  tree_computes : int;
  tree_compute_wall_s : float;
  retransmissions : int;
  giveups : int;
  repairs : int;
  epoch : int;
  fenced : int;
  stepdowns : int;
  resyncs : int;
}

(* ---- authority bookkeeping ---- *)

let auth_at t x =
  if x = t.primary then Some t.primary_auth
  else
    match t.standby with
    | Some sb when sb.sb_node = x -> Some sb.sb_auth
    | Some _ | None -> None

let authorities t =
  t.primary_auth
  :: (match t.standby with Some sb -> [ sb.sb_auth ] | None -> [])

let is_active_root t x =
  match auth_at t x with Some a -> a.a_active | None -> false

(* [t.active] always names an authority node, so the fallback arm is
   unreachable; it keeps the function total. *)
let active_auth t =
  match auth_at t t.active with Some a -> a | None -> t.primary_auth

let active_epoch t = (active_auth t).a_epoch

(* Request + frame resends, and requests/frames abandoned. *)
let retransmissions t =
  Rel.retransmissions t.requests + Rel.retransmissions t.frames

let giveups t = Rel.giveups t.requests + Rel.giveups t.frames

let stats t =
  {
    tree_packets = t.tree_pkts;
    branch_packets = t.branch_pkts;
    invalidations = t.invalidations;
    tree_computes = t.tree_computes;
    tree_compute_wall_s = t.tree_compute_s;
    retransmissions = retransmissions t;
    giveups = giveups t;
    repairs = t.repairs;
    epoch = active_epoch t;
    fenced = t.fenced;
    stepdowns = t.stepdowns;
    resyncs = t.resyncs;
  }

(* Every DCDM operation at the m-router passes through here, so the
   report's tree-compute cost covers group creation, joins, leaves and
   standby-takeover rebuilds alike. *)
let timed_compute (t : t) f =
  let v, elapsed = Obs.Clock.time f in
  t.tree_computes <- t.tree_computes + 1;
  t.tree_compute_s <- t.tree_compute_s +. elapsed;
  v

let observe t m =
  let set_c name v = Obs.Metrics.set_counter (Obs.Metrics.counter m name) v in
  set_c "scmp/tree_packets" t.tree_pkts;
  set_c "scmp/branch_packets" t.branch_pkts;
  set_c "scmp/invalidations" t.invalidations;
  set_c "scmp/tree_computes" t.tree_computes;
  set_c "scmp/retransmissions" (retransmissions t);
  set_c "scmp/giveups" (giveups t);
  set_c "scmp/repair/count" t.repairs;
  set_c "scmp/repair/unconverged" t.repair_unconverged;
  let h = Obs.Metrics.histogram m "scmp/repair/latency_s" in
  List.iter (Obs.Metrics.observe h) (List.rev t.repair_latencies);
  (* The fencing metrics appear only once an epoch bump or a fenced
     frame actually happened, so fault-free reports are byte-identical
     to the pre-epoch format. *)
  if active_epoch t > 1 then set_c "scmp/epoch" (active_epoch t);
  if t.fenced > 0 then set_c "scmp/fenced" t.fenced;
  if t.stepdowns > 0 then set_c "scmp/stepdowns" t.stepdowns;
  if t.resyncs > 0 then set_c "scmp/resyncs" t.resyncs;
  if t.blackouts <> [] then begin
    let b = Obs.Metrics.histogram m "scmp/blackout_s" in
    List.iter (Obs.Metrics.observe b) (List.rev t.blackouts)
  end;
  Obs.Metrics.set
    (Obs.Metrics.gauge ~wallclock:true m "scmp/tree_compute_wall_s")
    t.tree_compute_s

let mrouter t = t.active

let standby_took_over t =
  match t.standby with Some sb -> sb.sb_auth.a_active | None -> false

let epoch = active_epoch
let blackouts t = List.rev t.blackouts

let active_authorities t =
  List.filter_map
    (fun a -> if a.a_active then Some (a.an, a.a_epoch) else None)
    (authorities t)

(* ---- routing entries ---- *)

let entry_opt t x group = IT.find_opt t.entries (pk x group)

let get_or_create_entry t x group ~ep =
  match entry_opt t x group with
  | Some e -> e
  | None ->
    let member = IT.mem t.pending_iface (pk x group) in
    IT.remove t.pending_iface (pk x group);
    let e = { upstream = None; downstream = []; member; ep } in
    IT.replace t.entries (pk x group) e;
    e

(* First frame of a newer regime at a router: the old regime's
   adjacencies are void (the new authority rebuilt the tree from
   scratch), but the member flag persists — host membership is IGMP
   ground truth, not authority state. *)
let entry_for_epoch t x group epoch =
  let e = get_or_create_entry t x group ~ep:epoch in
  if epoch > e.ep then begin
    e.upstream <- None;
    e.downstream <- [];
    e.ep <- epoch
  end;
  e

let authority_entry t a group = entry_for_epoch t a.an group a.a_epoch

let drop_entry t x group = IT.remove t.entries (pk x group)

(* ---- blackout bookkeeping ---- *)

let darken t group ~at =
  if not (Hashtbl.mem t.dark group) then Hashtbl.replace t.dark group at

let record_delivery t group x seq =
  (match Hashtbl.find_opt t.dark group with
  | Some fault_at ->
    Hashtbl.remove t.dark group;
    t.blackouts <-
      (Eventsim.Engine.now (N.engine t.net) -. fault_at) :: t.blackouts
  | None -> ());
  match t.delivery with
  | Some d -> Delivery.record d ~seq ~at_router:x
  | None -> ()

(* Membership roster bookkeeping, shared by the active m-router and the
   standby's mirror: join order preserved, duplicates collapsed. *)
let roster_apply table group dr joined =
  let members =
    match Hashtbl.find_opt table group with
    | Some r -> r
    | None ->
      let r = ref [] in
      Hashtbl.replace table group r;
      r
  in
  if joined then begin
    if not (List.mem dr !members) then members := !members @ [ dr ]
  end
  else members := List.filter (fun m -> m <> dr) !members

let roster table group =
  match Hashtbl.find_opt table group with Some r -> !r | None -> []

(* ---- reliable frame transport ---- *)

let resend_frame net _token f =
  if f.f_routed then N.unicast net ~src:f.f_src ~dst:f.f_dst f.f_msg
  else N.transmit net ~src:f.f_src ~dst:f.f_dst f.f_msg

(* A routed INVALIDATE abandoned while its target was unreachable
   becomes a dead letter, retried once connectivity returns. *)
let dead_letter dead_letters _token f =
  match f.f_msg with
  | Message.Scmp_invalidate { group; _ } when f.f_routed ->
    dead_letters := (group, f.f_dst) :: !dead_letters
  | _ -> ()

let next_token t =
  t.tokens <- t.tokens + 1;
  t.tokens

let rel_send t ~routed ~src ~dst token msg =
  Rel.send t.frames token { f_src = src; f_dst = dst; f_routed = routed; f_msg = msg }

(* One-hop reliable send of a tree-maintenance message: framed with a
   fresh token the neighbour acks back over the same link. *)
let rel_transmit t ~src ~dst inner =
  let token = next_token t in
  rel_send t ~routed:false ~src ~dst token (Message.Scmp_reliable { token; inner })

(* ---- epoch fencing (split-brain) ---- *)

let fence (t : t) x epoch =
  if epoch < t.node_epoch.(x) then begin
    t.fenced <- t.fenced + 1;
    true
  end
  else false

(* A deposed authority hands its accumulated state to the new regime:
   one routed-reliable RESYNC per group carrying roster, departures,
   sequence watermarks and the old tree's relays. *)
let step_down (t : t) a ~epoch =
  if a.a_active then begin
    a.a_active <- false;
    t.stepdowns <- t.stepdowns + 1;
    let owner = t.view.(a.an) in
    let groups =
      (* sorted before use, so table order never escapes *)
      Hashtbl.fold
        (fun g _ acc -> g :: acc)
        a.a_members []
      |> List.sort_uniq Int.compare
    in
    List.iter
      (fun group ->
        let members = roster a.a_members group in
        let seen =
          (* sorted before use, so table order never escapes *)
          IT.fold
            (fun k s acc ->
              if pk_lo k = group then (pk_hi k, s) :: acc else acc)
            a.a_seen []
          |> List.sort (fun (d1, _) (d2, _) -> Int.compare d1 d2)
        in
        let left =
          List.filter (fun (dr, _) -> not (List.mem dr members)) seen
          |> List.map fst
        in
        let relays =
          match Hashtbl.find_opt a.a_dcdm group with
          | Some d ->
            List.sort Int.compare (Mtree.Tree.nodes (Mtree.Dcdm.tree d))
          | None -> []
        in
        t.resyncs <- t.resyncs + 1;
        let token = next_token t in
        rel_send t ~routed:true ~src:a.an ~dst:owner token
          (Message.Scmp_resync
             { group; token; members; left; seen; relays; epoch }))
      groups
  end

(* Adopt a higher epoch at router [x]: re-target its view to the
   epoch's owner and, if [x] itself hosts a stale active authority,
   depose it. *)
let adopt t x ep =
  if ep > t.node_epoch.(x) then begin
    t.node_epoch.(x) <- ep;
    match Hashtbl.find_opt t.epoch_owner ep with
    | None -> ()
    | Some owner ->
      t.view.(x) <- owner;
      (match auth_at t x with
      | Some a when a.a_active && a.a_epoch < ep -> step_down t a ~epoch:ep
      | Some _ | None -> ())
  end

(* Is the authority this router currently addresses worth talking to? *)
let view_up t x =
  let v = t.view.(x) in
  N.node_alive t.net v
  && (match auth_at t v with Some a -> not a.a_failed | None -> true)

(* ---- data plane (§III.F) ---- *)

let handle_data t x ~from msg group seq =
  match entry_opt t x group with
  | None -> ()
  | Some e ->
    (* [forward_set], inline and allocation-free: membership and the
       forwarding sweep read upstream/downstream directly, in the same
       order the materialized list would ([upstream] first). *)
    let from_upstream = match e.upstream with Some u -> u = from | None -> false in
    if from_upstream || mem_int from e.downstream then begin
      (match e.upstream with
      | Some u when u <> from -> N.transmit t.net ~src:x ~dst:u msg
      | Some _ | None -> ());
      List.iter
        (fun y -> if y <> from then N.transmit t.net ~src:x ~dst:y msg)
        e.downstream;
      if e.member then record_delivery t group x seq
    end
(* else: not from the F set — drop (§III.F). *)

let originate_data t group ~src ~seq =
  let msg = Message.Data { group; src; seq } in
  match entry_opt t src group with
  | Some e when e.upstream <> None || e.downstream <> [] || is_active_root t src ->
    (match e.upstream with
    | Some u -> N.transmit t.net ~src ~dst:u msg
    | None -> ());
    List.iter (fun y -> N.transmit t.net ~src ~dst:y msg) e.downstream
    (* The origin's own subnet receives the packet locally; the runner
       never counts the source among expected receivers. *)
  | Some _ | None ->
    N.unicast t.net ~src ~dst:t.view.(src) (Message.Encap { group; src; seq })

let handle_encap t a group src seq =
  (* Only an active m-router decapsulates (§III.F). *)
  match entry_opt t a.an group with
  | None -> ()
  | Some e ->
    let msg = Message.Data { group; src; seq } in
    List.iter (fun y -> N.transmit t.net ~src:a.an ~dst:y msg) e.downstream;
    if e.member then record_delivery t group a.an seq

(* ---- tree distribution (§III.E) ---- *)

(* Root-to-node tree path, root excluded: the BRANCH packet "from the
   current router to the new group member" the m-router emits. *)
let tree_path_from_root tree dr =
  let rec climb x acc =
    match Mtree.Tree.parent tree x with
    | None -> acc
    | Some p -> climb p (x :: acc)
  in
  climb dr []

let distribute_branch t a group tree dr =
  match tree_path_from_root tree dr with
  | [] -> ()
  | first :: _ as path ->
    let root_entry = authority_entry t a group in
    if not (mem_int first root_entry.downstream) then
      root_entry.downstream <- root_entry.downstream @ [ first ];
    t.branch_pkts <- t.branch_pkts + 1;
    rel_transmit t ~src:a.an ~dst:first
      (Message.Scmp_branch { group; epoch = a.a_epoch; path })

let send_invalidate (t : t) a group x =
  t.invalidations <- t.invalidations + 1;
  let token = next_token t in
  rel_send t ~routed:true ~src:a.an ~dst:x token
    (Message.Scmp_invalidate { group; token; epoch = a.a_epoch })

let distribute_tree t a group tree removed_nodes =
  (* Invalidations still in flight for routers the new tree re-admits
     must die now: they carry the current epoch, so fencing cannot stop
     them, and a retry landing after this distribution (e.g. queued
     toward an unreachable router during a partition, delivered after
     the heal's rebuild) would wipe the entry it just installed. *)
  Rel.cancel_if t.frames (fun _ f ->
      match f.f_msg with
      | Message.Scmp_invalidate { group = g; _ } ->
        f.f_routed && g = group && Mtree.Tree.on_tree tree f.f_dst
      | _ -> false);
  let root_entry = authority_entry t a group in
  let children = Mtree.Tree.children tree a.an in
  root_entry.downstream <- children;
  List.iter
    (fun c ->
      let packet = Tree_packet.of_tree tree ~at:c in
      t.tree_pkts <- t.tree_pkts + 1;
      rel_transmit t ~src:a.an ~dst:c
        (Message.Scmp_tree { group; epoch = a.a_epoch; packet }))
    children;
  List.iter
    (fun x -> if x <> a.an then send_invalidate t a group x)
    removed_nodes

let group_state t a group =
  match Hashtbl.find_opt a.a_dcdm group with
  | Some d -> d
  | None ->
    let d =
      timed_compute t (fun () ->
          Mtree.Dcdm.create t.apsp ~root:a.an ~bound:Mtree.Bound.Tightest ())
    in
    Hashtbl.replace a.a_dcdm group d;
    (* The root's own routing entry exists from group creation on. *)
    ignore (authority_entry t a group);
    d

(* ---- hot standby (concluding remarks, point 4) ---- *)

let replicate t a group dr joined =
  match t.standby with
  | None -> ()
  | Some sb ->
    if sb.sb_node <> a.an then
      N.unicast t.net ~src:a.an ~dst:sb.sb_node
        (Message.Scmp_replicate { group; dr; joined; epoch = a.a_epoch })

let mirror_apply sb group dr joined = roster_apply sb.mirror group dr joined

(* A fresh APSP table over the topology the m-routers can actually
   build trees over: live links only, minus the links of any authority
   that failed at the protocol level (its node is still up for the
   netsim, but the domain routes around it by detection time). The
   table is lazy, so the overlay is *snapshotted* here — a later query
   must answer as of this instant, exactly like the eager
   materialization it replaces, even if further faults land before the
   query (every such fault triggers a new snapshot through
   on_topology_change anyway). With every edge live the filter would
   accept everything, and an all-accepting filter is byte-identical to
   none, so the clean case goes back to [base_apsp]: its memoized SPTs
   are the ones the routes cache borrows, and no filtered copy is
   built. *)
let fresh_apsp t =
  let g = N.graph t.net in
  let failed = List.filter (fun a -> a.a_failed) (authorities t) in
  (* Per-edge liveness captured into a dense array: alive in the
     overlay now, and not incident to a protocol-level-failed
     authority. *)
  let ok =
    Array.init (Netgraph.Graph.edge_count g) (fun e ->
        N.edge_alive t.net e
        && not
             (List.exists
                (fun a ->
                  Netgraph.Graph.edge_u g e = a.an
                  || Netgraph.Graph.edge_v g e = a.an)
                failed))
  in
  if Array.for_all Fun.id ok then t.base_apsp
  else Netgraph.Apsp.compute ~edge_ok:(Array.get ok) g

(* Rebuild one group's tree from a membership roster over the current
   [t.apsp], redistribute it, and invalidate the routers the new tree
   abandoned. Shared by standby takeover and post-failure repair;
   [?prior] names the authority whose old tree supplies the
   before-nodes when the rebuilding authority has none of its own (a
   takeover reading the deposed primary's replicated state). *)
let rebuild_group t a ?prior group members_now =
  let tree_nodes_of b =
    match Hashtbl.find_opt b.a_dcdm group with
    | Some d -> Mtree.Tree.nodes (Mtree.Dcdm.tree d)
    | None -> []
  in
  let before =
    match prior with Some b -> tree_nodes_of b | None -> tree_nodes_of a
  in
  let d =
    timed_compute t (fun () ->
        Mtree.Dcdm.create t.apsp ~root:a.an ~bound:Mtree.Bound.Tightest ())
  in
  Hashtbl.replace a.a_dcdm group d;
  ignore (authority_entry t a group);
  List.iter
    (fun m ->
      (* a member partitioned away is skipped until connectivity
         returns *)
      if Mtree.Dcdm.reaches d m then
        timed_compute t (fun () -> Mtree.Dcdm.join d m))
    members_now;
  let tree = Mtree.Dcdm.tree d in
  let stale =
    List.filter
      (fun x -> (not (Mtree.Tree.on_tree tree x)) && N.node_alive t.net x)
      before
  in
  distribute_tree t a group tree stale

(* The standby becomes the m-router: it claims a fresh (highest) epoch,
   rebuilds every group's tree rooted at itself from the mirrored
   membership (replayed in original join order), distributes the new
   trees — stamping every reachable on-tree router with the new epoch —
   and invalidates the routers of the old trees the new ones no longer
   use (the old tree is read from the primary's replicated state).
   Members the partition put out of reach are skipped until
   connectivity returns; a best-effort ANNOUNCE tells every other
   router about the new regime. *)
let takeover t sb =
  let a = sb.sb_auth in
  if not a.a_active then begin
    let ep =
      1 + List.fold_left (fun m x -> max m x.a_epoch) 0 (authorities t)
    in
    a.a_active <- true;
    a.a_epoch <- ep;
    Hashtbl.replace t.epoch_owner ep sb.sb_node;
    t.node_epoch.(sb.sb_node) <- ep;
    t.view.(sb.sb_node) <- sb.sb_node;
    t.active <- sb.sb_node;
    t.apsp <- fresh_apsp t;
    let groups =
      (* sorted before use, so table order never escapes *)
      Hashtbl.fold
        (fun group _ acc -> group :: acc)
        sb.mirror []
      |> List.sort Int.compare
    in
    List.iter
      (fun group ->
        let members = roster sb.mirror group in
        List.iter (fun dr -> roster_apply a.a_members group dr true) members;
        (* The group has been dark since the primary last answered. *)
        darken t group ~at:sb.last_ack;
        rebuild_group t a ~prior:t.primary_auth group members)
      groups;
    (* Best-effort announce to every other router (the on-tree ones
       have already adopted the epoch from the TREE distribution); a
       deposed-but-alive primary that misses these learns the epoch
       from the announce retry pinned at heal time. *)
    let n = Netgraph.Graph.node_count (N.graph t.net) in
    for y = 0 to n - 1 do
      if y <> sb.sb_node then
        N.unicast t.net ~background:true ~src:sb.sb_node ~dst:y
          (Message.Scmp_announce { auth = sb.sb_node; epoch = ep })
    done
  end

let maybe_takeover t sb =
  let now = Eventsim.Engine.now (N.engine t.net) in
  if (not sb.sb_auth.a_active) && now -. sb.last_ack > sb.takeover_after then
    takeover t sb

let fail_primary t =
  t.primary_auth.a_failed <- true;
  match t.standby with
  | None -> ()
  | Some sb ->
    (* The silence will be noticed within the takeover window; pin a
       foreground event there so a run-to-quiescence driver observes
       the recovery without needing an explicit time horizon. *)
    Eventsim.Engine.schedule (N.engine t.net)
      ~delay:(sb.takeover_after +. (2.0 *. sb.heartbeat_interval))
      (fun () -> maybe_takeover t sb)

(* ---- m-router control plane ---- *)

(* Both handlers read what the DCDM call changed off the tree's change
   window (see {!Mtree.Tree.mark}): O(touched nodes) per request, where
   a before/after snapshot diff would cost O(tree) or worse. *)
let distribute_restructured t a group tree =
  distribute_tree t a group tree (Mtree.Tree.removed_since_mark tree)

(* A group keeps the APSP table it was created or last rebuilt with,
   so a group whose tree no fault touched may hold a table built under
   an earlier overlay, one that cannot reach [dr]. [Dcdm.join] would
   raise there. The group is then rebuilt over the current [t.apsp]
   from its roster, which holds [dr] already, as a repair rebuilds it:
   [dr] joins if [t.apsp] reaches it, and is skipped until connectivity
   returns if not. The rebuild distributed the whole tree, so the JOIN
   has nothing left to distribute. *)
let handle_join_at_mrouter t a group dr =
  let d = group_state t a group in
  let tree = Mtree.Dcdm.tree d in
  Mtree.Tree.mark tree;
  let joined =
    timed_compute t (fun () ->
        let ok = Mtree.Dcdm.reaches d dr in
        if ok then Mtree.Dcdm.join d dr;
        ok)
  in
  let tree =
    if joined then tree
    else begin
      rebuild_group t a group (roster a.a_members group);
      let tree = Mtree.Dcdm.tree (group_state t a group) in
      Mtree.Tree.mark tree;
      tree
    end
  in
  replicate t a group dr true;
  if dr = a.an then (authority_entry t a group).member <- true
  else
    match t.distribution with
    | Always_full_tree ->
      if Mtree.Tree.edges_changed tree then distribute_restructured t a group tree
    | Incremental ->
      if not (Mtree.Tree.edges_lost tree) then begin
        if Mtree.Tree.edges_gained tree then distribute_branch t a group tree dr
        (* else: dr was already an on-tree relay; its DR marked the
           interface locally, nothing to distribute (§III.B). *)
      end
      else distribute_restructured t a group tree

let handle_leave_at_mrouter t a group dr =
  replicate t a group dr false;
  match Hashtbl.find_opt a.a_dcdm group with
  | None -> ()
  | Some d ->
    let tree = Mtree.Dcdm.tree d in
    Mtree.Tree.mark tree;
    timed_compute t (fun () -> Mtree.Dcdm.leave d dr);
    (* A pure prune needs no distribution: the DR's hop-by-hop PRUNE
       cascade (§III.C) removes exactly the dangling entries. But when
       the departure tightened the delay bound and DCDM re-grafted
       members to honour it, the tree gained edges the cascade knows
       nothing about — distribute the restructured tree, as on a
       loop-eliminating join. *)
    if Mtree.Tree.edges_gained tree then distribute_restructured t a group tree

(* Re-install the root-to-[dr] branch for a member the m-router already
   has on its tree: the response to a re-graft request and to a
   duplicate JOIN whose original BRANCH may have been lost. *)
let reattach t a group dr =
  match Hashtbl.find_opt a.a_dcdm group with
  | None -> ()
  | Some d ->
    let tree = Mtree.Dcdm.tree d in
    if dr <> a.an && Mtree.Tree.on_tree tree dr then
      distribute_branch t a group tree dr

let reprocess_duplicate t a kind group dr =
  match kind with
  | Message.Leave -> ()
  | Message.Join | Message.Graft ->
    (* Only re-distribute for a current member: a stale duplicate that
       straggles in after the member left must not resurrect state. *)
    if List.mem dr (roster a.a_members group) then reattach t a group dr

let request_ack t a kind group dr seq =
  N.unicast t.net ~src:a.an ~dst:dr
    (Message.Scmp_req_ack { group; dr; kind; seq; epoch = a.a_epoch })

let handle_request t a kind group dr seq =
  let dup =
    match IT.find_opt a.a_seen (pk dr group) with
    | Some s -> seq <= s
    | None -> false
  in
  if dup then reprocess_duplicate t a kind group dr
  else begin
    IT.replace a.a_seen (pk dr group) seq;
    match kind with
    | Message.Join ->
      roster_apply a.a_members group dr true;
      handle_join_at_mrouter t a group dr
    | Message.Leave ->
      roster_apply a.a_members group dr false;
      handle_leave_at_mrouter t a group dr
    | Message.Graft -> reattach t a group dr
  end;
  (* Always (re-)ack: the previous ack may be the packet that died. *)
  request_ack t a kind group dr seq

(* A deposed authority's state arrives at the new one: merge by request
   sequence number (a watermark the receiver already passed wins), then
   re-stamp the whole tree under this regime — the routers that just
   became reachable again hold the old regime's adjacencies, and only a
   full TREE distribution reaches all of them — and invalidate the old
   tree's relays the merged tree does not use. *)
let handle_resync t a group ~members ~left ~seen ~relays =
  let d = group_state t a group in
  let theirs dr =
    match List.assoc_opt dr seen with Some s -> s | None -> 0
  in
  let mine dr =
    match IT.find_opt a.a_seen (pk dr group) with Some s -> s | None -> 0
  in
  List.iter
    (fun dr ->
      let s = theirs dr in
      if s > mine dr then begin
        IT.replace a.a_seen (pk dr group) s;
        if not (List.mem dr (roster a.a_members group)) then begin
          roster_apply a.a_members group dr true;
          if Mtree.Dcdm.reaches d dr then
            timed_compute t (fun () -> Mtree.Dcdm.join d dr)
        end
      end)
    members;
  List.iter
    (fun dr ->
      let s = theirs dr in
      if s > mine dr then begin
        IT.replace a.a_seen (pk dr group) s;
        if List.mem dr (roster a.a_members group) then begin
          roster_apply a.a_members group dr false;
          timed_compute t (fun () -> Mtree.Dcdm.leave d dr)
        end
      end)
    left;
  let tree = Mtree.Dcdm.tree d in
  let stale =
    List.filter
      (fun r ->
        r <> a.an
        && (not (Mtree.Tree.on_tree tree r))
        && N.node_alive t.net r)
      relays
    |> List.sort_uniq Int.compare
  in
  distribute_tree t a group tree stale

(* ---- i-router control plane ---- *)

let handle_tree_packet t x ~from ~ep group packet =
  let e = entry_for_epoch t x group ep in
  e.upstream <- Some from;
  let splits = Tree_packet.split packet in
  e.downstream <- List.map fst splits;
  if
    splits = []
    && (not e.member)
    && (not (IT.mem t.pending_iface (pk x group)))
    && not (is_active_root t x)
  then begin
    (* A leaf of a distributed tree is a member by construction (DCDM
       never ends a branch on a relay), so a leaf install with no
       locally-marked interface means the host left while the
       distribution was in flight — its LEAVE is already on its way to
       the m-router. Prune back now; the stale branch would otherwise
       outlive the membership forever (the m-router's pure-prune leave
       path distributes nothing and counts on this cascade). *)
    drop_entry t x group;
    rel_transmit t ~src:x ~dst:from
      (Message.Scmp_prune { group; from = x; epoch = t.node_epoch.(x) })
  end
  else
    List.iter
      (fun (c, sub) ->
        rel_transmit t ~src:x ~dst:c
          (Message.Scmp_tree { group; epoch = ep; packet = sub }))
      splits

let handle_branch t x ~from ~ep group path =
  match path with
  | head :: rest when head = x ->
    let e = entry_for_epoch t x group ep in
    e.upstream <- Some from;
    (match rest with
    | [] ->
      (* The new member's DR: attach the marked interface (§III.B). *)
      if IT.mem t.pending_iface (pk x group) then begin
        IT.remove t.pending_iface (pk x group);
        e.member <- true
      end
      else if (not e.member) && e.downstream = [] && not (is_active_root t x)
      then begin
        (* No marked interface and nothing downstream: the host left
           while this BRANCH was in flight. Same dangling-leaf case as
           an unmarked TREE leaf — prune back immediately. *)
        drop_entry t x group;
        rel_transmit t ~src:x ~dst:from
          (Message.Scmp_prune { group; from = x; epoch = t.node_epoch.(x) })
      end
    | next :: _ ->
      if not (mem_int next e.downstream) then
        e.downstream <- e.downstream @ [ next ];
      rel_transmit t ~src:x ~dst:next
        (Message.Scmp_branch { group; epoch = ep; path = rest }))
  | _ ->
    (* Malformed or misrouted BRANCH: drop. *)
    ()

let handle_prune t x group ~from =
  match entry_opt t x group with
  | None -> ()
  | Some e ->
    e.downstream <- List.filter (fun y -> y <> from) e.downstream;
    if e.downstream = [] && (not e.member) && not (is_active_root t x) then begin
      match e.upstream with
      | Some up ->
        drop_entry t x group;
        rel_transmit t ~src:x ~dst:up
          (Message.Scmp_prune { group; from = x; epoch = t.node_epoch.(x) })
      | None -> drop_entry t x group
    end

(* ---- reliable DR requests (JOIN/LEAVE/GRAFT) ---- *)

(* Every (re-)send targets the DR's *current* view: a request that
   outlives a takeover follows the DR to the new authority as soon as
   an epoch-carrying frame re-pointed it. *)
let resend_request net view key msg =
  let dr = pk_hi key in
  N.unicast net ~src:dr ~dst:view.(dr) msg

(* Requests are acked end-to-end across the domain, so their timer
   must scale with the DR<->m-router round trip, not the one-hop frame
   rto: with a fixed sub-RTT timer every request would retransmit
   several times before the first ack could possibly return, and each
   duplicate JOIN re-triggers a BRANCH distribution. TCP-style: base
   timeout = measured path RTT plus the rto as slack. *)
let request_rtt net view key _msg =
  let dr = pk_hi key in
  let d = Eventsim.Routes.distance (N.routes net) ~src:dr ~dst:view.(dr) in
  if Float.is_finite d then 2.0 *. d else 0.0

(* A GRAFT also completes when its effect becomes observable at the DR
   — arrival of a repaired upstream acts as the ack — so a lost
   explicit ack alone never forces a retransmission. A JOIN must see
   the explicit ack: the DR's own member flag is not evidence, because
   the DR marks the interface optimistically the moment the host joins
   (§III.B) — when the DR already relays for the group, the flag is
   set before the m-router has heard anything, and treating it as
   completion would silently drop a lost JOIN, leaving the m-router's
   tree without the member forever. The request key is the DR's entry
   key. *)
let request_completed entries key msg =
  match msg with
  | Message.Scmp_graft _ -> (
    match IT.find_opt entries key with
    | Some e -> e.upstream <> None
    | None -> true (* invalidated meanwhile: nothing left to repair *))
  | _ -> false

let submit_request t ~group ~dr kind =
  t.ctl_seq <- t.ctl_seq + 1;
  let seq = t.ctl_seq in
  let msg =
    match kind with
    | Message.Join -> Message.Scmp_join { group; dr; seq }
    | Message.Leave -> Message.Scmp_leave { group; dr; seq }
    | Message.Graft -> Message.Scmp_graft { group; dr; seq }
  in
  (* A newer request from the same DR for the same group supersedes the
     outstanding one (e.g. LEAVE overtaking a still-retrying JOIN). *)
  Rel.send t.requests (pk dr group) msg

(* ---- introspection ---- *)

let mrouter_tree t ~group =
  Option.map Mtree.Dcdm.tree (Hashtbl.find_opt (active_auth t).a_dcdm group)

let router_state t x ~group =
  Option.map (fun e -> (e.upstream, e.downstream, e.member)) (entry_opt t x group)

(* Entries the live network can actually observe: a dead node's state,
   a failed m-router's leftovers and routers partitioned away from the
   active m-router are invisible until connectivity returns (and the
   repair that follows cleans them up). *)
let observable t x =
  N.node_alive t.net x
  && (match auth_at t x with Some a -> not a.a_failed | None -> true)
  && (x = t.active
     || Eventsim.Routes.distance (N.routes t.net) ~src:t.active ~dst:x < infinity)

(* ---- invariant snapshots (lib/check bridge) ---- *)

let groups t =
  Hashtbl.fold (fun g _ acc -> g :: acc) (active_auth t).a_dcdm []
  |> List.sort Int.compare

let snapshot t ~group =
  let entries =
    IT.fold
      (fun k e acc ->
        (* Dead routers, a failed m-router's leftovers and partitioned
           routers hold state the live network cannot observe; the
           verifier skips them. *)
        let x = pk_hi k in
        if pk_lo k = group && observable t x then
          {
            Check.Invariant.router = x;
            upstream = e.upstream;
            downstream = e.downstream;
            member = e.member;
            epoch = e.ep;
          }
          :: acc
        else acc)
      t.entries []
    |> List.sort (fun a b ->
           Int.compare a.Check.Invariant.router b.Check.Invariant.router)
  in
  let limit =
    match Hashtbl.find_opt (active_auth t).a_dcdm group with
    | Some d -> Mtree.Dcdm.current_limit d
    | None -> infinity
  in
  {
    Check.Invariant.group;
    mrouter = t.active;
    auth_epoch = active_epoch t;
    tree = Option.map Check.Invariant.view (mrouter_tree t ~group);
    limit;
    entries;
    dead_links = N.dead_link_list t.net;
  }

let snapshots t = List.map (fun group -> snapshot t ~group) (groups t)

let verify t = Check.Invariant.verify_all (snapshots t)

(* I3 (entry/tree coherence) over the observable state: the repair
   poll's convergence test and the tests' quiesced-state check. *)
let network_tree_consistent t ~group =
  match Check.Invariant.check_coherence (snapshot t ~group) with
  | [] -> Ok ()
  | vs -> Error (Check.Invariant.report_to_string vs)

(* ---- failure detection and tree repair ---- *)

let tree_uses_dead_element t tree =
  List.exists (fun (a, b) -> not (N.link_alive t.net a b)) (Mtree.Tree.edges tree)

(* Reliable frames whose link (or routed destination) died will never
   be acked: abandon them now instead of letting the retry chain play
   out over a dead link. *)
let abort_dead_rel t =
  Rel.abort_if t.frames (fun _ f ->
      if f.f_routed then not (N.node_alive t.net f.f_dst)
      else not (N.link_alive t.net f.f_src f.f_dst))

(* After a repair is distributed, watch the network until the group's
   distributed state coheres again and record the latency (sim time
   from the fault); bounded, so a repair that cannot converge (e.g. a
   member permanently partitioned) ends in [repair_unconverged], not in
   an immortal poll. *)
let rec poll_repair t group ~fault_time ~polls =
  Eventsim.Engine.schedule (N.engine t.net) ~delay:(t.rto /. 2.0) (fun () ->
      match network_tree_consistent t ~group with
      | Ok () ->
        t.repair_latencies <-
          (Eventsim.Engine.now (N.engine t.net) -. fault_time)
          :: t.repair_latencies
      | Error _ ->
        if polls < 200 then poll_repair t group ~fault_time ~polls:(polls + 1)
        else t.repair_unconverged <- t.repair_unconverged + 1)

let repair_group t a group ~at =
  rebuild_group t a group (roster a.a_members group);
  t.repairs <- t.repairs + 1;
  (* Availability and convergence are tracked from the global
     observer's perspective: only the highest-epoch authority's repairs
     darken the group and poll for coherence. *)
  if a.an = t.active then begin
    darken t group ~at;
    poll_repair t group ~fault_time:at ~polls:0
  end

(* The faults hook: runs synchronously after every topology change,
   once routes have reconverged. A crashed router loses its soft state;
   every live active authority rebuilds the groups whose tree crosses a
   dead element or misses a live roster member (a member skipped while
   partitioned re-attaches when connectivity returns — during a
   split-brain *both* sides repair their own regime); i-routers sever
   dead adjacencies and member DRs whose upstream died ask their
   current view to re-graft them (§III.D adapted). The hook also drives
   failure detection: a standby that lost its route to the primary pins
   a takeover check, and a healed path to a deposed-but-active primary
   pins the announce that makes it step down. *)
let on_topology_change t =
  abort_dead_rel t;
  t.apsp <- fresh_apsp t;
  (* A crashed router reboots without its soft state; the attached
     host's membership outlives the crash, so a member DR's interface
     goes back to pending (IGMP re-marks it) and the next distribution
     that reaches the router re-attaches it. *)
  let crashed =
    (* keyed removal/re-mark only: each element touches its own key,
       so processing order is immaterial *)
    IT.fold
      (fun key e acc ->
        if N.node_alive t.net (pk_hi key) then acc
        else (key, e.member) :: acc)
      t.entries []
  in
  List.iter
    (fun (key, was_member) ->
      IT.remove t.entries key;
      if was_member then IT.replace t.pending_iface key ())
    crashed;
  let now = Eventsim.Engine.now (N.engine t.net) in
  List.iter
    (fun a ->
      if a.a_active && (not a.a_failed) && N.node_alive t.net a.an then begin
        let stale_groups =
          (* sorted before use, so table order never escapes *)
          Hashtbl.fold
            (fun group d acc ->
              let tree = Mtree.Dcdm.tree d in
              if
                tree_uses_dead_element t tree
                || List.exists
                     (fun m ->
                       N.node_alive t.net m && not (Mtree.Tree.on_tree tree m))
                     (roster a.a_members group)
                (* The authority's own root entry is gone: its node
                   crashed and rebooted, so neighbours severed their
                   adjacencies while it was dark. The membership
                   database survives the reboot; rebuild from it and
                   redistribute so the whole network re-installs. *)
                || not (IT.mem t.entries (pk a.an group))
              then group :: acc
              else acc)
            a.a_dcdm []
          |> List.sort Int.compare
        in
        List.iter (fun group -> repair_group t a group ~at:now) stale_groups
      end)
    (authorities t);
  (* i-router side: drop adjacencies that no longer exist. Collect
     grafts first, in deterministic order. *)
  let grafts = ref [] in
  (* the collected grafts are sorted (router, group) before dispatch
     below, so collection order never escapes *)
  IT.iter
    (fun k e ->
      let x = pk_hi k and group = pk_lo k in
      if N.node_alive t.net x then begin
        e.downstream <- List.filter (fun c -> N.link_alive t.net x c) e.downstream;
        match e.upstream with
        | Some up when not (N.link_alive t.net x up) ->
          e.upstream <- None;
          if e.member && (not (is_active_root t x)) && view_up t x then
            grafts := (x, group) :: !grafts
        | Some _ | None -> ()
      end)
    t.entries;
  List.iter
    (fun (x, group) -> submit_request t ~group ~dr:x Message.Graft)
    (List.sort
       (fun (x1, g1) (x2, g2) ->
         match Int.compare x1 x2 with 0 -> Int.compare g1 g2 | c -> c)
       !grafts);
  (* Dead-letter retry: invalidations abandoned while their target was
     unreachable go out again once the active authority can route to it
     — unless the target ended up on the current tree, where the
     redistribution just re-stamped it. *)
  (let a = active_auth t in
   if a.a_active && (not a.a_failed) && N.node_alive t.net a.an then begin
     let reachable x =
       N.node_alive t.net x
       && Eventsim.Routes.distance (N.routes t.net) ~src:a.an ~dst:x < infinity
     in
     let retry, keep =
       List.partition (fun (_, x) -> reachable x) !(t.dead_letters)
     in
     t.dead_letters := keep;
     List.iter
       (fun (group, x) ->
         let on_tree =
           match Hashtbl.find_opt a.a_dcdm group with
           | Some d -> Mtree.Tree.on_tree (Mtree.Dcdm.tree d) x
           | None -> false
         in
         if (not on_tree) && IT.mem t.entries (pk x group) then
           send_invalidate t a group x)
       (List.sort_uniq
          (fun (g1, x1) (g2, x2) ->
            match Int.compare g1 g2 with 0 -> Int.compare x1 x2 | c -> c)
          retry)
   end);
  (* Detection pins: both fire in the foreground so a scripted
     partition or heal recovers even in a run with no other traffic to
     keep the engine alive. *)
  match t.standby with
  | None -> ()
  | Some sb ->
    let reachable =
      Eventsim.Routes.distance (N.routes t.net) ~src:sb.sb_node ~dst:t.primary
      < infinity
    in
    if not sb.sb_auth.a_active then begin
      if (not t.primary_auth.a_failed) && not reachable then
        Eventsim.Engine.schedule (N.engine t.net)
          ~delay:(sb.takeover_after +. (2.0 *. sb.heartbeat_interval))
          (fun () -> maybe_takeover t sb)
    end
    else if t.primary_auth.a_active && (not t.primary_auth.a_failed) && reachable
    then
      (* Split-brain heal: the next announce reaches the stale primary,
         which adopts the higher epoch, steps down and resyncs. *)
      Eventsim.Engine.schedule (N.engine t.net) ~delay:sb.heartbeat_interval
        (fun () ->
          if t.primary_auth.a_active && sb.sb_auth.a_active then
            N.unicast t.net ~src:sb.sb_node ~dst:t.primary
              (Message.Scmp_announce
                 { auth = sb.sb_node; epoch = sb.sb_auth.a_epoch }))

(* ---- message dispatch ---- *)

(* Control requests optionally pass through the m-router's processing
   station (its network processors); without one they run instantly. *)
let mrouter_work t job =
  match t.cpu with
  | None -> job ()
  | Some (station, service_time) -> Eventsim.Server.submit station ~service_time job

let is_request msg kind seq =
  match (kind, msg) with
  | Message.Join, Message.Scmp_join r -> r.seq = seq
  | Message.Leave, Message.Scmp_leave r -> r.seq = seq
  | Message.Graft, Message.Scmp_graft r -> r.seq = seq
  | (Message.Join | Message.Leave | Message.Graft), _ -> false

(* A DR request lands at [x]: an active authority processes it; a
   deposed one hands it on to the authority of the regime it adopted
   (covering DRs that have not yet learned of the takeover). *)
let route_request t x msg kind group dr seq =
  match auth_at t x with
  | Some a when a.a_active ->
    mrouter_work t (fun () -> handle_request t a kind group dr seq)
  | Some _ when t.view.(x) <> x -> N.unicast t.net ~src:x ~dst:t.view.(x) msg
  | Some _ | None -> ()

let rec handle_message t x ~from msg =
  (* A failed m-router is deaf: everything addressed to it is lost,
     including heartbeats — which is precisely how the standby finds
     out. *)
  match auth_at t x with
  | Some a when a.a_failed -> ()
  | _ -> (
    match msg with
    | Message.Data { group; seq; _ } -> handle_data t x ~from msg group seq
    | Message.Encap { group; src; seq } -> (
      match auth_at t x with
      | Some a when a.a_active -> handle_encap t a group src seq
      | Some _ when t.view.(x) <> x ->
        (* deposed: hand the payload on to the adopted regime *)
        N.unicast t.net ~src:x ~dst:t.view.(x) msg
      | Some _ | None -> ())
    | Message.Scmp_join { group; dr; seq } ->
      route_request t x msg Message.Join group dr seq
    | Message.Scmp_leave { group; dr; seq } ->
      route_request t x msg Message.Leave group dr seq
    | Message.Scmp_graft { group; dr; seq } ->
      route_request t x msg Message.Graft group dr seq
    | Message.Scmp_req_ack { group; dr; kind; seq; epoch } ->
      if x = dr && not (fence t x epoch) then begin
        adopt t x epoch;
        match Rel.find t.requests (pk dr group) with
        | Some msg when is_request msg kind seq ->
          Rel.ack t.requests (pk dr group)
        | Some _ | None -> ()
      end
    | Message.Scmp_reliable { token; inner } ->
      (* Ack over the arrival link first, then process the payload
         exactly once (a retransmitted frame is re-acked, not
         re-processed). *)
      N.transmit t.net ~src:x ~dst:from (Message.Scmp_ack { token });
      if not (Hashtbl.mem t.rel_seen token) then begin
        Hashtbl.replace t.rel_seen token ();
        handle_message t x ~from inner
      end
    | Message.Scmp_ack { token } -> (
      match Rel.find t.frames token with
      | Some f when x = f.f_src -> Rel.ack t.frames token
      | Some _ | None -> ())
    | Message.Scmp_tree { group; epoch; packet } ->
      if not (fence t x epoch) then begin
        adopt t x epoch;
        handle_tree_packet t x ~from ~ep:epoch group packet
      end
    | Message.Scmp_branch { group; epoch; path } ->
      if not (fence t x epoch) then begin
        adopt t x epoch;
        handle_branch t x ~from ~ep:epoch group path
      end
    | Message.Scmp_prune { group; from = p; epoch } ->
      if not (fence t x epoch) then begin
        adopt t x epoch;
        handle_prune t x group ~from:p
      end
    | Message.Scmp_invalidate { group; token; epoch } ->
      if not (fence t x epoch) then begin
        adopt t x epoch;
        (match entry_opt t x group with
        | Some e when not e.member -> drop_entry t x group
        | Some _ | None -> ());
        (* End-to-end ack to the authority that issued it. *)
        N.unicast t.net ~src:x ~dst:from (Message.Scmp_ack { token })
      end
    | Message.Scmp_replicate { group; dr; joined; epoch } -> (
      match t.standby with
      | Some sb when x = sb.sb_node ->
        (* A standby that took over fences the deposed primary's
           replication stream instead of mirroring it. *)
        if not (fence t x epoch) then mirror_apply sb group dr joined
      | Some _ | None -> ())
    | Message.Scmp_heartbeat { from = probe; seq; epoch } ->
      if x = t.primary then begin
        adopt t x epoch;
        N.unicast t.net ~background:true ~src:x ~dst:probe
          (Message.Scmp_heartbeat_ack { seq; epoch = t.node_epoch.(x) })
      end
    | Message.Scmp_heartbeat_ack { seq = _; epoch } -> (
      match t.standby with
      | Some sb when x = sb.sb_node ->
        adopt t x epoch;
        sb.last_ack <- Eventsim.Engine.now (N.engine t.net)
      | Some _ | None -> ())
    | Message.Scmp_announce { auth; epoch } ->
      if epoch > t.node_epoch.(x) then begin
        Hashtbl.replace t.epoch_owner epoch auth;
        adopt t x epoch
      end
      else if epoch < t.node_epoch.(x) then ignore (fence t x epoch)
    | Message.Scmp_resync { group; token; members; left; seen; relays; epoch }
      ->
      (* Ack end-to-end even when fenced: the deposed sender's
         retransmission must stop either way. *)
      N.unicast t.net ~src:x ~dst:from (Message.Scmp_ack { token });
      if (not (fence t x epoch)) && not (Hashtbl.mem t.rel_seen token) then begin
        Hashtbl.replace t.rel_seen token ();
        match auth_at t x with
        | Some a when a.a_active && not a.a_failed ->
          mrouter_work t (fun () ->
              handle_resync t a group ~members ~left ~seen ~relays)
        | Some _ | None -> ()
      end
    | Message.Pim_join _ | Message.Pim_prune _ | Message.Cbt_join _
    | Message.Cbt_join_ack _ | Message.Cbt_quit _ | Message.Dvmrp_prune _
    | Message.Dvmrp_graft _ | Message.Mospf_lsa _ | Message.Hpim_sync _
    | Message.Hpim_ack _ ->
      (* Foreign-protocol traffic: never generated in an SCMP domain. *)
      ())

let make_authority node ~active ~epoch =
  {
    an = node;
    a_active = active;
    a_epoch = epoch;
    a_failed = false;
    a_dcdm = Hashtbl.create 8;
    a_members = Hashtbl.create 8;
    a_seen = IT.create 16;
  }

let create ?delivery ?(distribution = Incremental) ?standby ?(heartbeat_interval = 1.0)
    ?(takeover_after = 3.0) ?(install_handlers = true) ?cpu net ~mrouter () =
  (* the reliable transport's base timeout and the sends one request
     or frame may take *)
  let rto = 0.25 and max_attempts = 6 in
  let g = N.graph net in
  let engine = N.engine net in
  let n = Netgraph.Graph.node_count g in
  let view = Array.make n mrouter in
  let entries = IT.create 64 in
  let dead_letters = ref [] in
  let requests =
    Rel.create engine ~rto ~max_attempts ~rtt:(request_rtt net view)
      ~resend:(resend_request net view) ~settled:(request_completed entries)
      ~give_up:(fun _ _ -> ())
  in
  let frames =
    Rel.create engine ~rto ~max_attempts
      ~rtt:(fun _ _ -> 0.0)
      ~resend:(resend_frame net)
      ~settled:(fun _ _ -> false)
      ~give_up:(dead_letter dead_letters)
  in
  let standby_state =
    Option.map
      (fun sb_node ->
        {
          sb_node;
          sb_auth = make_authority sb_node ~active:false ~epoch:0;
          heartbeat_interval;
          takeover_after;
          mirror = Hashtbl.create 8;
          last_ack = Eventsim.Engine.now engine;
          hb_seq = 0;
        })
      standby
  in
  let epoch_owner = Hashtbl.create 4 in
  Hashtbl.replace epoch_owner 1 mrouter;
  let base_apsp = Netgraph.Apsp.compute g in
  Eventsim.Routes.share (N.routes net) base_apsp;
  let t =
    {
      net;
      primary = mrouter;
      primary_auth = make_authority mrouter ~active:true ~epoch:1;
      active = mrouter;
      standby = standby_state;
      cpu;
      rto;
      apsp = base_apsp;
      base_apsp;
      distribution;
      node_epoch = Array.make n 1;
      view;
      epoch_owner;
      entries;
      pending_iface = IT.create 16;
      ctl_seq = 0;
      requests;
      tokens = 0;
      frames;
      rel_seen = Hashtbl.create 64;
      dead_letters;
      delivery;
      dark = Hashtbl.create 8;
      blackouts = [];
      tree_pkts = 0;
      branch_pkts = 0;
      invalidations = 0;
      tree_computes = 0;
      tree_compute_s = 0.0;
      repairs = 0;
      repair_unconverged = 0;
      repair_latencies = [];
      fenced = 0;
      stepdowns = 0;
      resyncs = 0;
    }
  in
  if install_handlers then
    for x = 0 to n - 1 do
      N.set_handler net x (fun _net ~from msg -> handle_message t x ~from msg)
    done;
  N.on_topology_change net (fun () -> on_topology_change t);
  (match t.standby with
  | None -> ()
  | Some sb ->
    (* Keep-alive probes forever (background: they never block a
       run-to-quiescence). Each tick also re-examines the ack age;
       after a takeover the loop turns into the announce beacon that
       deposes a still-active stale primary. *)
    Eventsim.Engine.every engine ~interval:sb.heartbeat_interval ~background:true
      (fun () ->
        if not sb.sb_auth.a_active then begin
          sb.hb_seq <- sb.hb_seq + 1;
          N.unicast t.net ~background:true ~src:sb.sb_node ~dst:t.primary
            (Message.Scmp_heartbeat
               { from = sb.sb_node; seq = sb.hb_seq;
                 epoch = t.node_epoch.(sb.sb_node) });
          maybe_takeover t sb
        end
        else if t.primary_auth.a_active && not t.primary_auth.a_failed then
          N.unicast t.net ~background:true ~src:sb.sb_node ~dst:t.primary
            (Message.Scmp_announce
               { auth = sb.sb_node; epoch = sb.sb_auth.a_epoch })));
  t

let handle = handle_message

(* ---- host-side events (the IGMP boundary, §III.B/C) ---- *)

let host_join t ~group x =
  (match entry_opt t x group with
  | Some e -> e.member <- true
  | None -> IT.replace t.pending_iface (pk x group) ());
  submit_request t ~group ~dr:x Message.Join

let host_leave t ~group x =
  (match entry_opt t x group with
  | None -> IT.remove t.pending_iface (pk x group)
  | Some e ->
    e.member <- false;
    if e.downstream = [] && not (is_active_root t x) then begin
      match e.upstream with
      | Some up ->
        drop_entry t x group;
        rel_transmit t ~src:x ~dst:up
          (Message.Scmp_prune { group; from = x; epoch = t.node_epoch.(x) })
      | None -> drop_entry t x group
    end);
  submit_request t ~group ~dr:x Message.Leave

let send_data t ~group ~src ~seq = originate_data t group ~src ~seq

