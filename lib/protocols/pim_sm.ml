module N = Eventsim.Netsim

type node = Message.node

let pk = Forwarding.pk

type t = {
  net : Message.t N.t;
  rp : node;
  spt_switchover : bool;
  rpt : Forwarding.table;
      (* star-G state, the unidirectional RP tree: upstream toward the
         RP (None at the RP), keyed by [pk router group]; [ep] stays 0 *)
  rpt_pruned : int list Forwarding.map;
      (* under the same key: the (S,G,rpt) prunes the router's children
         sent, each [pk child source] *)
  trees : tree Forwarding.map;  (* (S,G) state, keyed by [pk source group] *)
  delivery : Delivery.t;
}

(* One source's tree for a group: per router, its (S,G) entry on the
   post-switchover source tree (upstream toward the source, None at its
   DR) and whether its DR has switched over to it. *)
and tree = {
  src : node;
  spt : Forwarding.entry option array;
  switched : Bytes.t;
}

let rpt_opt t x group = Forwarding.find_opt t.rpt (pk x group)

(* [e]'s upstream is [from]; compares without building [Some from]. *)
let from_upstream (e : Forwarding.entry) from =
  match e.upstream with Some u -> u = from | None -> false

let star_g t x group =
  match rpt_opt t x group with
  | Some e -> e
  | None ->
    let e = Forwarding.fresh_entry ~member:false ~ep:0 in
    Forwarding.replace t.rpt (pk x group) e;
    e

(* Is [x] on the RP tree already, so a join stops here? *)
let on_rpt t x group =
  x = t.rp || match rpt_opt t x group with Some e -> e.upstream <> None | None -> false

let prunes t x group = Forwarding.find_or t.rpt_pruned (pk x group) ~default:[]

let remove_rpt t x group =
  Forwarding.remove t.rpt (pk x group);
  Forwarding.remove t.rpt_pruned (pk x group)

let no_tree = { src = -1; spt = [||]; switched = Bytes.empty }

let tree t group src =
  let k = pk src group in
  match Forwarding.find_slot t.trees k with
  | -1 ->
    let n = Netgraph.Graph.node_count (N.graph t.net) in
    let tr = { src; spt = Array.make n None; switched = Bytes.make n '\000' } in
    Forwarding.replace t.trees k tr;
    tr
  | i -> Forwarding.value t.trees i

let spt_opt t x group src =
  match Forwarding.find_slot t.trees (pk src group) with
  | -1 -> None
  | i -> (Forwarding.value t.trees i).spt.(x)

let spt_entry t x group src =
  let tr = tree t group src in
  match tr.spt.(x) with
  | Some e -> e
  | None ->
    let e = Forwarding.fresh_entry ~member:false ~ep:0 in
    tr.spt.(x) <- Some e;
    e

let switched t x group src =
  match Forwarding.find_slot t.trees (pk src group) with
  | -1 -> false
  | i -> Bytes.get (Forwarding.value t.trees i).switched x = '\001'

(* Tell [x]'s upstream on a tree that [x] leaves it: the star-G tree
   ([src = None]), or [src]'s packets on the RP tree ([rpt]) or on the
   source tree. *)
let prune_up t x (e : Forwarding.entry) ~group ~src ~rpt =
  match e.upstream with
  | Some up ->
    N.transmit t.net ~src:x ~dst:up (Message.Pim_prune { group; src; rpt; from = x })
  | None -> ()

let next_hop t x dst = Eventsim.Routes.next_hop (N.routes t.net) ~src:x ~dst

(* A source's own subnet never counts its packet as a network delivery
   (it has it locally); [record_once] makes the RPT->SPT transition
   exactly-once. *)
let deliver_local t x src seq =
  if x <> src then Delivery.record_once t.delivery ~seq ~at_router:x

(* ---- star-G join: hop-by-hop toward the RP, installing state ---- *)

let send_rpt_join t x group =
  (* called at a router that needs star-G state and has none *)
  if x <> t.rp then begin
    match next_hop t x t.rp with
    | None -> ()
    | Some up ->
      (star_g t x group).upstream <- Some up;
      N.transmit t.net ~src:x ~dst:up (Message.Pim_join { group; src = None; from = x })
  end

let handle_rpt_join t x group ~from =
  let existed = on_rpt t x group in
  let e = star_g t x group in
  if not (List.mem from e.downstream) then e.downstream <- e.downstream @ [ from ];
  (* a refreshed branch cancels any (S,G,rpt) prunes it had *)
  Forwarding.replace t.rpt_pruned (pk x group)
    (List.filter (fun p -> Forwarding.pk_hi p <> from) (prunes t x group));
  if not existed then send_rpt_join t x group

(* ---- SPT switchover machinery ---- *)

let send_spt_join t x group src =
  if x <> src then begin
    match next_hop t x src with
    | None -> ()
    | Some up ->
      (spt_entry t x group src).upstream <- Some up;
      N.transmit t.net ~src:x ~dst:up
        (Message.Pim_join { group; src = Some src; from = x })
  end

let handle_spt_join t x group src ~from =
  let existed =
    x = src || match spt_opt t x group src with Some e -> e.upstream <> None | None -> false
  in
  let e = spt_entry t x group src in
  if not (List.mem from e.downstream) then e.downstream <- e.downstream @ [ from ];
  if not existed then send_spt_join t x group src

let switchover t x group src =
  if t.spt_switchover && x <> src && not (switched t x group src) then begin
    Bytes.set (tree t group src).switched x '\001';
    send_spt_join t x group src;
    (* and shed the source's packets from the RP-tree leg *)
    match rpt_opt t x group with
    | Some e -> prune_up t x e ~group ~src:(Some src) ~rpt:true
    | None -> ()
  end

(* (S,G,rpt) prune: mark the child; propagate when nothing downstream
   of us still wants the source via the RP tree. *)
let handle_rpt_prune t x group src ~from =
  match rpt_opt t x group with
  | None -> ()
  | Some e ->
    let pruned = prunes t x group in
    let pruned =
      if Forwarding.mem_int (pk from src) pruned then pruned else pk from src :: pruned
    in
    Forwarding.replace t.rpt_pruned (pk x group) pruned;
    let any_live =
      List.exists (fun d -> not (Forwarding.mem_int (pk d src) pruned)) e.downstream
    in
    let wants_locally = e.member && not (switched t x group src) in
    if (not any_live) && not wants_locally then
      prune_up t x e ~group ~src:(Some src) ~rpt:true

(* ---- leaving ---- *)

(* A router with no member and no child leaves the RP tree; one with
   no child leaves a source tree it does not root. *)
let leave_if_idle t x group (e : Forwarding.entry) =
  if e.downstream = [] && (not e.member) && x <> t.rp then begin
    prune_up t x e ~group ~src:None ~rpt:false;
    remove_rpt t x group
  end

let leave_spt_if_idle t x group src (e : Forwarding.entry) =
  if e.downstream = [] && x <> src then begin
    prune_up t x e ~group ~src:(Some src) ~rpt:false;
    (tree t group src).spt.(x) <- None
  end

let handle_star_prune t x group ~from =
  match rpt_opt t x group with
  | None -> ()
  | Some e ->
    e.downstream <- List.filter (fun d -> d <> from) e.downstream;
    leave_if_idle t x group e

let handle_spt_prune t x group src ~from =
  match spt_opt t x group src with
  | None -> ()
  | Some e ->
    e.downstream <- List.filter (fun d -> d <> from) e.downstream;
    leave_spt_if_idle t x group src e

(* ---- data plane ---- *)

let forward_rpt t x group src msg (e : Forwarding.entry) ~except =
  Forwarding.send_down t.net ~src:x ~except ~pruned:(prunes t x group) ~source:src msg
    e.downstream

(* The star-G entry, read in place: [no_rpt] (no upstream, no member)
   stands for a router without one. Never written. *)
let no_rpt = Forwarding.fresh_entry ~member:false ~ep:0
let rpt_or_none t x group = Forwarding.find_or t.rpt (pk x group) ~default:no_rpt

let handle_data t x ~from group src seq msg =
  (* SPT leg takes precedence: packets from the source tree upstream *)
  match spt_opt t x group src with
  | Some e when from_upstream e from ->
    if (rpt_or_none t x group).member then deliver_local t x src seq;
    Forwarding.send_down t.net ~src:x ~except:(-1) ~pruned:[] ~source:src msg e.downstream
  | Some _ | None ->
    (* RP-tree leg: unidirectional, packets flow down from the RP *)
    let e = rpt_or_none t x group in
    if from_upstream e from then begin
      if e.member then begin
        deliver_local t x src seq;
        switchover t x group src
      end;
      forward_rpt t x group src msg e ~except:from
    end

let handle_register t x group src seq =
  if x = t.rp then begin
    match Forwarding.find_slot t.rpt (pk x group) with
    | -1 -> ()
    | i ->
      let e = Forwarding.value t.rpt i in
      if e.member then begin
        deliver_local t x src seq;
        switchover t x group src
      end;
      let msg = Message.Data { group; src; seq } in
      forward_rpt t x group src msg e ~except:(-1)
  end

let handle_message t x ~from msg =
  match msg with
  | Message.Data { group; src; seq } -> handle_data t x ~from group src seq msg
  | Message.Encap { group; src; seq } -> handle_register t x group src seq
  | Message.Pim_join { group; src = None; from = f } -> handle_rpt_join t x group ~from:f
  | Message.Pim_join { group; src = Some s; from = f } ->
    handle_spt_join t x group s ~from:f
  | Message.Pim_prune { group; src = Some s; rpt = true; from = f } ->
    handle_rpt_prune t x group s ~from:f
  | Message.Pim_prune { group; src = Some s; rpt = false; from = f } ->
    handle_spt_prune t x group s ~from:f
  | Message.Pim_prune { group; src = None; rpt = _; from = f } ->
    handle_star_prune t x group ~from:f
  | Message.Scmp_join _ | Message.Scmp_leave _ | Message.Scmp_graft _
  | Message.Scmp_req_ack _ | Message.Scmp_reliable _ | Message.Scmp_ack _
  | Message.Scmp_tree _
  | Message.Scmp_branch _ | Message.Scmp_prune _ | Message.Scmp_invalidate _
  | Message.Scmp_replicate _ | Message.Scmp_heartbeat _
  | Message.Scmp_heartbeat_ack _ | Message.Scmp_announce _
  | Message.Scmp_resync _ | Message.Cbt_join _ | Message.Cbt_join_ack _
  | Message.Cbt_quit _ | Message.Dvmrp_prune _ | Message.Dvmrp_graft _
  | Message.Mospf_lsa _ | Message.Hpim_sync _ | Message.Hpim_ack _ ->
    ()

let create ~delivery ?(spt_switchover = true) net ~rp () =
  let g = N.graph net in
  let t =
    {
      net;
      rp;
      spt_switchover;
      rpt = Forwarding.create ();
      rpt_pruned = Forwarding.map [];
      trees = Forwarding.map no_tree;
      delivery;
    }
  in
  for x = 0 to Netgraph.Graph.node_count g - 1 do
    N.set_handler net x (fun _net ~from msg -> handle_message t x ~from msg)
  done;
  t

let host_join t ~group x =
  let existed = on_rpt t x group in
  (star_g t x group).member <- true;
  if not existed then send_rpt_join t x group

let host_leave t ~group x =
  (match rpt_opt t x group with
  | None -> ()
  | Some e ->
    e.member <- false;
    leave_if_idle t x group e);
  (* withdraw from every source tree we switched onto, in source order *)
  Forwarding.fold
    (fun k tr acc ->
      if Forwarding.pk_lo k = group && Bytes.get tr.switched x = '\001' then tr :: acc
      else acc)
    t.trees []
  |> List.sort (fun a b -> Int.compare a.src b.src)
  |> List.iter (fun tr ->
         Bytes.set tr.switched x '\000';
         Option.iter (leave_spt_if_idle t x group tr.src) tr.spt.(x))

(* The source's DR registers every packet to the RP; once receivers
   have switched over, it also forwards natively down its (S,G) tree.
   (No register-stop: real PIM would silence the register path once the
   RP is fully pruned; keeping it is conservative for PIM's overhead.) *)
let send_data t ~group ~src ~seq =
  (match spt_opt t src group src with
  | Some e when e.downstream <> [] ->
    Forwarding.send_down t.net ~src ~except:(-1) ~pruned:[] ~source:src
      (Message.Data { group; src; seq }) e.downstream
  | Some _ | None -> ());
  N.unicast t.net ~src ~dst:t.rp (Message.Encap { group; src; seq })
(* the source's own subnet gets the packet locally; experiment
   expectations never include the source *)

let on_rp_tree t ~group =
  Forwarding.fold
    (fun k _ acc -> if Forwarding.pk_lo k = group then Forwarding.pk_hi k :: acc else acc)
    t.rpt []
  |> List.sort Int.compare

let on_spt t ~group ~src =
  let spt = (Forwarding.find_or t.trees (pk src group) ~default:no_tree).spt in
  let rec collect x acc =
    if x < 0 then acc else collect (x - 1) (if Option.is_some spt.(x) then x :: acc else acc)
  in
  collect (Array.length spt - 1) []

let switched_over t ~group ~src x = switched t x group src
