module N = Eventsim.Netsim

type node = Message.node

(* star-G state: the unidirectional RP tree. [pruned] records which
   (child, source) pairs asked for (S,G,rpt) pruning. *)
type rpt_entry = {
  mutable upstream : node option;  (* toward the RP; None at the RP *)
  mutable downstream : node list;
  mutable member : bool;
  pruned : (node * node, unit) Hashtbl.t;  (* (child, source) *)
}

(* (S,G) state: the post-switchover source tree. *)
type spt_entry = {
  mutable s_upstream : node option;  (* toward the source; None at its DR *)
  mutable s_downstream : node list;
}

type t = {
  net : Message.t N.t;
  rp : node;
  spt_switchover : bool;
  rpt : (node * Message.group, rpt_entry) Hashtbl.t;
  spt : (node * Message.group * node, spt_entry) Hashtbl.t;
  switched : (node * Message.group * node, unit) Hashtbl.t;
  (* exactly-once hand-off to the subnet across the RPT->SPT
     transition window *)
  delivered : (node * Message.group * int, unit) Hashtbl.t;
  delivery : Delivery.t option;
}

let rpt_opt t x group = Hashtbl.find_opt t.rpt (x, group)

let rpt_entry t x group =
  match rpt_opt t x group with
  | Some e -> e
  | None ->
    let e =
      { upstream = None; downstream = []; member = false; pruned = Hashtbl.create 4 }
    in
    Hashtbl.replace t.rpt (x, group) e;
    e

let spt_opt t x group src = Hashtbl.find_opt t.spt (x, group, src)

let spt_entry t x group src =
  match spt_opt t x group src with
  | Some e -> e
  | None ->
    let e = { s_upstream = None; s_downstream = [] } in
    Hashtbl.replace t.spt (x, group, src) e;
    e

let next_hop t x dst = Eventsim.Routes.next_hop (N.routes t.net) ~src:x ~dst

(* A source's own subnet never counts its packet as a network delivery
   (it has it locally); the seq table makes the RPT->SPT transition
   exactly-once. *)
let deliver_local t x group src seq =
  if x <> src && not (Hashtbl.mem t.delivered (x, group, seq)) then begin
    Hashtbl.replace t.delivered (x, group, seq) ();
    match t.delivery with
    | Some d -> Delivery.record d ~seq ~at_router:x
    | None -> ()
  end

(* ---- star-G join: hop-by-hop toward the RP, installing state ---- *)

let rec send_rpt_join t x group =
  (* called at a router that needs star-G state and has none *)
  if x <> t.rp then begin
    match next_hop t x t.rp with
    | None -> ()
    | Some up ->
      let e = rpt_entry t x group in
      e.upstream <- Some up;
      N.transmit t.net ~src:x ~dst:up (Message.Pim_join { group; src = None; from = x })
  end

and handle_rpt_join t x group ~from =
  let existed =
    match rpt_opt t x group with
    | Some e -> e.upstream <> None || x = t.rp
    | None -> x = t.rp
  in
  let e = rpt_entry t x group in
  if not (List.mem from e.downstream) then e.downstream <- e.downstream @ [ from ];
  (* a refreshed branch cancels any (S,G,rpt) prunes it had *)
  Hashtbl.iter
    (fun (d, s) () -> if d = from then Hashtbl.remove e.pruned (d, s))
    (Hashtbl.copy e.pruned);
  if not existed then send_rpt_join t x group

(* ---- SPT switchover machinery ---- *)

let send_spt_join t x group src =
  if x <> src then begin
    match next_hop t x src with
    | None -> ()
    | Some up ->
      let e = spt_entry t x group src in
      e.s_upstream <- Some up;
      N.transmit t.net ~src:x ~dst:up
        (Message.Pim_join { group; src = Some src; from = x })
  end

let handle_spt_join t x group src ~from =
  let existed =
    match spt_opt t x group src with
    | Some e -> e.s_upstream <> None || x = src
    | None -> x = src
  in
  let e = spt_entry t x group src in
  if not (List.mem from e.s_downstream) then
    e.s_downstream <- e.s_downstream @ [ from ];
  if not existed then send_spt_join t x group src

let switchover t x group src =
  if
    t.spt_switchover && x <> src
    && not (Hashtbl.mem t.switched (x, group, src))
  then begin
    Hashtbl.replace t.switched (x, group, src) ();
    send_spt_join t x group src;
    (* and shed the source's packets from the RP-tree leg *)
    match rpt_opt t x group with
    | Some e -> (
      match e.upstream with
      | Some up ->
        N.transmit t.net ~src:x ~dst:up
          (Message.Pim_prune { group; src = Some src; rpt = true; from = x })
      | None -> ())
    | None -> ()
  end

(* (S,G,rpt) prune: mark the child; propagate when nothing downstream
   of us still wants the source via the RP tree. *)
let handle_rpt_prune t x group src ~from =
  match rpt_opt t x group with
  | None -> ()
  | Some e ->
    Hashtbl.replace e.pruned (from, src) ();
    let any_live =
      List.exists (fun d -> not (Hashtbl.mem e.pruned (d, src))) e.downstream
    in
    let wants_locally =
      e.member && not (Hashtbl.mem t.switched (x, group, src))
    in
    if (not any_live) && not wants_locally then begin
      match e.upstream with
      | Some up ->
        N.transmit t.net ~src:x ~dst:up
          (Message.Pim_prune { group; src = Some src; rpt = true; from = x })
      | None -> ()
    end

(* ---- leaving ---- *)

let handle_star_prune t x group ~from =
  match rpt_opt t x group with
  | None -> ()
  | Some e ->
    e.downstream <- List.filter (fun d -> d <> from) e.downstream;
    if e.downstream = [] && (not e.member) && x <> t.rp then begin
      (match e.upstream with
      | Some up ->
        N.transmit t.net ~src:x ~dst:up
          (Message.Pim_prune { group; src = None; rpt = false; from = x })
      | None -> ());
      Hashtbl.remove t.rpt (x, group)
    end

let handle_spt_prune t x group src ~from =
  match spt_opt t x group src with
  | None -> ()
  | Some e ->
    e.s_downstream <- List.filter (fun d -> d <> from) e.s_downstream;
    if e.s_downstream = [] && x <> src then begin
      (match e.s_upstream with
      | Some up ->
        N.transmit t.net ~src:x ~dst:up
          (Message.Pim_prune { group; src = Some src; rpt = false; from = x })
      | None -> ());
      Hashtbl.remove t.spt (x, group, src)
    end

(* ---- data plane ---- *)

let forward_rpt t x src msg e ~except =
  List.iter
    (fun d ->
      if d <> except && not (Hashtbl.mem e.pruned (d, src)) then
        N.transmit t.net ~src:x ~dst:d msg)
    e.downstream

let handle_data t x ~from group src seq msg =
  (* SPT leg takes precedence: packets from the source tree upstream *)
  match spt_opt t x group src with
  | Some e when e.s_upstream = Some from ->
    (match rpt_opt t x group with
    | Some r when r.member -> deliver_local t x group src seq
    | _ -> ());
    List.iter (fun d -> N.transmit t.net ~src:x ~dst:d msg) e.s_downstream
  | _ -> (
    (* RP-tree leg: unidirectional, packets flow down from the RP *)
    match rpt_opt t x group with
    | Some e when e.upstream = Some from ->
      if e.member then begin
        deliver_local t x group src seq;
        switchover t x group src
      end;
      forward_rpt t x src msg e ~except:from
    | Some _ | None -> ())

let handle_register t x group src seq =
  if x = t.rp then begin
    match rpt_opt t t.rp group with
    | None -> ()
    | Some e ->
      if e.member then begin
        deliver_local t t.rp group src seq;
        switchover t t.rp group src
      end;
      let msg = Message.Data { group; src; seq } in
      forward_rpt t t.rp src msg e ~except:(-1)
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

let create ?delivery ?(spt_switchover = true) net ~rp () =
  let g = N.graph net in
  let t =
    {
      net;
      rp;
      spt_switchover;
      rpt = Hashtbl.create 32;
      spt = Hashtbl.create 32;
      switched = Hashtbl.create 32;
      delivered = Hashtbl.create 256;
      delivery;
    }
  in
  for x = 0 to Netgraph.Graph.node_count g - 1 do
    N.set_handler net x (fun _net ~from msg -> handle_message t x ~from msg)
  done;
  t

let host_join t ~group x =
  let existed =
    match rpt_opt t x group with
    | Some e -> e.upstream <> None || x = t.rp
    | None -> x = t.rp
  in
  let e = rpt_entry t x group in
  e.member <- true;
  if not existed then send_rpt_join t x group

let host_leave t ~group x =
  (match rpt_opt t x group with
  | None -> ()
  | Some e ->
    e.member <- false;
    if e.downstream = [] && x <> t.rp then begin
      (match e.upstream with
      | Some up ->
        N.transmit t.net ~src:x ~dst:up
          (Message.Pim_prune { group; src = None; rpt = false; from = x })
      | None -> ());
      Hashtbl.remove t.rpt (x, group)
    end);
  (* withdraw from every source tree we switched onto *)
  Hashtbl.iter
    (fun (y, g, s) () ->
      if y = x && g = group then begin
        match spt_opt t x group s with
        | Some e when e.s_downstream = [] ->
          (match e.s_upstream with
          | Some up ->
            N.transmit t.net ~src:x ~dst:up
              (Message.Pim_prune { group; src = Some s; rpt = false; from = x })
          | None -> ());
          Hashtbl.remove t.spt (x, group, s)
        | Some _ | None -> ()
      end)
    (Hashtbl.copy t.switched);
  Hashtbl.iter
    (fun (y, g, s) () ->
      if y = x && g = group then Hashtbl.remove t.switched (y, g, s))
    (Hashtbl.copy t.switched)

(* The source's DR registers every packet to the RP; once receivers
   have switched over, it also forwards natively down its (S,G) tree.
   (No register-stop: real PIM would silence the register path once the
   RP is fully pruned; keeping it is conservative for PIM's overhead.) *)
let send_data t ~group ~src ~seq =
  (match spt_opt t src group src with
  | Some e when e.s_downstream <> [] ->
    let msg = Message.Data { group; src; seq } in
    List.iter (fun d -> N.transmit t.net ~src ~dst:d msg) e.s_downstream
  | Some _ | None -> ());
  N.unicast t.net ~src ~dst:t.rp (Message.Encap { group; src; seq })
(* the source's own subnet gets the packet locally; experiment
   expectations never include the source *)

let on_rp_tree t ~group =
  Hashtbl.fold
    (fun (x, g) _ acc -> if g = group then x :: acc else acc)
    t.rpt []
  |> List.sort Int.compare

let on_spt t ~group ~src =
  Hashtbl.fold
    (fun (x, g, s) _ acc -> if g = group && s = src then x :: acc else acc)
    t.spt []
  |> List.sort Int.compare

let switched_over t ~group ~src x = Hashtbl.mem t.switched (x, group, src)
