type node = Netgraph.Graph.node

type pkt_class = [ `Data | `Control ]

type drop_reason = Loss | No_route | Link_down | Node_down

let drop_reason_label = function
  | Loss -> "loss"
  | No_route -> "no_route"
  | Link_down -> "link_down"
  | Node_down -> "node_down"

type loss_model = {
  rate : float;
  only : pkt_class option;
  rng : Scmp_util.Prng.t;
}

(* Dense-edge-id bitset over [Bytes]. *)
let bitset_make m = Bytes.make ((m + 7) / 8) '\000'

let bit_get bs e =
  Char.code (Bytes.unsafe_get bs (e lsr 3)) land (1 lsl (e land 7)) <> 0

let bit_set bs e =
  let i = e lsr 3 in
  Bytes.unsafe_set bs i
    (Char.unsafe_chr (Char.code (Bytes.unsafe_get bs i) lor (1 lsl (e land 7))))

let bit_clear bs e =
  let i = e lsr 3 in
  Bytes.unsafe_set bs i
    (Char.unsafe_chr
       (Char.code (Bytes.unsafe_get bs i) land lnot (1 lsl (e land 7))))

(* ---------------- In-flight slabs ---------------- *)

(* A free-list slab hands a boxed payload an int ticket so it can ride
   the engine's closure-free fast path ({!Engine.schedule_fast}) as an
   immediate. A freed slot keeps its last value reachable until a later
   alloc overwrites it — in-flight populations are small and
   short-lived and the arrays die with the run, so the stale reference
   is accepted (the alternative, a dummy ['a] to blank with, does not
   exist). *)
type 'a slab = {
  mutable s_vals : 'a array;
  mutable s_link : int array;  (* free-list chain; -1 ends it *)
  mutable s_free : int;
}

let slab_create () = { s_vals = [||]; s_link = [||]; s_free = -1 }

let slab_alloc s v =
  if s.s_free >= 0 then begin
    let i = s.s_free in
    s.s_free <- Array.unsafe_get s.s_link i;
    Array.unsafe_set s.s_vals i v;
    i
  end
  else begin
    (* grow with [v] as the filler — no dummy payload fabricated *)
    let cap = Array.length s.s_vals in
    let ncap = if cap = 0 then 16 else 2 * cap in
    let vals = Array.make ncap v in
    Array.blit s.s_vals 0 vals 0 cap;
    let link = Array.make ncap (-1) in
    for i = cap + 1 to ncap - 2 do
      link.(i) <- i + 1
    done;
    s.s_vals <- vals;
    s.s_link <- link;
    s.s_free <- (if cap + 1 < ncap then cap + 1 else -1);
    cap
  end

let slab_take s i =
  let v = Array.unsafe_get s.s_vals i in
  Array.unsafe_set s.s_link i s.s_free;
  s.s_free <- i;
  v

(* ---------------- Hook sets ---------------- *)

(* Registration prepends (O(1)); iteration walks an in-registration-
   order array materialized lazily after each registration burst — the
   hot paths (charge, drop) iterate allocation-free, and registering N
   hooks costs O(N) total instead of the old [hooks @ [h]] quadratic
   append. *)
type 'h hookset = {
  mutable rev : 'h list;
  mutable arr : 'h array;
  mutable stale : bool;
}

let hookset () = { rev = []; arr = [||]; stale = false }

let hook_add hs h =
  hs.rev <- h :: hs.rev;
  hs.stale <- true

let hook_array hs =
  if hs.stale then begin
    hs.arr <- Array.of_list (List.rev hs.rev);
    hs.stale <- false
  end;
  hs.arr

type 'm t = {
  engine : Engine.t;
  graph : Netgraph.Graph.t;
  (* Edge endpoints by dense edge id, denormalized from the graph for
     the overlay's hot lookups (edge_ok closure, in-flight stamps). *)
  eu : int array;
  ev : int array;
  routes : Routes.t;
  mutable routes_epoch : int;
  classify : 'm -> pkt_class;
  sizeof : ('m -> int) option;
  handlers : ('m t -> from:node -> 'm -> unit) option array;
  mutable data_overhead : float;
  mutable control_overhead : float;
  mutable data_tx : int;
  mutable control_tx : int;
  mutable data_bytes : int;
  mutable control_bytes : int;
  per_link : int array;  (* crossings by edge id *)
  hooks : (src:node -> dst:node -> 'm -> unit) hookset;
  mutable loss : loss_model option;
  mutable dropped : int;
  mutable dropped_loss : int;
  mutable dropped_no_route : int;
  mutable dropped_link_down : int;
  mutable dropped_node_down : int;
  drop_hooks : (reason:drop_reason -> src:node -> dst:node -> 'm -> unit) hookset;
  (* Fault overlay: the base [graph] is immutable; dead links and dead
     nodes are tracked here — a bitset and plain arrays indexed by dense
     edge id — and [routes], a lazy per-source cache filtered through
     this overlay, is incrementally invalidated on every change (only
     entries the fault can affect are dropped). The [*_fails] counters
     record how many times a link/node has gone down — a packet in
     flight captures them at send time, so a failure during the flight
     is detected at the delivery instant even if the element was
     restored meanwhile. *)
  dead_edge : Bytes.t;
  node_down : bool array;
  (* dead edges + down nodes currently in effect; [0] means the
     overlay is clean and SPT builds may skip the edge filter *)
  faults_live : int ref;
  link_fails : int array;  (* by edge id *)
  node_fails : int array;
  topo_hooks : (unit -> unit) hookset;
  (* per-node forwarding engine: deliveries queue for a processor
     before the protocol handler runs *)
  processing : (Server.t * float) option array;
  (* In-flight storage for the closure-free delivery fast path: the
     payload rides as a [msgs] slot, a multi-hop guard as a [paths]
     slot holding [|e0; stamp0; e1; stamp1; ...|]. *)
  msgs : 'm slab;
  paths : int array slab;
  mutable d_edge1 : Engine.dispatch;  (* 0- or 1-edge delivery *)
  mutable d_hop : Engine.dispatch;  (* multi-hop delivery *)
  (* Scratch for the unicast pred-chain walk: hop edges and the node
     sequence, filled from the tail (paths have at most n-1 edges). *)
  scratch_e : int array;
  scratch_n : int array;
}

let engine t = t.engine
let graph t = t.graph
let routes t = t.routes
let routes_epoch t = t.routes_epoch
let classify_of t msg = t.classify msg

let set_handler t x h = t.handlers.(x) <- Some h

let set_node_processing t x station ~service_time =
  if service_time < 0.0 then
    invalid_arg "Netsim.set_node_processing: negative service time";
  t.processing.(x) <- Some (station, service_time)

let set_loss ?only t ~rate ~seed =
  if rate < 0.0 || rate >= 1.0 then
    invalid_arg "Netsim.set_loss: rate must be in [0, 1)";
  t.loss <-
    (if rate = 0.0 then None
     else Some { rate; only; rng = Scmp_util.Prng.create seed })

let dropped t = t.dropped

let dropped_by t reason =
  match reason with
  | Loss -> t.dropped_loss
  | No_route -> t.dropped_no_route
  | Link_down -> t.dropped_link_down
  | Node_down -> t.dropped_node_down

let on_drop t h = hook_add t.drop_hooks h

let note_drop t reason ~src ~dst msg =
  t.dropped <- t.dropped + 1;
  (match reason with
  | Loss -> t.dropped_loss <- t.dropped_loss + 1
  | No_route -> t.dropped_no_route <- t.dropped_no_route + 1
  | Link_down -> t.dropped_link_down <- t.dropped_link_down + 1
  | Node_down -> t.dropped_node_down <- t.dropped_node_down + 1);
  let hs = hook_array t.drop_hooks in
  for i = 0 to Array.length hs - 1 do
    (Array.unsafe_get hs i) ~reason ~src ~dst msg
  done

(* ---------------- Fault overlay ---------------- *)

let node_alive t x = not t.node_down.(x)

let edge_alive t e =
  (not (bit_get t.dead_edge e))
  && node_alive t t.eu.(e)
  && node_alive t t.ev.(e)

let link_alive t a b =
  match Netgraph.Graph.edge_id_ix t.graph a b with
  | -1 -> false
  | e -> edge_alive t e

let live_graph t =
  Netgraph.Graph.filter_links t.graph ~f:(fun l ->
      link_alive t l.Netgraph.Graph.u l.Netgraph.Graph.v)

let dead_link_list t =
  let acc = ref [] in
  for e = Netgraph.Graph.edge_count t.graph - 1 downto 0 do
    if not (edge_alive t e) then acc := (t.eu.(e), t.ev.(e)) :: !acc
  done;
  List.sort
    (fun (a1, b1) (a2, b2) ->
      match Int.compare a1 a2 with 0 -> Int.compare b1 b2 | c -> c)
    !acc

let on_topology_change t h = hook_add t.topo_hooks h

(* Route invalidation happened incrementally before this is called (see
   the fail_*/restore_* functions); reconvergence itself is just the
   epoch bump and the change notification. *)
let reconverge t =
  t.routes_epoch <- t.routes_epoch + 1;
  let hs = hook_array t.topo_hooks in
  for i = 0 to Array.length hs - 1 do
    (Array.unsafe_get hs i) ()
  done

let edge_of t a b msg =
  match Netgraph.Graph.edge_id_ix t.graph a b with
  | -1 -> invalid_arg msg
  | e -> e

let fail_link t a b =
  let e = edge_of t a b "Netsim.fail_link: no such link" in
  if not (bit_get t.dead_edge e) then begin
    bit_set t.dead_edge e;
    incr t.faults_live;
    t.link_fails.(e) <- t.link_fails.(e) + 1;
    Routes.note_edge_down t.routes e;
    reconverge t
  end

let restore_link t a b =
  let e = edge_of t a b "Netsim.restore_link: no such link" in
  if bit_get t.dead_edge e then begin
    bit_clear t.dead_edge e;
    decr t.faults_live;
    (* Only an effective revival invalidates: the link may still be
       severed by a dead endpoint, in which case nothing changed. *)
    if edge_alive t e then Routes.note_edge_up t.routes e;
    reconverge t
  end

(* Batch link faults: used by partition events, where the whole cut-set
   must flip in one atomic step — route invalidation runs per edge, but
   the epoch bump and the topology-change hooks fire once for the whole
   batch, so protocol agents see one reconvergence per cut instead of
   one per severed link. *)
let fail_links t pairs =
  let edges =
    List.map (fun (a, b) -> edge_of t a b "Netsim.fail_links: no such link") pairs
  in
  let effective = ref false in
  List.iter
    (fun e ->
      if not (bit_get t.dead_edge e) then begin
        bit_set t.dead_edge e;
        incr t.faults_live;
        t.link_fails.(e) <- t.link_fails.(e) + 1;
        Routes.note_edge_down t.routes e;
        effective := true
      end)
    edges;
  if !effective then reconverge t

let restore_links t pairs =
  let edges =
    List.map (fun (a, b) -> edge_of t a b "Netsim.restore_links: no such link")
      pairs
  in
  let effective = ref false in
  List.iter
    (fun e ->
      if bit_get t.dead_edge e then begin
        bit_clear t.dead_edge e;
        decr t.faults_live;
        if edge_alive t e then Routes.note_edge_up t.routes e;
        effective := true
      end)
    edges;
  if !effective then reconverge t

(* A node fault is, for routing purposes, the fault of its incident
   edges: cached SPTs reach (or leave) x only across those, so applying
   the edge rule to each is exact. Edges already severed (dead link or
   dead far endpoint) are no-ops for note_edge_down — no valid cached
   tree uses them — and are skipped for note_edge_up. *)
let fail_node t x =
  if x < 0 || x >= Array.length t.node_down then
    invalid_arg "Netsim.fail_node: no such node";
  if not t.node_down.(x) then begin
    t.node_down.(x) <- true;
    incr t.faults_live;
    t.node_fails.(x) <- t.node_fails.(x) + 1;
    Netgraph.Graph.iter_incident t.graph x (fun e _ ->
        Routes.note_edge_down t.routes e);
    reconverge t
  end

let restore_node t x =
  if x < 0 || x >= Array.length t.node_down then
    invalid_arg "Netsim.restore_node: no such node";
  if t.node_down.(x) then begin
    t.node_down.(x) <- false;
    decr t.faults_live;
    Netgraph.Graph.iter_incident t.graph x (fun e _ ->
        if edge_alive t e then Routes.note_edge_up t.routes e);
    reconverge t
  end

(* In-flight guard: the stamp of an edge counts the failures of the
   link and of both endpoints as of the send instant; any change by the
   delivery instant means the packet crossed a failing element. *)
let edge_stamp t e = t.link_fails.(e) + t.node_fails.(t.eu.(e)) + t.node_fails.(t.ev.(e))

(* ---------------- Loss ---------------- *)

(* A crossing consumed the link (and is charged) even when the packet
   then dies; loss is decided per crossing. *)
let lost t ~src ~dst msg =
  match t.loss with
  | None -> false
  | Some { rate; only; rng } ->
    let eligible =
      match (only, t.classify msg) with
      | None, _ -> true
      | Some `Data, `Data -> true
      | Some `Control, `Control -> true
      | Some `Data, `Control | Some `Control, `Data -> false
    in
    if not eligible then false
    else begin
      let dead = Scmp_util.Prng.chance rng rate in
      if dead then note_drop t Loss ~src ~dst msg;
      dead
    end

(* ---------------- Delivery ---------------- *)

(* Fast-path events carry node pairs packed into one immediate: node
   ids are dense and far below 2^31 on any simulable topology. *)
let mask31 = (1 lsl 31) - 1

let finish t ~from dst msg =
  match Array.unsafe_get t.processing dst with
  | None -> (
    match t.handlers.(dst) with Some h -> h t ~from msg | None -> ())
  | Some (station, service_time) ->
    Server.submit station ~service_time (fun () ->
        match t.handlers.(dst) with Some h -> h t ~from msg | None -> ())

(* Delivery of a packet that crossed at most one edge ([e = -1]: none —
   loopback / self-unicast). The obstruction checks replay
   the old [path_obstruction] order exactly: destination liveness, then
   destination stamp, then per-edge endpoint liveness (Node_down), then
   edge death or stamp change (Link_down). *)
let run_edge1 t slot packed e estamp dstamp =
  let msg = slab_take t.msgs slot in
  let from = packed land mask31 and dst = packed lsr 31 in
  if not (node_alive t dst) then note_drop t Node_down ~src:from ~dst msg
  else if t.node_fails.(dst) <> dstamp then
    note_drop t Node_down ~src:from ~dst msg
  else if e >= 0 && not (node_alive t t.eu.(e) && node_alive t t.ev.(e)) then
    note_drop t Node_down ~src:from ~dst msg
  else if e >= 0 && (bit_get t.dead_edge e || edge_stamp t e <> estamp) then
    note_drop t Link_down ~src:from ~dst msg
  else finish t ~from dst msg

(* Multi-hop delivery: the stamped path rides as a [paths] slab slot. *)
let run_hop t slot packed dstamp pslot _ =
  let msg = slab_take t.msgs slot in
  let path = slab_take t.paths pslot in
  let from = packed land mask31 and dst = packed lsr 31 in
  if not (node_alive t dst) then note_drop t Node_down ~src:from ~dst msg
  else if t.node_fails.(dst) <> dstamp then
    note_drop t Node_down ~src:from ~dst msg
  else begin
    let len = Array.length path in
    let rec scan i =
      if i >= len then None
      else begin
        let e = Array.unsafe_get path i in
        if not (node_alive t t.eu.(e) && node_alive t t.ev.(e)) then
          Some Node_down
        else if
          bit_get t.dead_edge e
          || edge_stamp t e <> Array.unsafe_get path (i + 1)
        then Some Link_down
        else scan (i + 2)
      end
    in
    match scan 0 with
    | Some reason -> note_drop t reason ~src:from ~dst msg
    | None -> finish t ~from dst msg
  end

(* Schedule a 0/1-edge delivery: one slab store + one flat event record,
   no closure, no via list. Stamps are captured here — the send
   instant. *)
let send_edge1 t ~background ~at ~from dst e msg =
  let slot = slab_alloc t.msgs msg in
  let estamp = if e >= 0 then edge_stamp t e else 0 in
  Engine.schedule_fast t.engine ~background ~time:at t.d_edge1 slot
    ((dst lsl 31) lor from)
    e estamp t.node_fails.(dst)

(* [e] is the edge crossed, [src]/[dst] its traversal direction (hooks
   and per-class accounting are direction-agnostic; the edge id keys
   the crossing counter). *)
let charge t e ~src ~dst msg =
  let cost = Netgraph.Graph.edge_cost t.graph e in
  let bytes = match t.sizeof with Some f -> f msg | None -> 0 in
  (match t.classify msg with
  | `Data ->
    t.data_overhead <- t.data_overhead +. cost;
    t.data_tx <- t.data_tx + 1;
    t.data_bytes <- t.data_bytes + bytes
  | `Control ->
    t.control_overhead <- t.control_overhead +. cost;
    t.control_tx <- t.control_tx + 1;
    t.control_bytes <- t.control_bytes + bytes);
  t.per_link.(e) <- t.per_link.(e) + 1;
  let hs = hook_array t.hooks in
  for i = 0 to Array.length hs - 1 do
    (Array.unsafe_get hs i) ~src ~dst msg
  done

let transmit t ?(background = false) ~src ~dst msg =
  let e = edge_of t src dst "Netsim.transmit: nodes are not adjacent" in
  if not (edge_alive t e) then
    let reason =
      if node_alive t src && node_alive t dst then Link_down else Node_down
    in
    note_drop t reason ~src ~dst msg
  else begin
    charge t e ~src ~dst msg;
    if not (lost t ~src ~dst msg) then begin
      let delay = Netgraph.Graph.edge_delay t.graph e in
      send_edge1 t ~background
        ~at:(Engine.now t.engine +. delay)
        ~from:src dst e msg
    end
  end

let unicast t ?(background = false) ~src ~dst msg =
  if not (node_alive t src && node_alive t dst) then
    note_drop t Node_down ~src ~dst msg
  else if src = dst then
    send_edge1 t ~background ~at:(Engine.now t.engine) ~from:src dst (-1) msg
  else begin
    let r = Routes.spt t.routes ~src in
    if not (Netgraph.Dijkstra.reachable r dst) then
      note_drop t No_route ~src ~dst msg
    else begin
      (* Walk the predecessor chain dst→src into the scratch tail — the
         same hop sequence [Routes.path] would materialize, without the
         node-list and hop-tuple allocations. *)
      let se = t.scratch_e and sn = t.scratch_n in
      let last = Array.length sn - 1 in
      Array.unsafe_set sn last dst;
      let i = ref last in
      let y = ref dst in
      while !y <> src do
        let j = !i in
        Array.unsafe_set se (j - 1) (Netgraph.Dijkstra.parent_edge_ix r !y);
        let p = Netgraph.Dijkstra.parent_ix r !y in
        Array.unsafe_set sn (j - 1) p;
        i := j - 1;
        y := p
      done;
      let start = !i in
      (* Charge every hop now, in path order (the loss RNG consumes one
         draw per eligible crossing, so the order is semantics);
         schedule a single delivery at the path's total delay. Per-hop
         timing is not observable above IP, so this is equivalent to
         hop-by-hop forwarding and far cheaper. *)
      let rec hop j =
        if j >= last then true
        else begin
          let e = Array.unsafe_get se j in
          let a = Array.unsafe_get sn j and b = Array.unsafe_get sn (j + 1) in
          charge t e ~src:a ~dst:b msg;
          if lost t ~src:a ~dst:b msg then false else hop (j + 1)
        end
      in
      if hop start then begin
        (* The converged route distance is the path's delay, summed
           head-to-tail by Dijkstra itself — no per-edge recompute. *)
        let delay = Netgraph.Dijkstra.dist r dst in
        let at = Engine.now t.engine +. delay in
        let nhops = last - start in
        if nhops = 1 then
          send_edge1 t ~background ~at ~from:src dst
            (Array.unsafe_get se start)
            msg
        else begin
          let stamped = Array.make (2 * nhops) 0 in
          for j = 0 to nhops - 1 do
            let e = Array.unsafe_get se (start + j) in
            Array.unsafe_set stamped (2 * j) e;
            Array.unsafe_set stamped ((2 * j) + 1) (edge_stamp t e)
          done;
          let slot = slab_alloc t.msgs msg in
          let pslot = slab_alloc t.paths stamped in
          Engine.schedule_fast t.engine ~background ~time:at t.d_hop slot
            ((dst lsl 31) lor src)
            t.node_fails.(dst) pslot 0
        end
      end
    end
  end

let create ?sizeof engine graph ~classify =
  let n = Netgraph.Graph.node_count graph in
  let m = Netgraph.Graph.edge_count graph in
  (* The overlay tables exist before the record so the routes cache can
     close over them: an SPT is always built through the *current*
     liveness, and invalidation notices keep cached entries exact. *)
  let eu = Array.init m (Netgraph.Graph.edge_u graph) in
  let ev = Array.init m (Netgraph.Graph.edge_v graph) in
  let dead_edge = bitset_make m in
  let node_down = Array.make n false in
  let faults_live = ref 0 in
  let edge_ok e =
    (not (bit_get dead_edge e))
    && (not node_down.(eu.(e)))
    && not node_down.(ev.(e))
  in
  let all_ok () = !faults_live = 0 in
  let nop = Engine.dispatch (fun _ _ _ _ _ -> ()) in
  let t =
    {
      engine;
      graph;
      eu;
      ev;
      routes = Routes.compute ~edge_ok ~all_ok graph;
      routes_epoch = 0;
      classify;
      sizeof;
      handlers = Array.make n None;
      data_overhead = 0.0;
      control_overhead = 0.0;
      data_tx = 0;
      control_tx = 0;
      data_bytes = 0;
      control_bytes = 0;
      per_link = Array.make m 0;
      hooks = hookset ();
      loss = None;
      dropped = 0;
      dropped_loss = 0;
      dropped_no_route = 0;
      dropped_link_down = 0;
      dropped_node_down = 0;
      drop_hooks = hookset ();
      dead_edge;
      node_down;
      faults_live;
      link_fails = Array.make m 0;
      node_fails = Array.make n 0;
      topo_hooks = hookset ();
      processing = Array.make n None;
      msgs = slab_create ();
      paths = slab_create ();
      d_edge1 = nop;
      d_hop = nop;
      scratch_e = Array.make (max n 1) 0;
      scratch_n = Array.make (max n 1) 0;
    }
  in
  (* The dispatchers close over [t] once; every fast event shares them. *)
  t.d_edge1 <- Engine.dispatch (run_edge1 t);
  t.d_hop <- Engine.dispatch (run_hop t);
  t

let data_overhead t = t.data_overhead
let control_overhead t = t.control_overhead
let data_transmissions t = t.data_tx
let control_transmissions t = t.control_tx

let link_crossings t (a, b) =
  match Netgraph.Graph.edge_id_opt t.graph a b with
  | Some e -> t.per_link.(e)
  | None -> 0

let observe t m =
  let set_c name v = Obs.Metrics.set_counter (Obs.Metrics.counter m name) v in
  let set_g name v = Obs.Metrics.set (Obs.Metrics.gauge m name) v in
  set_c "net/data/transmissions" t.data_tx;
  set_c "net/control/transmissions" t.control_tx;
  set_c "net/data/bytes" t.data_bytes;
  set_c "net/control/bytes" t.control_bytes;
  set_c "net/dropped" t.dropped;
  set_c "net/dropped/loss" t.dropped_loss;
  set_c "net/dropped/no_route" t.dropped_no_route;
  set_c "net/dropped/link_down" t.dropped_link_down;
  set_c "net/dropped/node_down" t.dropped_node_down;
  set_c "net/routes_epoch" t.routes_epoch;
  set_c "routes/spt_computed" (Routes.computed t.routes);
  set_c "routes/spt_shared" (Routes.shared t.routes);
  set_c "routes/invalidated" (Routes.invalidated t.routes);
  set_g "net/data/cost" t.data_overhead;
  set_g "net/control/cost" t.control_overhead;
  set_c "net/links_used"
    (Array.fold_left (fun acc n -> if n > 0 then acc + 1 else acc) 0 t.per_link);
  set_c "net/max_link_crossings" (Array.fold_left max 0 t.per_link)

let on_transmit t h = hook_add t.hooks h
